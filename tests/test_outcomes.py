"""Every draw the config format accepts ends in one of three outcomes.

Seeded ``random.Random`` draws change one to four float keys of
``ScenarioParams`` at a time, over every strategy, PA kind, circuit
accounting and ``asymptotic_1ts``, to an edge value (0, -0.0, 5e-324,
+-1e300), the default scaled by 10**-2 or 10**2, or an in-range value (the
default scaled by 0.5 to 2).  Under warnings as errors, each draw must end
in exactly one of:

- a ``ConfigError`` from a build inside ``unbuildable_is_config_error``
- an ``InfeasibleError`` that names its cause
- a ``Schedule``

and ``verify`` must judge every schedule with a report (or an
``InfeasibleError``), both against its own scenario and against a
neighbour's: the draw with 3 dB less self-cancellation and a 5% longer
a-r distance.  No outcome is a traceback.  The verdicts are counted, not
asserted: a FAILED report is a verdict too (ROADMAP items 2, 12 and 13).
"""

import random
import warnings
from collections import Counter
from dataclasses import fields, replace

import pytest

from fdrelay.config import (ConfigError, ScenarioParams,
                            unbuildable_is_config_error)
from fdrelay.model import (CircuitAccounting, InfeasibleError, PaKind,
                           Schedule, Strategy)
from fdrelay.oracle import OracleReport, verify
from fdrelay.solver import solve

from conftest import neighbour

FLOAT_KEYS = [f.name for f in fields(ScenarioParams)
              if f.type in ("float", float)]
EDGES = (0.0, -0.0, 5e-324, 1e300, -1e300)

# Draws per seed, and the seeds.
_DRAWS = 250
_SEEDS = range(6)


def _draw(rng: random.Random) -> ScenarioParams:
    params = ScenarioParams(
        strategy=rng.choice(list(Strategy)), pa=rng.choice(list(PaKind)),
        accounting=rng.choice(list(CircuitAccounting)),
        asymptotic_1ts=rng.random() < 0.25)
    changes = {}
    for key in rng.sample(FLOAT_KEYS, rng.randint(1, 4)):
        default, kind = getattr(params, key), rng.random()
        if kind < 0.3:
            changes[key] = rng.choice(EDGES)
        elif kind < 0.6:
            changes[key] = default * 10.0 ** rng.choice((-2, 2))
        else:
            changes[key] = default * rng.uniform(0.5, 2.0)
    return replace(params, **changes)


def _outcome(params: ScenarioParams):
    """("config" | "infeasible" | "ok", the scenario, the schedule)."""
    try:
        with unbuildable_is_config_error():
            s = params.build()
    except ConfigError:
        return "config", None, None
    try:
        sched = solve(s)
    except InfeasibleError as err:
        assert err.cause, params
        return "infeasible", s, None
    assert isinstance(sched, Schedule), params
    return "ok", s, sched


def _judge(s, sched) -> str:
    """The verdict of ``verify(s, sched)``: "OK", "FAILED" or
    "infeasible"."""
    try:
        report = verify(s, sched)
    except InfeasibleError as err:
        assert err.cause
        return "infeasible"
    assert isinstance(report, OracleReport)
    return "OK" if report.ok else "FAILED"


@pytest.mark.parametrize("seed", _SEEDS)
def test_every_draw_has_one_outcome(seed):
    rng = random.Random(seed)
    counts = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(_DRAWS):
            params = _draw(rng)
            kind, s, sched = _outcome(params)
            counts[kind] += 1
            if kind != "ok":
                continue
            counts[f"own {_judge(s, sched)}"] += 1
            near_kind, near_s, near_sched = _outcome(neighbour(params))
            if near_kind == "ok":
                counts[f"neighbour {_judge(s, near_sched)}"] += 1
                counts[f"neighbour {_judge(near_s, sched)}"] += 1
    assert counts["config"] + counts["infeasible"] + counts["ok"] == _DRAWS
    assert counts["ok"] and counts["infeasible"] and counts["config"]
    print(f"seed {seed}:", dict(sorted(counts.items())))
