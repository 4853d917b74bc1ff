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
A seeded sample of the draws also runs as config files through
``fdrelay solve --oracle``, which must exit 0, 1 or 2.
"""

import io
import random
import warnings
from collections import Counter
from dataclasses import fields, replace
from enum import Enum

import pytest

from fdrelay.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, cli_main
from fdrelay.config import (ConfigError, ScenarioParams, parse_params,
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
# Draws per seed that the CLI sample runs, and that sample's seed.
_CLI_SAMPLE = 20
_CLI_SEED = 15


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


def _config_text(params: ScenarioParams) -> str:
    """Every key of ``params`` as config text, one ``key = value`` line
    each, which ``parse_params`` reads back to the same parameters."""
    lines = []
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, bool):
            text = str(value).lower()
        elif isinstance(value, Enum):
            text = value.value
        else:
            text = repr(value)
        lines.append(f"{f.name} = {text}\n")
    return "".join(lines)


def test_cli_sample_exits_with_a_code(tmp_path):
    """A seeded sample of the draws, written as config files: under
    warnings as errors, ``fdrelay solve --oracle`` on each exits 0, 1 or 2
    and writes no traceback."""
    pick = random.Random(_CLI_SEED)
    codes = Counter()
    for seed in _SEEDS:
        rng = random.Random(seed)
        draws = [_draw(rng) for _ in range(_DRAWS)]
        for k, params in enumerate(pick.sample(draws, _CLI_SAMPLE)):
            path = tmp_path / f"draw-{seed}-{k}.cfg"
            path.write_text(_config_text(params), encoding="utf-8")
            assert parse_params(path.read_text(encoding="utf-8")) == params
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli_main(["solve", "--config", str(path), "--oracle"],
                                out, err)
            assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_CONFIG), params
            assert "Traceback" not in err.getvalue(), params
            codes[code] += 1
    assert set(codes) == {EXIT_OK, EXIT_INFEASIBLE, EXIT_CONFIG}
    print("exit codes:", dict(sorted(codes.items())))
