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
a-r distance.  No outcome is a traceback.  The verdicts are counted, and
each FAILED verdict of a draw on its own schedule is classed by its cause
(:func:`_failed_class`); each class the draws reach is a strict xfail that
names the ROADMAP item that mends it, and any other FAILED fails.  A
FAILED verdict on a neighbour's schedule is not classed: that schedule is
not the scenario's optimum, so the oracle may rightly fail it.  A seeded
sample of the draws also runs as config files through
``fdrelay solve --oracle``, which must exit 0, 1 or 2, and a seeded sample
of their schedules is held to a dense scan of the durations, without
``verify``.
"""

import io
import math
import random
import warnings
from collections import Counter
from dataclasses import fields, replace
from enum import Enum

import numpy as np
import pytest

from fdrelay.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, cli_main
from fdrelay.config import (ConfigError, ScenarioParams, parse_params,
                            unbuildable_is_config_error)
from fdrelay.model import (CircuitAccounting, InfeasibleError, PaKind,
                           Schedule, Strategy)
from fdrelay.oracle import _RATE_SLACK, OracleReport, verify
from fdrelay.feasibility import tmin_for
from fdrelay.solver import solve
from fdrelay.strategies import DESCRIPTIONS, frame_energy

from conftest import neighbour, slot_active

FLOAT_KEYS = [f.name for f in fields(ScenarioParams)
              if f.type in ("float", float)]
EDGES = (0.0, -0.0, 5e-324, 1e300, -1e300)

# Draws per seed, and the seeds.
_DRAWS = 250
_SEEDS = range(6)
# Draws per seed that the CLI sample runs, and that sample's seed.
_CLI_SAMPLE = 20
_CLI_SEED = 15
# Schedules the dense reference checks, the seed that picks them, and the
# durations it scans per slot.
_DENSE_SAMPLE = 120
_DENSE_SEED = 16
_DENSE_POINTS = 20_001


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


def _report(s, sched) -> OracleReport | None:
    """``verify(s, sched)``, or None where it raises an
    ``InfeasibleError``, which must name its cause."""
    try:
        report = verify(s, sched)
    except InfeasibleError as err:
        assert err.cause
        return None
    assert isinstance(report, OracleReport)
    return report


def _verdict(report: OracleReport | None) -> str:
    """"OK", "FAILED" or "infeasible"."""
    if report is None:
        return "infeasible"
    return "OK" if report.ok else "FAILED"


@pytest.fixture(scope="module")
def draws():
    """Per seed, under warnings as errors: the count of every outcome and
    verdict of its draws, and (scenario, schedule, report) of each draw
    that solves, in draw order."""
    found = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in _SEEDS:
            rng = random.Random(seed)
            counts, solved = Counter(), []
            for _ in range(_DRAWS):
                params = _draw(rng)
                kind, s, sched = _outcome(params)
                counts[kind] += 1
                if kind != "ok":
                    continue
                report = _report(s, sched)
                solved.append((s, sched, report))
                counts[f"own {_verdict(report)}"] += 1
                near_kind, near_s, near_sched = _outcome(neighbour(params))
                if near_kind == "ok":
                    for pair in ((s, near_sched), (near_s, sched)):
                        counts[f"neighbour {_verdict(_report(*pair))}"] += 1
            found[seed] = counts, solved
    return found


@pytest.mark.parametrize("seed", _SEEDS)
def test_every_draw_has_one_outcome(draws, seed):
    counts, _ = draws[seed]
    assert counts["config"] + counts["infeasible"] + counts["ok"] == _DRAWS
    assert counts["ok"] and counts["infeasible"] and counts["config"]
    print(f"seed {seed}:", dict(sorted(counts.items())))


def _failed_class(s, report: OracleReport) -> str:
    """The class of a FAILED verdict on the scenario's own schedule, by
    the checks it fails (``OracleReport.ok``) and where:

    - "probe": the convexity probe's negative second differences alone;
    - "zero-demand": anchor misses or negative slacks where one direction
      carries no traffic;
    - "gain-overflow": fd1ts where the product of the relay's two link
      gains to one end node overflows a float;
    - "other": any other FAILED, a miss, a slack or a gap over 1%.
    """
    causes = {cause for cause, failed in (
        ("probe", report.convexity_violations > 0),
        ("anchor", report.anchor_misses > 0),
        ("slack", any(v < -_RATE_SLACK
                      for v in report.active_constraints.values())),
        ("gap", not report.relative_gap <= 0.01)) if failed}
    ch = s.channels
    if causes == {"probe"}:
        return "probe"
    if causes <= {"anchor", "slack"} and not (s.r_fl and s.r_rl):
        return "zero-demand"
    if s.strategy is Strategy.FD1TS and (math.isinf(ch.g_ar * ch.g_ra)
                                         or math.isinf(ch.g_br * ch.g_rb)):
        return "gain-overflow"
    return "other"


@pytest.mark.parametrize("cls", [
    pytest.param("probe", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the convexity probe's false alarms, under TPA at low "
               "spectral load (ROADMAP item 13 deletes the probe)")),
    pytest.param("zero-demand", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the zero-demand link reads a capacity just below 0 at "
               "the anchors (ROADMAP item 2)")),
    pytest.param("gain-overflow", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="fd1ts's relay power divides by an overflowed gain "
               "product and reads 0 W (ROADMAP item 12)")),
    "other"])
def test_no_failed_verdict_on_its_own_schedule(draws, cls):
    """No draw's own schedule gets a FAILED verdict of the class."""
    failed = [(s, report) for seed in _SEEDS
              for s, _, report in draws[seed][1]
              if report is not None and not report.ok
              and _failed_class(s, report) == cls]
    assert failed == []


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


def _active(s, slot, t):
    """The slot's active power at each duration of the array ``t``; a
    closed slot (``t`` is ``[0.0]``) is priced at a float 0, as the solver
    prices it."""
    if t[0]:
        return slot_active(s, slot, *slot.bind(s)(t))
    return np.array([slot_active(s, slot, *slot.bind(s)(0.0))])


def _dense_energy(s) -> float:
    """The least frame energy over a dense grid of slot durations.

    Each open slot is scanned at ``_DENSE_POINTS`` durations spread evenly
    over its span of the window; a closed slot stays at 0.  Two slots
    combine by prefix minimum of their costs, ``(active - idle) * t`` as
    the solver prices them: each first-slot duration takes the cheapest
    second-slot duration that still fits the frame.  Two open slots are
    also scanned along the frame's edge, t2 = frame - t1, where the idle
    draw adds exactly nothing, so each energy there keeps the active
    powers' digits however large the idle draw.  Each energy is taken as
    ``solve`` takes its own (``strategies.frame_energy``), and the least
    is the reference."""
    slots = DESCRIPTIONS[s.strategy].slots
    grids = [np.linspace(lo, hi, _DENSE_POINTS) if lo else np.zeros(1)
             for lo, hi in tmin_for(s).spans(s.frame_t)]
    actives = [_active(s, slot, t) for slot, t in zip(slots, grids)]
    costs = [(a - s.p_idle_total) * t for a, t in zip(actives, grids)]
    assert all(np.isfinite(c).all() for c in costs), s
    if len(slots) == 1:
        k = int(np.argmin(costs[0]))
        return frame_energy(s, [float(grids[0][k])], [float(actives[0][k])])
    (t1, t2), (a1, a2), (c1, c2) = grids, actives, costs
    # The last index of each prefix minimum of c2, and per t1 the longest
    # t2 that fits the frame (-1 where none does).
    best2 = np.maximum.accumulate(np.where(
        c2 == np.minimum.accumulate(c2), np.arange(c2.size), 0))
    fits = np.searchsorted(t2, s.frame_t - t1, side="right") - 1
    i = int(np.argmin(np.where(fits >= 0, c1 + c2[best2[fits]], np.inf)))
    j = int(best2[fits[i]])
    energy = frame_energy(s, [float(t1[i]), float(t2[j])],
                          [float(a1[i]), float(a2[j])])
    if not t2[0]:
        return energy
    edge = s.frame_t - t1
    on = edge >= t2[0]
    edge_energies = frame_energy(s, (t1[on], edge[on]),
                                 (a1[on], _active(s, slots[1], edge[on])))
    return min(energy, float(edge_energies.min()))


def _swamped(s, sched) -> bool:
    """Whether the idle draw swamps the schedule's slot costs: in each open
    slot, active - idle rounds to -idle, so the costs the solver compares
    keep no digit of the active powers."""
    for slot, t in zip(DESCRIPTIONS[s.strategy].slots, (sched.t1, sched.t2)):
        active = slot_active(s, slot,
                             *(getattr(sched, f) for f in slot.fields))
        if t and active - s.p_idle_total != -s.p_idle_total:
            return False
    return True


class _DenseMiss(AssertionError):
    """A schedule whose energy lies above the dense reference's."""


@pytest.fixture(scope="module")
def schedules(draws):
    """(scenario, schedule) of every draw that solves, in draw order."""
    return [(s, sched) for seed in _SEEDS for s, sched, _ in draws[seed][1]]


@pytest.mark.parametrize("swamped", [False, True],
                         ids=["sample", "idle-swamped"])
def test_solve_meets_the_dense_reference(schedules, swamped):
    """``solve``'s energy is no more than 1e-12 relative above the dense
    reference's (:func:`_dense_energy`), which checks optimality without
    ``verify``: on a seeded sample of the draws' schedules, and on every
    schedule whose idle draw swamps its slot costs, where fd2ts missed
    while the boundary re-solve compared slot costs, not Σ active·t."""
    chosen = [(s, sched) for s, sched in schedules
              if _swamped(s, sched) is swamped]
    if not swamped:
        chosen = random.Random(_DENSE_SEED).sample(chosen, _DENSE_SAMPLE)
    assert chosen
    for s, sched in chosen:
        reference = _dense_energy(s)
        if not sched.e_total - reference <= 1e-12 * abs(reference):
            raise _DenseMiss(s, sched.e_total, reference)
