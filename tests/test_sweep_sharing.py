"""A sweep solves each distinct problem once.

``Description.reads_self_interference`` says which strategies the
cancellation settings cannot move, and ``run_sweep`` shares one solve
between the rows of such a strategy that pose the same problem.  These
tests check the fact against the solver in both directions, count the
sweep's solves, and compare its rows with a reference loop that solves
every row on its own.
"""

from dataclasses import replace

import numpy as np
import pytest

import fdrelay.sweep
from fdrelay.config import ScenarioParams
from fdrelay.model import CircuitAccounting, InfeasibleError, PaKind, Strategy
from fdrelay.oracle import random_params
from fdrelay.solver import solve
from fdrelay.strategies import DESCRIPTIONS
from fdrelay.sweep import (Axis, AxisKind, SweepRow, SweepSpec, apply_axis,
                           run_sweep)

# Each change touches only the cancellation settings, which reach the
# scenario through the residual self-interference gains alone.
_CANCELLATION_CHANGES = (
    {"alpha_db": 25.0}, {"alpha_db": 90.0}, {"self_iso_a_db": 10.0},
    {"self_iso_r_db": 5.0}, {"self_iso_b_db": 70.0}, {"d_self_cm": 1.0})
# Seed 32's first 6 draws hold infeasible scenarios of every strategy: 1
# each for fd1ts and fd2ts, 2 for hd2ts.
_SEED, _SCENARIOS_PER_COMBO = 32, 6


def _outcome(params: ScenarioParams) -> str:
    """The schedule's repr, or the infeasibility's message, node and
    cause."""
    try:
        return repr(solve(params.build()))
    except InfeasibleError as err:
        return f"infeasible: {err}|{err.binding_node}|{err.cause}"


def _seeded(strategy: Strategy, pa: PaKind,
            accounting: CircuitAccounting) -> list[ScenarioParams]:
    rng = np.random.default_rng(_SEED)
    return [replace(random_params(rng, strategy, pa), accounting=accounting)
            for _ in range(_SCENARIOS_PER_COMBO)]


@pytest.mark.parametrize("accounting", list(CircuitAccounting))
@pytest.mark.parametrize("pa", list(PaKind))
@pytest.mark.parametrize("strategy", list(Strategy))
def test_reads_self_interference_matches_the_solver(strategy, pa,
                                                    accounting):
    """Where the fact is False, no cancellation change moves any outcome,
    infeasible ones included; where it is True, a change of ``alpha_db``
    moves at least one schedule."""
    pool = _seeded(strategy, pa, accounting)
    if DESCRIPTIONS[strategy].reads_self_interference:
        moved = [p for p in pool
                 if _outcome(p) != _outcome(replace(p, alpha_db=25.0))]
        assert moved, f"{strategy.value} ignored a change of alpha_db"
        return
    for params in pool:
        want = _outcome(params)
        for change in _CANCELLATION_CHANGES:
            assert _outcome(replace(params, **change)) == want, change


def _reference_rows(spec: SweepSpec) -> list[SweepRow]:
    """Every row solved on its own, with no sharing."""
    axis2 = spec.axis2.values if spec.axis2 is not None else (None,)
    rows = []
    for v1 in spec.axis1.values:
        for v2 in axis2:
            base = apply_axis(spec.base, spec.axis1.kind, v1)
            if spec.axis2 is not None:
                base = apply_axis(base, spec.axis2.kind, v2)
            for strategy in spec.strategies:
                try:
                    schedule = solve(replace(base, strategy=strategy).build())
                except InfeasibleError:
                    schedule = None
                rows.append(SweepRow(v1, v2, strategy, spec.base.pa, schedule))
    return rows


# At alpha_db = 0 neither full-duplex strategy carries 100 Mbps, and 160
# Mbps is past the reach of both two-slot strategies, so both axis pairs
# hold infeasible rows, shared hd2ts rows among them.
_AXES = {
    "cancellation": (Axis(AxisKind.CANCELLATION_DB, (0.0, 30.0, 60.0, 90.0)),
                     Axis(AxisKind.TOTAL_RATE_MBPS, (40.0, 100.0, 160.0))),
    "no-cancellation": (Axis(AxisKind.TOTAL_RATE_MBPS, (40.0, 160.0)),
                        Axis(AxisKind.PA_EFFICIENCY, (0.2, 0.35))),
}


@pytest.mark.parametrize("accounting", list(CircuitAccounting))
@pytest.mark.parametrize("pa", list(PaKind))
@pytest.mark.parametrize("axes", list(_AXES))
def test_rows_equal_a_sweep_without_sharing(axes, pa, accounting):
    axis1, axis2 = _AXES[axes]
    spec = SweepSpec(base=ScenarioParams(pa=pa, accounting=accounting),
                     axis1=axis1, axis2=axis2)
    rows = run_sweep(spec)
    assert [repr(r) for r in rows] == [repr(r) for r in _reference_rows(spec)]
    assert not all(r.feasible for r in rows)


def test_the_benchmark_grid_solves_each_problem_once(monkeypatch):
    """The 61x9 cancellation x traffic-ratio grid: 549 rows each for fd1ts
    and fd2ts, and hd2ts once per traffic ratio; a second call solves as
    many again, since nothing is kept between calls."""
    calls = []

    def counting_solve(s):
        calls.append(s.strategy)
        return solve(s)

    monkeypatch.setattr(fdrelay.sweep, "solve", counting_solve)
    spec = SweepSpec(
        base=ScenarioParams(),
        axis1=Axis.from_range(AxisKind.CANCELLATION_DB, 20.0, 80.0, 1.0),
        axis2=Axis.from_range(AxisKind.TRAFFIC_RATIO, 1.0, 9.0, 1.0))
    for _ in range(2):
        calls.clear()
        rows = run_sweep(spec)
        assert len(rows) == 1647
        assert len(calls) == 1107
        assert calls.count(Strategy.HD2TS) == 9
