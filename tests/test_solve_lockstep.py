"""The lockstep slot searches against the sequential code they replace.

``_solve_separable`` steps the slot searches in turn and drops them once
their brackets prove that the optima overrun the frame; the golden section
keeps the values at its bracket ends instead of evaluating them again.
Neither may move a result: every schedule and every infeasibility must be
exactly what searching each slot to the end gave.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fdrelay import solver
from fdrelay.config import ScenarioParams
from fdrelay.model import CircuitAccounting, InfeasibleError, PaKind, Strategy
from fdrelay.oracle import random_params
from fdrelay.solver import minimize_unimodal_1d, solve
from fdrelay.strategies import Slot

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _golden_sequential(f, lo, hi, tol):
    """The golden section as it ran before it became a step generator:
    the reference the generator must equal."""
    if not lo <= hi:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    span = hi - lo
    if span <= tol:
        mid = 0.5 * (lo + hi)
        return mid, f(mid)
    c = lo + _INV_PHI2 * span
    d = lo + _INV_PHI * span
    fc, fd = f(c), f(d)
    for _ in range(solver._MAX_ITERS):
        if not (math.isfinite(fc) and math.isfinite(fd)):
            raise ValueError(
                "objective is not finite inside the feasibility window")
        if hi - lo <= tol:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = lo + _INV_PHI2 * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    x, fx = (c, fc) if fc <= fd else (d, fd)
    for edge in (lo, hi):
        fe = f(edge)
        if fe < fx:
            x, fx = edge, fe
    return x, fx


def _solve_separable_sequential(costs, window, s):
    """Each slot searched to the end, then the boundary re-solve when the
    optima overrun the frame: the reference the lockstep solve must equal."""
    frame = s.frame_t
    tol = solver.DURATION_TOL * frame
    spans = window.spans(frame)

    def search(cost, lo, hi):
        if lo == 0.0:
            return 0.0
        return _golden_sequential(cost, lo, hi, tol)[0]

    durations = tuple(search(cost, lo, hi)
                      for cost, (lo, hi) in zip(costs, spans))
    if sum(durations) <= frame:
        return durations
    cost1, cost2 = costs
    (lo1, hi1), _ = spans
    t1, _ = _golden_sequential(lambda t: cost1(t) + cost2(frame - t),
                               lo1, hi1, tol)
    return t1, frame - t1


def _outcome(s):
    try:
        return repr(solve(s))
    except InfeasibleError as err:
        return ("infeasible", str(err), err.binding_node, err.cause)


def _reference_outcome(s, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(solver, "_solve_separable", _solve_separable_sequential)
        return _outcome(s)


def _scenarios(strategy, pa_kind, accounting, n=25):
    seed = [list(Strategy).index(strategy), list(PaKind).index(pa_kind),
            list(CircuitAccounting).index(accounting)]
    rng = np.random.default_rng(seed)
    return [replace(random_params(rng, strategy, pa_kind),
                    accounting=accounting).build() for _ in range(n)]


@pytest.mark.parametrize("accounting", list(CircuitAccounting))
@pytest.mark.parametrize("pa_kind", list(PaKind))
@pytest.mark.parametrize("strategy", list(Strategy))
def test_outcomes_equal_sequential_searches(strategy, pa_kind, accounting,
                                            monkeypatch):
    kinds = set()
    for s in _scenarios(strategy, pa_kind, accounting):
        want = _reference_outcome(s, monkeypatch)
        assert _outcome(s) == want
        if isinstance(want, tuple):
            kinds.add("infeasible")
        else:
            sched = solve(s)
            kinds.add("boundary" if sched.t1 + sched.t2 == s.frame_t
                      else "inside")
    # The draws reach both sides of the frame-boundary decision.
    if strategy is not Strategy.FD1TS:
        assert {"boundary", "inside"} <= kinds


@pytest.mark.parametrize("params", [
    ScenarioParams(strategy=Strategy.FD2TS, r_rl_mbps=0.0),
    ScenarioParams(strategy=Strategy.FD2TS, r_fl_mbps=0.0),
    ScenarioParams(strategy=Strategy.FD1TS, asymptotic_1ts=True),
    ScenarioParams(strategy=Strategy.FD1TS, alpha_db=20.0, r_fl_mbps=100.0,
                   r_rl_mbps=100.0),
], ids=["fd2ts-no-uplink", "fd2ts-no-downlink", "fd1ts-asymptotic",
        "fd1ts-cancellation"])
def test_special_scenarios_equal_sequential_searches(params, monkeypatch):
    s = params.build()
    assert _outcome(s) == _reference_outcome(s, monkeypatch)


@pytest.mark.parametrize("strategy", [Strategy.FD2TS, Strategy.HD2TS])
def test_default_two_slot_solve_evaluations(strategy, monkeypatch):
    """The default two-slot solves overrun the frame; searching both slots
    to the end made 144 slot-cost evaluations.  The solver evaluates the
    costs that ``Slot.bound_cost`` returns, so each is counted there."""
    calls = []
    bound_cost = Slot.bound_cost

    def counted_bound_cost(self, s, *bound):
        cost = bound_cost(self, s, *bound)

        def counted(t):
            calls.append(t)
            return cost(t)

        return counted

    monkeypatch.setattr(Slot, "bound_cost", counted_bound_cost)
    s = ScenarioParams(strategy=strategy).build()
    sched = solve(s)
    assert sched.t1 + sched.t2 == s.frame_t
    assert 0 < len(calls) <= 80


@pytest.mark.parametrize("lo, hi, centre", [
    (0.0, 10.0, 3.0), (0.0, 1.0, -1.0), (0.0, 1.0, 2.0), (1.0, 4.0, 1.0)])
def test_golden_section_evaluates_each_point_once(lo, hi, centre):
    points = []

    def f(t):
        points.append(t)
        return (t - centre) ** 2

    got = minimize_unimodal_1d(f, lo, hi, 1e-9)
    assert len(points) == len(set(points))
    assert got == _golden_sequential(lambda t: (t - centre) ** 2, lo, hi,
                                     1e-9)
