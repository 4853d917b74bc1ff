"""The lockstep slot searches against the sequential code they replace.

``_solve_separable`` steps the slot searches in rounds, prices each round in
one call of the frame binder (``Description.bind_frame``), and drops the
searches once their brackets prove that the optima overrun the frame; the
golden section keeps the values at its bracket ends instead of asking for
them again.  None of this may move a result: every schedule and every
infeasibility must be exactly what searching each slot to the end, on its
own, gave.  A default two-slot solve prices its frame points in one PA draw
each, where pricing one slot at a time made 77-80 draws.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fdrelay import solver, strategies
from fdrelay.config import ScenarioParams
from fdrelay.feasibility import FeasibleWindow
from fdrelay.model import CircuitAccounting, InfeasibleError, PaKind, Strategy
from fdrelay.oracle import random_params
from fdrelay.solver import minimize_unimodal_1d, solve
from fdrelay.strategies import Description

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


def _slot_costs(price, spans):
    """One cost function per slot, pricing that slot alone: the frame priced
    with every other slot at the lower end of its span (0 when closed)."""
    lows = [lo for lo, _ in spans]

    def slot_cost(k):
        def cost(t):
            return price(*lows[:k], t, *lows[k + 1:])[2][k]
        return cost

    return [slot_cost(k) for k in range(len(spans))]


def _solve_separable_sequential(price, window, s):
    """Each slot searched to the end on its own cost, then the boundary
    re-solve when the optima overrun the frame: the reference the lockstep
    solve must equal."""
    frame = s.frame_t
    tol = solver.DURATION_TOL * frame
    spans = window.spans(frame)
    costs = _slot_costs(price, spans)

    def search(cost, lo, hi):
        if lo == 0.0:
            return 0.0
        return _golden_sequential(cost, lo, hi, tol)[0]

    durations = tuple(search(cost, lo, hi)
                      for cost, (lo, hi) in zip(costs, spans))
    if sum(durations) <= frame:
        return durations
    (lo1, hi1), _ = spans

    def frame_cost(t):
        active1, active2 = price(t, frame - t)[1]
        return active1 * t + active2 * (frame - t)

    t1, _ = _golden_sequential(frame_cost, lo1, hi1, tol)
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


def _recording(binder, calls):
    """``binder``, whose bound functions record the arguments of each call
    in ``calls``."""
    def recording_binder(*args):
        bound = binder(*args)

        def recorded(*values):
            calls.append(values)
            return bound(*values)

        return recorded

    return recording_binder


def _counted_solve(s, monkeypatch, frame_binder=True):
    """Solve ``s``, recording the powers of each call of a bound PA draw
    and, with ``frame_binder``, the durations of each call of the frame
    binder's price (one slot-cost evaluation per slot)."""
    prices, draws = [], []
    with monkeypatch.context() as m:
        if frame_binder:
            m.setattr(Description, "bind_frame",
                      _recording(Description.bind_frame, prices))
        m.setattr(strategies, "pa_draw", _recording(strategies.pa_draw, draws))
        sched = solve(s)
    return sched, prices, draws


@pytest.mark.parametrize("strategy", [Strategy.FD2TS, Strategy.HD2TS])
def test_default_two_slot_solve_evaluations(strategy, monkeypatch):
    """The default two-slot solves overrun the frame; searching both slots
    to the end made 144 slot-cost evaluations.  Every cost the solver
    prices goes through the frame binder, one evaluation per slot per
    call, so each is counted there, the final energy's included."""
    for pa_kind in PaKind:
        s = ScenarioParams(strategy=strategy, pa=pa_kind).build()
        sched, prices, draws = _counted_solve(s, monkeypatch)
        assert sched.t1 + sched.t2 == s.frame_t
        evaluations = sum(len(durations) for durations in prices)
        assert 0 < evaluations <= 80
        # One draw per frame point priced, and no draw outside the binder.
        assert len(draws) == len(prices)
        assert repr(sched) == repr(solve(s))


@pytest.mark.parametrize("pa_kind", list(PaKind))
@pytest.mark.parametrize("strategy", list(Strategy))
def test_default_solve_draws_once_per_frame_point(strategy, pa_kind,
                                                  monkeypatch):
    """Each frame point the solve prices, the final energy's included, is
    one PA draw over every node of the frame.  Pricing one slot at a time,
    a default two-slot solve made 77-80 draws; the one-slot fd1ts makes
    36-37 either way."""
    s = ScenarioParams(strategy=strategy, pa=pa_kind).build()
    _, _, draws = _counted_solve(s, monkeypatch, frame_binder=False)
    if strategy is Strategy.FD1TS:
        assert 36 <= len(draws) <= 37
    else:
        assert len(draws) <= 40
    slots = strategies.DESCRIPTIONS[strategy].slots
    assert {len(powers) for powers in draws} == {
        sum(len(slot.nodes) for slot in slots)}


def _window(t_min):
    return FeasibleWindow(t_min=t_min, feasible=True,
                          binding_node=(None,) * len(t_min))


def _price(*costs):
    """A frame binder's price over separable slot costs; it prices no
    powers and no active power."""
    def price(*durations):
        return None, None, [cost(t) for cost, t in zip(costs, durations)]
    return price


def _recorded(price, rounds):
    def recorded(*durations):
        rounds.append(durations)
        return price(*durations)
    return recorded


@pytest.mark.parametrize("rising", [0, 1])
def test_a_search_that_ends_first_is_priced_at_its_optimum(rising):
    """One slot's cost rises across its span, so its search asks for the
    lower end it never probed after the other search has ended.  That last
    round prices the ended slot at its optimum, which is not the last point
    its search asked for, in the same call as the rising slot's end; the
    result is still that of the sequential searches."""
    costs = [lambda t: (t - 0.45) ** 2] * 2
    costs[rising] = lambda t: t
    t_min = (0.2, 0.1) if rising == 0 else (0.1, 0.2)
    s = SimpleNamespace(frame_t=1.0)
    price = _price(*costs)
    want = _solve_separable_sequential(price, _window(t_min), s)
    rounds = []
    got = solver._solve_separable(_recorded(price, rounds), _window(t_min), s)
    assert repr(got) == repr(want)
    assert all(len(durations) == 2 for durations in rounds)
    assert rounds[-1] == want
    assert rounds[-2][rising] != want[rising]
    assert rounds[-2][1 - rising] != want[1 - rising]


@pytest.mark.parametrize("frame, t_min", [
    (1.0, (0.4, 0.6 - 5e-8)), (1.0, (0.6 - 5e-8, 0.4)), (1.0, (0.25, 0.75)),
    (1.0, (0.3, 0.7 - 1e-16)), (0.01, (0.004, 0.006 - 3e-10))])
def test_a_span_narrower_than_the_tolerance_prices_its_midpoint(frame, t_min):
    """A window whose spans are at most the tolerance wide: each search
    asks for its midpoint only, both in one round, and the midpoints are
    the durations."""
    s = SimpleNamespace(frame_t=frame)
    price = _price(lambda t: (t - 0.1 * frame) ** 2,
                   lambda t: (t - 0.9 * frame) ** 2)
    spans = _window(t_min).spans(frame)
    assert all(hi - lo <= solver.DURATION_TOL * frame for lo, hi in spans)
    mids = tuple(0.5 * (lo + hi) for lo, hi in spans)
    want = _solve_separable_sequential(price, _window(t_min), s)
    rounds = []
    got = solver._solve_separable(_recorded(price, rounds), _window(t_min), s)
    assert repr(got) == repr(want) == repr(mids)
    assert rounds == [mids]


def test_a_closed_slot_is_priced_at_zero_beside_the_search():
    """fd2ts with no reverse traffic: every round prices the closed slot at
    0 in the same call as the other slot's next point."""
    s = ScenarioParams(strategy=Strategy.FD2TS, r_rl_mbps=0.0).build()
    window = solver.tmin_for(s)
    assert window.t_min[1] == 0.0
    price = strategies.DESCRIPTIONS[Strategy.FD2TS].bind_frame(s)
    rounds = []
    got = solver._solve_separable(_recorded(price, rounds), window, s)
    assert got[1] == 0.0 and rounds
    assert {durations[1] for durations in rounds} == {0.0}
    assert repr(got) == repr(_solve_separable_sequential(price, window, s))


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
