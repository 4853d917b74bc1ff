"""The one-bisection feasibility window against the code it replaces.

Each slot's window is one bisection on the joint budget predicate of its
nodes.  It replaced a bisection per node of a two-slot strategy's slots,
keeping the largest, and a joint bisection of its own for the single-slot
strategy that named its binder by the largest power-to-budget ratio.  Both
are kept here as the reference: every window must equal theirs by ``repr``,
minimum durations, binders and diagnoses alike.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fdrelay.config import ScenarioParams
from fdrelay.feasibility import FeasibleWindow, t_floor, tmin_for
from fdrelay.model import (CircuitAccounting, InfeasibleError, PaKind,
                           Strategy)
from fdrelay.oracle import random_params
from fdrelay.solver import solve
from fdrelay.strategies import DESCRIPTIONS

_TOL_FRACTION = 1e-9


def _bisect(pred, lo, hi, tol):
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _slot_tmin_per_node(s, slot, floor):
    """One bisection per node of the slot; the slot minimum is the largest."""
    t_min, binder = floor, None
    tol = _TOL_FRACTION * s.frame_t
    for k, (node, cap) in enumerate(slot.budgets(s)):
        def ok(t, _k=k, _c=cap):
            return slot.bind(s)(t)[_k] <= _c
        if ok(floor):
            continue
        if not ok(s.frame_t):
            raise InfeasibleError(
                f"node {node} exceeds its power budget even at the full "
                f"frame", binding_node=node)
        t_node = _bisect(ok, floor, s.frame_t, tol)
        if t_node > t_min:
            t_min, binder = t_node, node
    return t_min, binder


def _tmin_slots_per_node(s, slots):
    floor = t_floor(s)
    t_min, binders = [], []
    try:
        for slot in slots:
            t, node = (_slot_tmin_per_node(s, slot, floor) if slot.demand(s)
                       else (0.0, None))
            t_min.append(t)
            binders.append(node)
    except InfeasibleError as err:
        return FeasibleWindow(t_min=(math.nan,) * len(slots), feasible=False,
                              binding_node=(err.binding_node,) * len(slots),
                              detail=str(err), cause=err.cause)
    if sum(t_min) > s.frame_t:
        return FeasibleWindow(
            t_min=tuple(t_min), feasible=False, binding_node=tuple(binders),
            detail="minimum slot durations exceed the frame budget",
            cause="power_budget")
    return FeasibleWindow(t_min=tuple(t_min), feasible=True,
                          binding_node=tuple(binders))


def _tmin_1ts_own(s):
    """The single-slot strategy's own joint bisection."""
    floor = t_floor(s)
    (slot,) = DESCRIPTIONS[Strategy.FD1TS].slots
    powers = slot.bind(s)

    def ok(t):
        try:
            p_a, p_b, p_r = powers(t)
        except InfeasibleError:
            return False
        return (p_a <= s.pa.a.p_max and p_b <= s.pa.b.p_max
                and p_r <= s.pa.r.p_max)

    if ok(floor):
        return FeasibleWindow(t_min=(floor,), feasible=True,
                              binding_node=(None,))
    if not ok(s.frame_t):
        try:
            p_a, p_b, p_r = powers(s.frame_t)
        except InfeasibleError as err:
            return FeasibleWindow(t_min=(math.nan,), feasible=False,
                                  binding_node=(err.binding_node,),
                                  detail=str(err), cause=err.cause)
        over = [(node, p, cap) for node, p, cap in
                (("a", p_a, s.pa.a.p_max), ("b", p_b, s.pa.b.p_max),
                 ("r", p_r, s.pa.r.p_max)) if p > cap]
        node = max(over, key=lambda item: item[1] / item[2])[0]
        return FeasibleWindow(
            t_min=(math.nan,), feasible=False, binding_node=(node,),
            detail=f"node {node} exceeds its power budget even at the full frame",
            cause="power_budget")
    t_min = _bisect(ok, floor, s.frame_t, _TOL_FRACTION * s.frame_t)
    p_a, p_b, p_r = powers(t_min * (1.0 - 1e-7))
    ratios = {"a": p_a / s.pa.a.p_max, "b": p_b / s.pa.b.p_max,
              "r": p_r / s.pa.r.p_max}
    return FeasibleWindow(t_min=(t_min,), feasible=True,
                          binding_node=(max(ratios, key=ratios.get),))


def reference_window(s):
    if s.strategy is Strategy.FD1TS:
        return _tmin_1ts_own(s)
    return _tmin_slots_per_node(s, DESCRIPTIONS[s.strategy].slots)


def _assert_same(s):
    window = tmin_for(s)
    assert repr(window) == repr(reference_window(s))
    return window


def _draws(strategy, pa, accounting, asymptotic=False, n=100):
    seed = [list(Strategy).index(strategy), list(PaKind).index(pa),
            list(CircuitAccounting).index(accounting), int(asymptotic)]
    rng = np.random.default_rng(seed)
    return [replace(random_params(rng, strategy, pa), accounting=accounting,
                    asymptotic_1ts=asymptotic).build() for _ in range(n)]


class TestRandomParity:
    @pytest.mark.parametrize("accounting", list(CircuitAccounting))
    @pytest.mark.parametrize("pa", list(PaKind))
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_seeded_draws(self, strategy, pa, accounting):
        windows = [_assert_same(s) for s in _draws(strategy, pa, accounting)]
        # The draws reach the bisection, not only its early exits.
        assert any(w.feasible and any(w.binding_node) for w in windows)

    @pytest.mark.parametrize("accounting", list(CircuitAccounting))
    @pytest.mark.parametrize("pa", list(PaKind))
    def test_asymptotic_1ts(self, pa, accounting):
        for s in _draws(Strategy.FD1TS, pa, accounting, asymptotic=True):
            _assert_same(s)


class TestEdgeParity:
    def test_zero_demand_slot_stays_closed(self, params):
        s = replace(params, strategy=Strategy.FD2TS, r_rl_mbps=0.0).build()
        window = _assert_same(s)
        assert window.feasible and window.t_min[1] == 0.0

    def test_weak_cancellation(self, params):
        s = replace(params, strategy=Strategy.FD1TS, alpha_db=20.0,
                    r_fl_mbps=100.0, r_rl_mbps=100.0).build()
        window = _assert_same(s)
        assert window.cause == "cancellation"

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_unconstrained_stays_at_floor(self, make_scenario, strategy):
        s = make_scenario(strategy=strategy, gs=0.0, p_max=(1e9, 1e9, 1e9),
                          r_fl=1.0, r_rl=1.0)
        window = _assert_same(s)
        assert window.feasible and set(window.binding_node) == {None}

    @pytest.mark.parametrize("strategy", [Strategy.FD1TS, Strategy.HD2TS])
    def test_tied_nodes_name_the_first(self, params, strategy):
        # Mirror-image end nodes under a tight budget both bind at once.
        s = replace(params, strategy=strategy, p_max_a_dbm=20.0,
                    p_max_b_dbm=20.0, p_max_r_dbm=60.0, r_fl_mbps=10.0,
                    r_rl_mbps=10.0).build()
        window = _assert_same(s)
        slot = DESCRIPTIONS[strategy].slots[0]
        p_a, p_b = slot.bind(s)(window.t_min[0] * (1.0 - 1e-7))[:2]
        assert p_a == p_b > s.pa.a.p_max
        assert window.binding_node[0] == "a"

    def test_cancellation_binds_below_the_caps(self, params):
        """Under budgets no power reaches, the window ends where the
        self-cancellation closes the broadcast link.  The window names the
        node whose link fails just below it; the single-slot strategy's own
        bisection raised there instead, when it priced its binder."""
        s = replace(params, strategy=Strategy.FD1TS, alpha_db=15.0,
                    r_fl_mbps=10.0, r_rl_mbps=10.0, p_max_a_dbm=120.0,
                    p_max_b_dbm=120.0, p_max_r_dbm=120.0).build()
        window = tmin_for(s)
        with pytest.raises(InfeasibleError) as raised:
            reference_window(s)
        assert raised.value.cause == "cancellation"
        assert window.feasible
        assert window.binding_node == (raised.value.binding_node,)
        (slot,) = DESCRIPTIONS[Strategy.FD1TS].slots
        with pytest.raises(InfeasibleError, match="self-cancellation"):
            slot.bind(s)(window.t_min[0] * (1.0 - 1e-7))
        assert solve(s).t1 >= window.t_min[0]

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_over_budget_at_full_frame(self, params, strategy):
        s = replace(params, strategy=strategy, p_max_r_dbm=10.0,
                    r_fl_mbps=60.0, r_rl_mbps=60.0).build()
        window = _assert_same(s)
        assert not window.feasible
        assert "even at the full frame" in window.detail


def _ratios_at_full_frame(s):
    """p / p_max of every node at the full frame, in slot order."""
    out = {}
    for slot in DESCRIPTIONS[s.strategy].slots:
        for (node, cap), p in zip(slot.budgets(s),
                                  slot.bind(s)(s.frame_t)):
            out.setdefault(node, p / cap)
    return out


# Two solve-mix pool entries of the benchmark on which the two full-frame
# diagnoses disagree.
_FD2TS_FIRST_OVER = ScenarioParams(
    d_ar_m=126.91000546742244, d_rb_m=193.79904903631515,
    alpha_db=42.76496992922466, r_fl_mbps=86.9282458370764,
    r_rl_mbps=31.730950053260994, strategy=Strategy.FD2TS, pa=PaKind.ETPA,
    accounting=CircuitAccounting.FIRST_PRINCIPLES)
_FD1TS_FURTHEST_OVER = ScenarioParams(
    d_ar_m=170.36569197961657, d_rb_m=187.17534353216814,
    alpha_db=40.93362158562235, r_fl_mbps=78.62959099202193,
    r_rl_mbps=35.216156767876406, strategy=Strategy.FD1TS, pa=PaKind.ETPA,
    accounting=CircuitAccounting.FIRST_PRINCIPLES)


class TestFullFrameDiagnosis:
    def test_two_slots_name_first_over_budget_node(self):
        s = _FD2TS_FIRST_OVER.build()
        ratios = _ratios_at_full_frame(s)
        assert 1.0 < ratios["a"] < ratios["r"]
        window = _assert_same(s)
        assert window.binding_node == ("a", "a")
        assert window.detail == ("node a exceeds its power budget even at "
                                 "the full frame")

    def test_single_slot_names_node_furthest_over(self):
        s = _FD1TS_FURTHEST_OVER.build()
        ratios = _ratios_at_full_frame(s)
        assert 1.0 < ratios["a"] < ratios["r"]
        window = _assert_same(s)
        assert window.binding_node == ("r",)
        assert window.detail == ("node r exceeds its power budget even at "
                                 "the full frame")
