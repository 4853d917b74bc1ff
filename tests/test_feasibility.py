import math
from dataclasses import replace

import pytest

from fdrelay.feasibility import t_floor, tmin_for
from fdrelay.model import Strategy
from fdrelay.strategies import DESCRIPTIONS

from conftest import random_scenario_params, slot_powers

FD1TS = DESCRIPTIONS[Strategy.FD1TS]
FD2TS = DESCRIPTIONS[Strategy.FD2TS]
HD2TS = DESCRIPTIONS[Strategy.HD2TS]


class TestTmin2TS:
    def test_unconstrained_hits_floor(self, make_scenario):
        # caps that never bind anywhere above the numerical floor
        s = make_scenario(p_max=(1e9, 1e9, 1e9), gs=0.0, r_fl=1.0, r_rl=1.0)
        w = tmin_for(s)
        assert w.feasible
        assert w.t_min == (t_floor(s), t_floor(s))
        assert w.binding_node == (None, None)

    def test_single_binding_constraint_analytic(self, make_scenario):
        """The relay cap inverts in closed form when gs_r = 0."""
        s = make_scenario(gs=0.0, p_max=(1e9, 2.0, 1e9), r_fl=3e7, r_rl=1e7)
        w = tmin_for(s)
        ch = s.channels
        expected = (s.r_fl * s.frame_t
                    / (s.bandwidth_w * math.log2(1 + 2.0 * ch.g_rb / ch.sigma2_b)))
        assert w.feasible
        assert w.t_min[0] == pytest.approx(expected, rel=1e-6)
        assert w.binding_node[0] == "r"

    def test_bracketing(self, params):
        s = replace(params, strategy=Strategy.FD2TS,
                    r_fl_mbps=30.0, r_rl_mbps=30.0).build()
        w = tmin_for(s)
        assert w.feasible
        for slot, t_min in enumerate(w.t_min):
            lo = t_min * (1 - 1e-6)
            hi = t_min * (1 + 1e-6)
            bound = FD2TS.slots[slot].bind(s)
            (p_src_lo, p_r_lo), (p_src_hi, p_r_hi) = bound(lo), bound(hi)
            src_max = s.pa.a.p_max if slot == 0 else s.pa.b.p_max
            assert (p_src_lo > src_max or p_r_lo > s.pa.r.p_max)
            assert p_src_hi <= src_max and p_r_hi <= s.pa.r.p_max

    def test_budget_infeasibility(self, params):
        s = replace(params, strategy=Strategy.FD2TS,
                    r_fl_mbps=90.0, r_rl_mbps=90.0).build()
        w = tmin_for(s)
        assert not w.feasible
        assert "frame budget" in w.detail

    def test_hard_infeasibility_names_node(self, params):
        s = replace(params, strategy=Strategy.FD2TS, p_max_r_dbm=10.0,
                    r_fl_mbps=60.0, r_rl_mbps=60.0).build()
        w = tmin_for(s)
        assert not w.feasible
        assert "r" in w.binding_node


class TestTmin1TS:
    def test_unconstrained_hits_floor(self, make_scenario):
        s = make_scenario(strategy=Strategy.FD1TS, gs=0.0,
                          p_max=(1e9, 1e9, 1e9), r_fl=1.0, r_rl=1.0)
        w = tmin_for(s)
        assert w.feasible
        assert w.t_min == (t_floor(s),)

    def test_cancellation_infeasibility(self, params):
        s = replace(params, strategy=Strategy.FD1TS, alpha_db=20.0,
                    r_fl_mbps=100.0, r_rl_mbps=100.0).build()
        w = tmin_for(s)
        assert not w.feasible
        assert "cancellation" in w.detail

    def test_bracketing(self, params):
        s = replace(params, strategy=Strategy.FD1TS,
                    r_fl_mbps=60.0, r_rl_mbps=60.0).build()
        w = tmin_for(s)
        assert w.feasible
        t_min = w.t_min[0]
        assert t_min > t_floor(s)
        [(p_a, p_b, p_r)] = slot_powers(s, FD1TS, t_min * (1 + 1e-6))
        assert (p_a <= s.pa.a.p_max and p_b <= s.pa.b.p_max
                and p_r <= s.pa.r.p_max)
        [(p_a, p_b, p_r)] = slot_powers(s, FD1TS, t_min * (1 - 1e-6))
        assert (p_a > s.pa.a.p_max or p_b > s.pa.b.p_max
                or p_r > s.pa.r.p_max)

    def test_monotone_predicate(self, params):
        s = replace(params, strategy=Strategy.FD1TS,
                    r_fl_mbps=60.0, r_rl_mbps=60.0).build()
        w = tmin_for(s)
        t_min = w.t_min[0]
        for frac in (1.1, 1.5, 2.0):
            t = min(t_min * frac, s.frame_t)
            [(p_a, p_b, p_r)] = slot_powers(s, FD1TS, t)
            assert (p_a <= s.pa.a.p_max and p_b <= s.pa.b.p_max
                    and p_r <= s.pa.r.p_max)


class TestTminHd:
    def test_unconstrained_hits_floor(self, make_scenario):
        s = make_scenario(strategy=Strategy.HD2TS, p_max=(1e9, 1e9, 1e9),
                          r_fl=1.0, r_rl=1.0)
        w = tmin_for(s)
        assert w.feasible
        assert w.t_min == (t_floor(s), t_floor(s))

    def test_relay_bound_analytic(self, make_scenario):
        """Only the relay binds: slot 2 minimum inverts its max term."""
        s = make_scenario(strategy=Strategy.HD2TS, p_max=(1e9, 1.0, 1e9),
                          r_fl=4e7, r_rl=1e7)
        w = tmin_for(s)
        ch = s.channels
        # forward demand dominates the relay broadcast requirement
        expected = (s.r_fl * s.frame_t
                    / (s.bandwidth_w * math.log2(1 + 1.0 * ch.g_rb / ch.sigma2_b)))
        assert w.feasible
        assert w.t_min[1] == pytest.approx(expected, rel=1e-6)
        assert w.binding_node[1] == "r"

    def test_bracketing(self, params):
        s = replace(params, strategy=Strategy.HD2TS,
                    r_fl_mbps=40.0, r_rl_mbps=40.0).build()
        w = tmin_for(s)
        assert w.feasible
        t1_min, t2_min = w.t_min
        p_lo, _ = slot_powers(s, HD2TS, t1_min * (1 - 1e-6), s.frame_t)
        p_hi, _ = slot_powers(s, HD2TS, t1_min * (1 + 1e-6), s.frame_t)
        assert p_lo[0] > s.pa.a.p_max or p_lo[1] > s.pa.b.p_max
        assert p_hi[0] <= s.pa.a.p_max and p_hi[1] <= s.pa.b.p_max
        _, (r_lo,) = slot_powers(s, HD2TS, s.frame_t, t2_min * (1 - 1e-6))
        _, (r_hi,) = slot_powers(s, HD2TS, s.frame_t, t2_min * (1 + 1e-6))
        assert r_lo > s.pa.r.p_max
        assert r_hi <= s.pa.r.p_max


class TestAgreementAcrossStrategies:
    def test_monotone_feasibility_in_duration_vector(self, rng):
        """Componentwise-larger duration vectors stay feasible."""
        for strategy in Strategy:
            for _ in range(5):
                s = random_scenario_params(rng, strategy).build()
                w = tmin_for(s)
                if not w.feasible:
                    continue
                if strategy is Strategy.FD1TS:
                    t = w.t_min[0]
                    [(p_a, _, _)] = slot_powers(s, FD1TS,
                                                min(1.3 * t, s.frame_t))
                    assert p_a <= s.pa.a.p_max
                else:
                    t1, t2 = w.t_min
                    scale = min(1.2, s.frame_t / (t1 + t2))
                    if strategy is Strategy.FD2TS:
                        (p_a, _), (p_b, _) = slot_powers(s, FD2TS, t1 * scale,
                                                         t2 * scale)
                        assert p_a <= s.pa.a.p_max * (1 + 1e-9)
                        assert p_b <= s.pa.b.p_max * (1 + 1e-9)
                    else:
                        (p_a, _), (p_r,) = slot_powers(s, HD2TS, t1 * scale,
                                                       t2 * scale)
                        assert p_a <= s.pa.a.p_max * (1 + 1e-9)
                        assert p_r <= s.pa.r.p_max * (1 + 1e-9)
