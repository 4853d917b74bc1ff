import math
from functools import partial
from dataclasses import replace

import numpy as np
import pytest

from fdrelay.config import ScenarioParams
from fdrelay.feasibility import tmin_for
from fdrelay.model import InfeasibleError, PaKind, Strategy
from fdrelay.solver import DURATION_TOL, minimize_unimodal_1d, solve
from fdrelay.strategies import DESCRIPTIONS

from conftest import closed_form_energy, random_scenario_params, slot_cost

FD1TS = DESCRIPTIONS[Strategy.FD1TS]
FD2TS = DESCRIPTIONS[Strategy.FD2TS]
HD2TS = DESCRIPTIONS[Strategy.HD2TS]


class TestGoldenSection:
    def test_quadratic(self):
        x, fx = minimize_unimodal_1d(lambda t: (t - 3.0) ** 2, 0.0, 10.0,
                                     1e-8)
        assert x == pytest.approx(3.0, abs=1e-7)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_piecewise_linear_kink(self):
        x, _ = minimize_unimodal_1d(lambda t: abs(t - 2.0) + 1.0, 0.0, 5.0,
                                    1e-8)
        assert x == pytest.approx(2.0, abs=1e-7)

    def test_boundary_minimum(self):
        x, _ = minimize_unimodal_1d(lambda t: t, 1.0, 4.0, 1e-9)
        assert x == pytest.approx(1.0, abs=1e-8)

    def test_rejects_empty_bracket(self):
        with pytest.raises(ValueError):
            minimize_unimodal_1d(lambda t: t, 2.0, 1.0, 1e-9)

    def test_rejects_non_finite_objective(self):
        with pytest.raises(ValueError):
            minimize_unimodal_1d(lambda t: math.inf, 0.0, 1.0, 1e-7)

    def test_matches_dense_grid_on_1ts_energy(self, params):
        s = replace(params, strategy=Strategy.FD1TS).build()
        w = tmin_for(s)
        t1, e = minimize_unimodal_1d(partial(closed_form_energy, s, FD1TS),
                                     w.t_min[0], s.frame_t,
                                     DURATION_TOL * s.frame_t)
        grid = np.linspace(w.t_min[0], s.frame_t, 10_000)
        energies = [closed_form_energy(s, FD1TS, t) for t in grid]
        k = int(np.argmin(energies))
        assert abs(t1 - grid[k]) <= (grid[1] - grid[0])
        assert e <= energies[k] * (1 + 1e-9)


class TestSolve2TS:
    def test_symmetric_scenario(self, params):
        s = replace(params, strategy=Strategy.FD2TS).build()
        sched = solve(s)
        assert sched.t1 == pytest.approx(sched.t2, rel=1e-5)
        assert sched.p_a == pytest.approx(sched.p_b, rel=1e-4)

    def test_huge_idle_power_fills_frame(self, params):
        p = replace(params, strategy=Strategy.FD2TS, p_idle_a_mw=3e4,
                    p_idle_r_mw=1.5e4, p_idle_b_mw=5e3)
        s = p.build()
        sched = solve(s)
        assert sched.t1 + sched.t2 == pytest.approx(s.frame_t, rel=1e-9)

    def test_matches_grid_oracle(self, params):
        p = replace(params, strategy=Strategy.FD2TS).with_total_rate(40.0)
        s = p.build()
        sched = solve(s)
        w = tmin_for(s)
        t1s = np.linspace(w.t_min[0], s.frame_t - w.t_min[1], 200)
        t2s = np.linspace(w.t_min[1], s.frame_t - w.t_min[0], 200)
        best = math.inf
        for t1 in t1s:
            for t2 in t2s:
                if t1 + t2 <= s.frame_t:
                    best = min(best, closed_form_energy(s, FD2TS, t1, t2))
        assert sched.e_total <= best * 1.001

    def test_budget_skip_matches_unconstrained(self, params):
        """When the independent optima fit the frame they are returned as is."""
        p = replace(params, strategy=Strategy.FD2TS).with_total_rate(40.0)
        s = p.build()
        sched = solve(s)
        assert sched.t1 + sched.t2 < s.frame_t
        w = tmin_for(s)
        t1, _ = minimize_unimodal_1d(
            lambda t: closed_form_energy(s, FD2TS, t,
                                         s.frame_t - w.t_min[1])
            - closed_form_energy(s, FD2TS, s.frame_t / 2,
                                 s.frame_t - w.t_min[1]),
            w.t_min[0], s.frame_t - w.t_min[1], DURATION_TOL * s.frame_t)
        assert sched.t1 == pytest.approx(t1, abs=2e-7 * s.frame_t)


    @pytest.mark.parametrize("r_fl, r_rl", [(32.5, 0.0), (0.0, 32.5)])
    def test_zero_demand_direction_closes_its_slot(self, params, r_fl, r_rl):
        s = replace(params, strategy=Strategy.FD2TS, r_fl_mbps=r_fl,
                    r_rl_mbps=r_rl).build()
        sched = solve(s)
        if r_rl == 0.0:
            closed, open_ = (sched.t2, sched.p_b, sched.p_r_rev), sched.t1
        else:
            closed, open_ = (sched.t1, sched.p_a, sched.p_r_fwd), sched.t2
        assert closed == (0.0, 0.0, 0.0)
        assert open_ > 0.0
        # Only the open slot and the idle rest of the frame are charged.
        assert sched.e_total == closed_form_energy(s, FD2TS, sched.t1,
                                                   sched.t2)
        assert sched.e_total < closed_form_energy(s, FD2TS, sched.t1 or 1e-8,
                                                  sched.t2 or 1e-8)


class TestSolve1TS:
    def test_symmetric_cases(self, params):
        s = replace(params, strategy=Strategy.FD1TS).build()
        sched = solve(s)
        assert sched.active_case is not None
        assert sched.t2 == 0.0
        assert sched.p_r_rev == 0.0

    @pytest.mark.parametrize("pa_kind", list(PaKind))
    def test_active_case_is_the_closed_forms_case(self, pa_kind):
        rng = np.random.default_rng(23)
        solved = 0
        while solved < 20:
            s = random_scenario_params(rng, Strategy.FD1TS, pa_kind).build()
            try:
                sched = solve(s)
            except InfeasibleError:
                continue
            assert sched.active_case == FD1TS.active_case(s, sched.t1)
            solved += 1

    def test_matches_grid_oracle(self, params):
        s = replace(params, strategy=Strategy.FD1TS).build()
        sched = solve(s)
        w = tmin_for(s)
        grid = np.linspace(w.t_min[0], s.frame_t, 10_000)
        best = min(closed_form_energy(s, FD1TS, t) for t in grid)
        assert sched.e_total <= best * 1.001

    def test_interior_optimum_without_circuit_power(self):
        """The single-slot optimum can sit strictly inside the frame."""
        p = ScenarioParams(strategy=Strategy.FD1TS, etpa_u=0.0,
                           epsilon_mw_per_gbps=0.0, alpha_db=40.0,
                           p_base_a_mw=0.0, p_base_r_mw=0.0, p_base_b_mw=0.0,
                           p_idle_a_mw=0.0, p_idle_r_mw=0.0, p_idle_b_mw=0.0,
                           asymptotic_1ts=True).with_total_rate(20.0)
        s = p.build()
        sched = solve(s)
        assert sched.t1 < s.frame_t * (1 - 1e-6)
        # grid confirmation
        grid = np.linspace(sched.t1 * 0.5, s.frame_t, 4000)
        energies = [closed_form_energy(s, FD1TS, t) for t in grid]
        assert sched.e_total <= min(energies) * (1 + 1e-6)


class TestSolveHd:
    def test_symmetric_scenario(self, params):
        s = replace(params, strategy=Strategy.HD2TS).build()
        sched = solve(s)
        recomputed = closed_form_energy(s, HD2TS, sched.t1, sched.t2)
        assert sched.e_total == pytest.approx(recomputed)

    def test_low_demand_leaves_idle_time(self, params):
        p = replace(params, strategy=Strategy.HD2TS).with_total_rate(30.0)
        s = p.build()
        sched = solve(s)
        assert sched.t1 + sched.t2 < s.frame_t * (1 - 1e-6)

    def test_matches_grid_oracle(self, params):
        s = replace(params, strategy=Strategy.HD2TS).build()
        sched = solve(s)
        w = tmin_for(s)
        t1s = np.linspace(w.t_min[0], s.frame_t - w.t_min[1], 150)
        t2s = np.linspace(w.t_min[1], s.frame_t - w.t_min[0], 150)
        best = math.inf
        for t1 in t1s:
            for t2 in t2s:
                if t1 + t2 <= s.frame_t:
                    best = min(best, closed_form_energy(s, HD2TS, t1, t2))
        assert sched.e_total <= best * 1.001


class TestDispatch:
    def test_dispatch_identity(self, params):
        """solve follows the scenario's strategy field alone."""
        other = replace(params, strategy=Strategy.HD2TS).build()
        for strategy in Strategy:
            s = replace(params, strategy=strategy).build()
            assert solve(replace(other, strategy=strategy)) == solve(s)

    def test_ee_definition(self, params):
        s = replace(params, strategy=Strategy.FD2TS).build()
        sched = solve(s)
        assert sched.ee * sched.e_total == pytest.approx(
            (s.r_fl + s.r_rl) * s.frame_t, rel=1e-12)

    def test_infeasible_raises(self, params):
        s = replace(params, strategy=Strategy.FD1TS, alpha_db=20.0,
                    r_fl_mbps=100.0, r_rl_mbps=100.0).build()
        with pytest.raises(InfeasibleError):
            solve(s)

    def test_infeasible_names_its_cause(self, params):
        s = replace(params, strategy=Strategy.FD1TS, alpha_db=20.0,
                    r_fl_mbps=100.0, r_rl_mbps=100.0).build()
        with pytest.raises(InfeasibleError) as err:
            solve(s)
        assert err.value.cause == "cancellation"
        assert err.value.binding_node == "a"

    def test_fd1ts_beats_fd2ts_on_defaults(self, params):
        e1 = solve(replace(params, strategy=Strategy.FD1TS).build()).ee
        e2 = solve(replace(params, strategy=Strategy.FD2TS).build()).ee
        assert e1 > e2


class TestNumericalBehavior:
    def test_tolerance_stability(self, params):
        """A search ten times finer than solve's moves the energy by less
        than 1e-6 relative."""
        s = replace(params, strategy=Strategy.FD1TS).build()
        e_coarse = solve(s).e_total
        slot, = DESCRIPTIONS[Strategy.FD1TS].slots
        t1, _ = minimize_unimodal_1d(lambda t: slot_cost(s, slot, t),
                                     tmin_for(s).t_min[0], s.frame_t,
                                     1e-8 * s.frame_t)
        e_fine = closed_form_energy(s, FD1TS, t1)
        assert abs(e_fine - e_coarse) / e_coarse < 1e-6

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_scaling_invariance(self, params, strategy):
        """Scaling circuit power and PA draw by c scales E* by c exactly."""
        c = 3.0
        p1 = replace(params, strategy=strategy)
        p2 = replace(p1, p_base_a_mw=100 * c, p_base_r_mw=50 * c,
                     p_base_b_mw=20 * c, p_idle_a_mw=30 * c,
                     p_idle_r_mw=15 * c, p_idle_b_mw=5 * c,
                     epsilon_mw_per_gbps=50 * c, eta_max=0.35 / c)
        s1, s2 = p1.build(), p2.build()
        sched1, sched2 = solve(s1), solve(s2)
        assert sched2.e_total == pytest.approx(c * sched1.e_total, rel=1e-9)
        tol = DURATION_TOL * s1.frame_t
        assert abs(sched2.t1 - sched1.t1) <= 2 * tol
        assert abs(sched2.t2 - sched1.t2) <= 2 * tol

    @pytest.mark.parametrize("pa_kind", list(PaKind))
    def test_all_strategies_solve_both_pa_kinds(self, params, pa_kind):
        for strategy in Strategy:
            s = replace(params, strategy=strategy, pa=pa_kind).build()
            sched = solve(s)
            assert sched.e_total > 0
            assert 0 < sched.t1 <= s.frame_t
