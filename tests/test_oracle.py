import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fdrelay import oracle
from fdrelay.config import ScenarioParams
from fdrelay.feasibility import t_floor, tmin_for
from fdrelay.model import InfeasibleError, PaKind, Strategy
from fdrelay.oracle import (
    OracleReport,
    _best_combination,
    _frame_pass,
    convexity_probe,
    grid_search,
    random_feasible_scenarios,
    random_params,
    verify,
    verify_necessary_conditions,
)
from fdrelay.solver import solve
from fdrelay.strategies import DESCRIPTIONS

from conftest import capacities, slot_powers


class TestGridSearch:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_solver_never_worse_than_grid(self, params, strategy):
        s = replace(params, strategy=strategy).build()
        sched = solve(s)
        best, point = grid_search(s)
        assert sched.e_total <= best * 1.01
        assert point["t1"] > 0

    def test_closed_form_dominates_grid_points(self, params, rng):
        """Equality-active powers beat every rate-feasible alternative."""
        s = replace(params, strategy=Strategy.FD2TS).build()
        t1, t2 = 0.004, 0.0045
        desc = DESCRIPTIONS[Strategy.FD2TS]
        pw = slot_powers(s, desc, t1, t2)
        (p_a, p_r_fwd), (p_b, p_r_rev) = pw
        e_cf = desc.energy_at(s, (t1, t2), pw)
        for _ in range(50):
            a, b, r_fwd, r_rev = (rng.uniform(p, cap) for p, cap in (
                (p_a, s.pa.a.p_max), (p_b, s.pa.b.p_max),
                (p_r_fwd, s.pa.r.p_max), (p_r_rev, s.pa.r.p_max)))
            candidate = ((a, r_fwd), (b, r_rev))
            c_ar, c_rb, c_br, c_ra = capacities(s, desc, (t1, t2), candidate)
            if (c_ar >= s.r_fl and c_rb >= s.r_fl and c_br >= s.r_rl
                    and c_ra >= s.r_rl):
                assert desc.energy_at(s, (t1, t2), candidate) >= e_cf

    def test_closed_form_dominates_grid_points_1ts(self, params, rng):
        s = replace(params, strategy=Strategy.FD1TS).build()
        t1 = 0.007
        desc = DESCRIPTIONS[Strategy.FD1TS]
        pw = slot_powers(s, desc, t1)
        e_cf = desc.energy_at(s, (t1,), pw)
        (slot,) = desc.slots
        for _ in range(50):
            candidate = (tuple(rng.uniform(p, cap) for p, (_, cap)
                               in zip(pw[0], slot.budgets(s))),)
            c_ar, c_br, c_ra, c_rb = capacities(s, desc, (t1,), candidate)
            if (c_ar >= s.r_fl and c_br >= s.r_rl and c_ra >= s.r_rl
                    and c_rb >= s.r_fl):
                assert desc.energy_at(s, (t1,), candidate) >= e_cf

    def test_infeasible_scenario_raises(self, params):
        s = replace(params, strategy=Strategy.FD1TS, alpha_db=20.0,
                    r_fl_mbps=100.0, r_rl_mbps=100.0).build()
        with pytest.raises(InfeasibleError):
            grid_search(s)

    def test_feasibility_agreement(self):
        """Grid emptiness agrees with the feasibility module on a corpus."""
        rng = np.random.default_rng(99)
        strategies = tuple(Strategy)
        checked = 0
        for _ in range(30):
            strategy = strategies[int(rng.integers(0, len(strategies)))]
            total = rng.uniform(20.0, 260.0)
            p = ScenarioParams(alpha_db=rng.uniform(25.0, 80.0),
                               strategy=strategy).with_total_rate(total)
            s = p.build()
            feasible = tmin_for(s).feasible
            try:
                grid_search(s)
                grid_feasible = True
            except InfeasibleError:
                grid_feasible = False
            assert grid_feasible == feasible
            checked += 1
        assert checked == 30

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_combination_matches_loop_over_duration_tuples(self, params,
                                                           strategy):
        """The broadcast combine equals a loop over every duration tuple."""
        s = replace(params, strategy=strategy).build()
        desc = DESCRIPTIONS[strategy]
        t_axis = np.linspace(t_floor(s), s.frame_t - t_floor(s), 15)
        per_slot, _, _ = _frame_pass(s, desc.slots, t_axis,
                                     [np.empty(0)] * len(desc.slots))
        # The grid prices each duration at its anchor, clipped onto the
        # budgets.
        anchors = [np.minimum(np.column_stack(slot.bind(s)(t_axis)),
                              [cap for _, cap in slot.budgets(s)])
                   for slot in desc.slots]
        best = math.inf
        for idx in itertools.product(range(t_axis.size),
                                     repeat=len(desc.slots)):
            durations = [t_axis[i] for i in idx]
            powers = [anchors[k][i] for k, i in enumerate(idx)]
            if sum(durations) > s.frame_t or any(
                    per_slot[k][i] == math.inf for k, i in enumerate(idx)):
                continue
            best = min(best, desc.energy_at(s, durations, powers))
        energy, point = _best_combination(s, t_axis, per_slot)
        assert energy == best
        assert point["t1"] in t_axis


class TestNecessaryConditions:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_solver_optimum_passes(self, params, strategy):
        s = replace(params, strategy=strategy).build()
        sched = solve(s)
        slacks = verify_necessary_conditions(s, sched, tol=1e-9)
        assert set(slacks) == {"c_ar", "c_br", "c_ra", "c_rb"} or \
            set(slacks) == {"c_ar", "c_rb", "c_br", "c_ra"}

    def test_violation_names_constraint(self, params):
        s = replace(params, strategy=Strategy.FD2TS).build()
        sched = solve(s)
        bogus = replace(sched, p_a=sched.p_a * 1.5)
        with pytest.raises(ValueError, match="c_ar"):
            verify_necessary_conditions(s, bogus, tol=1e-9)

    def test_asymptotic_mode_slack_is_bounded_not_zero(self, params):
        p = replace(params, strategy=Strategy.FD1TS, asymptotic_1ts=True)
        s = p.build()
        sched = solve(s)
        with pytest.raises(ValueError):
            verify_necessary_conditions(s, sched, tol=1e-9)
        slacks = verify_necessary_conditions(s, sched, tol=0.05)
        assert all(v > -1e-12 for v in slacks.values())  # over-provisioned


    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_zero_demand_direction_has_no_slack(self, params, strategy):
        s = replace(params, strategy=strategy, r_rl_mbps=0.0).build()
        sched = solve(s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slacks = verify_necessary_conditions(s, sched, tol=1e-9)
        assert {"c_ar", "c_rb"} <= set(slacks)
        assert "c_br" not in slacks and "c_ra" not in slacks
        assert all(math.isfinite(v) for v in slacks.values())


class TestConvexityProbe:
    def test_convex_function_clean(self):
        assert convexity_probe(lambda t: t * t, (0.0, 10.0), n_samples=200) == 0

    def test_concave_negative_control(self):
        v = convexity_probe(lambda t: -t * t, (0.0, 10.0), n_samples=100)
        assert v == 100

    def test_two_dimensional(self):
        assert convexity_probe(lambda x, y: x * x + y * y,
                               ((0.0, 1.0), (0.0, 1.0)), n_samples=100) == 0
        assert convexity_probe(lambda x, y: -(x * x + y * y),
                               ((0.0, 1.0), (0.0, 1.0)), n_samples=100) == 100

    def test_sum_cap_respected(self):
        calls = []

        def f(x, y):
            calls.append((x, y))
            return x * x + y * y

        convexity_probe(f, ((0.0, 1.0), (0.0, 1.0)), n_samples=50,
                        sum_cap=1.0)
        assert len(calls) == 1
        assert all((x + y <= 1.0).all() for x, y in calls)

    def test_sum_cap_that_no_sample_meets_is_refused(self):
        """With a step of 2% of 1, the lowest sample of the box has
        x + y + 2h = 0.08, so a cap of 0.05 rejects every draw: the probe
        refuses it before drawing, where it once drew without end."""
        with pytest.raises(ValueError,
                           match=r"^sum_cap 0\.05 rejects every sample"):
            convexity_probe(lambda x, y: x + y, ((0.0, 1.0), (0.0, 1.0)),
                            n_samples=10, sum_cap=0.05)

    @pytest.mark.parametrize("cap", [0.08, 0.0800001, 0.081])
    def test_sum_cap_that_almost_no_sample_meets_is_refused(self, cap):
        """A cap at or just above the lowest sample's 0.08 accepts a draw
        with probability 0 or about 5e-7: the probe refuses it once it has
        rejected ``_PROBE_MAX_REJECTS`` draws, where it once drew for
        hours."""
        with pytest.raises(ValueError) as err:
            convexity_probe(lambda x, y: x + y, ((0.0, 1.0), (0.0, 1.0)),
                            n_samples=10, sum_cap=cap)
        assert str(err.value).startswith(
            f"sum_cap {cap} rejected {oracle._PROBE_MAX_REJECTS + 1} draws")

    def test_non_finite_value_is_refused(self):
        with pytest.raises(ValueError, match="not finite"):
            convexity_probe(lambda t: t * math.nan, (0.0, 1.0), n_samples=50)
        with pytest.raises(ValueError, match="not finite"):
            convexity_probe(lambda x, y: np.where(x > 0.5, math.inf, x * y),
                            ((0.0, 1.0), (0.0, 1.0)), n_samples=50)


class TestVerify:
    def test_report_attached_by_solver(self, params):
        s = replace(params, strategy=Strategy.FD1TS).build()
        sched = solve(s)
        report = verify(s, sched)
        assert isinstance(report, OracleReport)
        assert report.ok
        assert report.solver_energy == pytest.approx(sched.e_total)
        assert report.convexity_violations == 0
        # the grid can only tie or lose against the exact solver
        assert report.relative_gap <= 0.0 + 1e-12

    def test_random_corpus_verifies(self):
        for strategy in Strategy:
            scenarios = random_feasible_scenarios(7, strategy, PaKind.ETPA, 3)
            for s in scenarios:
                report = verify(s, solve(s))
                assert report.ok, report

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_schedule_that_misses_a_demand_fails(self, params, strategy):
        """Twice the solved p_a leaves e_total and the grid gap as they
        are.  For fd1ts and hd2ts it crowds b's uplink, which then misses
        its demand; fd2ts sends a and b in different slots and meets every
        demand.  The report keeps every slack either way."""
        s = replace(params, strategy=strategy).build()
        sched = solve(s)
        report = verify(s, replace(sched, p_a=2 * sched.p_a))
        slacks = report.active_constraints
        assert set(slacks) == {"c_ar", "c_br", "c_ra", "c_rb"}
        assert report.relative_gap <= 0.01
        assert report.convexity_violations == 0
        if strategy is Strategy.FD2TS:
            assert min(slacks.values()) >= 0.0
            assert report.ok
        else:
            assert slacks["c_br"] < -1e-4
            assert not report.ok

    @pytest.mark.parametrize("pa_kind", list(PaKind))
    @pytest.mark.parametrize("strategy", [Strategy.FD1TS, Strategy.HD2TS])
    def test_silent_end_nodes_fail(self, params, strategy, pa_kind):
        """With both end nodes silent, both binned uplinks carry 0 bit/s:
        each misses its whole demand, and the report is FAILED, not a
        division by zero."""
        s = replace(params, strategy=strategy, pa=pa_kind).build()
        report = verify(s, replace(solve(s), p_a=0.0, p_b=0.0))
        slacks = report.active_constraints
        assert slacks["c_ar"] == slacks["c_br"] == -1.0
        assert not report.ok

    @pytest.mark.parametrize("node", ["a", "b"])
    @pytest.mark.parametrize("pa_kind", list(PaKind))
    @pytest.mark.parametrize("strategy", [Strategy.FD1TS, Strategy.HD2TS])
    def test_one_silent_end_node_fails(self, params, strategy, pa_kind, node):
        """With one end node silent, its binned uplink carries 0 bit/s,
        with no warning: that link misses its whole demand, and the report
        is FAILED."""
        s = replace(params, strategy=strategy, pa=pa_kind).build()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify(s, replace(solve(s), **{f"p_{node}": 0.0}))
        assert report.active_constraints[f"c_{node}r"] == -1.0
        assert not report.ok


class TestRandomGeneration:
    def test_deterministic(self):
        a = random_feasible_scenarios(5, Strategy.FD2TS, PaKind.TPA, 4)
        b = random_feasible_scenarios(5, Strategy.FD2TS, PaKind.TPA, 4)
        assert [s.r_fl for s in a] == [s.r_fl for s in b]

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_fewer_than_one_scenario(self, n, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a scenario")
        monkeypatch.setattr("fdrelay.oracle.random_params", no_draw)
        with pytest.raises(ValueError, match="at least one scenario"):
            random_feasible_scenarios(5, Strategy.FD2TS, PaKind.TPA, n)

    def test_params_within_documented_ranges(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_params(rng, Strategy.FD1TS, PaKind.ETPA)
            assert 10.0 <= p.d_ar_m <= 200.0
            assert 30.0 <= p.alpha_db <= 80.0
            assert 5.0 <= p.total_rate_mbps <= 120.0
