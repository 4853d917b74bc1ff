"""Qualitative shapes of the reference sweeps on the default scenario."""

from dataclasses import replace

import pytest

from fdrelay.config import ScenarioParams
from fdrelay.model import Strategy
from fdrelay.solver import solve
from fdrelay.sweep import Axis, AxisKind, SweepSpec, run_sweep


@pytest.fixture(scope="module")
def cancellation_curves():
    spec = SweepSpec(
        base=ScenarioParams(),
        axis1=Axis.from_range(AxisKind.CANCELLATION_DB, 20.0, 80.0, 5.0))
    curves = {s: {} for s in Strategy}
    for row in run_sweep(spec):
        assert row.feasible
        curves[row.strategy][row.axis1] = row.schedule.ee
    return curves


class TestCancellationSweepShape:
    def test_fd2ts_nondecreasing_in_alpha(self, cancellation_curves):
        ee = [v for _, v in sorted(cancellation_curves[Strategy.FD2TS].items())]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(ee, ee[1:]))

    def test_fd_gap_nonincreasing_above_40db(self, cancellation_curves):
        alphas = sorted(a for a in cancellation_curves[Strategy.FD1TS]
                        if a >= 40.0)
        gaps = [cancellation_curves[Strategy.FD1TS][a]
                - cancellation_curves[Strategy.FD2TS][a] for a in alphas]
        assert all(b <= a for a, b in zip(gaps, gaps[1:])), gaps

    def test_hd_constant_in_alpha(self, cancellation_curves):
        """hd2ts never hears itself: solved on its own at each cancellation
        value of the sweep, it gives the same schedule bit for bit.  The
        sweep's rows share one solve, so they cannot show this."""
        params = replace(ScenarioParams(), strategy=Strategy.HD2TS)
        schedules = {repr(solve(replace(params, alpha_db=a).build()))
                     for a in cancellation_curves[Strategy.HD2TS]}
        assert len(schedules) == 1


class TestTrafficImbalanceShape:
    def test_fd2ts_more_robust_than_fd1ts(self):
        """At fixed 60 Mbps total, the two-slot design barely moves with
        the traffic split, while the single-slot design swings."""
        base = ScenarioParams(r_fl_mbps=30.0, r_rl_mbps=30.0)
        spec = SweepSpec(base=base,
                         axis1=Axis.from_range(AxisKind.TRAFFIC_RATIO,
                                               1.0, 9.0, 2.0),
                         strategies=(Strategy.FD1TS, Strategy.FD2TS))
        curves = {Strategy.FD1TS: [], Strategy.FD2TS: []}
        for row in run_sweep(spec):
            assert row.feasible
            curves[row.strategy].append(row.schedule.ee)

        def spread(values):
            return (max(values) - min(values)) / max(values)

        assert spread(curves[Strategy.FD2TS]) < spread(curves[Strategy.FD1TS])
        assert spread(curves[Strategy.FD2TS]) < 0.05

    def test_pa_efficiency_axis(self):
        """Higher amplifier efficiency always helps, for every strategy."""
        spec = SweepSpec(base=ScenarioParams(),
                         axis1=Axis.from_range(AxisKind.PA_EFFICIENCY,
                                               0.2, 0.5, 0.1))
        by_strategy = {s: [] for s in Strategy}
        for row in run_sweep(spec):
            assert row.feasible
            by_strategy[row.strategy].append((row.axis1, row.schedule.ee))
        for rows in by_strategy.values():
            ee = [v for _, v in sorted(rows)]
            assert all(b > a for a, b in zip(ee, ee[1:]))
