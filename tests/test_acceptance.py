"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  All tolerances are fixed here, not calibrated at runtime.
"""

import io
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fdrelay.cli import cli_main
from fdrelay.config import ScenarioParams
from fdrelay.feasibility import tmin_1ts, tmin_2ts, tmin_for, tmin_hd
from fdrelay.model import PaKind, Strategy
from fdrelay.oracle import (
    convexity_probe,
    grid_search,
    random_feasible_scenarios,
    verify_necessary_conditions,
)
from fdrelay.solver import solve
from fdrelay.strategies import energy_1ts, energy_2ts, energy_hd, powers_1ts
from fdrelay.sweep import Axis, AxisKind, SweepSpec, emit_csv, run_sweep

SCENARIOS_PER_COMBO = 50
PROBE_SAMPLES = 1000


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


@pytest.fixture(scope="module")
def corpus():
    """Seeded feasible scenarios and their solved schedules, per combo."""
    out = {}
    seed = 20260800
    for strategy in Strategy:
        for pa_kind in PaKind:
            seed += 1
            scenarios = random_feasible_scenarios(
                seed, strategy, pa_kind, SCENARIOS_PER_COMBO)
            out[(strategy, pa_kind)] = [(s, solve(s)) for s in scenarios]
    return out


def test_criterion_1_oracle_dominance(corpus):
    """Solver energy within 1% of the brute-force grid best, everywhere."""
    t0 = time.time()
    checked = 0
    worst = -math.inf
    for (strategy, pa_kind), pairs in corpus.items():
        for scenario, schedule in pairs:
            best, _ = grid_search(scenario)
            gap = (schedule.e_total - best) / best
            worst = max(worst, gap)
            assert schedule.e_total <= best * 1.01, (
                f"{strategy}/{pa_kind}: solver {schedule.e_total} vs grid {best}")
            checked += 1
    elapsed = time.time() - t0
    assert checked == SCENARIOS_PER_COMBO * 6
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    report("1 oracle-dominance",
           f"{checked} scenarios, worst gap {worst:+.2e}, {elapsed:.1f}s")


def test_criterion_2_necessary_conditions(corpus):
    """Rate constraints active at every exact-mode solver optimum."""
    checked = 0
    for (strategy, pa_kind), pairs in corpus.items():
        for scenario, schedule in pairs:
            slacks = verify_necessary_conditions(scenario, schedule, tol=1e-9)
            if strategy is Strategy.FD2TS:
                assert all(abs(v) <= 1e-9 for v in slacks.values())
            else:
                assert abs(slacks["c_ar"]) <= 1e-9
                assert abs(slacks["c_br"]) <= 1e-9
                lo = min(slacks["c_ra"], slacks["c_rb"])
                assert -1e-9 <= lo <= 1e-9
            checked += 1
    report("2 necessary-conditions",
           f"{checked} optima, all active to 1e-9 relative slack")


def test_criterion_3_convexity_probes():
    """No negative second differences on the convex objectives."""
    base = ScenarioParams()
    total_violations = 0

    def two_slot_domain(s, window):
        t1_min, t2_min = window.t_min
        return ((t1_min, s.frame_t - t2_min), (t2_min, s.frame_t - t1_min))

    for pa_kind in PaKind:
        s2 = replace(base, strategy=Strategy.FD2TS, pa=pa_kind).build()
        w2 = tmin_2ts(s2)
        total_violations += convexity_probe(
            lambda a, b: energy_2ts(s2, a, b), two_slot_domain(s2, w2),
            n_samples=PROBE_SAMPLES, sum_cap=s2.frame_t)
        # Single-slot convexity is a high-load statement about the
        # approximate objective; the exact one is probed as well.
        for asymptotic in (True, False):
            s1 = replace(base, strategy=Strategy.FD1TS, pa=pa_kind,
                         asymptotic_1ts=asymptotic).build()
            w1 = tmin_1ts(s1)
            total_violations += convexity_probe(
                lambda t: energy_1ts(s1, t), (w1.t_min[0], s1.frame_t),
                n_samples=PROBE_SAMPLES)

    sh = replace(base, strategy=Strategy.HD2TS, pa=PaKind.ETPA).build()
    wh = tmin_hd(sh)
    total_violations += convexity_probe(
        lambda a, b: energy_hd(sh, a, b), two_slot_domain(sh, wh),
        n_samples=PROBE_SAMPLES, sum_cap=sh.frame_t)
    assert total_violations == 0

    # HD under TPA is only quasi-convex: check unimodality along each axis.
    sq = replace(base, strategy=Strategy.HD2TS, pa=PaKind.TPA).build()
    wq = tmin_hd(sq)
    kinks = 0
    for frac in (0.3, 0.5, 0.7):
        t2 = wq.t_min[1] + frac * (sq.frame_t / 2 - wq.t_min[1])
        grid = np.linspace(wq.t_min[0], sq.frame_t - t2, 300)
        vals = np.array([energy_hd(sq, t, t2) for t in grid])
        diffs = np.diff(vals)
        rising = diffs > 1e-12 * vals[:-1]
        first_rise = int(np.argmax(rising)) if rising.any() else len(diffs)
        assert not np.any(diffs[first_rise:] < -1e-12 * vals[first_rise:-1] - 0), \
            "HD/TPA energy not unimodal along t1"
        kinks += 1

    # Negative control: the probe must flag a concave function.
    flagged = convexity_probe(lambda t: -(t - 3.0) ** 2, (0.0, 10.0),
                              n_samples=100)
    assert flagged == 100
    report("3 convexity-probes",
           f"{PROBE_SAMPLES} samples x 7 objectives clean, HD/TPA unimodal "
           f"on {kinks} sections, concave control flagged {flagged}/100")


def test_criterion_4_asymptotic_consistency():
    """Exact and high-load single-slot powers agree at the optimum."""
    base = ScenarioParams(strategy=Strategy.FD1TS)
    errs = []
    for total in range(40, 121, 10):
        p = base.with_total_rate(float(total))
        s = p.build()
        schedule = solve(s)
        exact = powers_1ts(s, schedule.t1)
        approx = powers_1ts(replace(p, asymptotic_1ts=True).build(),
                            schedule.t1)
        err = max(abs(approx.p_a - exact.p_a) / exact.p_a,
                  abs(approx.p_b - exact.p_b) / exact.p_b,
                  abs(approx.p_r - exact.p_r) / exact.p_r)
        assert err <= 0.02, f"total={total}: power mismatch {err:.3%}"
        errs.append(err)
    assert all(nxt <= cur + 1e-8 for cur, nxt in zip(errs, errs[1:])), \
        f"mismatch does not shrink with load: {errs}"
    report("4 asymptotic-consistency",
           f"max err {max(errs):.3%} at 40 Mbps down to {errs[-1]:.3%} "
           f"at 120 Mbps, monotone")


def test_criterion_5_cancellation_sweep_shape():
    """Qualitative self-cancellation behavior at balanced 65 Mbps."""
    base = ScenarioParams(r_fl_mbps=32.5, r_rl_mbps=32.5)
    alphas = [float(a) for a in range(20, 81, 5)]
    ee = {}
    for strategy in Strategy:
        ee[strategy] = []
        for alpha in alphas:
            s = replace(base, alpha_db=alpha, strategy=strategy).build()
            ee[strategy].append(solve(s).ee)

    # full-FD never loses to relay-only-FD
    for a, e1, e2 in zip(alphas, ee[Strategy.FD1TS], ee[Strategy.FD2TS]):
        assert e1 >= e2, f"ordering violated at alpha={a}"

    # both FD curves flatten above 70 dB (< 1%/dB relative slope)
    for strategy in (Strategy.FD1TS, Strategy.FD2TS):
        curve = ee[strategy]
        for i, a in enumerate(alphas):
            if a < 70.0 or a == alphas[-1]:
                continue
            slope = abs(curve[i + 1] - curve[i]) / (curve[i] * 5.0)
            assert slope < 0.01, f"{strategy} slope {slope:.3%}/dB at {a}"

    # the HD baseline has no self-interference path at all
    hd = ee[Strategy.HD2TS]
    assert (max(hd) - min(hd)) / min(hd) < 1e-9

    # 9:1 imbalance collapses HD efficiency but barely moves FD2TS
    hd_bal = solve(replace(base, strategy=Strategy.HD2TS).build()).ee
    hd_skew = solve(replace(base, strategy=Strategy.HD2TS)
                    .with_traffic_ratio(9.0).build()).ee
    fd2_bal = solve(replace(base, strategy=Strategy.FD2TS).build()).ee
    fd2_skew = solve(replace(base, strategy=Strategy.FD2TS)
                     .with_traffic_ratio(9.0).build()).ee
    assert hd_skew < 0.95 * hd_bal
    fd2_change = abs(fd2_skew - fd2_bal) / fd2_bal
    assert fd2_change < 0.05
    report("5 cancellation-sweep",
           f"FD1TS>=FD2TS on [20,80] dB, flat above 70 dB, HD invariant; "
           f"9:1 moves HD {100 * (hd_skew / hd_bal - 1):+.0f}% vs FD2TS "
           f"{100 * (fd2_skew / fd2_bal - 1):+.2f}%")


def max_balanced_rate(strategy: Strategy, alpha_db: float = 60.0) -> float:
    """Largest feasible balanced total rate in Mbit/s, by bisection."""
    base = ScenarioParams(strategy=strategy, alpha_db=alpha_db)

    def feasible(total: float) -> bool:
        return tmin_for(base.with_total_rate(total).build()).feasible

    lo, hi = 1.0, 500.0
    if not feasible(lo):
        return 0.0
    assert not feasible(hi)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def test_criterion_6_rate_region_ratio():
    """The full-FD design roughly doubles the HD-supportable demand."""
    fd1 = max_balanced_rate(Strategy.FD1TS)
    hd = max_balanced_rate(Strategy.HD2TS)
    ratio = fd1 / hd
    assert 1.7 <= ratio <= 2.3, f"rate-region ratio {ratio:.3f}"
    # reported, not gated: efficiencies at a jointly feasible workload
    base = ScenarioParams().with_total_rate(60.0)
    ee_fd1 = solve(replace(base, strategy=Strategy.FD1TS).build()).ee
    ee_hd = solve(replace(base, strategy=Strategy.HD2TS).build()).ee
    report("6 rate-region-ratio",
           f"FD1TS max {fd1:.1f} Mbps vs HD {hd:.1f} Mbps, ratio {ratio:.2f}; "
           f"EE at 60 Mbps: FD1TS {ee_fd1:.3e}, HD {ee_hd:.3e} bit/J")


def test_criterion_7_partial_frame_optima():
    """Low demand leaves idle time; full-FD can stop short of the frame."""
    base = ScenarioParams()
    for total in (20.0, 30.0, 40.0):
        s = replace(base, strategy=Strategy.HD2TS).with_total_rate(total).build()
        sched = solve(s)
        assert sched.t1 + sched.t2 < s.frame_t * (1 - 1e-6), \
            f"HD at {total} Mbps uses the whole frame"

    # Ideal amplifier and zero circuit power, high-load power formulas: the
    # single-slot optimum still stops short of the frame at low demand.
    stripped = ScenarioParams(
        strategy=Strategy.FD1TS, etpa_u=0.0, epsilon_mw_per_gbps=0.0,
        p_base_a_mw=0.0, p_base_r_mw=0.0, p_base_b_mw=0.0,
        p_idle_a_mw=0.0, p_idle_r_mw=0.0, p_idle_b_mw=0.0,
        alpha_db=40.0, asymptotic_1ts=True).with_total_rate(20.0)
    s = stripped.build()
    sched = solve(s)
    assert sched.t1 < s.frame_t * (1 - 1e-6)
    report("7 partial-frame-optima",
           f"HD idle time at <=40 Mbps; stripped FD1TS t1*={sched.t1 * 1e3:.3f} ms "
           f"of {s.frame_t * 1e3:.0f} ms at 20 Mbps")


def test_criterion_8_determinism():
    """Identical sweep configuration reproduces byte-identical CSV."""
    spec = SweepSpec(
        base=ScenarioParams(),
        axis1=Axis.from_range(AxisKind.CANCELLATION_DB, 20.0, 80.0, 10.0))
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        emit_csv(run_sweep(spec), buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]

    outs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        code = cli_main(["sweep", "--axis", "total-rate", "--from", "40",
                         "--to", "80", "--step", "20"], out, err)
        assert code == 0
        outs.append(out.getvalue())
    assert outs[0] == outs[1]
    report("8 determinism",
           f"{len(bufs[0].splitlines())}-line CSV byte-identical across reruns")
