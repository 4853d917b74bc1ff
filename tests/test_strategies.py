import math
from dataclasses import replace

import numpy as np
import pytest

from fdrelay.config import ScenarioParams
from fdrelay.feasibility import tmin_for
from fdrelay.model import CircuitAccounting, InfeasibleError, PaKind, RelayCase, Strategy
from fdrelay.strategies import (
    DESCRIPTIONS,
    PowerAssignment1TS,
    PowerAssignment2TS,
    _relay_cases,
    caps_1ts,
    caps_2ts,
    caps_hd,
    energy_1ts,
    energy_1ts_at,
    energy_2ts,
    energy_2ts_at,
    energy_hd,
    powers_1ts,
    powers_2ts,
    powers_hd,
)

from conftest import random_scenario_params


def relay_case_assignments(s, t1):
    """Both fd1ts relay-power candidates as assignments, case I first."""
    return tuple(PowerAssignment1TS(*powers, case)
                 for powers, case in zip(_relay_cases(s, t1), RelayCase))


def loads(s, t_fl, t_rl):
    """Spectral loads (lambda_fl, lambda_rl) in bit/s/Hz when each
    direction's frame demand is sent within its duration."""
    return (s.r_fl * s.frame_t / (s.bandwidth_w * t_fl),
            s.r_rl * s.frame_t / (s.bandwidth_w * t_rl))


def bisect_root(f, lo, hi, iters=200):
    """Independent scalar root finder used as an inversion oracle."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCaps2TS:
    def test_unit_snr_gives_one_bit(self, make_scenario):
        s = make_scenario(gs=0.0)
        sigma2 = s.channels.sigma2_r
        pw = PowerAssignment2TS(p_a=sigma2 / s.channels.g_ar, p_b=0.0,
                                p_r_fwd=0.0, p_r_rev=0.0)
        c_ar, _, _, _ = caps_2ts(s, 0.004, 0.004, pw)
        assert c_ar == pytest.approx(0.004 / s.frame_t * s.bandwidth_w)

    def test_relay_power_suppresses_uplink(self, make_scenario):
        s = make_scenario(gs=1e-12)
        base = PowerAssignment2TS(p_a=1.0, p_b=1.0, p_r_fwd=1e-6, p_r_rev=1e-6)
        strong = PowerAssignment2TS(p_a=1.0, p_b=1.0, p_r_fwd=1e4, p_r_rev=1e4)
        c_lo = caps_2ts(s, 0.004, 0.004, base)[0]
        c_hi = caps_2ts(s, 0.004, 0.004, strong)[0]
        assert c_hi < 1e-3 * c_lo


class TestPowers2TS:
    def test_unit_load_relay_power(self, make_scenario):
        s = make_scenario(gs=0.0)
        # lambda_fl = 1 when t1 = r_fl * T / W
        t1 = s.r_fl * s.frame_t / s.bandwidth_w
        pw = powers_2ts(s, t1, 0.004)
        assert pw.p_r_fwd == pytest.approx(s.channels.sigma2_b / s.channels.g_rb)

    def test_no_self_interference_is_point_to_point(self, make_scenario):
        s = make_scenario(gs=0.0)
        lambda_fl, lambda_rl = loads(s, 0.003, 0.004)
        pw = powers_2ts(s, 0.003, 0.004)
        expected = (s.channels.sigma2_r / s.channels.g_ar
                    * (2 ** lambda_fl - 1))
        assert pw.p_a == pytest.approx(expected)

    def test_round_trip_constraints_active(self, make_scenario):
        s = make_scenario(gs=1e-15)
        for t1, t2 in ((0.002, 0.0035), (0.005, 0.005), (0.0071, 0.0013)):
            pw = powers_2ts(s, t1, t2)
            c_ar, c_rb, c_br, c_ra = caps_2ts(s, t1, t2, pw)
            assert c_ar == pytest.approx(s.r_fl, rel=1e-9)
            assert c_rb == pytest.approx(s.r_fl, rel=1e-9)
            assert c_br == pytest.approx(s.r_rl, rel=1e-9)
            assert c_ra == pytest.approx(s.r_rl, rel=1e-9)

    def test_against_independent_root_finder(self, params):
        """Re-derive the slot-1 powers by inverting the capacity equations."""
        s = replace(params, strategy=Strategy.FD2TS).build()
        t1 = t2 = s.frame_t / 2.0
        ch = s.channels
        pw = powers_2ts(s, t1, t2)

        def c_rb_err(p_r):
            a = PowerAssignment2TS(0.0, 0.0, p_r, 0.0)
            return caps_2ts(s, t1, t2, a)[1] - s.r_fl

        p_r_fwd = bisect_root(c_rb_err, 0.0, 1e3)
        assert p_r_fwd == pytest.approx(pw.p_r_fwd, rel=1e-9)

        def c_ar_err(p_a):
            a = PowerAssignment2TS(p_a, 0.0, p_r_fwd, 0.0)
            return caps_2ts(s, t1, t2, a)[0] - s.r_fl

        p_a = bisect_root(c_ar_err, 0.0, 1e3)
        assert p_a == pytest.approx(pw.p_a, rel=1e-9)

    def test_components_decrease_in_own_duration(self, make_scenario):
        s = make_scenario(gs=1e-15)
        ts = np.linspace(0.001, 0.009, 30)
        p_a = [powers_2ts(s, t, 0.005).p_a for t in ts]
        p_rf = [powers_2ts(s, t, 0.005).p_r_fwd for t in ts]
        p_b = [powers_2ts(s, 0.005, t).p_b for t in ts]
        p_rr = [powers_2ts(s, 0.005, t).p_r_rev for t in ts]
        for seq in (p_a, p_rf, p_b, p_rr):
            assert all(x > y for x, y in zip(seq, seq[1:]))

    def test_overflow_guard(self, make_scenario):
        s = make_scenario()
        pw = powers_2ts(s, 1e-12, 0.005)
        assert math.isinf(pw.p_a) and math.isinf(pw.p_r_fwd)
        assert math.isfinite(pw.p_b)


class TestEnergy2TS:
    def test_zero_powers_leave_circuit_terms(self, make_scenario):
        s = make_scenario(u=0.0, eps=0.0, p_base=(0.0, 0.0, 0.0))
        pw = PowerAssignment2TS(0.0, 0.0, 0.0, 0.0)
        t1, t2 = 0.002, 0.003
        expected_idle = s.p_idle_total * (s.frame_t - t1 - t2)
        assert energy_2ts_at(s, t1, t2, pw) == pytest.approx(expected_idle)

    def test_transmit_energy_isolation(self, make_scenario):
        s = make_scenario(u=0.0, eps=0.0, p_base=(0.0, 0.0, 0.0),
                          p_idle=(0.0, 0.0, 0.0))
        t1 = t2 = 0.004
        pw = powers_2ts(s, t1, t2)
        expected = ((pw.p_a + pw.p_r_fwd) * t1 + (pw.p_b + pw.p_r_rev) * t2) / 0.35
        assert energy_2ts(s, t1, t2) == pytest.approx(expected)

    def test_etpa_expansion_second_coding(self, params):
        """Same objective written as an explicit function of the loads."""
        p = replace(params, strategy=Strategy.FD2TS,
                    r_fl_mbps=30.0, r_rl_mbps=30.0)
        s = p.build()
        t1 = t2 = 0.004
        ch, circ = s.channels, s.circuit
        uk = s.pa.a.u * s.pa.a.kappa
        scale = (1.0 + uk) * s.pa.a.eta_max
        lambda_fl, lambda_rl = loads(s, t1, t2)
        x = 2 ** lambda_fl - 1.0
        y = 2 ** lambda_rl - 1.0
        alpha_1 = ch.sigma2_r / (scale * ch.g_ar) + ch.sigma2_b / (scale * ch.g_rb)
        alpha_2 = ch.sigma2_r / (scale * ch.g_br) + ch.sigma2_a / (scale * ch.g_ra)
        beta_1 = ch.sigma2_b * ch.gs_r / (scale * ch.g_ar * ch.g_rb)
        beta_2 = ch.sigma2_a * ch.gs_r / (scale * ch.g_br * ch.g_ra)
        floors = uk * (s.pa.a.p_max + s.pa.r.p_max) / scale
        statics = circ.a.p_base + circ.b.p_base + 2 * circ.r.p_base
        p_1 = floors + statics + 4 * circ.a.epsilon * s.r_fl - s.p_idle_total
        p_2 = floors + statics + 4 * circ.a.epsilon * s.r_rl - s.p_idle_total
        expansion = ((alpha_1 * x + beta_1 * x * x + p_1) * t1
                     + (alpha_2 * y + beta_2 * y * y + p_2) * t2
                     + s.p_idle_total * s.frame_t)
        assert energy_2ts(s, t1, t2) == pytest.approx(expansion, rel=1e-12)

    def test_tpa_expansion_second_coding(self, params):
        p = replace(params, strategy=Strategy.FD2TS, pa=PaKind.TPA,
                    r_fl_mbps=30.0, r_rl_mbps=30.0)
        s = p.build()
        t1, t2 = 0.0035, 0.0045
        ch, circ = s.channels, s.circuit
        eta = s.pa.a.eta_max
        lambda_fl, lambda_rl = loads(s, t1, t2)
        x = 2 ** lambda_fl - 1.0
        y = 2 ** lambda_rl - 1.0
        beta11 = s.pa.a.p_max * ch.sigma2_r / (eta ** 2 * ch.g_ar)
        gamma1 = (s.pa.a.p_max * ch.sigma2_b * ch.gs_r
                  / (eta ** 2 * ch.g_ar * ch.g_rb))
        alpha11 = s.pa.r.p_max * ch.sigma2_b / (eta ** 2 * ch.g_rb)
        beta12 = s.pa.b.p_max * ch.sigma2_r / (eta ** 2 * ch.g_br)
        gamma2 = (s.pa.b.p_max * ch.sigma2_a * ch.gs_r
                  / (eta ** 2 * ch.g_br * ch.g_ra))
        alpha12 = s.pa.r.p_max * ch.sigma2_a / (eta ** 2 * ch.g_ra)
        statics = circ.a.p_base + circ.b.p_base + 2 * circ.r.p_base
        p_1 = statics + 4 * circ.a.epsilon * s.r_fl - s.p_idle_total
        p_2 = statics + 4 * circ.a.epsilon * s.r_rl - s.p_idle_total
        expansion = ((math.sqrt(beta11 * x + gamma1 * x * x)
                      + math.sqrt(alpha11 * x) + p_1) * t1
                     + (math.sqrt(beta12 * y + gamma2 * y * y)
                        + math.sqrt(alpha12 * y) + p_2) * t2
                     + s.p_idle_total * s.frame_t)
        assert energy_2ts(s, t1, t2) == pytest.approx(expansion, rel=1e-12)


class TestCaps1TS:
    def test_equal_shares_substitution(self, make_scenario):
        s = make_scenario(gs=1e-15)
        ch = s.channels
        p_a = 1.0
        p_b = p_a * ch.g_ar / ch.g_br
        p_r = (p_a * ch.g_ar - ch.sigma2_r) / ch.gs_r
        c_ar, c_br, _, _ = caps_1ts(s, 0.004, p_a, p_b, p_r)
        w1 = 0.004 / s.frame_t * s.bandwidth_w
        assert c_ar == pytest.approx(w1 * math.log2(1.5))
        assert c_br == pytest.approx(w1 * math.log2(1.5))

    def test_downlink_unit_snr(self, make_scenario):
        s = make_scenario(gs=0.0)
        ch = s.channels
        p_r = ch.sigma2_a / ch.g_ra
        _, _, c_ra, _ = caps_1ts(s, 0.004, 1.0, 1.0, p_r)
        assert c_ra == pytest.approx(0.004 / s.frame_t * s.bandwidth_w)


class TestPowers1TS:
    def test_symmetric_scenario(self, make_scenario):
        s = make_scenario(strategy=Strategy.FD1TS, g_ar=1e-12, g_br=1e-12,
                          gs=1e-16, r_fl=3e7, r_rl=3e7)
        pw = powers_1ts(s, 0.008)
        assert pw.p_a == pytest.approx(pw.p_b)
        assert energy_1ts(s, 0.008) == pytest.approx(
            energy_1ts_at(s, 0.008, pw))

    def test_interference_free_asymptotic_limit(self, make_scenario):
        s = make_scenario(strategy=Strategy.FD1TS, gs=0.0, asymptotic=True)
        t1 = 0.006
        lambda_fl, lambda_rl = loads(s, t1, t1)
        pw = powers_1ts(s, t1)
        expected = max(
            2 ** lambda_rl * s.channels.sigma2_a / s.channels.g_ra,
            2 ** lambda_fl * s.channels.sigma2_b / s.channels.g_rb)
        assert pw.p_r == pytest.approx(expected)

    def test_exact_round_trip(self, params):
        s = replace(params, strategy=Strategy.FD1TS,
                    r_fl_mbps=30.0, r_rl_mbps=30.0).build()
        for t1 in (s.frame_t, 0.6 * s.frame_t, 0.41 * s.frame_t):
            pw = powers_1ts(s, t1)
            c_ar, c_br, c_ra, c_rb = caps_1ts(s, t1, pw.p_a, pw.p_b, pw.p_r)
            assert c_ar == pytest.approx(s.r_fl, rel=1e-9)
            assert c_br == pytest.approx(s.r_rl, rel=1e-9)
            slack = min(c_ra - s.r_rl, c_rb - s.r_fl)
            assert abs(slack) <= 1e-9 * max(s.r_fl, s.r_rl)
            assert c_ra >= s.r_rl * (1 - 1e-9)
            assert c_rb >= s.r_fl * (1 - 1e-9)

    def test_unbalanced_round_trip_and_case(self, params):
        p = replace(params, strategy=Strategy.FD1TS,
                    r_fl_mbps=50.0, r_rl_mbps=10.0)
        s = p.build()
        pw = powers_1ts(s, 0.8 * s.frame_t)
        c_ar, c_br, c_ra, c_rb = caps_1ts(s, 0.8 * s.frame_t,
                                          pw.p_a, pw.p_b, pw.p_r)
        assert c_ar == pytest.approx(s.r_fl, rel=1e-9)
        assert c_br == pytest.approx(s.r_rl, rel=1e-9)
        if pw.active_case is RelayCase.CASE_I:
            assert c_ra == pytest.approx(s.r_rl, rel=1e-9)
        else:
            assert c_rb == pytest.approx(s.r_fl, rel=1e-9)

    def test_cancellation_failure_raises(self, make_scenario):
        # Self-coupling on par with the links: the case denominators close.
        s = make_scenario(strategy=Strategy.FD1TS, gs=1e-12, r_fl=6e7,
                          r_rl=6e7)
        with pytest.raises(InfeasibleError) as err:
            powers_1ts(s, s.frame_t)
        assert err.value.cause == "cancellation"

    def test_asymptotic_consistency(self, params):
        p = replace(params, strategy=Strategy.FD1TS,
                    r_fl_mbps=30.0, r_rl_mbps=30.0)
        exact = p.build()
        approx = replace(p, asymptotic_1ts=True).build()
        for t1 in (0.003, 0.005, 0.008, 0.01):
            lambda_fl, lambda_rl = loads(exact, t1, t1)
            bound = 4.0 / (2 ** lambda_fl + 2 ** lambda_rl)
            pe = powers_1ts(exact, t1)
            pa = powers_1ts(approx, t1)
            for name in ("p_a", "p_b", "p_r"):
                rel = abs(getattr(pa, name) - getattr(pe, name)) / getattr(pe, name)
                assert rel <= bound

    def test_asymptotic_converges_with_load(self, params):
        p = replace(params, strategy=Strategy.FD1TS)
        exact = p.build()
        approx = replace(p, asymptotic_1ts=True).build()
        rels = []
        for t1 in (0.009, 0.006, 0.004, 0.003):
            pe = powers_1ts(exact, t1)
            pa = powers_1ts(approx, t1)
            rels.append(abs(pa.p_r - pe.p_r) / pe.p_r)
        assert all(hi > lo for hi, lo in zip(rels, rels[1:]))


class TestEnergy1TS:
    def test_full_frame_has_no_idle_term(self, make_scenario):
        s_idle = make_scenario(strategy=Strategy.FD1TS, p_idle=(1.0, 1.0, 1.0))
        s_none = make_scenario(strategy=Strategy.FD1TS, p_idle=(0.0, 0.0, 0.0))
        t1 = s_idle.frame_t
        assert energy_1ts(s_idle, t1) == pytest.approx(energy_1ts(s_none, t1))

    def test_symmetric_cases_degenerate(self, make_scenario):
        s = make_scenario(strategy=Strategy.FD1TS, gs=1e-16)
        case1, case2 = relay_case_assignments(s, 0.007)
        assert case1.p_r == pytest.approx(case2.p_r)
        assert energy_1ts_at(s, 0.007, case1) == pytest.approx(
            energy_1ts_at(s, 0.007, case2))

    def test_accounting_modes_differ_as_stated(self, make_scenario):
        printed = make_scenario(strategy=Strategy.FD1TS)
        fp = make_scenario(strategy=Strategy.FD1TS,
                           accounting=CircuitAccounting.FIRST_PRINCIPLES)
        t1 = 0.006
        eps = printed.circuit.a.epsilon
        want = eps * (3 * (printed.r_fl + printed.r_rl)
                      + max(printed.r_fl, printed.r_rl)) \
            - eps * (printed.r_fl + 2 * printed.r_rl)
        got = energy_1ts(fp, t1) - energy_1ts(printed, t1)
        assert got == pytest.approx(want * t1, rel=1e-12)


class TestHd:
    def test_caps_substitutions(self, make_scenario):
        s = make_scenario(strategy=Strategy.HD2TS, gs=0.0)
        ch = s.channels
        p_a = ch.sigma2_r / ch.g_ar
        p_b = ch.sigma2_r / ch.g_br
        c_ar, c_br, c_ra, c_rb = caps_hd(s, 0.004, 0.004, p_a, p_b,
                                         ch.sigma2_a / ch.g_ra)
        w = 0.004 / s.frame_t * s.bandwidth_w
        assert c_ar == pytest.approx(w * math.log2(1.5))
        assert c_br == pytest.approx(w * math.log2(1.5))
        assert c_ra == pytest.approx(w)

    def test_powers_arithmetic(self, make_scenario):
        s = make_scenario(strategy=Strategy.HD2TS)
        # lambda exponents of 1 each: t1 = r * T / W with equal rates
        t1 = s.r_fl * s.frame_t / s.bandwidth_w
        p_a, p_b, _ = powers_hd(s, t1, 0.004)
        assert p_a == pytest.approx(1.5 * s.channels.sigma2_r / s.channels.g_ar)
        assert p_b == pytest.approx(1.5 * s.channels.sigma2_r / s.channels.g_br)

    def test_symmetric_relay_max_degenerate(self, make_scenario):
        s = make_scenario(strategy=Strategy.HD2TS)
        ch = s.channels
        t2 = 0.0045
        l3 = 2 ** (s.r_fl * s.frame_t / (s.bandwidth_w * t2))
        _, _, p_r = powers_hd(s, 0.004, t2)
        assert p_r == pytest.approx((l3 - 1) * ch.sigma2_b / ch.g_rb)
        assert p_r == pytest.approx((l3 - 1) * ch.sigma2_a / ch.g_ra)

    def test_round_trip(self, params):
        s = replace(params, strategy=Strategy.HD2TS,
                    r_fl_mbps=30.0, r_rl_mbps=30.0).build()
        t1 = t2 = 0.005
        p_a, p_b, p_r = powers_hd(s, t1, t2)
        c_ar, c_br, c_ra, c_rb = caps_hd(s, t1, t2, p_a, p_b, p_r)
        assert c_ar == pytest.approx(s.r_fl, rel=1e-9)
        assert c_br == pytest.approx(s.r_rl, rel=1e-9)
        assert min(c_ra - s.r_rl, c_rb - s.r_fl) == pytest.approx(0.0, abs=1e-9 * s.r_fl)

    def test_energy_modes(self, make_scenario):
        printed = make_scenario(strategy=Strategy.HD2TS)
        fp = make_scenario(strategy=Strategy.HD2TS,
                           accounting=CircuitAccounting.FIRST_PRINCIPLES)
        t1, t2 = 0.004, 0.005
        eps = printed.circuit.a.epsilon
        both = printed.r_fl + printed.r_rl
        want = eps * both * t1 + eps * both * t2
        got = energy_hd(fp, t1, t2) - energy_hd(printed, t1, t2)
        assert got == pytest.approx(want, rel=1e-12)


class TestCrossCutting:
    def test_relabeling_symmetry(self, make_scenario):
        """Swapping the end nodes with their traffic leaves energy unchanged.

        The single-slot strategy runs under first-principles accounting:
        its printed dynamic-circuit constant is asymmetric in the two
        demands by construction (see test_accounting_modes_differ_as_stated).
        """
        kwargs = dict(g_ar=1.3e-12, g_br=0.7e-12, gs=1e-16, r_fl=3e7, r_rl=1.5e7)
        swapped = dict(g_ar=0.7e-12, g_br=1.3e-12, gs=1e-16, r_fl=1.5e7, r_rl=3e7)
        for strategy in (Strategy.FD2TS, Strategy.FD1TS, Strategy.HD2TS):
            accounting = (CircuitAccounting.FIRST_PRINCIPLES
                          if strategy is Strategy.FD1TS else None)
            # symmetric node hardware so only channels/rates are relabeled
            base = make_scenario(strategy=strategy, p_base=(0.05,) * 3,
                                 p_idle=(0.01,) * 3, p_max=(40.0,) * 3,
                                 accounting=accounting, **kwargs)
            mirror = make_scenario(strategy=strategy, p_base=(0.05,) * 3,
                                   p_idle=(0.01,) * 3, p_max=(40.0,) * 3,
                                   accounting=accounting, **swapped)
            if strategy is Strategy.FD2TS:
                e1 = energy_2ts(base, 0.005, 0.004)
                e2 = energy_2ts(mirror, 0.004, 0.005)
            elif strategy is Strategy.FD1TS:
                e1 = energy_1ts(base, 0.007)
                e2 = energy_1ts(mirror, 0.007)
            else:
                # both end nodes share slot 1 in HD, so durations stay put
                e1 = energy_hd(base, 0.005, 0.004)
                e2 = energy_hd(mirror, 0.005, 0.004)
            assert e1 == pytest.approx(e2, rel=1e-12)

    def test_cancellation_monotonicity(self):
        """More cancellation never raises any optimal transmit power."""
        base = ScenarioParams(r_fl_mbps=40.0, r_rl_mbps=25.0)
        for strategy in (Strategy.FD2TS, Strategy.FD1TS):
            prev = None
            for alpha in (30.0, 40.0, 50.0, 60.0, 70.0, 80.0):
                s = replace(base, alpha_db=alpha, strategy=strategy).build()
                if strategy is Strategy.FD2TS:
                    pw = powers_2ts(s, 0.004, 0.004)
                    powers = (pw.p_a, pw.p_b, pw.p_r_fwd, pw.p_r_rev)
                else:
                    pw = powers_1ts(s, 0.008)
                    powers = (pw.p_a, pw.p_b, pw.p_r)
                if prev is not None:
                    assert all(p <= q * (1 + 1e-12)
                               for p, q in zip(powers, prev))
                prev = powers

    def test_random_round_trips(self, rng):
        for strategy in (Strategy.FD2TS, Strategy.FD1TS, Strategy.HD2TS):
            for _ in range(10):
                s = random_scenario_params(rng, strategy).build()
                if strategy is Strategy.FD2TS:
                    t1, t2 = 0.4 * s.frame_t, 0.45 * s.frame_t
                    pw = powers_2ts(s, t1, t2)
                    c = caps_2ts(s, t1, t2, pw)
                    targets = (s.r_fl, s.r_fl, s.r_rl, s.r_rl)
                    for got, want in zip(c, targets):
                        assert got == pytest.approx(want, rel=1e-9)
                elif strategy is Strategy.FD1TS:
                    try:
                        pw = powers_1ts(s, 0.9 * s.frame_t)
                    except InfeasibleError:
                        continue
                    c_ar, c_br, c_ra, c_rb = caps_1ts(
                        s, 0.9 * s.frame_t, pw.p_a, pw.p_b, pw.p_r)
                    assert c_ar == pytest.approx(s.r_fl, rel=1e-9)
                    assert c_br == pytest.approx(s.r_rl, rel=1e-9)
                    assert min(c_ra - s.r_rl, c_rb - s.r_fl) >= -1e-9 * s.r_fl
                else:
                    t1, t2 = 0.45 * s.frame_t, 0.5 * s.frame_t
                    p_a, p_b, p_r = powers_hd(s, t1, t2)
                    c_ar, c_br, c_ra, c_rb = caps_hd(s, t1, t2, p_a, p_b, p_r)
                    assert c_ar == pytest.approx(s.r_fl, rel=1e-9)
                    assert c_br == pytest.approx(s.r_rl, rel=1e-9)


class TestSlotDescriptions:
    @pytest.mark.parametrize("accounting", list(CircuitAccounting))
    @pytest.mark.parametrize("strategy", [Strategy.FD1TS, Strategy.FD2TS,
                                          Strategy.HD2TS])
    def test_frame_energy_is_slot_costs_plus_idle_frame(self, params,
                                                        strategy, accounting):
        """The split the per-slot searches rely on."""
        s = replace(params, strategy=strategy, accounting=accounting).build()
        slots = DESCRIPTIONS[strategy].slots
        for durations in ((0.004, 0.005), (0.0045, 0.0055), (0.006, 0.004)):
            durations = durations[:len(slots)]
            split = (sum(slot.cost(s, t) for slot, t in zip(slots, durations))
                     + s.p_idle_total * s.frame_t)
            assert DESCRIPTIONS[strategy].energy(s, *durations) == \
                pytest.approx(split, rel=1e-12)

    @pytest.mark.parametrize("accounting", list(CircuitAccounting))
    @pytest.mark.parametrize("pa_kind", list(PaKind))
    def test_1ts_energy_is_the_worse_case_energy(self, pa_kind, accounting):
        """Pricing the larger relay-power case alone gives the max over both
        cases exactly: that case has every power at least as large."""
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 40:
            p = random_scenario_params(rng, Strategy.FD1TS, pa_kind)
            s = replace(p, accounting=accounting).build()
            t = float(rng.uniform(0.2, 1.0)) * s.frame_t
            try:
                cases = relay_case_assignments(s, t)
                expected = max(energy_1ts_at(s, t, c) for c in cases)
            except (InfeasibleError, ValueError):
                continue
            assert energy_1ts(s, t) == expected
            checked += 1

    @pytest.mark.parametrize("accounting", list(CircuitAccounting))
    @pytest.mark.parametrize("pa_kind", list(PaKind))
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_slot_powers_close_their_rate_constraints(self, params, strategy,
                                                      pa_kind, accounting):
        """Each power closes its own group of ``Slot.rates``: at durations
        across the window, every group has a tight constraint and none is
        violated.  (The asymptotic single-slot forms leave a slack near
        3e-4, so they are not probed here.)"""
        s = replace(params, strategy=strategy, pa=pa_kind,
                    accounting=accounting).build()
        window = tmin_for(s)
        assert window.feasible
        spans = window.spans(s.frame_t)
        for slot, (lo, hi) in zip(DESCRIPTIONS[strategy].slots, spans):
            for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
                t = lo + frac * (hi - lo)
                powers = slot.powers(s, t)
                assert len(powers) == len(slot.fields) == len(slot.nodes)
                groups = slot.rates(s, t, *powers)
                assert len(groups) == len(slot.fields)
                for group in groups:
                    slacks = [(c - d) / d for _, c, d in group]
                    assert min(abs(x) for x in slacks) < 1e-9
                    assert all(x > -1e-9 for x in slacks)
