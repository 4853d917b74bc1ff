import math

import numpy as np
import pytest

from fdrelay.model import (
    ChannelSet,
    NodeCircuit,
    PaKind,
    PaModel,
    PerNode,
    Scenario,
    Strategy,
    db_to_linear,
    ee_from_energy,
    noise_power,
    pa_consumption,
    pathloss_gain,
    residual_self_gain,
)


def ref_pathloss(d_m):
    return 10.0 ** (-(103.8 + 21.0 * math.log10(d_m)) / 10.0)


class TestConversions:
    def test_db_to_linear(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(40.0) == pytest.approx(10000.0)

    def test_noise_power(self):
        assert noise_power(-174.0, 10e6) == pytest.approx(10 ** -20.4 * 1e7)
        assert noise_power(-174.0, 10e6) == pytest.approx(3.981e-14, rel=1e-3)
        assert noise_power(-30.0, 1.0) == pytest.approx(1e-6)
        assert noise_power(-174.0, 1.0) == pytest.approx(3.981e-21, rel=1e-3)

    def test_noise_power_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            noise_power(-174.0, 0.0)

    def test_pathloss_gain(self):
        for d in (0.05, 1.0, 17.3, 50.0, 200.0):
            assert pathloss_gain(d) == pytest.approx(ref_pathloss(d))
        assert pathloss_gain(50.0) == pytest.approx(1.127e-14, rel=1e-3)
        assert pathloss_gain(1.0) == pytest.approx(4.169e-11, rel=1e-3)
        assert pathloss_gain(0.05) == pytest.approx(2.24e-8, rel=5e-3)
        with pytest.raises(ValueError):
            pathloss_gain(0.0)

    def test_residual_self_gain(self):
        assert residual_self_gain(0.05, 40.0) == pytest.approx(2.24e-12, rel=5e-3)
        assert residual_self_gain(0.05, 60.0) == pytest.approx(2.24e-14, rel=5e-3)
        assert residual_self_gain(0.05, 0.0) == pytest.approx(pathloss_gain(0.05))

    def test_residual_self_gain_monotone_in_alpha(self):
        values = [residual_self_gain(0.05, a) for a in range(0, 200, 10)]
        assert all(hi > lo for hi, lo in zip(values, values[1:]))
        assert residual_self_gain(0.05, 300.0) < 1e-35


class TestPaConsumption:
    def test_tpa_at_pmax(self):
        pa = PaModel(PaKind.TPA, p_max=5.0, eta_max=0.35)
        assert pa_consumption(pa, 5.0) == pytest.approx(5.0 / 0.35)

    def test_tpa_quarter_power(self):
        pa = PaModel(PaKind.TPA, p_max=8.0, eta_max=0.4)
        assert pa_consumption(pa, 2.0) == pytest.approx(8.0 / (2 * 0.4))

    def test_etpa_ideal_limit(self):
        pa = PaModel(PaKind.ETPA, p_max=5.0, eta_max=0.35, u=0.0)
        for p in (0.0, 0.3, 2.2, 5.0):
            assert pa_consumption(pa, p) == pytest.approx(p / 0.35)

    def test_etpa_zero_power_floor(self):
        pa = PaModel(PaKind.ETPA, p_max=5.0, eta_max=0.35, kappa=6.31, u=0.0082)
        uk = 0.0082 * 6.31
        assert pa_consumption(pa, 0.0) == pytest.approx(
            uk * 5.0 / ((1 + uk) * 0.35))

    def test_tpa_matches_ideal_etpa_at_pmax(self):
        tpa = PaModel(PaKind.TPA, p_max=3.0, eta_max=0.35)
        etpa = PaModel(PaKind.ETPA, p_max=3.0, eta_max=0.35, u=0.0)
        assert pa_consumption(tpa, 3.0) == pytest.approx(pa_consumption(etpa, 3.0))

    @pytest.mark.parametrize("kind", list(PaKind))
    def test_monotone_nondecreasing(self, kind):
        pa = PaModel(kind, p_max=5.0, eta_max=0.35)
        grid = np.linspace(0.0, 5.0, 200)
        psi = pa_consumption(pa, grid)
        assert np.all(np.diff(psi) >= 0.0)

    def test_rejects_out_of_budget(self):
        pa = PaModel(PaKind.TPA, p_max=5.0, eta_max=0.35)
        with pytest.raises(ValueError):
            pa_consumption(pa, -0.1)
        with pytest.raises(ValueError):
            pa_consumption(pa, 5.1)
        with pytest.raises(ValueError):
            pa_consumption(pa, math.inf)


class TestEnergyEfficiency:
    def test_examples(self):
        assert ee_from_energy(30e6, 30e6, 0.01, 0.012) == pytest.approx(5.0e7)
        assert ee_from_energy(4e6, 0.0, 0.02, 4e6 * 0.02) == pytest.approx(1.0)
        assert ee_from_energy(0.0, 4e6, 0.02, 2 * 4e6 * 0.02) == pytest.approx(0.5)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            r_fl, r_rl = rng.uniform(1e6, 1e8, size=2)
            frame = rng.uniform(1e-3, 1e-1)
            e = rng.uniform(1e-4, 10.0)
            assert ee_from_energy(r_fl, r_rl, frame, e) * e == pytest.approx(
                (r_fl + r_rl) * frame, rel=1e-15)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            ee_from_energy(1e6, 1e6, 0.01, 0.0)


class TestConstructors:
    def test_pa_model_validation(self):
        with pytest.raises(ValueError):
            PaModel(PaKind.TPA, p_max=0.0, eta_max=0.35)
        with pytest.raises(ValueError):
            PaModel(PaKind.TPA, p_max=1.0, eta_max=0.0)
        with pytest.raises(ValueError):
            PaModel(PaKind.TPA, p_max=1.0, eta_max=1.2)
        with pytest.raises(ValueError):
            PaModel(PaKind.TPA, p_max=1.0, eta_max=0.35, kappa=0.5)
        with pytest.raises(ValueError):
            PaModel(PaKind.ETPA, p_max=1.0, eta_max=0.35, u=-0.1)

    def test_channel_validation(self):
        ok = dict(g_ar=1e-12, g_br=1e-12, g_ra=1e-12, g_rb=1e-12,
                  gs_a=0.0, gs_b=0.0, gs_r=0.0,
                  sigma2_a=1e-14, sigma2_b=1e-14, sigma2_r=1e-14)
        ChannelSet(**ok)  # zero self-interference is legal
        for key in ("g_ar", "g_br", "g_ra", "g_rb"):
            with pytest.raises(ValueError):
                ChannelSet(**{**ok, key: 0.0})
        for key in ("sigma2_a", "sigma2_b", "sigma2_r"):
            with pytest.raises(ValueError):
                ChannelSet(**{**ok, key: 0.0})
        with pytest.raises(ValueError):
            ChannelSet(**{**ok, "gs_r": -1e-18})

    def test_reciprocal_builder(self):
        ch = ChannelSet.reciprocal(g_ar=1e-12, g_br=2e-12, gs_a=1e-18,
                                   gs_b=1e-18, gs_r=1e-18, sigma2=4e-14)
        assert ch.g_ra == ch.g_ar
        assert ch.g_rb == ch.g_br
        assert ch.sigma2_a == ch.sigma2_b == ch.sigma2_r

    def test_scenario_validation(self):
        ch = ChannelSet.reciprocal(1e-12, 1e-12, 0, 0, 0, 4e-14)
        pa = PerNode(*(PaModel(PaKind.ETPA, 5.0, 0.35),) * 3)
        circ = PerNode(*(NodeCircuit(0.1, 0.03, 5e-11),) * 3)
        good = dict(bandwidth_w=1e7, frame_t=0.01, r_fl=3e7, r_rl=3e7,
                    strategy=Strategy.FD1TS, pa=pa, circuit=circ, channels=ch)
        Scenario(**good)
        with pytest.raises(ValueError):
            Scenario(**{**good, "bandwidth_w": 0.0})
        with pytest.raises(ValueError):
            Scenario(**{**good, "frame_t": 0.0})
        with pytest.raises(ValueError):
            Scenario(**{**good, "r_fl": -1.0})
        with pytest.raises(ValueError):
            Scenario(**{**good, "r_fl": 0.0, "r_rl": 0.0})
