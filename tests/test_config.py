import math
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from fdrelay.config import ConfigError, ScenarioParams, parse_config, parse_params
from fdrelay.model import (
    CircuitAccounting,
    InfeasibleError,
    PaKind,
    Schedule,
    Strategy,
    db_to_linear,
    noise_power,
    pathloss_gain,
    residual_self_gain,
)
from fdrelay.solver import solve


class TestDefaults:
    def test_empty_text_gives_defaults(self):
        params = parse_params("")
        assert params == ScenarioParams()
        assert params.bandwidth_mhz == 10.0
        assert params.frame_t_ms == 10.0
        assert params.n0_dbm_per_hz == -174.0
        assert params.d_ar_m == params.d_rb_m == 50.0
        assert params.alpha_db == 60.0
        assert params.eta_max == 0.35
        assert params.epsilon_mw_per_gbps == 50.0
        assert (params.p_idle_a_mw, params.p_idle_r_mw,
                params.p_idle_b_mw) == (30.0, 15.0, 5.0)
        assert (params.p_base_a_mw, params.p_base_r_mw,
                params.p_base_b_mw) == (100.0, 50.0, 20.0)
        # calibrated link budget (see module docstring)
        assert params.ant_gain_db == 25.0
        assert (params.self_iso_a_db, params.self_iso_r_db,
                params.self_iso_b_db) == (55.0, 40.0, 55.0)
        assert (params.p_max_a_dbm, params.p_max_r_dbm,
                params.p_max_b_dbm) == (46.0, 46.0, 46.0)

    def test_default_build_units(self):
        s = ScenarioParams().build()
        assert s.bandwidth_w == 10e6
        assert s.frame_t == pytest.approx(0.01)
        assert s.r_fl == pytest.approx(32.5e6)
        assert s.channels.sigma2_r == pytest.approx(noise_power(-174.0, 10e6))
        assert s.channels.g_ar == pytest.approx(
            pathloss_gain(50.0) * db_to_linear(25.0))
        assert s.channels.g_ra == s.channels.g_ar  # reciprocity
        assert s.channels.gs_r == pytest.approx(
            residual_self_gain(0.05, 60.0) / db_to_linear(40.0))
        assert s.channels.gs_a == pytest.approx(
            residual_self_gain(0.05, 60.0) / db_to_linear(55.0))
        assert s.pa.a.p_max == pytest.approx(db_to_linear(16.0))  # 46 dBm in W
        assert s.pa.a.kappa == pytest.approx(db_to_linear(8.0))
        assert s.circuit.a.epsilon == pytest.approx(5e-11)
        assert s.strategy is Strategy.FD1TS
        assert s.circuit_accounting is CircuitAccounting.PRINTED


class TestParsing:
    def test_single_key_override(self):
        params = parse_params("alpha_db=40\n")
        assert params.alpha_db == 40.0
        assert params == ScenarioParams(alpha_db=40.0)

    def test_comments_and_blank_lines(self):
        text = "# comment\n\nalpha_db = 45  # trailing\n\n"
        assert parse_params(text).alpha_db == 45.0

    def test_enum_and_bool_keys(self):
        params = parse_params(
            "strategy=fd2ts\npa=tpa\naccounting=first-principles\n"
            "asymptotic_1ts=true\n")
        assert params.strategy is Strategy.FD2TS
        assert params.pa is PaKind.TPA
        assert params.accounting is CircuitAccounting.FIRST_PRINCIPLES
        assert params.asymptotic_1ts is True

    def test_frame_alias_in_seconds(self):
        assert parse_params("frame_t_s=0.02").frame_t_ms == pytest.approx(20.0)

    def test_zero_frame_rejected_with_invariant(self):
        with pytest.raises(ConfigError, match="frame_t"):
            parse_config("frame_t_s=0\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_params("alpha_db=40\n# ok\nbogus_key=1\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_params("alpha_db=forty\n")

    @pytest.mark.parametrize("text, line, key", [
        ("alpha_db = nan\n", 1, "alpha_db"),
        ("r_fl_mbps=40\nd_ar_m = inf\n", 2, "d_ar_m"),
        ("frame_t_s = -inf\n", 1, "frame_t_ms"),
    ])
    def test_non_finite_value_names_key_and_line(self, text, line, key):
        with pytest.raises(ConfigError, match=f"line {line}: .*'{key}'"):
            parse_params(text)

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_params("alpha_db=40\njust-noise\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_params("alpha_db=40\nalpha_db=50\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_params("frame_t_ms=10\nframe_t_s=0.01\n")

    def test_bad_enum_value(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_params("strategy=simplex\n")

    def test_every_params_field_is_a_key(self):
        for f in fields(ScenarioParams):
            value = getattr(ScenarioParams(), f.name)
            text = f"{f.name} = {getattr(value, 'value', value)}\n"
            assert getattr(parse_params(text), f.name) == value

    @pytest.mark.parametrize("key", ["alpha_db", "kappa_db", "p_max_a_dbm"])
    def test_overflowing_value_is_config_error(self, key):
        with pytest.raises(ConfigError, match=f"invalid scenario: {key} of "):
            parse_config(f"{key} = 1e5\n")


@pytest.mark.parametrize("key", [
    "n0_dbm_per_hz", "alpha_db", "ant_gain_db", "self_iso_a_db",
    "self_iso_r_db", "self_iso_b_db", "kappa_db", "p_max_a_dbm",
    "p_max_r_dbm", "p_max_b_dbm"])
def test_overflowing_db_value_names_its_key(key):
    """4000 dB is past a float's range (about 3083 dB), so its linear value
    overflows; the error names the key and the value."""
    params = replace(ScenarioParams(), **{key: 4000.0})
    with pytest.raises(ValueError, match=(
            f"^{key} of 4000.0 is too large: its linear value overflows a "
            f"float$")):
        params.build()


@pytest.mark.parametrize("key, metres", [
    ("d_ar_m", 1e-300), ("d_rb_m", 1e-300), ("d_self_cm", 1e-302)])
def test_overflowing_path_loss_names_the_distance(key, metres):
    params = replace(ScenarioParams(), **{key: 1e-300})
    with pytest.raises(ValueError, match=(
            f"^distance of {metres} m is too short for the path-loss law")):
        params.build()


class TestBuildRejectsNan:
    """A NaN fails every ``>= 0`` check on the way to the scenario, and the
    error names the model field it reached."""

    @pytest.mark.parametrize("key, field", [
        ("alpha_db", "alpha_db"),
        ("self_iso_a_db", "gs_a"),
        ("self_iso_r_db", "gs_r"),
        ("self_iso_b_db", "gs_b"),
        ("p_base_a_mw", "p_base"),
        ("p_idle_r_mw", "p_idle"),
        ("epsilon_mw_per_gbps", "epsilon"),
        ("r_fl_mbps", "r_fl"),
        ("r_rl_mbps", "r_rl"),
    ])
    def test_nan_names_the_field(self, key, field):
        params = replace(ScenarioParams(), **{key: float("nan")})
        with pytest.raises(ValueError,
                           match=f"^{field} must be non-negative, got nan$"):
            params.build()


FLOAT_KEYS = [f.name for f in fields(ScenarioParams)
              if type(f.default) is float]

# What a ValueError may name for each float key: the key itself, or the model
# quantity the key sets first on the way to the scenario.
_NAMES = {
    "bandwidth_mhz": ("bandwidth",),
    "frame_t_ms": ("frame_t",),
    "n0_dbm_per_hz": ("sigma2_a",),
    "d_ar_m": ("distance", "g_ar"),
    "d_rb_m": ("distance", "g_br"),
    "d_self_cm": ("distance",),
    "alpha_db": ("alpha_db",),
    "ant_gain_db": ("g_ar",),
    "self_iso_a_db": ("self_iso_a_db",),
    "self_iso_r_db": ("self_iso_r_db",),
    "self_iso_b_db": ("self_iso_b_db",),
    "eta_max": ("eta_max",),
    "kappa_db": ("kappa",),
    "etpa_u": ("u",),
    **{f"p_max_{n}_dbm": ("p_max",) for n in "arb"},
    **{f"p_base_{n}_mw": ("p_base",) for n in "arb"},
    **{f"p_idle_{n}_mw": ("p_idle",) for n in "arb"},
    "epsilon_mw_per_gbps": ("epsilon",),
    "r_fl_mbps": ("r_fl",),
    "r_rl_mbps": ("r_rl",),
}


class TestBuildRejectsInfinity:
    """An infinite parameter solves, is infeasible, or ends in a ValueError
    that names the field; never another error or a RuntimeWarning."""

    def test_every_float_key_is_covered(self):
        assert sorted(_NAMES) == sorted(FLOAT_KEYS)

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_infinity_solves_or_names_the_field(self, key, value, strategy):
        params = replace(ScenarioParams(strategy=strategy), **{key: value})
        try:
            assert isinstance(solve(params.build()), Schedule)
        except InfeasibleError:
            pass
        except ValueError as err:
            assert str(err).split()[0] in _NAMES[key], str(err)

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("key, field", [("ant_gain_db", "g_ar"),
                                            ("n0_dbm_per_hz", "sigma2_a"),
                                            ("bandwidth_mhz", "bandwidth")])
    def test_infinite_gain_or_noise_names_the_channel(self, key, field,
                                                      strategy):
        """An infinite link gain, noise density or bandwidth is refused
        when the channels are built, before any solve can misread it."""
        params = replace(ScenarioParams(strategy=strategy), **{key: math.inf})
        with pytest.raises(ValueError, match=f"^{field} must be positive and "
                                             "finite, got inf$"):
            params.build()


class TestDerivedHelpers:
    def test_with_total_rate_preserves_ratio(self):
        p = ScenarioParams(r_fl_mbps=40.0, r_rl_mbps=10.0)
        q = p.with_total_rate(100.0)
        assert q.total_rate_mbps == pytest.approx(100.0)
        assert q.r_fl_mbps / q.r_rl_mbps == pytest.approx(4.0)

    def test_with_traffic_ratio_preserves_total(self):
        p = ScenarioParams(r_fl_mbps=30.0, r_rl_mbps=30.0)
        q = p.with_traffic_ratio(9.0)
        assert q.total_rate_mbps == pytest.approx(60.0)
        assert q.r_fl_mbps / q.r_rl_mbps == pytest.approx(9.0)

    @pytest.mark.parametrize("ratio", [-1.0, -0.5, float("nan")])
    def test_with_traffic_ratio_rejects_negative(self, ratio):
        with pytest.raises(ValueError, match="traffic ratio"):
            ScenarioParams().with_traffic_ratio(ratio)

    def test_zero_traffic_ratio_silences_the_forward_link(self):
        q = ScenarioParams(r_fl_mbps=30.0, r_rl_mbps=30.0).with_traffic_ratio(0.0)
        assert (q.r_fl_mbps, q.r_rl_mbps) == (0.0, 60.0)

    def test_parse_config_returns_scenario(self):
        s = parse_config("r_fl_mbps=20\nr_rl_mbps=10\nstrategy=hd2ts\n")
        assert s.r_fl == pytest.approx(20e6)
        assert s.strategy is Strategy.HD2TS

    def test_params_are_slotted_and_frozen(self):
        """No per-instance ``__dict__``; replace, the derived helpers and
        the parser still build parameter sets."""
        p = ScenarioParams()
        assert not hasattr(p, "__dict__")
        with pytest.raises(FrozenInstanceError):
            p.alpha_db = 70.0
        assert replace(p, alpha_db=70.0).alpha_db == 70.0
        q = ScenarioParams(r_fl_mbps=40.0, r_rl_mbps=10.0).with_total_rate(10.0)
        assert (q.r_fl_mbps, q.r_rl_mbps) == pytest.approx((8.0, 2.0))
        parsed = parse_params("alpha_db = 70\nstrategy = fd2ts\n")
        assert parsed == replace(p, alpha_db=70.0, strategy=Strategy.FD2TS)
        assert not hasattr(parsed, "__dict__")
