"""Edge values of every numeric config key end in an exit code, never in a
traceback, and very short frames give the same schedule shape as the
default frame."""

import io
import math
import re
import sys
import warnings
from dataclasses import fields, replace

import pytest

from fdrelay.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, cli_main
from fdrelay.config import (ConfigError, ScenarioParams, parse_params,
                            unbuildable_is_config_error)
from fdrelay.model import CircuitAccounting, PaKind, Strategy, pa_draw_range
from fdrelay.oracle import verify
from fdrelay.solver import solve
from fdrelay.strategies import DESCRIPTIONS, peak_power

FLOAT_KEYS = [f.name for f in fields(ScenarioParams)
              if isinstance(f.default, float)]
EDGE_VALUES = ["0", "-1", "1e-300", "1e300", "nan"]
CASES = ([(key, value) for key in FLOAT_KEYS for value in EDGE_VALUES]
         + [("frame_t_ms", "1e-320")])


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_edge_values_end_in_an_exit_code(tmp_path, strategy):
    cfg = tmp_path / "edge.cfg"
    for key, value in CASES:
        cfg.write_text(f"{key} = {value}\n")
        out, err = io.StringIO(), io.StringIO()
        code = cli_main(["solve", "--config", str(cfg), "--strategy",
                         strategy], out, err)
        assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_CONFIG), (key, value)


@pytest.mark.parametrize("frame_t_ms", [1e-320, 1e-310])
def test_subnormal_frame_is_a_config_error(frame_t_ms):
    params = parse_params(f"frame_t_ms = {frame_t_ms!r}\n")
    with pytest.raises(ConfigError, match="frame_t"):
        with unbuildable_is_config_error():
            params.build()


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("frame_t_ms", [1e-200, 1e-300])
def test_short_frame_scales_the_default_schedule(strategy, frame_t_ms):
    """Demands are per frame, so the spectral loads, the ratio t1/frame and
    the efficiency do not depend on the frame length."""
    params = ScenarioParams(strategy=strategy)
    short = replace(params, frame_t_ms=frame_t_ms).build()
    want, got = solve(params.build()), solve(short)
    assert math.isclose(got.ee, want.ee, rel_tol=1e-12)
    assert math.isclose(got.t1 / short.frame_t, want.t1 / 10e-3,
                        rel_tol=1e-12)


def _oracle_violations(cfg, strategy):
    """``solve --oracle`` with numpy warnings as errors: exit code and the
    reported convexity violation count."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli_main(["solve", "--config", str(cfg), "--strategy",
                         strategy, "--oracle"], out, err)
    count = re.search(r"convexity violations (\d+)", out.getvalue())
    assert count, err.getvalue()
    return code, int(count.group(1))


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
@pytest.mark.parametrize("frame_t_ms", ["1e-200", "1e-300"])
def test_short_frame_oracle_probe_runs_clean(tmp_path, strategy, frame_t_ms):
    """The convexity probe's step squared underflows below a 1e-154 s
    frame; the probe must neither divide by zero nor change its count."""
    cfg = tmp_path / "frame.cfg"
    cfg.write_text("frame_t_ms = 10\n")
    want = _oracle_violations(cfg, strategy)
    cfg.write_text(f"frame_t_ms = {frame_t_ms}\n")
    assert _oracle_violations(cfg, strategy) == want
    assert want[0] == EXIT_OK


# Amplifiers whose draw overflows a float at p_max (and at 0 W for the
# ETPA bias), each with a key its error must name.
OVERFLOWING_DRAWS = [("eta_max = 1e-308\n", "eta_max"),
                     ("pa = tpa\neta_max = 1e-308\n", "eta_max"),
                     ("etpa_u = 1e300\nkappa_db = 100\n", "etpa_u")]


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("text, key", OVERFLOWING_DRAWS)
def test_overflowing_pa_draw_is_a_config_error(strategy, text, key):
    params = replace(parse_params(text), strategy=strategy)
    with pytest.raises(ConfigError, match=f"{key} = "):
        with unbuildable_is_config_error():
            params.build()


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
@pytest.mark.parametrize("text, key", OVERFLOWING_DRAWS)
def test_overflowing_pa_draw_exits_as_a_config_error(tmp_path, strategy,
                                                     text, key):
    cfg = tmp_path / "draw.cfg"
    cfg.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(["solve", "--config", str(cfg), "--strategy", strategy],
                    out, err)
    assert code == EXIT_CONFIG
    assert f"{key} = " in err.getvalue()


def test_sweep_to_an_overflowing_efficiency_exits_as_a_config_error():
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(["sweep", "--axis", "pa-efficiency", "--from", "1e-320",
                     "--to", "1e-320", "--step", "1"], out, err)
    assert code == EXIT_CONFIG
    assert "eta_max = 1e-320" in err.getvalue()
    assert out.getvalue() == ""


# Bandwidth times the shortest slot, a millionth of the frame, underflows
# to 0: each pair, each way round.
UNDERFLOWING_LOADS = [("1e-300", "1e-300"), ("1e-300", "1e-150"),
                      ("1e-150", "1e-300")]


def _cli(argv, text, tmp_path):
    """Exit code and stderr of one CLI call on the config ``text``."""
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(argv + ["--config", str(cfg)], out, err)
    return code, err.getvalue()


SWEEP = ["sweep", "--axis", "cancellation", "--from", "20", "--to", "21",
         "--step", "1"]


@pytest.mark.parametrize("bandwidth, frame", UNDERFLOWING_LOADS)
def test_underflowing_load_is_a_config_error(tmp_path, bandwidth, frame):
    text = f"bandwidth_mhz = {bandwidth}\nframe_t_ms = {frame}\n"
    with pytest.raises(ConfigError, match=f"bandwidth_mhz = {bandwidth}.*"
                                          f"frame_t_ms = {frame}"):
        with unbuildable_is_config_error():
            parse_params(text).build()
    for strategy in Strategy:
        code, err = _cli(["solve", "--strategy", strategy.value], text,
                         tmp_path)
        assert code == EXIT_CONFIG and "bandwidth_mhz" in err, err
    code, err = _cli(SWEEP, text, tmp_path)
    assert code == EXIT_CONFIG and "bandwidth_mhz" in err, err


# A 1e300 ms frame whose energy at full budget overflows a float, each with
# the key its error must name.
OVERFLOWING_FRAMES = ([("eta_max", "1e-300"), ("epsilon_mw_per_gbps", "1e300")]
                      + [(f"p_{kind}_{node}_mw", "1e300")
                         for kind in ("base", "idle") for node in "arb"])


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("key, value", OVERFLOWING_FRAMES)
def test_overflowing_frame_energy_is_a_config_error(tmp_path, strategy, key,
                                                    value):
    text = f"frame_t_ms = 1e300\n{key} = {value}\n"
    family = re.sub("_[arb]_", "_*_", key)
    params = replace(parse_params(text), strategy=strategy)
    with pytest.raises(ConfigError, match="frame energy") as err:
        with unbuildable_is_config_error():
            params.build()
    assert "frame_t_ms = 1e+300" in str(err.value)
    assert family in str(err.value)
    code, err = _cli(["solve", "--strategy", strategy.value], text, tmp_path)
    assert code == EXIT_CONFIG and "frame energy" in err, err
    code, err = _cli(SWEEP + ["--strategy", strategy.value], text, tmp_path)
    assert code == EXIT_CONFIG and "frame energy" in err, err


def _draws_at_p_max(s):
    """Each node's amplifier draw at its p_max, as ``peak_power`` takes
    it."""
    return {node: pa_draw_range(getattr(s.pa, node))[1] for node in "arb"}


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("pa", ["tpa", "etpa"])
def test_frame_energy_just_inside_a_float_solves(strategy, pa):
    """A frame whose energy at full budget is just under the largest float
    builds, and every strategy solves it to a finite energy; a frame 1%
    longer is refused."""
    params = parse_params(f"eta_max = 1e-300\npa = {pa}\n")
    params = replace(params, strategy=strategy)
    s = params.build()
    peak = peak_power(s, _draws_at_p_max(s))
    limit_ms = sys.float_info.max / (peak + s.p_idle_total) * 1e3
    sched = solve(replace(params, frame_t_ms=0.999 * limit_ms).build())
    assert math.isfinite(sched.e_total) and sched.ee > 0
    with pytest.raises(ValueError, match="frame energy"):
        replace(params, frame_t_ms=1.01 * limit_ms).build()


# A dynamic circuit power this large, with no reverse traffic, puts
# fd2ts's first slot, whose four chains run at r_fl, over fd1ts's single
# slot, whose printed accounting charges eps*(r_fl + 2*r_rl).
HEAVY_FORWARD = {"epsilon_mw_per_gbps": 1e8, "r_rl_mbps": 0.0}


@pytest.mark.parametrize("pa", list(PaKind))
@pytest.mark.parametrize("changes, top_slot", [
    ({}, (Strategy.FD1TS, 0)),
    ({"accounting": CircuitAccounting.FIRST_PRINCIPLES}, (Strategy.FD1TS, 0)),
    (HEAVY_FORWARD, (Strategy.FD2TS, 0)),
    (HEAVY_FORWARD | {"accounting": CircuitAccounting.FIRST_PRINCIPLES},
     (Strategy.FD1TS, 0)),
])
def test_peak_power_is_the_most_a_slot_draws(pa, changes, top_slot):
    """``peak_power`` equals, bit for bit, the largest active power of any
    slot of any strategy with every amplifier at its ``p_max``
    (``Slot.active``)."""
    s = replace(ScenarioParams(pa=pa), **changes).build()
    actives = {(strategy, k): slot.active(s, *(getattr(s.pa, node).p_max
                                               for node in slot.nodes))
               for strategy, desc in DESCRIPTIONS.items()
               for k, slot in enumerate(desc.slots)}
    want = max(actives.values())
    assert peak_power(s, _draws_at_p_max(s)) == want
    assert actives[top_slot] == want


# Demands whose load at the full frame, rate / bandwidth, is below the float
# spacing of 1, so that no float capacity tells them from no demand.
SUBSPACING_DEMANDS = ["5e-324", "1e-310"]
PAIRS = [(strategy, pa) for strategy in Strategy for pa in PaKind]


@pytest.mark.parametrize("strategy, pa", PAIRS)
@pytest.mark.parametrize("key", ["r_fl_mbps", "r_rl_mbps"])
def test_demand_below_the_float_spacing_is_a_config_error(tmp_path, strategy,
                                                          pa, key):
    for value in SUBSPACING_DEMANDS:
        text = f"pa = {pa.value}\n{key} = {value}\n"
        params = replace(parse_params(text), strategy=strategy)
        with pytest.raises(ConfigError,
                           match=f"{key} = {value} over bandwidth_mhz"):
            with unbuildable_is_config_error():
                params.build()
        code, err = _cli(["solve", "--oracle", "--strategy", strategy.value],
                         text, tmp_path)
        assert code == EXIT_CONFIG and f"{key} = {value}" in err, err


@pytest.mark.parametrize("strategy, pa", PAIRS)
@pytest.mark.parametrize("key", ["r_fl_mbps", "r_rl_mbps"])
def test_demand_at_the_float_spacing(strategy, pa, key):
    """No demand builds and solves; a load 1% under the float spacing of 1
    is refused, and one 1% over it solves, and its audit runs, with no
    warning (its verdict is not this test's: ROADMAP items 2 and 12)."""
    params = ScenarioParams(strategy=strategy, pa=pa)
    least = sys.float_info.epsilon * params.bandwidth_mhz
    solve(replace(params, **{key: 0.0}).build())
    with pytest.raises(ValueError, match=f"{key} = .* over bandwidth_mhz"):
        replace(params, **{key: 0.99 * least}).build()
    s = replace(params, **{key: 1.01 * least}).build()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify(s, solve(s))
    assert math.isfinite(report.grid_best_energy)
    assert all(math.isfinite(v) for v in report.active_constraints.values())
