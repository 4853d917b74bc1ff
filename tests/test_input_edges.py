"""Edge values of every numeric config key end in an exit code, never in a
traceback, and very short frames give the same schedule shape as the
default frame."""

import io
import math
import re
import warnings
from dataclasses import fields, replace

import pytest

from fdrelay.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, cli_main
from fdrelay.config import (ConfigError, ScenarioParams, parse_params,
                            unbuildable_is_config_error)
from fdrelay.model import Strategy
from fdrelay.solver import solve

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
