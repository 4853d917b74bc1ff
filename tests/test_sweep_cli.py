import io
import math
import statistics
from dataclasses import replace

import pytest

from fdrelay.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, cli_main
from fdrelay.model import PaKind, Strategy
from fdrelay.oracle import random_feasible_scenarios, verify
from fdrelay.solver import solve
from fdrelay.sweep import Axis, AxisKind, SweepSpec, emit_csv, run_sweep


class TestAxis:
    def test_from_range_inclusive(self):
        axis = Axis.from_range(AxisKind.CANCELLATION_DB, 20.0, 80.0, 5.0)
        assert axis.values[0] == 20.0
        assert axis.values[-1] == 80.0
        assert len(axis.values) == 13

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            Axis.from_range(AxisKind.CANCELLATION_DB, 20.0, 80.0, 0.0)

    def test_single_point(self):
        axis = Axis.from_range(AxisKind.TOTAL_RATE_MBPS, 65.0, 65.0, 5.0)
        assert axis.values == (65.0,)

    @pytest.mark.parametrize("bounds", [
        (20.0, math.inf, 1.0), (-math.inf, 20.0, 1.0), (20.0, 30.0, math.inf),
        (math.nan, 30.0, 1.0), (20.0, 30.0, math.nan),
    ])
    def test_rejects_non_finite_bounds(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            Axis.from_range(AxisKind.CANCELLATION_DB, *bounds)


class TestRunSweep:
    def test_single_point_matches_solve(self, params):
        spec = SweepSpec(base=params,
                         axis1=Axis(AxisKind.CANCELLATION_DB, (60.0,)),
                         strategies=(Strategy.FD1TS,))
        rows = run_sweep(spec)
        assert len(rows) == 1
        direct = solve(replace(params, alpha_db=60.0,
                               strategy=Strategy.FD1TS).build())
        assert rows[0].ee == pytest.approx(direct.ee)

    def test_row_consistency(self, params):
        base = replace(params, r_fl_mbps=30.0, r_rl_mbps=30.0)
        spec = SweepSpec(base=base,
                         axis1=Axis(AxisKind.TRAFFIC_RATIO, (1.0, 3.0, 9.0)),
                         strategies=(Strategy.FD2TS,))
        rows = run_sweep(spec)
        frame = base.frame_t_ms * 1e-3
        total_bits = base.total_rate_mbps * 1e6 * frame
        for row in rows:
            assert row.feasible
            assert row.ee * row.e_total == pytest.approx(total_bits, rel=1e-9)

    def test_infeasible_points_flagged_not_fatal(self, params):
        base = replace(params, alpha_db=20.0, strategy=Strategy.FD1TS)
        spec = SweepSpec(base=base,
                         axis1=Axis(AxisKind.TOTAL_RATE_MBPS, (60.0, 200.0)),
                         strategies=(Strategy.FD1TS,))
        rows = run_sweep(spec)
        assert rows[0].feasible
        assert not rows[1].feasible
        assert rows[1].ee is None

    def test_two_axes(self, params):
        spec = SweepSpec(base=params,
                         axis1=Axis(AxisKind.TRAFFIC_RATIO, (1.0, 3.0)),
                         axis2=Axis(AxisKind.PA_EFFICIENCY, (0.3, 0.4)),
                         strategies=(Strategy.FD2TS,))
        rows = run_sweep(spec)
        assert len(rows) == 4
        assert {(r.axis1, r.axis2) for r in rows} == {
            (1.0, 0.3), (1.0, 0.4), (3.0, 0.3), (3.0, 0.4)}


class TestCsv:
    def test_header_plus_rows(self, params):
        spec = SweepSpec(base=params,
                         axis1=Axis(AxisKind.CANCELLATION_DB, (60.0,)),
                         strategies=(Strategy.FD1TS,))
        buf = io.StringIO()
        emit_csv(run_sweep(spec), buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("axis1,axis2,strategy,pa,feasible")
        assert ",fd1ts,etpa,true," in lines[1]

    def test_scientific_notation_digits(self, params):
        spec = SweepSpec(base=params,
                         axis1=Axis(AxisKind.CANCELLATION_DB, (60.0,)),
                         strategies=(Strategy.FD1TS,))
        buf = io.StringIO()
        emit_csv(run_sweep(spec), buf)
        ee_field = buf.getvalue().splitlines()[1].split(",")[5]
        mantissa = ee_field.split("e")[0]
        assert len(mantissa.replace(".", "").replace("-", "")) >= 9

    def test_infeasible_row_has_empty_fields(self, params):
        base = replace(params, alpha_db=20.0)
        spec = SweepSpec(base=base,
                         axis1=Axis(AxisKind.TOTAL_RATE_MBPS, (200.0,)),
                         strategies=(Strategy.FD1TS,))
        buf = io.StringIO()
        emit_csv(run_sweep(spec), buf)
        line = buf.getvalue().splitlines()[1]
        fields = line.split(",")
        assert fields[4] == "false"
        assert fields[5] == ""  # no EE value

    def test_byte_identical_reruns(self, params):
        spec = SweepSpec(base=params,
                         axis1=Axis.from_range(AxisKind.CANCELLATION_DB,
                                               20.0, 40.0, 10.0))
        a, b = io.StringIO(), io.StringIO()
        emit_csv(run_sweep(spec), a)
        emit_csv(run_sweep(spec), b)
        assert a.getvalue() == b.getvalue()

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit_csv([], io.StringIO())


class TestCli:
    def run(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        code = cli_main(list(argv), out, err)
        return code, out.getvalue(), err.getvalue()

    def test_solve_defaults(self):
        code, out, err = self.run("solve", "--config", "defaults")
        assert code == EXIT_OK
        assert "efficiency" in out
        assert "bit/J" in out

    def test_solve_with_oracle(self):
        code, out, _ = self.run("solve", "--strategy", "fd2ts", "--oracle")
        assert code == EXIT_OK
        assert "oracle" in out

    def test_solve_infeasible_names_cancellation(self, tmp_path):
        cfg = tmp_path / "weak.cfg"
        cfg.write_text("alpha_db=20\nr_fl_mbps=100\nr_rl_mbps=100\n"
                       "strategy=fd1ts\n")
        code, _, err = self.run("solve", "--config", str(cfg))
        assert code == EXIT_INFEASIBLE
        assert "cancellation" in err

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key=1\n")
        code, _, err = self.run("solve", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "line 1" in err

    @pytest.mark.parametrize("line, strategy", [
        ("alpha_db = nan", "fd1ts"),
        ("alpha_db = nan", "fd2ts"),
        ("d_ar_m = inf", "fd1ts"),
        ("d_ar_m = 0", "hd2ts"),
    ])
    @pytest.mark.parametrize("command", [
        ("solve",),
        ("sweep", "--axis", "cancellation", "--from", "40", "--to", "40",
         "--step", "1"),
    ])
    def test_bad_config_value_is_config_error(self, tmp_path, line, strategy,
                                              command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, out, err = self.run(*command, "--config", str(cfg),
                                  "--strategy", strategy)
        assert code == EXIT_CONFIG
        assert err.startswith("config error:")
        assert out == ""

    def test_missing_config_file(self):
        code, _, err = self.run("solve", "--config", "/nonexistent.cfg")
        assert code == EXIT_CONFIG

    def test_config_directory_is_config_error(self, tmp_path):
        code, out, err = self.run("solve", "--config", str(tmp_path))
        assert code == EXIT_CONFIG
        assert err.startswith("config error: cannot read")
        assert out == ""

    def test_non_utf8_config_is_config_error(self, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"alpha_db = 60 # \xb0\n")
        code, out, err = self.run("solve", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert err.startswith("config error: cannot read")
        assert out == ""

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_verify_needs_a_scenario(self, count, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a scenario")
        monkeypatch.setattr("fdrelay.oracle.random_params", no_draw)
        code, out, err = self.run("verify", "--scenarios", count)
        assert code == EXIT_CONFIG
        assert err.startswith("config error: --scenarios:")
        assert out == ""

    def test_sweep_emits_csv(self):
        code, out, _ = self.run("sweep", "--axis", "cancellation",
                                "--from", "20", "--to", "30", "--step", "5",
                                "--strategy", "fd1ts")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("axis1,")
        assert len(lines) == 4

    def test_sweep_determinism(self):
        args = ("sweep", "--axis", "cancellation", "--from", "40",
                "--to", "60", "--step", "10")
        _, out1, _ = self.run(*args)
        _, out2, _ = self.run(*args)
        assert out1 == out2

    def test_sweep_two_axes(self):
        code, out, _ = self.run(
            "sweep", "--axis", "traffic-ratio", "--from", "1", "--to", "3",
            "--step", "2", "--axis2", "pa-efficiency", "--from2", "0.3",
            "--to2", "0.4", "--step2", "0.1", "--strategy", "fd2ts")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 1 + 4

    def test_sweep_missing_range_is_config_error(self):
        code, _, err = self.run("sweep", "--axis", "cancellation",
                                "--from", "20", "--to", "30", "--step", "5",
                                "--axis2", "pa-efficiency")
        assert code == EXIT_CONFIG

    def test_verify_small_run(self):
        code, out, _ = self.run("verify", "--scenarios", "1",
                                "--strategy", "fd2ts", "--pa", "etpa",
                                "--seed", "11")
        assert code == EXIT_OK
        assert "all verifications passed" in out

    def test_verify_prints_gap_summary_per_pair(self):
        code, out, _ = self.run("verify", "--scenarios", "4",
                                "--strategy", "fd2ts", "--seed", "11")
        assert code == EXIT_OK
        lines = out.splitlines()
        summaries = [line for line in lines if " summary: " in line]
        assert [line.split()[0] for line in summaries] == [
            f"fd2ts/{pa.value}" for pa in PaKind]
        # The summaries follow every per-scenario line.
        assert lines.index(summaries[0]) == 2 * 4
        assert lines[-1] == "all verifications passed"
        for pa, line in zip(PaKind, summaries):
            gaps = [verify(s, solve(s)).relative_gap
                    for s in random_feasible_scenarios(11, Strategy.FD2TS,
                                                       pa, 4)]
            assert line == (f"fd2ts/{pa.value} summary: n=4 "
                            f"worst_gap={max(gaps):+.3e} "
                            f"median_gap={statistics.median(gaps):+.3e}")

    def test_unknown_argument_is_config_error(self):
        code, _, _ = self.run("solve", "--frobnicate")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("axis_args, names", [
        (("--axis", "pa-efficiency", "--from", "0.9", "--to", "1.1",
          "--step", "0.1"), ("pa-efficiency", "1.1", "eta_max")),
        (("--axis", "cancellation", "--from", "20", "--to", "inf",
          "--step", "1"), ("cancellation", "finite")),
        (("--axis", "traffic-ratio", "--from", "-1", "--to", "1",
          "--step", "1"), ("traffic-ratio", "-1", "non-negative")),
        (("--axis", "total-rate", "--from", "-5", "--to", "5",
          "--step", "5"), ("total-rate", "-5", "non-negative")),
        (("--axis", "cancellation", "--from", "20", "--to", "30",
          "--step", "0"), ("cancellation", "step must be positive")),
    ])
    def test_unbuildable_axis_value_is_config_error(self, axis_args, names):
        code, out, err = self.run("sweep", *axis_args)
        assert code == EXIT_CONFIG
        assert err.startswith("config error: axis ")
        for name in names:
            assert name in err
        assert out == ""

    def test_unbuildable_second_axis_value_is_config_error(self):
        code, out, err = self.run(
            "sweep", "--axis", "cancellation", "--from", "40", "--to", "41",
            "--step", "1", "--axis2", "pa-efficiency", "--from2", "0",
            "--to2", "0.5", "--step2", "0.5")
        assert code == EXIT_CONFIG
        assert "axis pa-efficiency value 0 builds no scenario" in err
        assert out == ""

    def test_overflowing_config_value_is_config_error(self, tmp_path):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("alpha_db = 1e5\n")
        code, out, err = self.run("solve", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert err.startswith("config error: invalid scenario")
        assert out == ""

    def test_repeated_sweep_axis_is_config_error(self):
        code, out, err = self.run(
            "sweep", "--axis", "cancellation", "--from", "40", "--to", "41",
            "--step", "1", "--axis2", "cancellation", "--from2", "50",
            "--to2", "50", "--step2", "1")
        assert code == EXIT_CONFIG
        assert err == "config error: --axis2 cancellation repeats --axis\n"
        assert out == ""

    @pytest.mark.parametrize("flag", ["--from2", "--to2", "--step2"])
    def test_second_axis_range_needs_axis2(self, flag):
        code, out, err = self.run(
            "sweep", "--axis", "cancellation", "--from", "40", "--to", "41",
            "--step", "1", flag, "1")
        assert code == EXIT_CONFIG
        assert err == "config error: --from2/--to2/--step2 need --axis2\n"
        assert out == ""

    def test_verify_count_beyond_the_draws_is_config_error(self):
        code, out, err = self.run("verify", "--scenarios", "3500",
                                  "--strategy", "fd2ts", "--pa", "tpa")
        assert code == EXIT_CONFIG
        assert err.startswith("config error: --scenarios: could not draw "
                              "3500 feasible scenarios")
        assert out == ""

    def test_verify_draws_every_pair_before_printing(self, monkeypatch):
        """A count one pair cannot meet fails before any pair is solved."""
        def draw(seed, strategy, pa_kind, n):
            if strategy is Strategy.HD2TS:
                raise ValueError("could not draw")
            return random_feasible_scenarios(seed, strategy, pa_kind, n)
        monkeypatch.setattr("fdrelay.cli.random_feasible_scenarios", draw)
        code, out, err = self.run("verify", "--scenarios", "1")
        assert code == EXIT_CONFIG
        assert err == "config error: --scenarios: could not draw\n"
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("solve", "--seed", "1"),
        ("sweep", "--axis", "cancellation", "--from", "40", "--to", "40",
         "--step", "1", "--seed", "1"),
        ("verify", "--scenarios", "1", "--config", "defaults"),
        ("verify", "--scenarios", "1", "--accounting", "printed"),
    ])
    def test_flag_a_command_does_not_read_is_rejected(self, argv, capsys):
        code, out, _ = self.run(*argv)
        assert code == EXIT_CONFIG
        assert out == ""
        assert "unrecognized arguments" in capsys.readouterr().err
