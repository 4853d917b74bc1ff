import io
from dataclasses import replace

import pytest

from fdrelay.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, cli_main
from fdrelay.model import Strategy
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

    def test_unknown_argument_is_config_error(self):
        code, _, _ = self.run("solve", "--frobnicate")
        assert code == EXIT_CONFIG
