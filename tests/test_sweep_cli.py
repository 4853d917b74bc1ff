import io
import math
import re
import statistics
from dataclasses import replace

import pytest

from fdrelay import oracle
from fdrelay.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, cli_main
from fdrelay.config import ScenarioParams
from fdrelay.model import PaKind, Strategy
from fdrelay.oracle import random_feasible_scenarios, verify
from fdrelay.solver import solve
from fdrelay.strategies import DESCRIPTIONS
from fdrelay.sweep import Axis, AxisKind, SweepSpec, emit_csv, run_sweep

from conftest import with_powers


def _low_closed_forms(monkeypatch, strategy, factor=1.0 - 1e-6):
    """Scale every closed-form power of ``strategy`` by ``factor`` in the
    oracle's view only: each in-budget anchor then misses a demand."""
    desc = DESCRIPTIONS[strategy]

    def scaled(slot):
        def powers(s, t, _slot=slot):
            return tuple(p * factor for p in _slot.bind(s)(t))
        return with_powers(slot, powers)

    monkeypatch.setattr(oracle, "DESCRIPTIONS", {**DESCRIPTIONS, strategy: replace(
        desc, slots=tuple(scaled(slot) for slot in desc.slots))})


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

    def test_rejects_a_count_over_the_cap(self):
        # 0 to 1e6 in steps of 1 is one value more than an axis may hold.
        with pytest.raises(ValueError, match="1,000,001 values"):
            Axis.from_range(AxisKind.CANCELLATION_DB, 0.0, 1e6, 1.0)

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
        assert rows[0].schedule.ee == pytest.approx(direct.ee)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_rows_hold_the_schedule_solve_returns(self, params, strategy):
        axis = Axis(AxisKind.CANCELLATION_DB, (40.0, 60.0))
        rows = run_sweep(SweepSpec(base=params, axis1=axis,
                                   strategies=(strategy,)))
        assert [row.schedule for row in rows] == [
            solve(replace(params, alpha_db=alpha, strategy=strategy).build())
            for alpha in axis.values]

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
            assert row.schedule.ee * row.schedule.e_total == pytest.approx(
                total_bits, rel=1e-9)

    def test_infeasible_points_flagged_not_fatal(self, params):
        base = replace(params, alpha_db=20.0, strategy=Strategy.FD1TS)
        spec = SweepSpec(base=base,
                         axis1=Axis(AxisKind.TOTAL_RATE_MBPS, (60.0, 200.0)),
                         strategies=(Strategy.FD1TS,))
        rows = run_sweep(spec)
        assert rows[0].feasible
        assert not rows[1].feasible
        assert rows[1].schedule is None

    def test_two_axes(self, params):
        spec = SweepSpec(base=params,
                         axis1=Axis(AxisKind.TRAFFIC_RATIO, (1.0, 3.0)),
                         axis2=Axis(AxisKind.PA_EFFICIENCY, (0.3, 0.4)),
                         strategies=(Strategy.FD2TS,))
        rows = run_sweep(spec)
        assert len(rows) == 4
        assert {(r.axis1, r.axis2) for r in rows} == {
            (1.0, 0.3), (1.0, 0.4), (3.0, 0.3), (3.0, 0.4)}

    def test_rejects_a_sweep_over_the_cap(self, params):
        # 1,000 x 334 values over all three strategies is 1,002,000 rows;
        # each axis alone is far under the cap.
        axis1 = Axis.from_range(AxisKind.CANCELLATION_DB, 0.0, 999.0, 1.0)
        axis2 = Axis.from_range(AxisKind.TRAFFIC_RATIO, 1.0, 334.0, 1.0)
        with pytest.raises(ValueError, match="1,002,000 rows"):
            SweepSpec(base=params, axis1=axis1, axis2=axis2)
        # One strategy over the same grid is 334,000 rows, within the cap.
        SweepSpec(base=params, axis1=axis1, axis2=axis2,
                  strategies=(Strategy.FD1TS,))

    def test_caps_a_single_axis_over_all_strategies(self, params):
        axis = Axis(AxisKind.CANCELLATION_DB, (60.0,) * 333_334)
        with pytest.raises(ValueError, match="1,000,002 rows"):
            SweepSpec(base=params, axis1=axis)
        SweepSpec(base=params, axis1=Axis(axis.kind, axis.values[1:]))


class TestCsv:
    def test_header_plus_rows(self, params):
        spec = SweepSpec(base=params,
                         axis1=Axis(AxisKind.CANCELLATION_DB, (60.0,)),
                         strategies=(Strategy.FD1TS,))
        buf = io.StringIO()
        emit_csv(run_sweep(spec), buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0] == ("axis1,axis2,strategy,pa,feasible,"
                            "ee_bit_per_joule,e_total_j,t1_s,t2_s,p_a_w,"
                            "p_b_w,p_r_fwd_w,p_r_rev_w")
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

    def test_solve_oracle_line_shows_anchor_misses(self, monkeypatch):
        code, out, _ = self.run("solve", "--strategy", "fd2ts", "--oracle")
        assert code == EXIT_OK
        assert "convexity violations 0, anchor misses 0\n" in out
        _low_closed_forms(monkeypatch, Strategy.FD2TS)
        code, out, err = self.run("solve", "--strategy", "fd2ts", "--oracle")
        assert code == EXIT_INFEASIBLE
        assert re.search(r"convexity violations 0, anchor misses [1-9]\d*\n",
                         out)
        assert err == "oracle check FAILED\n"

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

    def test_frame_in_seconds_is_a_config_error(self, tmp_path):
        """The config format has one frame key, ``frame_t_ms``."""
        cfg = tmp_path / "seconds.cfg"
        cfg.write_text("frame_t_s = 0.01\n")
        code, out, err = self.run("solve", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert err == "config error: line 1: unknown key 'frame_t_s'\n"
        assert out == ""

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

    def test_verify_negative_seed_is_a_seed_error(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a scenario")
        monkeypatch.setattr("fdrelay.oracle.random_params", no_draw)
        code, out, err = self.run("verify", "--seed", "-1")
        assert code == EXIT_CONFIG
        assert err == "config error: --seed: must be non-negative, got -1\n"
        assert out == ""

    def test_sweep_ignores_the_configured_strategy(self, tmp_path):
        cfg = tmp_path / "fd2ts.cfg"
        cfg.write_text("strategy = fd2ts\n")
        code, out, _ = self.run("sweep", "--config", str(cfg), "--axis",
                                "cancellation", "--from", "40", "--to", "40",
                                "--step", "1")
        assert code == EXIT_OK
        header, *rows = out.splitlines()
        column = header.split(",").index("strategy")
        assert [row.split(",")[column] for row in rows] == [
            s.value for s in Strategy]

    def test_sweep_strategy_help_names_the_default(self, capsys):
        assert self.run("sweep", "--help")[0] == EXIT_OK
        help_text = " ".join(capsys.readouterr().out.split())
        assert ("--strategy {fd1ts,fd2ts,hd2ts} sweep only this strategy "
                "(default: all three)") in help_text
        assert "configured strategy" not in help_text

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

    def test_verify_lines_show_anchor_misses(self, monkeypatch):
        args = ("verify", "--scenarios", "2", "--strategy", "hd2ts",
                "--pa", "tpa", "--seed", "11")
        code, out, _ = self.run(*args)
        assert code == EXIT_OK
        assert out.count(" convexity_violations=0 anchor_misses=0\n") == 2
        _low_closed_forms(monkeypatch, Strategy.HD2TS)
        code, out, err = self.run(*args)
        assert code == EXIT_INFEASIBLE
        assert len(re.findall(r"^hd2ts/tpa #\d: FAIL .* "
                              r"anchor_misses=[1-9]\d*$", out, re.M)) == 2
        assert err == "2 verification failure(s)\n"

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
        # A subnormal step: the value count overflows to infinity.
        (("--axis", "cancellation", "--from", "20", "--to", "80",
          "--step", "5e-324"), ("cancellation", "needs inf values")),
    ])
    def test_unbuildable_axis_value_is_config_error(self, axis_args, names):
        code, out, err = self.run("sweep", *axis_args)
        assert code == EXIT_CONFIG
        assert err.startswith("config error: axis ")
        for name in names:
            assert name in err
        assert out == ""

    def test_sweep_over_the_cap_builds_no_scenario(self, monkeypatch):
        """Two 10,000-value axes are refused before any value is built."""
        calls = []
        build = ScenarioParams.build

        def counting_build(params):
            calls.append(params)
            return build(params)
        monkeypatch.setattr(ScenarioParams, "build", counting_build)
        code, out, err = self.run(
            "sweep", "--axis", "cancellation", "--from", "0", "--to", "9999",
            "--step", "1", "--axis2", "total-rate", "--from2", "1",
            "--to2", "10000", "--step2", "1")
        assert code == EXIT_CONFIG
        assert err == ("config error: sweep needs 300,000,000 rows, more "
                       "than 1,000,000\n")
        assert out == ""
        assert calls == []

    def test_unbuildable_second_axis_value_is_config_error(self):
        code, out, err = self.run(
            "sweep", "--axis", "cancellation", "--from", "40", "--to", "41",
            "--step", "1", "--axis2", "pa-efficiency", "--from2", "0",
            "--to2", "0.5", "--step2", "0.5")
        assert code == EXIT_CONFIG
        assert "axis pa-efficiency value 0 builds no scenario" in err
        assert out == ""

    def test_axis_values_that_overflow_only_together_are_config_error(
            self, tmp_path):
        """Each axis value builds alone; together the frame energy at full
        budget overflows a float, which the sweep reports as a config
        error naming the point."""
        cfg = tmp_path / "long.cfg"
        cfg.write_text("frame_t_ms = 5.5e8\nepsilon_mw_per_gbps = 1e300\n")
        axes = ("--axis", "pa-efficiency", "--from", "1e-300", "--to",
                "1e-300", "--step", "1", "--axis2", "total-rate", "--from2",
                "1.3e8", "--to2", "1.3e8", "--step2", "1")
        code, out, err = self.run("sweep", "--config", str(cfg), *axes)
        assert code == EXIT_CONFIG
        assert ("sweep point pa-efficiency 1e-300, total-rate 1.3e+08 builds "
                "no scenario: the frame energy at full budget") in err, err
        assert out == ""

    def test_overflowing_config_value_is_config_error(self, tmp_path):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("alpha_db = 1e5\n")
        code, out, err = self.run("solve", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert err.startswith("config error: invalid scenario")
        assert out == ""

    @pytest.mark.parametrize("line, key", [
        ("alpha_db = 1e5", "alpha_db"), ("ant_gain_db = 4000", "ant_gain_db"),
        ("n0_dbm_per_hz = 4000", "n0_dbm_per_hz"),
        ("p_max_r_dbm = 4000", "p_max_r_dbm")])
    def test_overflowing_config_value_names_its_key(self, tmp_path, line,
                                                    key):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(line + "\n")
        code, out, err = self.run("solve", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: invalid scenario: {key} of ")
        assert err.count("\n") == 1 and "overflows a float" in err
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
