"""Command-line interface: solve one scenario, sweep an axis, or verify.

Exit codes: 0 success, 1 infeasible scenario / failed verification,
2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from .config import (ConfigError, ScenarioParams, parse_params,
                     unbuildable_is_config_error)
from .model import CircuitAccounting, InfeasibleError, PaKind, Scenario, Strategy
from .oracle import random_feasible_scenarios, verify
from .solver import solve
from .sweep import (Axis, AxisKind, SweepSpec, apply_axis, emit_csv,
                    run_sweep)

__all__ = ["main", "cli_main"]

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdrelay",
        description="Energy-optimal scheduling for full-duplex two-way "
                    "relay links.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_selection(p: argparse.ArgumentParser, strategy_help: str,
                      pa_help: str) -> None:
        p.add_argument("--strategy", choices=[s.value for s in Strategy],
                       help=strategy_help)
        p.add_argument("--pa", choices=[k.value for k in PaKind],
                       help=pa_help)

    def add_scenario(p: argparse.ArgumentParser, strategy_help: str) -> None:
        p.add_argument("--config", default="defaults", metavar="PATH",
                       help="configuration file, or 'defaults'")
        add_selection(p, strategy_help, "override the configured PA model")
        p.add_argument("--accounting",
                       choices=[m.value for m in CircuitAccounting],
                       help="override the circuit accounting mode")

    p_solve = sub.add_parser("solve", help="solve one scenario")
    add_scenario(p_solve, "override the configured strategy")
    p_solve.add_argument("--oracle", action="store_true",
                         help="run the brute-force oracle on the result")

    p_sweep = sub.add_parser("sweep", help="sweep an axis, emit CSV on stdout")
    add_scenario(p_sweep, "sweep only this strategy (default: all three)")
    p_sweep.add_argument("--axis", required=True,
                         choices=[a.value for a in AxisKind])
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--step", type=float, required=True)
    p_sweep.add_argument("--axis2", choices=[a.value for a in AxisKind])
    p_sweep.add_argument("--from2", dest="start2", type=float)
    p_sweep.add_argument("--to2", dest="stop2", type=float)
    p_sweep.add_argument("--step2", type=float)

    p_verify = sub.add_parser(
        "verify", help="run oracle and property checks on random scenarios")
    add_selection(p_verify, "only this strategy", "only this PA model")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed of the random scenarios")
    p_verify.add_argument("--scenarios", type=int, default=5,
                          help="feasible scenarios per strategy/PA pair")
    return parser


def _load_params(args: argparse.Namespace) -> ScenarioParams:
    """The configured parameters with the overrides applied."""
    if args.config == "defaults":
        params = ScenarioParams()
    else:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read {args.config}: {err}") from err
        params = parse_params(text)
    if args.strategy:
        params = replace(params, strategy=Strategy(args.strategy))
    if args.pa:
        params = replace(params, pa=PaKind(args.pa))
    if args.accounting:
        params = replace(params,
                         accounting=CircuitAccounting(args.accounting))
    return params


def _dbm(p_w: float) -> float:
    return 10.0 * math.log10(p_w * 1e3) if p_w > 0 else float("-inf")


def _run_solve(args: argparse.Namespace, out, err) -> int:
    params = _load_params(args)
    with unbuildable_is_config_error():
        scenario = params.build()
    schedule = solve(scenario)
    out.write(f"strategy        {params.strategy.value}  "
              f"(pa={params.pa.value}, accounting={params.accounting.value})\n")
    out.write(f"demand          {params.r_fl_mbps:.3f} + "
              f"{params.r_rl_mbps:.3f} Mbit/s over {params.frame_t_ms:.3f} ms\n")
    out.write(f"t1              {schedule.t1 * 1e3:.6f} ms\n")
    out.write(f"t2              {schedule.t2 * 1e3:.6f} ms\n")
    out.write(f"p_a             {schedule.p_a:.6g} W ({_dbm(schedule.p_a):.2f} dBm)\n")
    out.write(f"p_b             {schedule.p_b:.6g} W ({_dbm(schedule.p_b):.2f} dBm)\n")
    if scenario.strategy is Strategy.FD2TS:
        out.write(f"p_r (slot 1)    {schedule.p_r_fwd:.6g} W\n")
        out.write(f"p_r (slot 2)    {schedule.p_r_rev:.6g} W\n")
    else:
        out.write(f"p_r             {schedule.p_r_fwd:.6g} W\n")
    if schedule.active_case is not None:
        out.write(f"binding case    {schedule.active_case.value}\n")
    out.write(f"energy          {schedule.e_total:.9e} J per frame\n")
    out.write(f"efficiency      {schedule.ee:.9e} bit/J\n")
    if args.oracle:
        report = verify(scenario, schedule)
        out.write(f"oracle          grid best {report.grid_best_energy:.9e} J, "
                  f"gap {report.relative_gap:+.3e}, "
                  f"convexity violations {report.convexity_violations}, "
                  f"anchor misses {report.anchor_misses}\n")
        for name, slack in report.active_constraints.items():
            out.write(f"  slack {name}   {slack:+.3e}\n")
        if not report.ok:
            err.write("oracle check FAILED\n")
            return EXIT_INFEASIBLE
    return EXIT_OK


def _axis_from_args(kind_value: str, start, stop, step) -> Axis:
    """The swept axis of one --axis/--from/--to/--step group."""
    if start is None or stop is None or step is None:
        raise ConfigError("axis range needs --from/--to/--step values")
    kind = AxisKind(kind_value)
    try:
        return Axis.from_range(kind, start, stop, step)
    except ValueError as err:
        raise ConfigError(f"axis {kind.value}: {err}") from err


def _run_sweep(args: argparse.Namespace, out, err) -> int:
    range2 = (args.start2, args.stop2, args.step2)
    if args.axis2 is None and range2 != (None, None, None):
        raise ConfigError("--from2/--to2/--step2 need --axis2")
    if args.axis2 == args.axis:
        raise ConfigError(f"--axis2 {args.axis2} repeats --axis")
    params = _load_params(args)
    axes = [_axis_from_args(args.axis, args.start, args.stop, args.step)]
    if args.axis2:
        axes.append(_axis_from_args(args.axis2, *range2))
    strategies = ((Strategy(args.strategy),) if args.strategy
                  else tuple(Strategy))
    try:
        spec = SweepSpec(params, *axes, strategies=strategies)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # Only a sweep within the cap builds its base and each axis value, all
    # before anything is solved.
    with unbuildable_is_config_error():
        params.build()
    for axis in axes:
        for value in axis.values:
            with unbuildable_is_config_error(
                    f"axis {axis.kind.value} value {value:g} builds no "
                    "scenario"):
                apply_axis(params, axis.kind, value).build()
    rows = run_sweep(spec)
    emit_csv(rows, out)
    return EXIT_OK


def _run_verify(args: argparse.Namespace, out, err) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed: must be non-negative, got {args.seed}")
    pa_kinds = (PaKind(args.pa),) if args.pa else tuple(PaKind)
    strategies = ((Strategy(args.strategy),) if args.strategy
                  else tuple(Strategy))
    # Every pair's scenarios are drawn before any is solved, so a count
    # the draws cannot meet fails before anything is printed.
    drawn: dict[str, list[Scenario]] = {}
    for strategy in strategies:
        for pa_kind in pa_kinds:
            try:
                scenarios = random_feasible_scenarios(
                    args.seed, strategy, pa_kind, args.scenarios)
            except ValueError as exc:
                raise ConfigError(f"--scenarios: {exc}") from exc
            drawn[f"{strategy.value}/{pa_kind.value}"] = scenarios
    failures = 0
    gaps: dict[str, list[float]] = {}
    for pair, scenarios in drawn.items():
        for i, scenario in enumerate(scenarios):
            schedule = solve(scenario)
            report = verify(scenario, schedule)
            status = "ok" if report.ok else "FAIL"
            if not report.ok:
                failures += 1
            gaps.setdefault(pair, []).append(report.relative_gap)
            out.write(
                f"{pair} #{i}: {status} "
                f"gap={report.relative_gap:+.3e} "
                f"convexity_violations={report.convexity_violations} "
                f"anchor_misses={report.anchor_misses}\n")
    # The worst gap is the solver's largest excess over the grid best.
    for pair, pair_gaps in gaps.items():
        out.write(f"{pair} summary: n={len(pair_gaps)} "
                  f"worst_gap={max(pair_gaps):+.3e} "
                  f"median_gap={statistics.median(pair_gaps):+.3e}\n")
    if failures:
        err.write(f"{failures} verification failure(s)\n")
        return EXIT_INFEASIBLE
    out.write("all verifications passed\n")
    return EXIT_OK


def cli_main(argv: list[str] | None = None, out=None, err=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own errors
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "solve":
            return _run_solve(args, out, err)
        if args.command == "sweep":
            return _run_sweep(args, out, err)
        return _run_verify(args, out, err)
    except ConfigError as exc:
        err.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except InfeasibleError as exc:
        err.write(f"infeasible: {exc} (cause={exc.cause}, "
                  f"node={exc.binding_node})\n")
        return EXIT_INFEASIBLE


def main() -> None:
    raise SystemExit(cli_main())
