"""Parameter-sweep engine and CSV emission.

A sweep re-solves the scenario across one or two parameter axes and a set
of strategies, under the base parameters' PA kind.  Infeasible points are
recorded, not fatal, so a sweep always yields one row per grid point.

Each grid point's scenario is built once and handed to every strategy.  A
strategy whose slots never read the residual self-interference gains (the
half-duplex baseline, see ``Description.reads_self_interference``) poses
the same problem at every cancellation value, so one sweep solves each of
its distinct problems once and shares the schedule between those rows.
Nothing is kept from one sweep to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import IO, Iterable, Sequence

from .config import ScenarioParams, unbuildable_is_config_error
from .model import InfeasibleError, PaKind, Scenario, Schedule, Strategy
from .solver import solve
from .strategies import DESCRIPTIONS

__all__ = ["AxisKind", "Axis", "SweepSpec", "SweepRow", "run_sweep",
           "emit_csv"]

# Rows one sweep may hold at most, so also the values of one axis: a finer
# step or a larger grid is refused before any value is built.
_MAX_SWEEP_ROWS = 10 ** 6


class AxisKind(str, Enum):
    """Sweepable scenario dimensions."""

    CANCELLATION_DB = "cancellation"
    TOTAL_RATE_MBPS = "total-rate"
    TRAFFIC_RATIO = "traffic-ratio"
    PA_EFFICIENCY = "pa-efficiency"


@dataclass(frozen=True)
class Axis:
    kind: AxisKind
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("axis needs at least one value")

    @classmethod
    def from_range(cls, kind: AxisKind, start: float, stop: float,
                   step: float) -> "Axis":
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise ValueError("axis bounds and step must be finite")
        if step <= 0:
            raise ValueError("step must be positive")
        steps = (stop - start) / step + 1e-9
        if steps < 0:
            raise ValueError("empty axis range")
        n = math.floor(steps) + 1 if steps < math.inf else math.inf
        if n > _MAX_SWEEP_ROWS:
            raise ValueError(f"axis range needs {n:,} values, more than "
                             f"{_MAX_SWEEP_ROWS:,}")
        return cls(kind, tuple(start + i * step for i in range(n)))


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: base parameters, axes and strategies."""

    base: ScenarioParams
    axis1: Axis
    axis2: Axis | None = None
    strategies: tuple[Strategy, ...] = (Strategy.FD1TS, Strategy.FD2TS,
                                        Strategy.HD2TS)

    def __post_init__(self):
        n = (len(self.axis1.values) * len(self.strategies)
             * (len(self.axis2.values) if self.axis2 is not None else 1))
        if n > _MAX_SWEEP_ROWS:
            raise ValueError(f"sweep needs {n:,} rows, more than "
                             f"{_MAX_SWEEP_ROWS:,}")


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One sweep point: the schedule ``solve`` returned, or None where the
    point is infeasible."""

    axis1: float
    axis2: float | None
    strategy: Strategy
    pa_kind: PaKind
    schedule: Schedule | None

    @property
    def feasible(self) -> bool:
        return self.schedule is not None


def apply_axis(params: ScenarioParams, kind: AxisKind,
               value: float) -> ScenarioParams:
    """Return parameters with one swept dimension replaced."""
    if kind is AxisKind.CANCELLATION_DB:
        return replace(params, alpha_db=value)
    if kind is AxisKind.TOTAL_RATE_MBPS:
        return params.with_total_rate(value)
    if kind is AxisKind.TRAFFIC_RATIO:
        return params.with_traffic_ratio(value)
    return replace(params, eta_max=value)


def _solve_or_none(s: Scenario) -> Schedule | None:
    try:
        return solve(s)
    except InfeasibleError:
        return None


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Solve every sweep point; infeasible points yield flagged rows.

    A grid point whose parameters build no scenario raises
    :class:`~fdrelay.config.ConfigError` naming its axis values: the
    values of two axes can build none together although each builds one
    alone (say a low PA efficiency and a high total rate, whose frame
    energy at full budget overflows only together).

    A strategy that never reads the residual self-interference gains is
    solved once per distinct problem of this call: its rows are keyed by
    the scenario with those gains set to 0, and rows with one key share one
    schedule (or None).  Full-duplex rows are solved one by one.
    """
    pa_kind = spec.base.pa
    axis2_values: Sequence[float | None] = (
        spec.axis2.values if spec.axis2 is not None else (None,))
    rows: list[SweepRow] = []
    shared: dict[Scenario, Schedule | None] = {}
    for v1 in spec.axis1.values:
        for v2 in axis2_values:
            base = apply_axis(spec.base, spec.axis1.kind, v1)
            point = f"{spec.axis1.kind.value} {v1:g}"
            if spec.axis2 is not None:
                base = apply_axis(base, spec.axis2.kind, v2)
                point += f", {spec.axis2.kind.value} {v2:g}"
            with unbuildable_is_config_error(
                    f"sweep point {point} builds no scenario"):
                built = base.build()
            for strategy in spec.strategies:
                s = replace(built, strategy=strategy)
                if DESCRIPTIONS[strategy].reads_self_interference:
                    schedule = _solve_or_none(s)
                else:
                    key = replace(s, channels=replace(
                        s.channels, gs_a=0.0, gs_b=0.0, gs_r=0.0))
                    if key not in shared:
                        shared[key] = _solve_or_none(s)
                    schedule = shared[key]
                rows.append(SweepRow(v1, v2, strategy, pa_kind, schedule))
    return rows


# Each schedule column of the CSV and the Schedule field it holds; an
# infeasible row leaves them empty.
_SCHEDULE_COLUMNS = (
    ("ee_bit_per_joule", "ee"), ("e_total_j", "e_total"), ("t1_s", "t1"),
    ("t2_s", "t2"), ("p_a_w", "p_a"), ("p_b_w", "p_b"),
    ("p_r_fwd_w", "p_r_fwd"), ("p_r_rev_w", "p_r_rev"))
_CSV_HEADER = ",".join(["axis1", "axis2", "strategy", "pa", "feasible"]
                       + [column for column, _ in _SCHEDULE_COLUMNS])


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return f"{x:.9e}"


def emit_csv(rows: Iterable[SweepRow], sink: IO[str]) -> None:
    """Write rows as locale-free CSV with LF endings, header first."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to emit")
    sink.write(_CSV_HEADER + "\n")
    for r in rows:
        fields = [_fmt(r.axis1), _fmt(r.axis2), r.strategy.value,
                  r.pa_kind.value, "true" if r.feasible else "false"]
        fields += [_fmt(getattr(r.schedule, name)) if r.feasible else ""
                   for _, name in _SCHEDULE_COLUMNS]
        sink.write(",".join(fields) + "\n")
