"""Parameter-sweep engine and CSV emission.

A sweep re-solves the scenario across one or two parameter axes and a set
of strategies, under the base parameters' PA kind.  Infeasible points are recorded, not fatal, so a
sweep always yields one row per grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import IO, Iterable, Sequence

from .config import ScenarioParams
from .model import InfeasibleError, PaKind, Strategy
from .solver import solve

__all__ = ["AxisKind", "Axis", "SweepSpec", "SweepRow", "run_sweep",
           "emit_csv"]

# Values one axis may hold at most: a finer step is refused before any
# value is built.
_MAX_AXIS_VALUES = 10 ** 6


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
        if n > _MAX_AXIS_VALUES:
            raise ValueError(f"axis range needs {n:,} values, more than "
                             f"{_MAX_AXIS_VALUES:,}")
        return cls(kind, tuple(start + i * step for i in range(n)))


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: base parameters, axes and strategies."""

    base: ScenarioParams
    axis1: Axis
    axis2: Axis | None = None
    strategies: tuple[Strategy, ...] = (Strategy.FD1TS, Strategy.FD2TS,
                                        Strategy.HD2TS)


@dataclass(frozen=True)
class SweepRow:
    """One solved (or infeasible) sweep point."""

    axis1: float
    axis2: float | None
    strategy: Strategy
    pa_kind: PaKind
    feasible: bool
    ee: float | None = None
    e_total: float | None = None
    t1: float | None = None
    t2: float | None = None
    p_a: float | None = None
    p_b: float | None = None
    p_r_fwd: float | None = None
    p_r_rev: float | None = None


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


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Solve every sweep point; infeasible points yield flagged rows."""
    pa_kind = spec.base.pa
    axis2_values: Sequence[float | None] = (
        spec.axis2.values if spec.axis2 is not None else (None,))
    rows: list[SweepRow] = []
    for v1 in spec.axis1.values:
        for v2 in axis2_values:
            base = apply_axis(spec.base, spec.axis1.kind, v1)
            if spec.axis2 is not None:
                base = apply_axis(base, spec.axis2.kind, v2)
            for strategy in spec.strategies:
                try:
                    sched = solve(replace(base, strategy=strategy).build())
                except InfeasibleError:
                    rows.append(SweepRow(axis1=v1, axis2=v2,
                                         strategy=strategy, pa_kind=pa_kind,
                                         feasible=False))
                    continue
                rows.append(SweepRow(
                    axis1=v1, axis2=v2, strategy=strategy, pa_kind=pa_kind,
                    feasible=True, ee=sched.ee, e_total=sched.e_total,
                    t1=sched.t1, t2=sched.t2, p_a=sched.p_a, p_b=sched.p_b,
                    p_r_fwd=sched.p_r_fwd, p_r_rev=sched.p_r_rev))
    return rows


_CSV_HEADER = ("axis1,axis2,strategy,pa,feasible,ee_bit_per_joule,"
               "e_total_j,t1_s,t2_s,p_a_w,p_b_w,p_r_fwd_w,p_r_rev_w")


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
        fields = [
            _fmt(r.axis1),
            _fmt(r.axis2),
            r.strategy.value,
            r.pa_kind.value,
            "true" if r.feasible else "false",
            _fmt(r.ee),
            _fmt(r.e_total),
            _fmt(r.t1),
            _fmt(r.t2),
            _fmt(r.p_a),
            _fmt(r.p_b),
            _fmt(r.p_r_fwd),
            _fmt(r.p_r_rev),
        ]
        sink.write(",".join(fields) + "\n")
