"""Duration optimization and schedule assembly.

The energy objectives are convex (or at worst unimodal) in the slot
durations once the powers are eliminated, and the frame energy is one cost
per slot plus the idle draw, so a derivative-free golden-section search per
slot duration is exact for this problem family.  Every strategy is solved
the same way from its description: one search per slot, plus a
frame-budget boundary re-solve when two slots overrun the frame.  Only the
single-slot strategy's feasibility window stays its own (see
:func:`~fdrelay.feasibility.tmin_for`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from .feasibility import FeasibleWindow, tmin_for
from .model import InfeasibleError, Scenario, Schedule, Strategy, ee_from_energy
from .strategies import DESCRIPTIONS
# Unused here, but the benchmark's span tracer (bench/tracing.py) patches
# these names on this module, so they stay importable from it.
from .feasibility import tmin_1ts, tmin_2ts, tmin_hd  # noqa: F401
from .model import pa_consumption  # noqa: F401
from .strategies import (energy_1ts, energy_2ts, energy_hd,  # noqa: F401
                         powers_1ts, powers_2ts, powers_hd)

__all__ = ["SolverConfig", "minimize_unimodal_1d", "solve_2ts", "solve_1ts",
           "solve_hd", "solve"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi**2


@dataclass(frozen=True)
class SolverConfig:
    """Termination control for the scalar searches.

    ``duration_tol`` is the absolute bracket width (seconds) at which the
    search stops; when None it defaults to 1e-7 of the frame length.
    """

    duration_tol: float | None = None
    max_iters: int = 300

    def __post_init__(self):
        if self.duration_tol is not None and not self.duration_tol > 0:
            raise ValueError("duration_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    def tol_for(self, frame_t: float) -> float:
        return self.duration_tol if self.duration_tol is not None \
            else 1e-7 * frame_t


def minimize_unimodal_1d(f: Callable[[float], float], lo: float, hi: float,
                         cfg: SolverConfig | None = None,
                         frame_t: float | None = None) -> tuple[float, float]:
    """Golden-section minimum of a unimodal scalar function on [lo, hi].

    Works across kinks (e.g. a pointwise max of convex functions) because
    only function-value comparisons are used.  Returns (argmin, value).
    """
    cfg = cfg or SolverConfig()
    if not lo <= hi:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    tol = cfg.tol_for(frame_t if frame_t is not None else (hi - lo) or 1.0)
    span = hi - lo
    if span <= tol:
        mid = 0.5 * (lo + hi)
        return mid, f(mid)
    c = lo + _INV_PHI2 * span
    d = lo + _INV_PHI * span
    fc, fd = f(c), f(d)
    for _ in range(cfg.max_iters):
        if not (math.isfinite(fc) and math.isfinite(fd)):
            raise ValueError(
                "objective is not finite inside the feasibility window")
        if hi - lo <= tol:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = lo + _INV_PHI2 * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    x, fx = (c, fc) if fc <= fd else (d, fd)
    # The minimum may sit exactly on an endpoint the interior probes never
    # reach; keep the better of the probe and the nearest endpoint.
    for edge in (lo, hi):
        fe = f(edge)
        if fe < fx:
            x, fx = edge, fe
    return x, fx


def solve(s: Scenario, cfg: SolverConfig | None = None) -> Schedule:
    """Solve the scenario with its configured strategy.

    Every strategy is solved alike from its description: the frame energy is
    the sum of the per-slot costs plus the idle draw of the whole frame, so
    each slot duration is searched on its own, on that slot's cost.  Only
    the feasibility window of the single-slot strategy is its own
    (:func:`tmin_for`).
    """
    cfg = cfg or SolverConfig()
    desc = DESCRIPTIONS[s.strategy]
    window = tmin_for(s)
    if not window.feasible:
        raise InfeasibleError(window.detail or "scenario infeasible",
                              binding_node=next(
                                  (b for b in window.binding_node if b), None))
    costs = [partial(slot.cost, s) for slot in desc.slots]
    durations = _solve_separable(costs, window, s, cfg)
    powers = [slot.powers(s, t) for slot, t in zip(desc.slots, durations)]
    fields = dict.fromkeys(("t1", "t2", "p_a", "p_b", "p_r_fwd", "p_r_rev"),
                           0.0)
    fields.update(zip(("t1", "t2"), durations))
    for slot, p in zip(desc.slots, powers):
        fields.update(zip(slot.fields, p))
    e = desc.energy_at(s, durations, powers)
    return Schedule(e_total=e, ee=ee_from_energy(s.r_fl, s.r_rl, s.frame_t, e),
                    active_case=desc.active_case(s, *durations), **fields)


def solve_2ts(s: Scenario, cfg: SolverConfig | None = None) -> Schedule:
    """Optimal FD2TS schedule of the scenario's link."""
    return solve(replace(s, strategy=Strategy.FD2TS), cfg)


def solve_1ts(s: Scenario, cfg: SolverConfig | None = None) -> Schedule:
    """Optimal FD1TS schedule of the scenario's link."""
    return solve(replace(s, strategy=Strategy.FD1TS), cfg)


def solve_hd(s: Scenario, cfg: SolverConfig | None = None) -> Schedule:
    """Optimal HD2TS schedule of the scenario's link."""
    return solve(replace(s, strategy=Strategy.HD2TS), cfg)


def _solve_separable(costs: list[Callable[[float], float]],
                     window: FeasibleWindow, s: Scenario,
                     cfg: SolverConfig) -> tuple[float, ...]:
    """Minimize the sum of the slot costs over the feasible durations.

    Each slot is searched on its own interval first; the boundary re-solve
    along t1 + t2 = T runs only when two independent optima overrun the
    frame (one slot's interval already ends at the frame).  A slot with no
    traffic (minimum duration 0) stays closed.
    """
    frame = s.frame_t
    spans = window.spans(frame)

    def search(cost: Callable[[float], float], lo: float, hi: float) -> float:
        if lo == 0.0:
            return 0.0
        return minimize_unimodal_1d(cost, lo, hi, cfg, frame_t=frame)[0]

    durations = tuple(search(cost, lo, hi)
                      for cost, (lo, hi) in zip(costs, spans))
    if sum(durations) <= frame:
        return durations
    cost1, cost2 = costs
    (lo1, hi1), _ = spans
    t1, _ = minimize_unimodal_1d(lambda t: cost1(t) + cost2(frame - t),
                                 lo1, hi1, cfg, frame_t=frame)
    return t1, frame - t1
