"""Duration optimization and schedule assembly.

The energy objectives are convex (or at worst unimodal) in the slot
durations once the powers are eliminated, so a derivative-free golden-section
search per scalar coordinate is exact for this problem family: one search
for the single-slot strategy, two independent searches plus an optional
frame-budget boundary re-solve for the two-slot strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .feasibility import FeasibleWindow, tmin_1ts, tmin_slots
from .model import InfeasibleError, Scenario, Schedule, Strategy, ee_from_energy
from .strategies import DESCRIPTIONS, Description, energy_1ts, powers_1ts
# Unused here, but the benchmark's span tracer (bench/tracing.py) patches
# these names on this module, so they stay importable from it.
from .feasibility import tmin_2ts, tmin_hd  # noqa: F401
from .model import pa_consumption  # noqa: F401
from .strategies import energy_2ts, energy_hd, powers_2ts, powers_hd  # noqa: F401

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


def _solve_slots(s: Scenario, desc: Description,
                 cfg: SolverConfig | None = None) -> Schedule:
    """Optimal schedule of a strategy whose slots are independent.

    The frame energy is the sum of the per-slot costs plus the idle draw of
    the whole frame, so each slot duration is searched on its own.
    """
    cfg = cfg or SolverConfig()
    window = tmin_slots(s, desc.slots)
    if not window.feasible:
        raise InfeasibleError(window.detail or "scenario infeasible",
                              binding_node=next(
                                  (b for b in window.binding_node if b), None))
    cost1, cost2 = (partial(slot.cost, s) for slot in desc.slots)
    durations = _solve_separable(cost1, cost2, window, s, cfg)
    powers = [slot.powers(s, t) for slot, t in zip(desc.slots, durations)]
    fields = dict.fromkeys(("p_a", "p_b", "p_r_fwd", "p_r_rev"), 0.0)
    for slot, p in zip(desc.slots, powers):
        fields.update(zip(slot.fields, p))
    e = desc.energy_at(s, durations, powers)
    t1, t2 = durations
    return Schedule(t1=t1, t2=t2, e_total=e,
                    ee=ee_from_energy(s.r_fl, s.r_rl, s.frame_t, e), **fields)


def solve_2ts(s: Scenario, cfg: SolverConfig | None = None) -> Schedule:
    """Optimal FD2TS schedule."""
    return _solve_slots(s, DESCRIPTIONS[Strategy.FD2TS], cfg)


def solve_1ts(s: Scenario, cfg: SolverConfig | None = None) -> Schedule:
    """Optimal FD1TS schedule (single duration, worse-case energy)."""
    cfg = cfg or SolverConfig()
    window = tmin_1ts(s)
    if not window.feasible:
        raise InfeasibleError(window.detail or "scenario infeasible",
                              binding_node=window.binding_node[0])
    t_min = window.t_min[0]
    t1, _ = minimize_unimodal_1d(lambda t: energy_1ts(s, t), t_min,
                                 s.frame_t, cfg, frame_t=s.frame_t)
    pw = powers_1ts(s, t1)
    e = energy_1ts(s, t1)
    return Schedule(t1=t1, t2=0.0, p_a=pw.p_a, p_b=pw.p_b, p_r_fwd=pw.p_r,
                    p_r_rev=0.0, e_total=e,
                    ee=ee_from_energy(s.r_fl, s.r_rl, s.frame_t, e),
                    active_case=pw.active_case)


def solve_hd(s: Scenario, cfg: SolverConfig | None = None) -> Schedule:
    """Optimal HD2TS schedule."""
    return _solve_slots(s, DESCRIPTIONS[Strategy.HD2TS], cfg)


def solve(s: Scenario, cfg: SolverConfig | None = None) -> Schedule:
    """Solve the scenario with its configured strategy.

    The single-slot strategy searches its one duration on the frame energy
    itself; every other strategy's slots are searched one by one.
    """
    desc = DESCRIPTIONS[s.strategy]
    if len(desc.slots) == 1:
        return solve_1ts(s, cfg)
    return _solve_slots(s, desc, cfg)


def _solve_separable(cost1: Callable[[float], float],
                     cost2: Callable[[float], float],
                     window: FeasibleWindow, s: Scenario,
                     cfg: SolverConfig) -> tuple[float, float]:
    """Minimize cost1(t1) + cost2(t2) over the feasible duration triangle.

    Each slot is searched on its own interval first; the boundary re-solve
    along t1 + t2 = T runs only when the independent optima overrun the
    frame.  A slot with no traffic (minimum duration 0) stays closed.
    """
    frame = s.frame_t
    (lo1, hi1), (lo2, hi2) = window.spans(frame)

    def search(cost: Callable[[float], float], lo: float, hi: float) -> float:
        if lo == 0.0:
            return 0.0
        return minimize_unimodal_1d(cost, lo, hi, cfg, frame_t=frame)[0]

    t1, t2 = search(cost1, lo1, hi1), search(cost2, lo2, hi2)
    if t1 + t2 <= frame:
        return t1, t2
    t1, _ = minimize_unimodal_1d(lambda t: cost1(t) + cost2(frame - t),
                                 lo1, hi1, cfg, frame_t=frame)
    return t1, frame - t1
