"""Minimum admissible slot durations under per-node power budgets.

Every closed-form power is strictly decreasing in its own slot duration, so
"does duration t respect all the caps" is a monotone predicate and each
minimum duration is found by bisection.  Infeasibility is reported, never
clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .model import InfeasibleError, Scenario, Strategy
from .strategies import DESCRIPTIONS, Slot, powers_1ts
# Unused here, but the benchmark's span tracer (bench/tracing.py) patches
# these names on this module, so they stay importable from it.
from .strategies import powers_2ts, powers_hd  # noqa: F401

__all__ = ["FeasibleWindow", "tmin_slots", "tmin_2ts", "tmin_1ts", "tmin_hd",
           "tmin_for", "t_floor"]

# Durations below this fraction of the frame make the spectral load
# overflow double precision at realistic rates; it is the lower end of
# every search window.
_FLOOR_FRACTION = 1e-6

# Bisection control (absolute tolerance is relative to the frame length).
_BISECT_TOL_FRACTION = 1e-9
_BISECT_MAX_ITERS = 200


@dataclass(frozen=True)
class FeasibleWindow:
    """Per-slot minimum durations, or the reason none exist.

    ``t_min`` has one entry per decision variable (one for the single-slot
    strategy, two otherwise); it is 0 for a slot with no traffic, which stays
    closed.  ``binding_node`` names, per slot, the node whose power budget
    is active at the minimum (None when the numerical floor is the binder).
    """

    t_min: tuple[float, ...]
    feasible: bool
    binding_node: tuple[str | None, ...]
    detail: str = ""

    def spans(self, frame_t: float) -> tuple[tuple[float, float], ...]:
        """Per-slot (shortest, longest) duration: a slot may grow until the
        other slots are left only their minimum durations."""
        return tuple((lo, frame_t - sum(self.t_min[:k] + self.t_min[k + 1:]))
                     for k, lo in enumerate(self.t_min))


def t_floor(s: Scenario) -> float:
    """Smallest duration the numerics admit for this scenario."""
    return _FLOOR_FRACTION * s.frame_t


def _bisect_monotone(pred: Callable[[float], bool], lo: float, hi: float,
                     tol: float, max_iters: int = _BISECT_MAX_ITERS) -> float:
    """Smallest t in [lo, hi] with pred(t) true, given pred monotone in t.

    Assumes pred(hi) is true and pred(lo) is false; returns a point on the
    feasible side of the boundary.
    """
    for _ in range(max_iters):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _slot_tmin(s: Scenario, slot: Slot, floor: float,
               tol: float | None = None) -> tuple[float, str | None]:
    """Minimum duration so every power of the slot stays within its budget.

    Each power map is strictly decreasing in t, so the per-node minimum is a
    bisection and the slot minimum is the largest of them.
    """
    t_min = floor
    binder: str | None = None
    tol = tol if tol is not None else _BISECT_TOL_FRACTION * s.frame_t
    for k, (node, cap) in enumerate(slot.budgets(s)):
        def ok(t: float, _k=k, _c=cap) -> bool:
            return slot.powers(s, t)[_k] <= _c
        if ok(floor):
            continue
        if not ok(s.frame_t):
            raise InfeasibleError(
                f"node {node} exceeds its power budget even at the full "
                f"frame", binding_node=node)
        t_node = _bisect_monotone(ok, floor, s.frame_t, tol)
        if t_node > t_min:
            t_min, binder = t_node, node
    return t_min, binder


def tmin_slots(s: Scenario, slots: tuple[Slot, ...],
               tol: float | None = None) -> FeasibleWindow:
    """Per-slot minimum durations of independent slots, or why none exist.

    A slot with no traffic stays closed at zero length.  ``tol`` overrides
    the default bisection width of 1e-9 of the frame.
    """
    floor = t_floor(s)
    t_min: list[float] = []
    binders: list[str | None] = []
    try:
        for slot in slots:
            t, node = (_slot_tmin(s, slot, floor, tol) if slot.demand(s)
                       else (0.0, None))
            t_min.append(t)
            binders.append(node)
    except InfeasibleError as err:
        return FeasibleWindow(t_min=(math.nan,) * len(slots), feasible=False,
                              binding_node=(err.binding_node,) * len(slots),
                              detail=str(err))
    if sum(t_min) > s.frame_t:
        return FeasibleWindow(
            t_min=tuple(t_min), feasible=False, binding_node=tuple(binders),
            detail="minimum slot durations exceed the frame budget")
    return FeasibleWindow(t_min=tuple(t_min), feasible=True,
                          binding_node=tuple(binders))


def tmin_2ts(s: Scenario, tol: float | None = None) -> FeasibleWindow:
    """Per-slot minimum durations for FD2TS, or an infeasible window."""
    return tmin_slots(s, DESCRIPTIONS[Strategy.FD2TS].slots, tol)


def tmin_1ts(s: Scenario, tol: float | None = None) -> FeasibleWindow:
    """Minimum duration for FD1TS via bisection on the joint predicate.

    The predicate bundles the cancellation condition (positive case
    denominators) with the three power caps; all of them relax as the slot
    grows, so it stays monotone.  ``tol`` overrides the default bisection
    width of 1e-9 of the frame.
    """
    floor = t_floor(s)

    def ok(t: float) -> bool:
        try:
            pw = powers_1ts(s, t)
        except InfeasibleError:
            return False
        return (pw.p_a <= s.pa.a.p_max and pw.p_b <= s.pa.b.p_max
                and pw.p_r <= s.pa.r.p_max)

    if ok(floor):
        return FeasibleWindow(t_min=(floor,), feasible=True,
                              binding_node=(None,))
    if not ok(s.frame_t):
        try:
            pw = powers_1ts(s, s.frame_t)
        except InfeasibleError as err:
            return FeasibleWindow(t_min=(math.nan,), feasible=False,
                                  binding_node=(err.binding_node,),
                                  detail=str(err))
        over = [(node, p, cap) for node, p, cap in
                (("a", pw.p_a, s.pa.a.p_max), ("b", pw.p_b, s.pa.b.p_max),
                 ("r", pw.p_r, s.pa.r.p_max)) if p > cap]
        node = max(over, key=lambda item: item[1] / item[2])[0]
        return FeasibleWindow(
            t_min=(math.nan,), feasible=False, binding_node=(node,),
            detail=f"node {node} exceeds its power budget even at the full frame")
    tol = tol if tol is not None else _BISECT_TOL_FRACTION * s.frame_t
    t_min = _bisect_monotone(ok, floor, s.frame_t, tol)
    pw = powers_1ts(s, t_min * (1.0 - 1e-7)) if t_min > floor else None
    binder = None
    if pw is not None:
        ratios = {"a": pw.p_a / s.pa.a.p_max, "b": pw.p_b / s.pa.b.p_max,
                  "r": pw.p_r / s.pa.r.p_max}
        binder = max(ratios, key=ratios.get)
    return FeasibleWindow(t_min=(t_min,), feasible=True, binding_node=(binder,))


def tmin_hd(s: Scenario, tol: float | None = None) -> FeasibleWindow:
    """Per-slot minimum durations for the HD baseline."""
    return tmin_slots(s, DESCRIPTIONS[Strategy.HD2TS].slots, tol)


def tmin_for(s: Scenario) -> FeasibleWindow:
    """The feasibility window of the scenario's strategy.

    The single-slot strategy bisects the joint predicate of its coupled
    powers; every other strategy's slots are independent.
    """
    slots = DESCRIPTIONS[s.strategy].slots
    return tmin_1ts(s) if len(slots) == 1 else tmin_slots(s, slots)
