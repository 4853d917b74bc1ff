"""Minimum admissible slot durations under per-node power budgets.

Every closed-form power relaxes as its own slot grows, in the single-slot
strategy and the two-slot ones alike, so "does duration t keep every node
of the slot within its budget" is one monotone predicate per slot, and each
slot's minimum duration is one bisection on it.  A duration at which the
powers raise :class:`~fdrelay.model.InfeasibleError` (too weak a
self-cancellation) fails the predicate.  Infeasibility is reported, never
clamped.

The bisection starts from a checked bracket: one end fails the predicate,
the other passes it.  By monotonicity those two ends decide every midpoint
outside the bracket, so the bisection calls the predicate only inside it
and returns the bracket it would return alone.  Every slot of every
strategy has a root (:attr:`~fdrelay.strategies.Slot.root`), an estimate
of its minimum duration: in closed form for each fd2ts slot and hd2ts's
broadcast, and by secant steps on the slot's bound closed form from a
bound below for fd1ts and hd2ts's access slot.  The two points a quarter
of the tolerance either side of it are the bracket once checked; strictly
inside the window, they also decide its ends.  A root whose two points are
not such a bracket (on the benchmark's 61x9 sweep, 7 windows: fd1ts-etpa
at traffic ratio 1 and cancellation 20-26 dB) probes the floor and the
frame instead, and bisects from them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

from .model import InfeasibleError, Scenario, Strategy
from .strategies import DESCRIPTIONS, Slot
# Unused here, but the benchmark's span tracer (bench/tracing.py) patches
# these names on this module, so they stay importable from it.
from .strategies import powers_1ts, powers_2ts, powers_hd  # noqa: F401

__all__ = ["FeasibleWindow", "tmin_slots", "tmin_for", "t_floor"]

# Durations below this fraction of the frame make the spectral load
# overflow double precision at realistic rates; it is the lower end of
# every search window.
_FLOOR_FRACTION = 1e-6

# Bisection control (absolute tolerance is relative to the frame length).
_BISECT_TOL_FRACTION = 1e-9
_BISECT_MAX_ITERS = 200


@dataclass(frozen=True, slots=True)
class FeasibleWindow:
    """Per-slot minimum durations, or the reason none exist.

    ``t_min`` has one entry per decision variable (one for the single-slot
    strategy, two otherwise); it is 0 for a slot with no traffic, which stays
    closed.  ``binding_node`` names, per slot, the node whose power budget
    is active at the minimum (None when the numerical floor is the binder).
    An infeasible window says why in ``detail`` and names the
    :class:`InfeasibleError` cause in ``cause``.
    """

    t_min: tuple[float, ...]
    feasible: bool
    binding_node: tuple[str | None, ...]
    detail: str = ""
    cause: str = ""

    def spans(self, frame_t: float) -> tuple[tuple[float, float], ...]:
        """Per-slot (shortest, longest) duration: a slot may grow until the
        other slots are left only their minimum durations."""
        return tuple((lo, frame_t - sum(self.t_min[:k] + self.t_min[k + 1:]))
                     for k, lo in enumerate(self.t_min))


def t_floor(s: Scenario) -> float:
    """Smallest duration the numerics admit for this scenario."""
    return _FLOOR_FRACTION * s.frame_t


def _bisect_monotone(pred: Callable[[float], bool], lo: float, hi: float,
                     tol: float, checked: tuple[float, float]
                     ) -> tuple[float, float]:
    """Final bracket (lo, hi) of the smallest t with pred(t) true, given
    pred monotone in t, pred(lo) false and pred(hi) true; the bracket keeps
    that invariant and is at most ``tol`` wide.

    ``checked`` is a bracket (a, b) with lo <= a < b <= hi, pred(a) false
    and pred(b) true.  A midpoint at or below a is then false and one at or
    above b true, so pred is called only strictly between them, and the
    result is that of the plain bisection, ``checked = (lo, hi)``.
    """
    a, b = checked
    for _ in range(_BISECT_MAX_ITERS):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid >= b or (mid > a and pred(mid)):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _slot_tmin(s: Scenario, slot: Slot, floor: float,
               furthest: bool) -> tuple[float, str | None]:
    """Minimum duration at which every power of the slot is within its
    budget, and the node that binds there.  The slot's closed form is bound
    to the scenario once, for the root and every probe.

    The slot first probes root -+ tol/4 (:attr:`Slot.root`); when both lie
    strictly inside (floor, frame), the first failing and the second
    passing, they are the bisection's checked bracket, and the floor and
    the frame are never probed.  Otherwise the floor and the frame are
    probed and are the checked bracket.  Either way the bisection returns
    what it returns alone.

    The binder is the first node, in slot order, still over budget just
    below the minimum.  When even the full frame is over budget this raises
    :class:`InfeasibleError` naming the first over-budget node in slot
    order, or with ``furthest`` the node furthest over its budget.
    """
    caps = [cap for _, cap in slot.budgets(s)]
    bound = slot.bind(s)

    def over(t: float) -> list[tuple[str, float]]:
        """(node, p / cap) of each node over budget at t, in slot order."""
        return [(node, p / cap) for node, p, cap
                in zip(slot.nodes, bound(t), caps) if not p <= cap]

    def within(t: float) -> bool:
        """Whether every power is within its budget at t."""
        try:
            return all(map(operator.le, bound(t), caps))
        except InfeasibleError:
            return False

    def found(checked: tuple[float, float]) -> tuple[float, str | None]:
        lo, hi = _bisect_monotone(within, floor, s.frame_t, tol, checked)
        try:
            return hi, over(lo)[0][0]
        except InfeasibleError as err:
            return hi, err.binding_node

    tol = _BISECT_TOL_FRACTION * s.frame_t
    # Strictly inside (floor, frame), a failing point below a passing one
    # also decides the floor (fails) and the frame (passes).
    t = slot.root(s, bound)
    a, b = t - 0.25 * tol, t + 0.25 * tol
    if floor < a < b < s.frame_t and not within(a) and within(b):
        return found((a, b))
    if within(floor):
        return floor, None
    if not within(s.frame_t):
        nodes = over(s.frame_t)
        node = (max(nodes, key=operator.itemgetter(1)) if furthest
                else nodes[0])[0]
        raise InfeasibleError(f"node {node} exceeds its power budget even at "
                              f"the full frame", binding_node=node)
    return found((floor, s.frame_t))


def tmin_slots(s: Scenario, slots: tuple[Slot, ...]) -> FeasibleWindow:
    """Per-slot minimum durations of independent slots, or why none exist.

    Each slot with traffic is one bisection on its joint budget predicate;
    a slot with no traffic stays closed at zero length.  The only rule that
    depends on the strategy is the full-frame diagnosis: a single slot names
    the node furthest over its budget, several slots the first over-budget
    node in slot order.
    """
    floor = t_floor(s)
    try:
        found = [_slot_tmin(s, slot, floor, furthest=len(slots) == 1)
                 if slot.demand(s) else (0.0, None) for slot in slots]
    except InfeasibleError as err:
        return FeasibleWindow(t_min=(math.nan,) * len(slots), feasible=False,
                              binding_node=(err.binding_node,) * len(slots),
                              detail=str(err), cause=err.cause)
    t_min, binders = map(tuple, zip(*found))
    if sum(t_min) > s.frame_t:
        return FeasibleWindow(
            t_min=t_min, feasible=False, binding_node=binders,
            detail="minimum slot durations exceed the frame budget",
            cause="power_budget")
    return FeasibleWindow(t_min=t_min, feasible=True, binding_node=binders)


# Per-strategy windows.  Nothing in the package calls them: the benchmark
# imports them from the package (bench/workloads.py) and its span tracer
# patches them by name.

def tmin_2ts(s: Scenario) -> FeasibleWindow:
    """Per-slot minimum durations for FD2TS, or an infeasible window."""
    return tmin_slots(s, DESCRIPTIONS[Strategy.FD2TS].slots)


def tmin_1ts(s: Scenario) -> FeasibleWindow:
    """Minimum duration for FD1TS, or an infeasible window."""
    return tmin_slots(s, DESCRIPTIONS[Strategy.FD1TS].slots)


def tmin_hd(s: Scenario) -> FeasibleWindow:
    """Per-slot minimum durations for the HD baseline."""
    return tmin_slots(s, DESCRIPTIONS[Strategy.HD2TS].slots)


# The last window of :func:`tmin_for` with its scenario and slots, held so
# that neither id is reused, and replaced whole, so threads never read a
# wrong one.
_LAST_WINDOW: tuple[Scenario, tuple[Slot, ...], FeasibleWindow] | None = None


def tmin_for(s: Scenario) -> FeasibleWindow:
    """The feasibility window of the scenario's strategy: one bisection per
    slot, derived from its description alone (:func:`tmin_slots`).  The
    last window is kept and returned again for the same scenario object and
    slots tuple, both compared by identity, so an audit right after a solve
    bisects nothing again.  That is exact: both are frozen, and the window
    is a function of them alone."""
    global _LAST_WINDOW
    slots = DESCRIPTIONS[s.strategy].slots
    last = _LAST_WINDOW
    if last is None or last[0] is not s or last[1] is not slots:
        last = _LAST_WINDOW = s, slots, tmin_slots(s, slots)
    return last[2]
