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
of its minimum duration from the scenario alone: in closed form for each
fd2ts slot and hd2ts's broadcast, by Newton steps for hd2ts's access slot,
and by secant steps from a closed-form bound below for fd1ts.  The two
points a quarter of the tolerance either side of it are the bracket once
checked; strictly inside the window, they also decide its ends.  A root
whose two points are not such a bracket (on the benchmark pools, none),
or a slot whose root is None, takes a short safeguarded secant on the
slot's log power-to-budget ratio to find one.
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
# Probes of the secant that seeds the bisection where a slot's root does
# not; past them the bisection finishes alone.  With no roots, no slot of
# the benchmark pools needs more than 12; with them, none comes here.
_SEED_MAX_PROBES = 16


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


def _seed_bracket(probe: Callable[[float], tuple[bool, float]],
                  a: float, ga: float, b: float, gb: float,
                  tol: float) -> tuple[float, float]:
    """Narrow a checked bracket (a, b) of a slot's minimum duration to at
    most ``tol``, or as far as ``_SEED_MAX_PROBES`` probes take it.

    ``probe(t)`` gives the budget predicate at t and g, the log of the
    largest power-to-budget ratio, which falls with t and is close to
    linear in 1/t once the spectral load is high.  Each step is a secant on
    g in 1/t between the bracket's ends, safeguarded in the spirit of
    Brent: the end kept twice in a row has its value scaled down
    (Anderson-Bjorck), a step that would land within tol/2 of the end it
    just moved goes tol/2 past it instead, and the step is the geometric
    midpoint wherever a value is infinite or the secant would leave the
    bracket.  Every probed point is checked, so the result is a checked
    bracket.
    """
    last = None
    for _ in range(_SEED_MAX_PROBES):
        if b - a <= tol:
            break
        t = math.nan
        if math.isfinite(ga) and math.isfinite(gb) and ga > gb:
            t = 1.0 / (1.0 / a - (1.0 / a - 1.0 / b) * ga / (ga - gb))
            if last is True:
                t = min(t, b - 0.5 * tol)
            elif last is False:
                t = max(t, a + 0.5 * tol)
        if not a < t < b:
            # sqrt(a * b) underflows to 0 on frames below about 2e-159 s.
            t = math.sqrt(a) * math.sqrt(b)
        ok, g = probe(t)
        if ok:
            if last is True:
                ga *= _kept_scale(g, gb)
            b, gb = t, g
        else:
            if last is False:
                gb *= _kept_scale(g, ga)
            a, ga = t, g
        last = ok
    return a, b


def _kept_scale(g_new: float, g_old: float) -> float:
    """Anderson-Bjorck factor for the value at the bracket end a secant
    step kept again: 1 - g_new/g_old when that is positive, else 1/2."""
    m = 1.0 - g_new / g_old if g_old else 0.0
    return m if m > 0 else 0.5


def _slot_tmin(s: Scenario, slot: Slot, floor: float,
               furthest: bool) -> tuple[float, str | None]:
    """Minimum duration at which every power of the slot is within its
    budget, and the node that binds there.  The slot's closed form is bound
    to the scenario once, and every probe evaluates the bound function.

    With a ``root``, the slot first probes root -+ tol/4; when both lie
    strictly inside (floor, frame), the first failing and the second
    passing, they are the bisection's checked bracket, and the floor, the
    frame and the secant are never probed.  Otherwise the floor and the
    frame are probed and the secant (:func:`_seed_bracket`) finds the
    bracket.  Either way the bisection returns what it returns alone.

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

    def probe(t: float) -> tuple[bool, float]:
        """Whether every power is within its budget at t, and the log of
        the largest power-to-budget ratio (+inf where the powers raise)."""
        try:
            powers = bound(t)
        except InfeasibleError:
            return False, math.inf
        ratio = max(map(operator.truediv, powers, caps))
        return (all(map(operator.le, powers, caps)),
                math.log(ratio) if ratio > 0 else -math.inf)

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
    if slot.root is not None:
        # Strictly inside (floor, frame), a failing point below a passing
        # one also decides the floor (fails) and the frame (passes).
        t = slot.root(s)
        a, b = t - 0.25 * tol, t + 0.25 * tol
        if floor < a < b < s.frame_t and not within(a) and within(b):
            return found((a, b))
    ok, g_floor = probe(floor)
    if ok:
        return floor, None
    ok, g_frame = probe(s.frame_t)
    if not ok:
        nodes = over(s.frame_t)
        node = (max(nodes, key=operator.itemgetter(1)) if furthest
                else nodes[0])[0]
        raise InfeasibleError(f"node {node} exceeds its power budget even at "
                              f"the full frame", binding_node=node)
    return found(_seed_bracket(probe, floor, g_floor, s.frame_t, g_frame,
                               tol))


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
