"""Duration optimization and schedule assembly.

The energy objectives are convex (or at worst unimodal) in the slot
durations once the powers are eliminated, and the frame energy is one cost
per slot plus the idle draw, so a derivative-free golden-section search per
slot duration is exact for this problem family.  Every strategy is solved
the same way from its description: one search per slot, plus a
frame-budget boundary re-solve when two slots overrun the frame, which
prices the energy ``solve`` reports, Σ active·t, since the idle term is
exactly 0 on the frame's edge.  The
feasibility window comes from the same description, one bisection per slot
(see :func:`~fdrelay.feasibility.tmin_for`).

The slot searches step in lockstep rounds and stop as soon as the lower
ends of their brackets prove that the optima overrun the frame, since the
boundary re-solve then discards them; the result is the same as searching
each slot to the end.  Each search asks for one point at a time, so a
round prices every slot's point in one call of the frame binder
(:meth:`~fdrelay.strategies.Description.bind_frame`), with one PA draw over
every node of the frame; the re-solve and the final energy price the frame
the same way.
"""

from __future__ import annotations

import math
from typing import Callable, Generator

from .feasibility import FeasibleWindow, tmin_for
from .model import InfeasibleError, Scenario, Schedule, ee_from_energy
from .strategies import DESCRIPTIONS, frame_energy
# Unused here, but the benchmark's span tracer (bench/tracing.py) patches
# these names on this module, so they stay importable from it.
from .feasibility import tmin_1ts, tmin_2ts, tmin_hd  # noqa: F401
from .model import pa_consumption  # noqa: F401
from .strategies import (energy_1ts, energy_2ts, energy_hd,  # noqa: F401
                         powers_1ts, powers_2ts, powers_hd)

__all__ = ["minimize_unimodal_1d", "solve"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi**2

# A slot search stops once its bracket is at most this fraction of the frame
# wide, or after _MAX_ITERS steps.
DURATION_TOL = 1e-7
_MAX_ITERS = 300


def _golden_section(lo: float, hi: float, tol: float
                    ) -> Generator[tuple[float, float], float,
                                   tuple[float, float]]:
    """Golden-section search of :func:`minimize_unimodal_1d`, asked and
    told one point at a time: yields ``(point, lower end)``, the point
    whose value it needs and its bracket's lower end, is sent that point's
    value, and returns (argmin, value).

    The bracket only ever shrinks, so every yielded lower end is a lower
    bound on the argmin it returns.  The values at the bracket ends are
    kept as the probes move onto them, so the closing edge check asks only
    for an end that was never probed.  A bracket at most ``tol`` wide asks
    only for its midpoint.
    """
    if not lo <= hi:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    span = hi - lo
    if span <= tol:
        mid = 0.5 * (lo + hi)
        return mid, (yield mid, lo)
    c = lo + _INV_PHI2 * span
    d = lo + _INV_PHI * span
    fc = yield c, lo
    fd = yield d, lo
    f_lo = f_hi = None
    for _ in range(_MAX_ITERS):
        if not (math.isfinite(fc) and math.isfinite(fd)):
            raise ValueError(
                "objective is not finite inside the feasibility window")
        if hi - lo <= tol:
            break
        if fc < fd:
            hi, f_hi, d, fd = d, fd, c, fc
            c = lo + _INV_PHI2 * (hi - lo)
            fc = yield c, lo
        else:
            lo, f_lo, c, fc = c, fc, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = yield d, lo
    x, fx = (c, fc) if fc <= fd else (d, fd)
    # The minimum may sit exactly on an endpoint the interior probes never
    # reach; keep the better of the probe and the nearest endpoint.
    for edge, fe in ((lo, f_lo), (hi, f_hi)):
        if fe is None:
            fe = yield edge, lo
        if fe < fx:
            x, fx = edge, fe
    return x, fx


def minimize_unimodal_1d(f: Callable[[float], float], lo: float, hi: float,
                         tol: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal scalar function on [lo, hi],
    searched until the bracket is at most ``tol`` wide.

    Works across kinks (e.g. a pointwise max of convex functions) because
    only function-value comparisons are used.  Returns (argmin, value).
    """
    search = _golden_section(lo, hi, tol)
    value = None
    while True:
        try:
            t, _ = search.send(value)
        except StopIteration as done:
            return done.value
        value = f(t)


def solve(s: Scenario) -> Schedule:
    """Solve the scenario with its configured strategy.

    Every strategy is solved alike from its description: the frame energy is
    the sum of the per-slot costs plus the idle draw of the whole frame, so
    each slot duration is searched on its own, on that slot's cost, above
    the slot's minimum duration (:func:`tmin_for`), until its bracket is
    at most ``DURATION_TOL`` of the frame wide.  The frame is bound to the
    scenario once per solve (``Description.bind_frame``), and every price
    the solve takes goes through it: each lockstep round of the slot
    searches, each point of the boundary re-solve, and the final powers and
    energy, each in one PA draw over every node of the frame.
    """
    desc = DESCRIPTIONS[s.strategy]
    window = tmin_for(s)
    if not window.feasible:
        raise InfeasibleError(window.detail,
                              binding_node=next(
                                  (b for b in window.binding_node if b), None),
                              cause=window.cause)
    price = desc.bind_frame(s)
    durations = _solve_separable(price, window, s)
    powers, actives, _ = price(*durations)
    fields = dict.fromkeys(("t1", "t2", "p_a", "p_b", "p_r_fwd", "p_r_rev"),
                           0.0)
    fields.update(zip(("t1", "t2"), durations))
    for slot, p in zip(desc.slots, powers):
        fields.update(zip(slot.fields, p))
    e = frame_energy(s, durations, actives)
    return Schedule(e_total=e, ee=ee_from_energy(s.r_fl, s.r_rl, s.frame_t, e),
                    active_case=desc.active_case(s, *durations), **fields)


def _solve_separable(price: Callable[..., tuple], window: FeasibleWindow,
                     s: Scenario) -> tuple[float, ...]:
    """Minimize the sum of the slot costs over the feasible durations;
    ``price(*durations)`` prices the frame, one duration per slot, and
    gives each slot's cost last (``Description.bind_frame``).

    Each slot is searched on its own interval first; the boundary re-solve
    along t1 + t2 = T runs only when two independent optima overrun the
    frame (one slot's interval already ends at the frame).  It prices
    Σ active·t, from ``price``'s active powers: on that edge the idle draw
    adds exactly nothing, so where it dwarfs the active powers, and each
    slot cost rounds to -idle·t, the re-solve still compares every digit
    of them.  A slot with no traffic (minimum duration 0) stays closed.

    The slot searches run in lockstep rounds: each running search asks for
    its next point, and one ``price`` call prices the whole round, a slot
    whose search has ended at its optimum and a closed slot at 0.  The
    searches are dropped as soon as their brackets' lower ends sum to more
    than the frame.  That stop is exact: a bracket only shrinks and float
    addition is monotone, so the optima would overrun the frame too and the
    re-solve would run anyway; every result equals that of searching each
    slot to the end.  The dropped searches evaluate only a prefix of their
    points, so an objective that turns non-finite beyond the stop no longer
    raises the ``ValueError`` the full search would have raised.
    """
    frame = s.frame_t
    tol = DURATION_TOL * frame
    spans = window.spans(frame)
    # Per slot, the duration the next round prices, and a lower bound on
    # its optimum: the bracket's lower end while its search runs, the
    # optimum itself once the search is done.
    points = [lo for lo, _ in spans]
    bounds = points.copy()
    running = []
    for k, (lo, hi) in enumerate(spans):
        if lo != 0.0:
            search = _golden_section(lo, hi, tol)
            points[k], bounds[k] = next(search)
            running.append((k, search.send))
    while running and sum(bounds) <= frame:
        costs = price(*points)[2]
        for k, tell in running:
            try:
                points[k], bounds[k] = tell(costs[k])
            except StopIteration as done:
                # Later rounds price the slot at its optimum.  This round
                # goes on over the list it started with.
                points[k] = bounds[k] = done.value[0]
                running = [search for search in running if search[0] != k]
    if sum(bounds) <= frame:
        return tuple(bounds)
    (lo1, hi1), _ = spans

    def frame_cost(t: float) -> float:
        active1, active2 = price(t, frame - t)[1]
        return active1 * t + active2 * (frame - t)

    t1, _ = minimize_unimodal_1d(frame_cost, lo1, hi1, tol)
    return t1, frame - t1
