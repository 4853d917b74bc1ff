"""Duration optimization and schedule assembly.

The energy objectives are convex (or at worst unimodal) in the slot
durations once the powers are eliminated, and the frame energy is one cost
per slot plus the idle draw, so a derivative-free golden-section search per
slot duration is exact for this problem family.  Every strategy is solved
the same way from its description: one search per slot, plus a
frame-budget boundary re-solve when two slots overrun the frame.  The
feasibility window comes from the same description, one bisection per slot
(see :func:`~fdrelay.feasibility.tmin_for`).

The slot searches step in lockstep and stop as soon as the lower ends of
their brackets prove that the optima overrun the frame, since the boundary
re-solve then discards them; the result is the same as searching each slot
to the end.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Generator

from .feasibility import FeasibleWindow, tmin_for
from .model import InfeasibleError, Scenario, Schedule, ee_from_energy
from .strategies import DESCRIPTIONS
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


def _golden_section(f: Callable[[float], float], lo: float, hi: float,
                    tol: float) -> Generator[float, None, tuple[float, float]]:
    """Golden-section search of :func:`minimize_unimodal_1d`, one step at a
    time: yields the bracket's lower end after every step and returns
    (argmin, value).

    The bracket only ever shrinks, so every yielded lower end is a lower
    bound on the argmin it returns.  The values at the bracket ends are
    kept as the probes move onto them, so the closing edge check evaluates
    only an end that was never probed.
    """
    if not lo <= hi:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    span = hi - lo
    if span <= tol:
        mid = 0.5 * (lo + hi)
        return mid, f(mid)
    c = lo + _INV_PHI2 * span
    d = lo + _INV_PHI * span
    fc, fd = f(c), f(d)
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
            fc = f(c)
        else:
            lo, f_lo, c, fc = c, fc, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
        yield lo
    x, fx = (c, fc) if fc <= fd else (d, fd)
    # The minimum may sit exactly on an endpoint the interior probes never
    # reach; keep the better of the probe and the nearest endpoint.
    for edge, fe in ((lo, f_lo), (hi, f_hi)):
        if fe is None:
            fe = f(edge)
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
    steps = _golden_section(f, lo, hi, tol)
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value


def solve(s: Scenario) -> Schedule:
    """Solve the scenario with its configured strategy.

    Every strategy is solved alike from its description: the frame energy is
    the sum of the per-slot costs plus the idle draw of the whole frame, so
    each slot duration is searched on its own, on that slot's cost, above
    the slot's minimum duration (:func:`tmin_for`), until its bracket is
    at most ``DURATION_TOL`` of the frame wide.
    """
    desc = DESCRIPTIONS[s.strategy]
    window = tmin_for(s)
    if not window.feasible:
        raise InfeasibleError(window.detail,
                              binding_node=next(
                                  (b for b in window.binding_node if b), None),
                              cause=window.cause)
    costs = [partial(slot.cost, s) for slot in desc.slots]
    durations = _solve_separable(costs, window, s)
    powers = [slot.powers(s, t) for slot, t in zip(desc.slots, durations)]
    fields = dict.fromkeys(("t1", "t2", "p_a", "p_b", "p_r_fwd", "p_r_rev"),
                           0.0)
    fields.update(zip(("t1", "t2"), durations))
    for slot, p in zip(desc.slots, powers):
        fields.update(zip(slot.fields, p))
    e = desc.energy_at(s, durations, powers)
    return Schedule(e_total=e, ee=ee_from_energy(s.r_fl, s.r_rl, s.frame_t, e),
                    active_case=desc.active_case(s, *durations), **fields)


def _solve_separable(costs: list[Callable[[float], float]],
                     window: FeasibleWindow, s: Scenario
                     ) -> tuple[float, ...]:
    """Minimize the sum of the slot costs over the feasible durations.

    Each slot is searched on its own interval first; the boundary re-solve
    along t1 + t2 = T runs only when two independent optima overrun the
    frame (one slot's interval already ends at the frame).  A slot with no
    traffic (minimum duration 0) stays closed.

    The slot searches run in lockstep, one step each in turn, and are
    dropped as soon as their brackets' lower ends sum to more than the
    frame.  That stop is exact: a bracket only shrinks and float addition
    is monotone, so the optima would overrun the frame too and the re-solve
    would run anyway; every result equals that of searching each slot to
    the end.  The dropped searches evaluate only a prefix of their points,
    so an objective that turns non-finite beyond the stop no longer raises
    the ``ValueError`` the full search would have raised.
    """
    frame = s.frame_t
    tol = DURATION_TOL * frame
    spans = window.spans(frame)
    # Per slot, a lower bound on its optimum: the bracket's lower end while
    # its search runs, the optimum itself once the search is done.
    bounds = [lo for lo, _ in spans]
    running = [(k, _golden_section(cost, lo, hi, tol))
               for k, (cost, (lo, hi)) in enumerate(zip(costs, spans))
               if lo != 0.0]
    while running and sum(bounds) <= frame:
        k, steps = running.pop(0)
        try:
            bounds[k] = next(steps)
        except StopIteration as done:
            bounds[k] = done.value[0]
        else:
            running.append((k, steps))
    if sum(bounds) <= frame:
        return tuple(bounds)
    cost1, cost2 = costs
    (lo1, hi1), _ = spans
    t1, _ = minimize_unimodal_1d(lambda t: cost1(t) + cost2(frame - t),
                                 lo1, hi1, tol)
    return t1, frame - t1
