"""The seeded window bisection against the plain one.

``_slot_tmin`` first narrows the slot's window to a checked bracket with a
safeguarded secant (``_seed_bracket``), then runs the unchanged bisection,
which calls its predicate only strictly inside that bracket.  The plain
bisection it replaced is kept here as the reference: the bracket it
returns must not change with the seed.  ``tests/test_window_parity.py``
checks the windows themselves.
"""

import math
from dataclasses import replace

import pytest

from fdrelay.config import ScenarioParams
from fdrelay.feasibility import (_BISECT_TOL_FRACTION, _bisect_monotone,
                                 _seed_bracket, t_floor, tmin_for, tmin_slots)
from fdrelay.model import Strategy
from fdrelay.strategies import DESCRIPTIONS


def _plain_bisect(pred, lo, hi, tol):
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _step(threshold, calls):
    def pred(t):
        calls.append(t)
        return t >= threshold
    return pred


def _check_seed(lo, hi, tol, threshold, a, b):
    """The seeded bracket equals the plain one, and every call the seeded
    bisection makes lies strictly inside the seed."""
    want = _plain_bisect(_step(threshold, []), lo, hi, tol)
    calls = []
    got = _bisect_monotone(_step(threshold, calls), lo, hi, tol, (a, b))
    assert got == want, (threshold, a, b)
    assert all(a < t < b for t in calls)
    return calls


@pytest.mark.parametrize("tol", [1e-11, 1e-6, 0.0])
def test_seed_never_changes_the_bracket(rng, tol):
    lo, hi = 1e-8, 0.01
    for _ in range(300):
        threshold = float(rng.uniform(lo, hi))
        if not lo < threshold <= hi:
            continue
        a = float(rng.uniform(lo, threshold))
        b = float(rng.uniform(threshold, hi))
        if not (a < threshold <= b):
            continue
        _check_seed(lo, hi, tol, threshold, a, b)
        # A seed as wide as the interval, and seeds at either end of it.
        _check_seed(lo, hi, tol, threshold, lo, hi)
        _check_seed(lo, hi, tol, threshold, lo, b)
        _check_seed(lo, hi, tol, threshold, a, hi)


def test_seed_on_a_midpoint():
    lo, hi, tol = 0.0, 1.0, 1e-9
    for threshold, (a, b) in [(0.3, (0.25, 0.5)), (0.5, (0.25, 0.5)),
                              (0.75, (0.5, 0.75)), (0.625, (0.5, 0.625))]:
        calls = _check_seed(lo, hi, tol, threshold, a, b)
        assert a not in calls and b not in calls


def test_tight_seed_leaves_few_calls():
    lo, hi, tol = 1e-8, 0.01, 1e-11
    threshold = 0.0052124761951071
    calls = _check_seed(lo, hi, tol, threshold, threshold - 0.25 * tol,
                        threshold + 0.25 * tol)
    assert len(calls) <= 2
    assert len(_check_seed(lo, hi, tol, threshold, lo, hi)) == 30


def _ratio_probe(k, c, budget):
    """A slot whose one power c*(2**(k/t) - 1) has the given budget, probed
    as ``_slot_tmin`` probes it."""
    def probe(t):
        p = c * (2.0 ** (k / t) - 1.0) if k / t < 1000 else math.inf
        ratio = p / budget
        return p <= budget, math.log(ratio) if ratio > 0 else -math.inf
    return probe


def test_seed_bracket_is_checked_and_within_tolerance(rng):
    floor, frame = 1e-8, 0.01
    tol = _BISECT_TOL_FRACTION * frame
    seeded = 0
    for _ in range(200):
        k = float(rng.uniform(1e-4, 0.1))
        c = float(10.0 ** rng.uniform(-12, -2))
        budget = float(rng.uniform(0.1, 40.0))
        probe = _ratio_probe(k, c, budget)
        ok_floor, g_floor = probe(floor)
        ok_frame, g_frame = probe(frame)
        if ok_floor or not ok_frame:
            continue
        a, b = _seed_bracket(probe, floor, g_floor, frame, g_frame, tol)
        assert floor <= a < b <= frame
        assert not probe(a)[0] and probe(b)[0]
        assert b - a <= tol
        seeded += 1
    assert seeded >= 100


def _counted(slots):
    calls = [0]

    def wrap(fn):
        def powers(*args):
            calls[0] += 1
            return fn(*args)
        return powers

    return calls, tuple(replace(slot, powers=wrap(slot.powers))
                        for slot in slots)


# Measured on the defaults: 12 `powers` calls per bisected slot for fd1ts
# and fd2ts and 10.5 for hd2ts, against 33 for the plain bisection (the
# floor, the frame, 30 midpoints and the binder's diagnosis).
@pytest.mark.parametrize("strategy", list(Strategy))
def test_window_calls_per_bisected_slot(strategy):
    s = ScenarioParams(strategy=strategy).build()
    calls, slots = _counted(DESCRIPTIONS[strategy].slots)
    window = tmin_slots(s, slots)
    assert window == tmin_for(s)
    bisected = sum(t > t_floor(s) for t in window.t_min)
    assert bisected == len(slots)
    assert calls[0] <= 16 * bisected, calls[0]

