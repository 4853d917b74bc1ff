"""The seeded window bisection against the plain one.

``_slot_tmin`` first narrows the slot's window to a checked bracket, then
runs the unchanged bisection, which calls its predicate only strictly
inside that bracket.  A slot with a closed-form ``root`` seeds the bracket
with the two points a quarter tolerance either side of it; any other slot,
or a root whose points do not bracket the minimum, takes a safeguarded
secant (``_seed_bracket``).  The plain bisection it replaced is kept here
as the reference: the bracket it returns must not change with the seed.
``tests/test_window_parity.py`` checks the windows themselves, and its
reference checks them here for every kind of root.
"""

import math
from dataclasses import replace

import pytest

from fdrelay.config import ScenarioParams
from fdrelay.feasibility import (_BISECT_TOL_FRACTION, _bisect_monotone,
                                 _seed_bracket, t_floor, tmin_for, tmin_slots)
from fdrelay.model import CircuitAccounting, InfeasibleError, PaKind, Strategy
from fdrelay.strategies import DESCRIPTIONS

from conftest import with_powers
from test_window_parity import _draws, reference_window


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


def _recorded(slot):
    """``slot`` with its closed form recording the durations it is called
    at, and that record."""
    calls = []

    def powers(s, t):
        calls.append(t)
        return slot.bind(s)(t)

    return calls, with_powers(slot, powers)


# Measured on the defaults, per bisected slot: 12 `powers` calls for fd1ts
# and 10 for hd2ts's access slot, which have no `root`, and 3 for each
# fd2ts slot and 4 for hd2ts's broadcast, which do (12, 12 and 11 before
# the roots seeded them), against 33 for the plain bisection (the floor,
# the frame, 30 midpoints and the binder's diagnosis).
@pytest.mark.parametrize("pa", list(PaKind))
@pytest.mark.parametrize("strategy", list(Strategy))
def test_window_calls_per_bisected_slot(strategy, pa):
    s = ScenarioParams(strategy=strategy, pa=pa).build()
    recorded = [_recorded(slot) for slot in DESCRIPTIONS[strategy].slots]
    window = tmin_slots(s, tuple(slot for _, slot in recorded))
    assert window == tmin_for(s)
    assert all(t > t_floor(s) for t in window.t_min)
    for (calls, _), slot in zip(recorded, DESCRIPTIONS[strategy].slots):
        assert len(calls) <= (16 if slot.root is None else 4), len(calls)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_powers_that_raise_fail_the_predicate(make_scenario, strategy):
    """A duration at which the closed form raises InfeasibleError (too weak
    a self-cancellation) fails the budget predicate, at the bisection's
    midpoints too: where the powers raise below an edge and are 0 above
    it, the window's minimum is the plain bisection's on that edge, and
    the binder is the error's node."""
    s = make_scenario(strategy=strategy)
    edge = 0.0031

    def powers(s, t):
        if t < edge:
            raise InfeasibleError("self-cancellation too weak",
                                  binding_node="b", cause="cancellation")
        return (0.0,) * len(slot.nodes)

    slot = DESCRIPTIONS[strategy].slots[0]
    window = tmin_slots(s, (with_powers(slot, powers),))
    tol = _BISECT_TOL_FRACTION * s.frame_t
    _, hi = _plain_bisect(lambda t: t >= edge, t_floor(s), s.frame_t, tol)
    assert window.t_min == (hi,)
    assert window.binding_node == ("b",)


# Every slot with a closed-form root: fd2ts's two and hd2ts's broadcast.
_ROOTED = [Strategy.FD2TS, Strategy.HD2TS]


def _with_root(s, k, root):
    """The strategy's slots with slot ``k``'s root replaced by the constant
    ``root`` and its closed form recorded, and that record."""
    slots = list(DESCRIPTIONS[s.strategy].slots)
    calls, slots[k] = _recorded(replace(slots[k], root=lambda _s: root))
    return calls, tuple(slots)


@pytest.mark.parametrize("accounting", list(CircuitAccounting))
@pytest.mark.parametrize("pa", list(PaKind))
@pytest.mark.parametrize("strategy", _ROOTED)
def test_any_root_gives_the_reference_window(strategy, pa, accounting):
    """An exact root seeds the bisection, and a root that is off, NaN, at
    or below the floor, or at or above the frame takes the secant's path
    (it probes the floor, which a seeded bisection never does).  Either
    way the window is the reference's."""
    seeded = 0
    for s in _draws(strategy, pa, accounting, n=40):
        want = repr(reference_window(s))
        floor, frame = t_floor(s), s.frame_t
        tol = _BISECT_TOL_FRACTION * frame
        for k, slot in enumerate(DESCRIPTIONS[strategy].slots):
            if slot.root is None or not slot.demand(s):
                continue
            root = slot.root(s)
            # (root, whether it seeds); an offset within a quarter
            # tolerance may still bracket the minimum, so it is not told.
            off = None if 1e-6 * root <= 0.5 * tol else False
            cases = [(root, floor + tol < root < frame - tol),
                     (root * (1.0 + 1e-6), off), (root * (1.0 - 1e-6), off),
                     (math.nan, False), (floor, False), (0.5 * floor, False),
                     (frame, False), (2.0 * frame, False)]
            for value, seeds in cases:
                calls, slots = _with_root(s, k, value)
                assert repr(tmin_slots(s, slots)) == want, (k, value)
                if seeds is not None:
                    assert (floor not in calls) is seeds, (k, value)
            seeded += floor + tol < root < frame - tol
    # The draws reach the seeded path, not only the fallback.
    assert seeded >= 20


@pytest.mark.parametrize("accounting", list(CircuitAccounting))
@pytest.mark.parametrize("pa", list(PaKind))
@pytest.mark.parametrize("strategy", _ROOTED)
def test_root_is_the_window_minimum(strategy, pa, accounting):
    """Each root lies within the bisection's tolerance of its slot's
    minimum duration, wherever the bisection ran."""
    checked = 0
    for s in _draws(strategy, pa, accounting):
        window = tmin_for(s)
        for slot, t_min in zip(DESCRIPTIONS[strategy].slots, window.t_min):
            if slot.root is None or not t_floor(s) < t_min:
                continue
            assert abs(slot.root(s) - t_min) <= 1e-9 * s.frame_t
            checked += 1
    assert checked >= 50


@pytest.mark.parametrize("sigma2", [5e-324, 1e-300, 1e300])
@pytest.mark.parametrize("strategy", _ROOTED)
def test_root_of_extreme_channels_is_a_number(make_scenario, strategy,
                                              sigma2):
    """Noise that underflows every power coefficient to 0, or overflows
    them: each root is a float, never an error, and the window is still
    the reference's.  Where the noise is tiny no budget binds, and the
    window's minimum is where the load reaches ``_LOAD_LIMIT`` and the
    powers turn +inf.  The root is bounded there too, so it seeds the
    bisection: at most 4 closed-form calls per rooted slot, and no probe
    of the floor."""
    s = make_scenario(strategy=strategy, sigma2=sigma2, g_ar=2.0, g_br=2.0,
                      gs=0.0)
    for slot in DESCRIPTIONS[strategy].slots:
        if slot.root is not None:
            assert isinstance(slot.root(s), float)
    recorded = [_recorded(slot) for slot in DESCRIPTIONS[strategy].slots]
    window = tmin_slots(s, tuple(slot for _, slot in recorded))
    assert repr(window) == repr(tmin_for(s)) == repr(reference_window(s))
    if sigma2 < 1.0:
        assert window.feasible
        for (calls, _), slot in zip(recorded, DESCRIPTIONS[strategy].slots):
            if slot.root is not None:
                assert t_floor(s) not in calls
                assert len(calls) <= 4, len(calls)
