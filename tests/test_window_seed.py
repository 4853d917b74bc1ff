"""The seeded window bisection against the plain one.

``_slot_tmin`` first narrows the slot's window to a checked bracket, then
runs the unchanged bisection, which calls its predicate only strictly
inside that bracket.  Every slot has a ``root``, which seeds the bracket
with the two points a quarter tolerance either side of it; a root whose
points do not bracket the minimum takes the floor and the frame as the
bracket instead.  The plain bisection is kept here as the reference: the
bracket it returns must not change with the seed.
``tests/test_window_parity.py`` checks the windows themselves, and its
reference checks them here for every kind of root.
"""

import collections
import importlib.util
import math
import random
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from fdrelay import cli, strategies
from fdrelay.config import (ConfigError, ScenarioParams,
                            unbuildable_is_config_error)
from fdrelay.feasibility import (_BISECT_TOL_FRACTION, _bisect_monotone,
                                 t_floor, tmin_for, tmin_slots)
from fdrelay.model import CircuitAccounting, InfeasibleError, PaKind, Strategy
from fdrelay.strategies import DESCRIPTIONS
from fdrelay.sweep import apply_axis

from conftest import with_powers
from test_outcomes import _DRAWS, _SEEDS, _draw
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


def _recorded(slot):
    """``slot`` with its closed form recording the durations it is called
    at, and two records: the window's calls (the bracket check, the
    bisection and the binder's diagnosis), and apart from them the calls
    that the slot's root makes on the bound closed form it is given."""
    calls, steps = [], []

    def powers(s, t):
        calls.append(t)
        return slot.bind(s)(t)

    def root(s, bound):
        start = len(calls)
        t = slot.root(s, bound)
        steps.extend(calls[start:])
        del calls[start:]
        return t

    return calls, steps, replace(with_powers(slot, powers), root=root)


# Every slot has a `root`.  Measured on the defaults, per bisected slot: 3
# window calls for fd1ts, each fd2ts slot and hd2ts's access slot, and 4
# for hd2ts's broadcast, against 33 for every slot on the plain path that
# a root of NaN takes (the floor, the frame, 30 midpoints and the binder's
# diagnosis).  The two slots whose roots take secant steps on the slot's
# bound closed form, fd1ts's and hd2ts's access slot, make 3 and 2 more
# calls there; the closed-form roots make none.
_ROOT_STEPS = {Strategy.FD1TS: [3], Strategy.FD2TS: [0, 0],
               Strategy.HD2TS: [2, 0]}


@pytest.mark.parametrize("pa", list(PaKind))
@pytest.mark.parametrize("strategy", list(Strategy))
def test_window_calls_per_bisected_slot(monkeypatch, strategy, pa):
    s = ScenarioParams(strategy=strategy, pa=pa).build()
    recorded = [_recorded(slot) for slot in DESCRIPTIONS[strategy].slots]
    window = tmin_slots(s, tuple(slot for _, _, slot in recorded))
    # fd1ts's root steps on the closed form the window binds, so the
    # window binds fd1ts's relay cases once.
    binds = []
    bound_relay_cases = strategies._bound_relay_cases
    monkeypatch.setattr(strategies, "_bound_relay_cases",
                        lambda s: binds.append(s) or bound_relay_cases(s))
    assert window == tmin_for(s)
    assert len(binds) == (strategy is Strategy.FD1TS)
    assert all(t > t_floor(s) for t in window.t_min)
    for calls, _, _ in recorded:
        assert len(calls) <= 4, len(calls)
    assert [len(steps) for _, steps, _ in recorded] == _ROOT_STEPS[strategy]


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


def _unrooted(strategy):
    """The strategy's slots with a root of NaN, which seeds nothing: each
    takes the plain bisection from the floor and the frame."""
    return tuple(replace(slot, root=lambda _s, _powers: math.nan)
                 for slot in DESCRIPTIONS[strategy].slots)


def _with_root(s, k, root):
    """The strategy's slots with slot ``k``'s root replaced by the constant
    ``root`` and its closed form recorded, and that record."""
    slots = list(DESCRIPTIONS[s.strategy].slots)
    calls, _, slots[k] = _recorded(replace(slots[k],
                                           root=lambda _s, _powers: root))
    return calls, tuple(slots)


@pytest.mark.parametrize("accounting", list(CircuitAccounting))
@pytest.mark.parametrize("pa", list(PaKind))
@pytest.mark.parametrize("strategy", list(Strategy))
def test_any_root_gives_the_reference_window(strategy, pa, accounting):
    """An exact root seeds the bisection, and a root that is off, NaN, at
    or below the floor, or at or above the frame takes the plain path (it
    probes the floor, which a seeded bisection never does).  Either
    way the window is the reference's."""
    seeded = 0
    for s in _draws(strategy, pa, accounting, n=40):
        want = repr(reference_window(s))
        floor, frame = t_floor(s), s.frame_t
        tol = _BISECT_TOL_FRACTION * frame
        for k, slot in enumerate(DESCRIPTIONS[strategy].slots):
            if not slot.demand(s):
                continue
            root = slot.root(s, slot.bind(s))
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
@pytest.mark.parametrize("strategy", list(Strategy))
def test_root_is_the_window_minimum(strategy, pa, accounting):
    """Each root lies within the bisection's tolerance of its slot's
    minimum duration, wherever the bisection ran."""
    checked = 0
    for s in _draws(strategy, pa, accounting):
        window = tmin_for(s)
        for slot, t_min in zip(DESCRIPTIONS[strategy].slots, window.t_min):
            if not t_floor(s) < t_min:
                continue
            assert abs(slot.root(s, slot.bind(s)) - t_min) <= 1e-9 * s.frame_t
            checked += 1
    assert checked >= 50


@pytest.mark.parametrize("sigma2", [5e-324, 1e-300, 1e300])
@pytest.mark.parametrize("strategy", list(Strategy))
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
        assert isinstance(slot.root(s, slot.bind(s)), float)
    recorded = [_recorded(slot) for slot in DESCRIPTIONS[strategy].slots]
    window = tmin_slots(s, tuple(slot for _, _, slot in recorded))
    try:
        want = reference_window(s)
    except InfeasibleError:
        # fd1ts's own bisection raises where no power is finite just below
        # the minimum (test_window_parity); the unseeded window stands in.
        want = tmin_slots(s, _unrooted(strategy))
    assert repr(window) == repr(tmin_for(s)) == repr(want)
    if sigma2 < 1.0:
        assert window.feasible
        for calls, _, _ in recorded:
            assert t_floor(s) not in calls
            assert len(calls) <= 4, len(calls)


# Per seed of the outcome draws, the most bisected fd1ts slots that may
# probe their floor, as measured: 24 of the 232 that the six seeds bisect,
# where fd1ts's powers raise at its root's bound below, or overflow just
# above the load limit.  No other slot probes its floor, hd2ts's access
# slot included (234 bisected).
_FD1TS_PLAIN = {0: 7, 1: 2, 2: 4, 3: 4, 4: 2, 5: 5}


@pytest.mark.parametrize("seed", _SEEDS)
def test_outcome_draws_give_the_unrooted_window(seed):
    """Every draw of ``tests/test_outcomes.py`` that builds gives, under
    warnings as errors, the window its slots give with no root: edge
    values included, a root only seeds the bisection, and never warns or
    raises.  Only fd1ts's bisected slots take the plain path, which probes
    the floor, and no more of them than measured."""
    rng = random.Random(seed)
    compared = 0
    plain = collections.Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(_DRAWS):
            params = _draw(rng)
            try:
                with unbuildable_is_config_error():
                    s = params.build()
            except ConfigError:
                continue
            recorded = [_recorded(slot)
                        for slot in DESCRIPTIONS[s.strategy].slots]
            window = tmin_slots(s, tuple(slot for _, _, slot in recorded))
            assert repr(window) == repr(tmin_slots(s, _unrooted(s.strategy)))
            compared += 1
            for (calls, _, _), t_min in zip(recorded, window.t_min):
                if t_floor(s) < t_min and t_floor(s) in calls:
                    plain[s.strategy] += 1
    assert compared
    assert set(plain) <= {Strategy.FD1TS}
    assert plain[Strategy.FD1TS] <= _FD1TS_PLAIN[seed]


def _workloads(monkeypatch):
    """The benchmark's ``bench/workloads.py``, registered in ``sys.modules``
    only while the test runs, as its dataclasses need."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _benchmark_pools(monkeypatch):
    """The scenarios of both benchmark pools: every solve-mix entry, then
    every oracle-audit candidate."""
    workloads = _workloads(monkeypatch)
    return [params.build() for params in
            workloads.solve_mix_pool() + workloads.audit_candidates()]


def _sweep_grid(monkeypatch):
    """The scenarios of the benchmark's 61x9 sweep, every strategy at every
    grid point: the spec ``fdrelay sweep`` builds from its argv, each point
    built as :func:`~fdrelay.sweep.run_sweep` builds it."""
    specs = []
    monkeypatch.setattr(cli, "run_sweep", specs.append)
    monkeypatch.setattr(cli, "emit_csv", lambda rows, out: None)
    assert cli.cli_main(_workloads(monkeypatch).SWEEP_ARGV) == 0
    (spec,) = specs
    scenarios = []
    for v1 in spec.axis1.values:
        for v2 in spec.axis2.values:
            built = apply_axis(apply_axis(spec.base, spec.axis1.kind, v1),
                               spec.axis2.kind, v2).build()
            scenarios += [replace(built, strategy=strategy)
                          for strategy in spec.strategies]
    return scenarios


# Each benchmark input, whether some of its windows take the plain path,
# and a count below the slots it bisects.  Only the input with plain
# windows is checked against the reference here: the pools' 13,824
# windows would take several seconds of reference bisections, the
# sweep's 1,647 well under one.
_BENCHMARK_INPUTS = {"pools": (_benchmark_pools, False, 10_000),
                     "sweep-grid": (_sweep_grid, True, 2_000)}


@pytest.mark.parametrize("name", list(_BENCHMARK_INPUTS))
def test_benchmark_inputs_are_seeded_by_their_roots(monkeypatch, name):
    """On the benchmark pools every bisected slot takes the seeded path: no
    slot probes its floor.  On the 61x9 sweep grid every window equals the
    reference's, and some slots take the plain path: fd1ts-etpa at traffic
    ratio 1 and the lowest cancellations, where fd1ts's root returns its
    bound below.  On both, every seeded root lies within the bisection's
    tolerance of its slot's minimum."""
    scenarios, plain, least = _BENCHMARK_INPUTS[name]
    bisected = unseeded = 0
    for s in scenarios(monkeypatch):
        recorded = [_recorded(slot) for slot in DESCRIPTIONS[s.strategy].slots]
        window = tmin_slots(s, tuple(slot for _, _, slot in recorded))
        if plain:
            assert repr(window) == repr(reference_window(s))
        for (calls, _, slot), t_min in zip(recorded, window.t_min):
            if not t_floor(s) < t_min:
                continue
            bisected += 1
            if t_floor(s) in calls:
                unseeded += 1
            else:
                assert (abs(slot.root(s, slot.bind(s)) - t_min)
                        <= 1e-9 * s.frame_t)
    assert bool(unseeded) is plain
    assert bisected > least
