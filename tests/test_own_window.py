"""``verify`` reads the feasibility window of the scenario it is given.

A schedule is only the answer: it carries no window, so ``verify(s,
sched)`` audits ``s`` over ``tmin_for(s)`` whatever scenario ``sched`` was
solved for.  A schedule of a neighbouring scenario is then judged like any
wrong answer, by a report, or by ``InfeasibleError`` where ``s`` has no
feasible grid point, never by a ``ValueError`` from a probe point outside
the budgets of ``s``.  ``tmin_for`` keeps its last window, keyed by the
scenario object and its strategy's slots by identity, so the audit right
after ``solve(s)`` bisects nothing again; every report equals the one
computed with that memo cleared first.
"""

import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from fdrelay import feasibility, oracle
from fdrelay.config import ScenarioParams
from fdrelay.feasibility import FeasibleWindow, tmin_for, tmin_slots
from fdrelay.model import (CircuitAccounting, InfeasibleError, PaKind,
                           Schedule, Strategy)
from fdrelay.oracle import OracleReport, random_params, verify
from fdrelay.solver import solve
from fdrelay.strategies import DESCRIPTIONS

from conftest import neighbour

_COMBOS = [(strategy, pa_kind, accounting) for strategy in Strategy
           for pa_kind in PaKind for accounting in CircuitAccounting]
_IDS = ["-".join(m.value for m in c) for c in _COMBOS]

# Neighbour pairs drawn per combination.
_PAIRS = 12


def _rng(seed, *members):
    """A generator seeded by ``seed`` and each enum member's position."""
    return np.random.default_rng(
        [seed, *(list(type(m)).index(m) for m in members)])


def _report(s, sched, monkeypatch):
    """``repr`` of ``verify(s, sched)``, checked against the same call with
    the window memo cleared first."""
    got = repr(verify(s, sched))
    monkeypatch.setattr(feasibility, "_LAST_WINDOW", None)
    assert repr(verify(s, sched)) == got
    return got


@pytest.mark.parametrize("strategy, pa_kind, accounting", _COMBOS, ids=_IDS)
def test_neighbour_schedule_is_judged_on_its_own_window(
        strategy, pa_kind, accounting, monkeypatch):
    """Each scenario of a pair audits the other's schedule, in one audit
    pass, over its own window: the grid best is the one its own schedule's
    audit finds."""
    passes, audit_pass = [], oracle._audit_pass

    def counted(*args):
        passes.append(args[0])
        return audit_pass(*args)

    monkeypatch.setattr(oracle, "_audit_pass", counted)
    rng = _rng(5, strategy, pa_kind, accounting)
    audited = 0
    for _ in range(_PAIRS):
        params = replace(random_params(rng, strategy, pa_kind),
                         accounting=accounting)
        pair = [params.build(), neighbour(params).build()]
        try:
            scheds = [solve(s) for s in pair]
        except InfeasibleError:
            continue
        for s, other in zip(pair, reversed(scheds)):
            own = verify(s, solve(s))
            passes.clear()
            got = _report(s, other, monkeypatch)
            assert passes == [s, s]
            assert f"grid_best_energy={own.grid_best_energy!r}," in got
            audited += 1
    assert audited


@pytest.mark.parametrize("strategy, pa_kind, accounting", _COMBOS, ids=_IDS)
def test_reports_equal_with_the_memo_cleared(strategy, pa_kind, accounting,
                                             monkeypatch):
    rng = _rng(20, strategy, pa_kind, accounting)
    checked = 0
    while checked < 4:
        s = replace(random_params(rng, strategy, pa_kind),
                    accounting=accounting).build()
        if tmin_slots(s, DESCRIPTIONS[strategy].slots).feasible:
            _report(s, solve(s), monkeypatch)
            checked += 1


def test_verify_reuses_the_window_of_the_solve(monkeypatch):
    """The audit right after ``solve(s)`` bisects nothing; an equal scenario
    built apart, a cleared memo and swapped slots each bisect once."""
    calls, bisect = [], feasibility.tmin_slots

    def counted(s, slots):
        calls.append(s)
        return bisect(s, slots)

    monkeypatch.setattr(feasibility, "tmin_slots", counted)
    params = ScenarioParams(strategy=Strategy.FD2TS)
    s = params.build()
    sched = solve(s)
    assert calls == [s]
    want = repr(verify(s, sched))
    assert calls == [s]
    twin = params.build()
    assert repr(verify(twin, sched)) == want
    assert calls == [s, twin] and calls[1] is twin
    monkeypatch.setattr(feasibility, "_LAST_WINDOW", None)
    assert repr(verify(twin, sched)) == want
    assert len(calls) == 3
    desc = DESCRIPTIONS[Strategy.FD2TS]
    monkeypatch.setitem(DESCRIPTIONS, Strategy.FD2TS,
                        replace(desc, slots=tuple(list(desc.slots))))
    assert repr(verify(twin, sched)) == want
    assert len(calls) == 4


def test_threads_sharing_the_kept_window():
    """Threads that window different scenarios replace one another's kept
    window; each still gets its own scenario's window."""
    cases = [ScenarioParams(strategy=strategy, pa=pa_kind).build()
             for strategy in Strategy for pa_kind in PaKind]
    want = [tmin_slots(s, DESCRIPTIONS[s.strategy].slots) for s in cases]
    wrong = []

    def window(k):
        for _ in range(20):
            if tmin_for(cases[k % len(cases)]) != want[k % len(cases)]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=window, args=(k,))
                   for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_a_schedule_is_only_the_answer():
    """No field of a schedule holds anything but the answer, and a
    hand-built schedule audits like a solved one."""
    assert [f.name for f in fields(Schedule)] == [
        "t1", "t2", "p_a", "p_b", "p_r_fwd", "p_r_rev", "e_total", "ee",
        "active_case"]
    s = ScenarioParams().build()
    sched = solve(s)
    by_hand = Schedule(**{f.name: getattr(sched, f.name)
                          for f in fields(Schedule)})
    assert repr(verify(s, by_hand)) == repr(verify(s, sched))
    assert isinstance(verify(s, by_hand), OracleReport)


def test_window_is_slotted():
    window = FeasibleWindow(t_min=(1e-3, 2e-3), feasible=True,
                            binding_node=("a", None))
    assert not hasattr(window, "__dict__")
