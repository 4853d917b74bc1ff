"""The feasibility window that ``solve`` attaches to its schedule.

``solve`` hands the window it searched in to the schedule, and ``verify``
reads it there instead of computing it again.  The window is bookkeeping,
not part of the answer: a schedule's ``repr``, equality and hash ignore it,
and a schedule without one (built by hand) gets the same report.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from fdrelay import oracle
from fdrelay.feasibility import FeasibleWindow, tmin_for
from fdrelay.model import CircuitAccounting, PaKind, Schedule, Strategy
from fdrelay.oracle import random_params, verify
from fdrelay.solver import solve

_PER_COMBO = 4


def _feasible_scenarios(strategy, pa_kind, accounting):
    seed = [list(Strategy).index(strategy), list(PaKind).index(pa_kind),
            list(CircuitAccounting).index(accounting), 20]
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < _PER_COMBO:
        s = replace(random_params(rng, strategy, pa_kind),
                    accounting=accounting).build()
        if tmin_for(s).feasible:
            out.append(s)
    return out


_COMBOS = [(strategy, pa_kind, accounting) for strategy in Strategy
           for pa_kind in PaKind for accounting in CircuitAccounting]


@pytest.mark.parametrize("strategy, pa_kind, accounting", _COMBOS,
                         ids=["-".join(m.value for m in c) for c in _COMBOS])
def test_window_is_reused_and_changes_nothing(strategy, pa_kind, accounting):
    for s in _feasible_scenarios(strategy, pa_kind, accounting):
        sched = solve(s)
        assert sched.window == tmin_for(s)
        bare = replace(sched, window=None)
        assert bare.window is None
        with_window, without = verify(s, sched), verify(s, bare)
        for f in fields(with_window):
            assert (repr(getattr(with_window, f.name))
                    == repr(getattr(without, f.name))), f.name
        # The schedule's identity ignores the window.
        assert repr(sched) == repr(bare) and "window" not in repr(sched)
        assert sched == bare and hash(sched) == hash(bare)


def test_verify_computes_the_window_only_without_one(params, monkeypatch):
    s = params.build()
    sched = solve(s)
    calls = []

    def counted(scenario):
        calls.append(scenario)
        return tmin_for(scenario)

    monkeypatch.setattr(oracle, "tmin_for", counted)
    verify(s, sched)
    assert calls == []
    verify(s, replace(sched, window=None))
    assert calls == [s]


def test_hand_built_schedule_has_no_window():
    sched = Schedule(t1=0.004, t2=0.005, p_a=0.1, p_b=0.1, p_r_fwd=0.1,
                     p_r_rev=0.1, e_total=0.1, ee=1e6)
    assert sched.window is None


def test_window_is_slotted():
    window = FeasibleWindow(t_min=(1e-3, 2e-3), feasible=True,
                            binding_node=("a", None))
    assert not hasattr(window, "__dict__")
