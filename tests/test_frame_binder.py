"""The frame binder against the slots it prices.

``Description.bind_frame(s)`` prices every slot of a frame in one PA draw
over all the frame's nodes.  Each slot's powers, active power and cost must
equal the slot's own one-off methods (``Slot.powers``, ``Slot.active``,
``Slot.cost``) bit for bit, and a power outside its budget must raise what
pricing the slots one after another, in slot order, raises first.
"""

from dataclasses import replace

import numpy as np
import pytest

from fdrelay.config import ScenarioParams
from fdrelay.feasibility import tmin_for
from fdrelay.model import CircuitAccounting, InfeasibleError, PaKind, Strategy
from fdrelay.oracle import random_params
from fdrelay.strategies import DESCRIPTIONS

CASES = [(strategy, pa, accounting) for strategy in Strategy
         for pa in PaKind for accounting in CircuitAccounting]


def _scenarios(strategy, pa, accounting, n=6):
    """The default scenario, then seeded random ones; for fd2ts also one
    with each slot closed (no traffic in its direction)."""
    rng = np.random.default_rng([list(Strategy).index(strategy),
                                 list(PaKind).index(pa),
                                 list(CircuitAccounting).index(accounting)])
    base = ScenarioParams(strategy=strategy, pa=pa, accounting=accounting)
    params = [base] + [replace(random_params(rng, strategy, pa),
                               accounting=accounting) for _ in range(n)]
    if strategy is Strategy.FD2TS:
        params += [replace(base, r_rl_mbps=0.0), replace(base, r_fl_mbps=0.0)]
    return [p.build() for p in params]


def _durations(s, rng, n=12):
    """Seeded durations across each slot's span of the window, its ends
    included, one tuple per frame point; a closed slot's span starts at
    0, where the solver prices it."""
    window = tmin_for(s)
    if not window.feasible:
        return []
    columns = []
    for lo, hi in window.spans(s.frame_t):
        ts = [lo, hi] + rng.uniform(lo, hi, n - 2).tolist()
        columns.append(rng.permutation(ts).tolist())
    return list(zip(*columns))


def _one_by_one(s, durations):
    """Each slot priced alone, in slot order, by its one-off methods."""
    slots = DESCRIPTIONS[s.strategy].slots
    powers = [slot.powers(s, t) for slot, t in zip(slots, durations)]
    actives = [slot.active(s, *p) for slot, p in zip(slots, powers)]
    costs = [slot.cost(s, t) for slot, t in zip(slots, durations)]
    return powers, actives, costs


@pytest.mark.parametrize("strategy, pa, accounting", CASES)
def test_frame_prices_equal_the_slots(strategy, pa, accounting):
    rng = np.random.default_rng(24)
    priced = closed = 0
    for s in _scenarios(strategy, pa, accounting):
        price = DESCRIPTIONS[strategy].bind_frame(s)
        for durations in _durations(s, rng):
            got = price(*durations)
            assert repr(got) == repr(_one_by_one(s, durations)), durations
            assert all(type(c) is float for c in got[2])
            priced += 1
            closed += 0.0 in tmin_for(s).t_min
    assert priced >= 12
    if strategy is Strategy.FD2TS:
        assert closed == 2 * 12


def _raised(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except (ValueError, InfeasibleError) as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("strategy, pa, accounting", CASES)
def test_out_of_budget_raises_as_the_slots_in_order(strategy, pa,
                                                    accounting):
    """Durations below each slot's minimum put powers over their budgets,
    in one slot, the other or both; down at a billionth of the minimum the
    spectral load overflows and every power of the slot is +inf.  The frame
    raises what the first slot that raises would, naming the same node."""
    raised = set()
    # A budget per node, so that the message names one node.
    distinct = ScenarioParams(strategy=strategy, pa=pa, accounting=accounting,
                              p_max_a_dbm=44.0, p_max_r_dbm=46.0,
                              p_max_b_dbm=45.0).build()
    for s in [distinct] + _scenarios(strategy, pa, accounting, n=3):
        window = tmin_for(s)
        if not window.feasible:
            continue
        price = DESCRIPTIONS[strategy].bind_frame(s)
        per_slot = [[t, 0.5 * t, 1e-3 * t, 1e-9 * t] if t else [0.0]
                    for t in window.t_min]
        for durations in np.array(np.meshgrid(*per_slot)).reshape(
                len(per_slot), -1).T.tolist():
            want = _raised(lambda *d: _one_by_one(s, d)[2], *durations)
            got = _raised(lambda *d: price(*d)[2], *durations)
            assert got == want, durations
            if got[0] == "ValueError" and s is distinct:
                raised.update(node for node in "arb" if
                              f"{getattr(s.pa, node).p_max:.6g}]" in got[1])
    # Some frame point names a node of each slot: the second slot's, where
    # the first is within its budgets.
    for slot in DESCRIPTIONS[strategy].slots:
        assert raised & set(slot.nodes), raised
