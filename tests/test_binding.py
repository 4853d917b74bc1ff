"""Each slot and its amplifiers are bound to their scenario once per solve.

A slot's closed form (``Slot.bind``) and the PA draw of the frame's nodes
(``model.pa_draw``, one bind per solve, for every node of every slot) read
the scenario's constants when they are bound, so a solve binds each a fixed
number of times, however many slot-cost evaluations its search makes.  A
bound draw, reused, is the same function as ``pa_consumption``: every draw
equals it bit for bit and every rejected power raises the same error.
"""

from dataclasses import replace

import numpy as np
import pytest

from fdrelay import strategies
from fdrelay.config import ScenarioParams
from fdrelay.model import (CircuitAccounting, InfeasibleError, PaKind,
                           PaModel, Strategy, pa_consumption, pa_draw)
from fdrelay.oracle import random_params
from fdrelay.solver import solve
from fdrelay.strategies import DESCRIPTIONS

from test_pa_draw import PAS, _inputs, _inside, _outside, _reference


def _scenarios(strategy, pa, accounting):
    """The default scenario first, then others whose searches make other
    numbers of evaluations: other demands and seeded random draws.  (The
    frame scales every search exactly, so it leaves the count as it is.)"""
    rng = np.random.default_rng(22)
    base = ScenarioParams(strategy=strategy, pa=pa, accounting=accounting)
    return ([replace(base, r_fl_mbps=r_fl, r_rl_mbps=r_rl)
             for r_fl, r_rl in ((32.5, 32.5), (5.0, 15.0), (20.0, 40.0))]
            + [replace(random_params(rng, strategy, pa),
                       accounting=accounting) for _ in range(6)])


def _counted_solve(monkeypatch, s):
    """Solve ``s`` counting the slot binds, the draw binds and the calls
    of the bound closed forms (window probes and cost evaluations)."""
    counts = {"bind": 0, "draw": 0, "powers": 0}

    def counted_bind(bind):
        def counted(scenario):
            counts["bind"] += 1
            powers = bind(scenario)

            def counted_powers(t):
                counts["powers"] += 1
                return powers(t)

            return counted_powers
        return counted

    def counted_draw(*pas):
        counts["draw"] += 1
        return pa_draw(*pas)

    desc = DESCRIPTIONS[s.strategy]
    monkeypatch.setitem(DESCRIPTIONS, s.strategy, replace(desc, slots=tuple(
        replace(slot, bind=counted_bind(slot.bind)) for slot in desc.slots)))
    monkeypatch.setattr(strategies, "pa_draw", counted_draw)
    try:
        sched = solve(s)
    finally:
        monkeypatch.undo()
    assert repr(sched) == repr(solve(s))
    return counts


@pytest.mark.parametrize("accounting", list(CircuitAccounting))
@pytest.mark.parametrize("pa", list(PaKind))
@pytest.mark.parametrize("strategy", list(Strategy))
def test_binds_do_not_grow_with_the_evaluations(monkeypatch, strategy, pa,
                                                accounting):
    binds, evaluations = set(), []
    for params in _scenarios(strategy, pa, accounting):
        try:
            counts = _counted_solve(monkeypatch, params.build())
        except InfeasibleError:
            continue
        binds.add((counts["bind"], counts["draw"]))
        evaluations.append(counts["powers"])
    slots = DESCRIPTIONS[strategy].slots
    # The window binds each slot once and the solve once more; the solve
    # binds one draw, for every node of every slot (Description.bind_frame).
    assert binds == {(2 * len(slots), 1)}
    assert max(evaluations) > evaluations[0], evaluations


@pytest.mark.parametrize("pa", PAS, ids=repr)
def test_one_bound_draw_equals_every_draw(pa, rng):
    draw = pa_draw(pa)
    inside = _inside(pa, rng)
    for p in inside.tolist() + [-0.0]:
        (got,) = draw(p)
        assert type(got) is float
        assert repr(got) == repr(pa_consumption(pa, p)), p
    for p in (inside, inside.reshape(2, -1), inside[:1], np.array([]),
              np.full(7, -0.0), *_inputs(pa)):
        (got,), want = draw(p), pa_consumption(pa, p)
        if np.ndim(p) == 0:
            assert type(got) is float and repr(got) == repr(want), p
        else:
            assert got.dtype == want.dtype and got.shape == want.shape, p
            assert got.tobytes() == want.tobytes(), p
    for bad in _outside(pa):
        with pytest.raises(ValueError) as want:
            pa_consumption(pa, bad)
        for arr in (bad, np.append(inside, bad)):
            with pytest.raises(ValueError) as got:
                draw(arr)
            assert str(got.value) == str(want.value)


# Amplifiers at the edge of a finite draw: the kind, p_max, eta_max and
# u * kappa (kappa 1).
EXTREME_PAS = [PaModel(kind, p_max, eta, u=u, kappa=1.0)
               for kind in PaKind
               for p_max, eta, u in [
                   (39.8, 1e-308, 0.0082), (39.8, 1e-306, 0.0082),
                   (39.8, 1e-320, 0.0), (1e154, 0.5, 0.0082),
                   (1e155, 0.5, 0.0082), (1.7e308, 1.0, 0.0),
                   (39.8, 0.35, 1e300), (39.8, 0.35, 1e307),
                   (39.8, 0.35, 1.7e308), (39.8, 1e-300, 1e300)]]


@pytest.mark.parametrize("pa", EXTREME_PAS, ids=repr)
def test_bind_refuses_exactly_the_draws_that_overflow(pa):
    """``pa_draw`` decides from float arithmetic whether the draw at 0 W
    and at p_max is finite; the numpy body must agree."""
    with np.errstate(over="ignore", invalid="ignore"):
        ends = _reference(pa, [0.0, pa.p_max])
    if np.isfinite(ends).all():
        assert pa_draw(pa)(pa.p_max) == [ends[1]]
    else:
        with pytest.raises(ValueError, match="draw is not finite"):
            pa_draw(pa)
