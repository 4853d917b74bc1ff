"""Every slot's closed-form powers over a duration array against the float
calls they replace.

``Slot.powers`` takes a float duration (the solver's path, Python floats
from ``math`` alone) or a 1-D array of durations (the oracle's path).  The
array results must equal the float calls element for element, bit for bit:
+inf where a spectral load overflows, and NaN wherever the float form of the
single-slot strategy raises :class:`InfeasibleError`.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fdrelay.config import ScenarioParams
from fdrelay.feasibility import t_floor
from fdrelay.model import CircuitAccounting, InfeasibleError, PaKind, Strategy
from fdrelay.oracle import random_params
from fdrelay.strategies import DESCRIPTIONS

CASES = [(strategy, pa, accounting) for strategy in Strategy for pa in PaKind
         for accounting in CircuitAccounting]


def _durations(s, rng, n_grid=41, n_draws=40):
    """Floor to the full frame: the first durations overflow the load."""
    floor = t_floor(s)
    return np.concatenate([np.linspace(floor, s.frame_t, n_grid),
                           rng.uniform(floor, s.frame_t, n_draws)])


def _assert_parity(s, slot, t):
    """Array powers equal the float calls; returns how each point went."""
    got = slot.powers(s, t)
    assert len(got) == len(slot.fields)
    for p in got:
        assert isinstance(p, np.ndarray)
        assert p.dtype == np.float64 and p.shape == t.shape
    kinds = set()
    for i, ti in enumerate(t.tolist()):
        row = np.array([p[i] for p in got])
        try:
            want = slot.powers(s, ti)
        except InfeasibleError as err:
            kinds.add(f"raises:{err.cause}")
            assert np.isnan(row).all(), (ti, row)
            continue
        assert all(type(v) is float for v in want)
        assert row.tobytes() == np.array(want).tobytes(), (ti, row, want)
        kinds.add("inf" if math.inf in want else "finite")
    return kinds


@pytest.mark.parametrize("strategy,pa_kind,accounting", CASES)
def test_seeded_scenarios(strategy, pa_kind, accounting):
    rng = np.random.default_rng(17)
    kinds = set()
    for _ in range(4):
        s = replace(random_params(rng, strategy, pa_kind),
                    accounting=accounting).build()
        for slot in DESCRIPTIONS[strategy].slots:
            kinds |= _assert_parity(s, slot, _durations(s, rng))
    assert "finite" in kinds
    # The floor's load overflows: inf powers, or the single-slot raise.
    assert ("raises:power_budget" if strategy is Strategy.FD1TS
            else "inf") in kinds


def test_asymptotic_1ts():
    rng = np.random.default_rng(18)
    for pa_kind in PaKind:
        s = replace(random_params(rng, Strategy.FD1TS, pa_kind),
                    asymptotic_1ts=True).build()
        slot, = DESCRIPTIONS[Strategy.FD1TS].slots
        assert "finite" in _assert_parity(s, slot, _durations(s, rng))


@pytest.mark.parametrize("pa_kind", list(PaKind))
def test_fd1ts_weak_cancellation_is_nan(pa_kind):
    s = ScenarioParams(strategy=Strategy.FD1TS, pa=pa_kind,
                       alpha_db=30.0).with_total_rate(65.0).build()
    slot, = DESCRIPTIONS[Strategy.FD1TS].slots
    kinds = _assert_parity(s, slot, _durations(s, np.random.default_rng(19)))
    assert {"raises:cancellation", "raises:power_budget", "finite"} <= kinds


def test_zero_demand_slot():
    s = ScenarioParams(strategy=Strategy.FD2TS, r_rl_mbps=0.0).build()
    t = _durations(s, np.random.default_rng(20))
    for slot in DESCRIPTIONS[Strategy.FD2TS].slots:
        _assert_parity(s, slot, t)
    assert all((p == 0.0).all()
               for p in DESCRIPTIONS[Strategy.FD2TS].slots[1].powers(s, t))


@pytest.mark.parametrize("strategy", list(Strategy))
def test_float_duration_gives_python_floats(strategy):
    """The solver's path stays free of numpy scalars, overflow included."""
    s = ScenarioParams(strategy=strategy).build()
    for slot in DESCRIPTIONS[strategy].slots:
        for t in (0.4 * s.frame_t, s.frame_t):
            assert all(type(p) is float for p in slot.powers(s, t))
        if strategy is not Strategy.FD1TS:
            overflow = slot.powers(s, t_floor(s))
            assert overflow == (math.inf,) * len(slot.fields)
            assert all(type(p) is float for p in overflow)
