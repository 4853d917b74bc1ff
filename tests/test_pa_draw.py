"""The PA draw against the body it replaced.

``pa_consumption`` checks the budget with one range test and clips with
``np.minimum``/``np.maximum``.  The body it replaced, with its separate
finiteness test and ``np.clip``, is kept here as the reference: every
draw must equal it by ``repr`` (floats) and ``tobytes()`` (arrays), and
every rejected power must raise the same ``ValueError``.  The draw, and
so each slot's active power, must also never fall as a power grows: the
oracle's grid relies on it.
"""

import math

import numpy as np
import pytest

from fdrelay.config import ScenarioParams
from fdrelay.model import PaKind, PaModel, Strategy, pa_consumption
from fdrelay.strategies import DESCRIPTIONS

_SLACK = 1e-9


def _reference(pa: PaModel, p):
    arr = np.asarray(p, dtype=float)
    hi = pa.p_max * (1.0 + _SLACK)
    lo = -pa.p_max * _SLACK
    if np.any(arr < lo) or np.any(arr > hi) or not np.all(np.isfinite(arr)):
        raise ValueError(
            f"transmit power outside [0, {pa.p_max:.6g}] W budget")
    arr = np.clip(arr, 0.0, pa.p_max)
    if pa.kind is PaKind.TPA:
        out = np.sqrt(arr * pa.p_max) / pa.eta_max
    else:
        uk = pa.u * pa.kappa
        out = (arr + uk * pa.p_max) / ((1.0 + uk) * pa.eta_max)
    return float(out) if np.ndim(p) == 0 else out


PAS = [PaModel(kind, p_max, 0.35) for kind in PaKind
       for p_max in (39.810717055349734, 0.19952623149688797, 5.0)]


def _edges(pa: PaModel) -> list[float]:
    """The budget's ends, as the draw computes them, and their neighbours."""
    lo = -pa.p_max * _SLACK
    hi = pa.p_max * (1.0 + _SLACK)
    return [lo, math.nextafter(lo, math.inf), 0.0, pa.p_max,
            math.nextafter(pa.p_max, math.inf), hi,
            math.nextafter(hi, -math.inf)]


def _outside(pa: PaModel) -> list[float]:
    lo = -pa.p_max * _SLACK
    hi = pa.p_max * (1.0 + _SLACK)
    return [math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
            math.nan, math.inf, -math.inf]


def _inside(pa: PaModel, rng) -> np.ndarray:
    lo = -pa.p_max * _SLACK
    hi = pa.p_max * (1.0 + _SLACK)
    return np.concatenate([rng.uniform(lo, hi, 200),
                           pa.p_max * rng.uniform(0.0, 1e-6, 21),
                           np.array(_edges(pa))])


@pytest.mark.parametrize("pa", PAS, ids=repr)
def test_float_draws_equal_the_reference(pa, rng):
    for p in _inside(pa, rng).tolist():
        got = pa_consumption(pa, p)
        assert type(got) is float
        assert repr(got) == repr(_reference(pa, p)), p


@pytest.mark.parametrize("pa", PAS, ids=repr)
def test_array_draws_equal_the_reference(pa, rng):
    p = _inside(pa, rng)
    for arr in (p, p.reshape(2, -1), p[:1], np.asarray(p[0])):
        got = pa_consumption(pa, arr)
        want = _reference(pa, arr)
        if arr.ndim == 0:
            assert type(got) is float and repr(got) == repr(want)
        else:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("pa", PAS, ids=repr)
def test_out_of_budget_raises_as_the_reference(pa, rng):
    inside = _inside(pa, rng)
    for bad in _outside(pa):
        with pytest.raises(ValueError) as want:
            _reference(pa, bad)
        with pytest.raises(ValueError) as got:
            pa_consumption(pa, bad)
        assert str(got.value) == str(want.value)
        # Anywhere in an array, first, last or in the middle.
        for k in (0, len(inside) // 2, len(inside) - 1):
            arr = inside.copy()
            arr[k] = bad
            with pytest.raises(ValueError) as got:
                pa_consumption(pa, arr)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("pa", PAS, ids=repr)
def test_empty_array_gives_empty_array(pa):
    got = pa_consumption(pa, np.array([]))
    assert isinstance(got, np.ndarray) and got.shape == (0,)
    assert got.tobytes() == _reference(pa, np.array([])).tobytes()


@pytest.mark.parametrize("pa", PAS, ids=repr)
def test_negative_zero_draws_the_same_value(pa):
    # np.clip keeps the sign of -0.0 and np.maximum may drop it, depending
    # on the platform and the array length, so a TPA draw at -0.0 may be
    # either zero; it is the same number, and every caller adds it to a
    # positive circuit power.
    assert pa_consumption(pa, -0.0) == _reference(pa, -0.0)
    arr = np.full(17, -0.0)
    assert np.array_equal(pa_consumption(pa, arr), _reference(pa, arr))


@pytest.mark.parametrize("pa", PAS, ids=repr)
def test_draw_never_falls_as_the_power_grows(pa, rng):
    """The oracle prices a box's anchor in place of the whole box only
    because a higher power never draws less."""
    draw = pa_consumption(pa, np.sort(_inside(pa, rng)))
    assert (np.diff(draw) >= 0).all()


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("pa_kind", list(PaKind))
def test_slot_active_never_falls_along_a_power_axis(strategy, pa_kind, rng):
    s = ScenarioParams(strategy=strategy, pa=pa_kind).build()
    for slot in DESCRIPTIONS[strategy].slots:
        axes = [np.sort(np.concatenate([[0.0, cap],
                                        rng.uniform(0.0, cap, 9)]))
                for _, cap in slot.budgets(s)]
        active = slot.active(s, *np.ix_(*axes))
        assert active.shape == tuple(axis.size for axis in axes)
        for w in range(len(axes)):
            assert (np.diff(active, axis=w) >= 0).all()
