"""The PA draw against the body it replaced.

``pa_consumption`` checks the budget with one range test, clips with the
array's own ``clip`` and reads the rank of the array it converted.  The
body it replaced, with its separate finiteness test, ``np.clip`` and
``np.ndim`` of the input, is kept here as the reference: every draw must
equal it by ``repr`` (floats) and ``tobytes()`` (arrays), for every kind
of input ``np.asarray`` takes, and every rejected power must raise the
same ``ValueError``.  The draw, and so each slot's active power, must also
never fall as a power grows: the oracle's grid relies on it.

A frame draws all its nodes' amplifiers in one pass (``pa_draw(*pas)``),
one amplifier per node of each slot, in slot order, an amplifier perhaps
more than once.  Each amplifier's draw must equal its own
``pa_consumption`` call, by ``repr`` or ``tobytes()``; a slot's draws,
added left to right, must equal one call per amplifier added the same way,
bit for bit; and the draw must reject a power as the first rejecting call
would.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from fdrelay.config import ScenarioParams
from fdrelay.model import (PaKind, PaModel, Strategy, pa_consumption,
                           pa_draw)
from fdrelay.strategies import DESCRIPTIONS

from test_powers_arrays import _assert_same

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


def _inputs(pa: PaModel) -> list:
    """One power in every form the draw accepts, 0-d and not."""
    half, whole = 0.5 * pa.p_max, int(pa.p_max)
    return [whole, 0, np.float64(half), np.asarray(half), np.asarray(whole),
            [half], [0.0, half, pa.p_max], [[half, 0.0], [pa.p_max, whole]],
            [[[half]]], np.asarray([half], dtype=np.float32)]


@pytest.mark.parametrize("pa", PAS, ids=repr)
def test_every_input_form_gives_the_reference(pa):
    """A 0-d input gives a Python float and any other an ndarray of its
    shape: the rank read from the converted array is the input's rank."""
    for p in _inputs(pa):
        got = pa_consumption(pa, p)
        want = _reference(pa, p)
        if np.ndim(p) == 0:
            assert type(got) is float, p
            assert repr(got) == repr(want), p
        else:
            assert isinstance(got, np.ndarray), p
            assert got.shape == np.shape(p) == want.shape, p
            assert got.dtype == want.dtype == np.float64, p
            assert got.tobytes() == want.tobytes(), p


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
    # The draw clips as the reference does, so even the sign of a zero
    # draw at -0.0 is the reference's, at every array length.
    assert repr(pa_consumption(pa, -0.0)) == repr(_reference(pa, -0.0))
    for n in (1, 2, 7, 17, 64):
        arr = np.full(n, -0.0)
        assert pa_consumption(pa, arr).tobytes() == \
            _reference(pa, arr).tobytes()


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


# Amplifier sets of one kind, as a frame binds them: one, two and three
# nodes, each with its own p_max, so that an error names one of them, and
# four, the relay's amplifier twice, as fd2ts binds its two slots.
SLOT_PAS = [tuple(PaModel(kind, p_max, 0.35) for p_max in p_maxes)
            for kind in PaKind
            for p_maxes in [(5.0,), (39.810717055349734, 5.0),
                            (0.19952623149688797, 39.810717055349734, 5.0),
                            (39.810717055349734, 5.0, 0.19952623149688797,
                             5.0)]]


def _per_node(pas, powers):
    """The slot draw as one ``pa_consumption`` call per amplifier, added
    left to right."""
    total = pa_consumption(pas[0], powers[0])
    for pa, p in zip(pas[1:], powers[1:], strict=True):
        total = total + pa_consumption(pa, p)
    return total


def _added(draws):
    """Each amplifier's draw, added left to right, as a slot adds its
    nodes' draws."""
    total = draws[0]
    for part in draws[1:]:
        total = total + part
    return total


def _assert_rows(pas, powers):
    """Each amplifier's draw equals its own ``pa_consumption`` call: by
    ``repr`` for 0-d powers, which give a list of Python floats, and by
    ``tobytes()`` of the broadcast shape otherwise.  Returns the draws."""
    draws = pa_draw(*pas)(*powers)
    assert len(draws) == len(pas)
    shape = np.broadcast_shapes(*[np.shape(p) for p in powers])
    if shape == ():
        assert isinstance(draws, list)
        for got, pa, p in zip(draws, pas, powers):
            _assert_same(got, pa_consumption(pa, p))
        return draws
    for got, pa, p in zip(draws, pas, powers):
        want = np.broadcast_to(pa_consumption(pa, p), shape)
        assert got.shape == shape and got.tobytes() == want.tobytes()
    return draws


@pytest.mark.parametrize("pas", SLOT_PAS, ids=repr)
def test_slot_draw_equals_the_per_node_sum(pas, rng):
    insides = [_inside(pa, rng) for pa in pas]
    for powers in zip(*[x.tolist() for x in insides]):
        got = _added(_assert_rows(pas, powers))
        assert type(got) is float
        _assert_same(got, _per_node(pas, powers))
    # One array per node, then every input form, the same form for each.
    _assert_same(_added(_assert_rows(pas, insides)), _per_node(pas, insides))
    for forms in zip(*[_inputs(pa) for pa in pas]):
        _assert_same(_added(_assert_rows(pas, forms)), _per_node(pas, forms))
    # Floats beside arrays broadcast as the per-node sum does.
    mixed = (insides[0],) + tuple(pa.p_max / 3 for pa in pas[1:])
    _assert_same(_added(_assert_rows(pas, mixed)), _per_node(pas, mixed))


@pytest.mark.parametrize("pas", SLOT_PAS, ids=repr)
def test_slot_draw_broadcasts_a_mesh_as_the_per_node_sum(pas, rng):
    """The oracle's open mesh: one axis per node, each of its own shape."""
    axes = [np.sort(_inside(pa, rng)[:9]) for pa in pas]
    mesh = np.ix_(*axes)
    got = _added(_assert_rows(pas, mesh))
    assert got.shape == tuple(axis.size for axis in axes)
    _assert_same(got, _per_node(pas, mesh))
    # A column against a row, and 0-d arrays against both.
    if len(pas) > 1:
        shapes = [(-1, 1), (1, -1), (), ()][:len(pas)]
        powers = [np.asarray(axis if shape else axis[3]).reshape(shape)
                  for axis, shape in zip(axes, shapes)]
        _assert_same(_added(_assert_rows(pas, powers)),
                     _per_node(pas, powers))


@pytest.mark.parametrize("pas", SLOT_PAS, ids=repr)
def test_slot_draw_at_negative_zero_and_budget_edges(pas):
    """-0.0 in every position, beside every budget edge of the others,
    keeps the sign the per-node sum gives, for floats and arrays."""
    values = [[-0.0] + _edges(pa) for pa in pas]
    for powers in itertools.product(*values):
        _assert_same(_added(_assert_rows(pas, powers)),
                     _per_node(pas, powers))
    for k in range(len(pas)):
        arrays = [np.full(7, -0.0) if j == k else np.array(_edges(pa))
                  for j, pa in enumerate(pas)]
        _assert_same(_added(_assert_rows(pas, arrays)),
                     _per_node(pas, arrays))
    zeros = [np.full(17, -0.0)] * len(pas)
    _assert_same(_added(_assert_rows(pas, zeros)), _per_node(pas, zeros))


@pytest.mark.parametrize("pas", SLOT_PAS, ids=repr)
def test_slot_draw_names_the_first_node_out_of_budget(pas, rng):
    """A power out of its budget raises the error of the first per-node
    call that rejects one: the p_max of the first such node in slot
    order, whatever a later node holds."""
    draw = pa_draw(*pas)
    for first in range(len(pas)):
        for later in range(first, len(pas)):
            for bad in _outside(pas[later]):
                powers = [pa.p_max / 2 for pa in pas]
                powers[first] = _outside(pas[first])[1]
                powers[later] = bad
                with pytest.raises(ValueError) as want:
                    _per_node(pas, powers)
                assert f"{pas[first].p_max:.6g}]" in str(want.value)
                with pytest.raises(ValueError) as got:
                    draw(*powers)
                assert str(got.value) == str(want.value)
                arrays = [np.append(_inside(pa, rng), p)
                          for pa, p in zip(pas, powers)]
                with pytest.raises(ValueError) as got:
                    draw(*arrays)
                assert str(got.value) == str(want.value)


def test_slot_draw_takes_one_kind():
    tpa, etpa = (PaModel(kind, 5.0, 0.35) for kind in PaKind)
    with pytest.raises(ValueError, match="of one kind, got tpa, etpa"):
        pa_draw(tpa, etpa)


def test_scenario_with_mixed_amplifiers_is_refused():
    s = ScenarioParams(pa=PaKind.ETPA).build()
    tpa = PaModel(PaKind.TPA, s.pa.r.p_max, s.pa.r.eta_max)
    with pytest.raises(ValueError,
                       match="of one kind, got a: etpa, r: tpa, b: etpa"):
        replace(s, pa=replace(s.pa, r=tpa))


def _earlier_draw(*pas):
    """The frame draw before it read float powers through ``np.fromiter``,
    skipped the transposes of a 1-D array and clipped only a negative
    power: every power through ``np.asarray``, the amplifier axis moved
    last and back, and the clip always."""
    n = len(pas)
    budgets = [pa.p_max for pa in pas]
    uk = [pa.u * pa.kappa for pa in pas]
    lo, hi, p_max, eta_max, bias, scale = np.array([
        [-p * _SLACK for p in budgets], [p * (1.0 + _SLACK) for p in budgets],
        budgets, [pa.eta_max for pa in pas],
        [k * p for k, p in zip(uk, budgets)],
        [(1.0 + k) * pa.eta_max for k, pa in zip(uk, pas)]])

    def draw(*powers):
        if len(powers) != n:
            raise ValueError(f"expected {n} transmit power(s), one per "
                             f"amplifier, got {len(powers)}")
        try:
            arr = np.asarray(powers, dtype=float)
        except ValueError:
            arr = np.stack(np.broadcast_arrays(
                *[np.asarray(p, dtype=float) for p in powers]))
        arr = arr.T
        inside = (arr >= lo) & (arr <= hi)
        if np.count_nonzero(inside) != inside.size:
            first = int(np.argmin(inside.reshape(-1, n).all(axis=0)))
            raise ValueError(f"transmit power outside "
                             f"[0, {budgets[first]:.6g}] W budget")
        clipped = np.minimum(arr, p_max).clip(0.0, math.inf)
        if pas[0].kind is PaKind.TPA:
            out = np.sqrt(clipped * p_max) / eta_max
        else:
            out = (clipped + bias) / scale
        return out.tolist() if out.ndim == 1 else out.T

    return draw


def _frame_pas(kind: PaKind, n: int) -> tuple:
    """``n`` amplifiers of one kind, their budgets taken in turn."""
    budgets = (39.810717055349734, 5.0, 0.19952623149688797)
    return tuple(PaModel(kind, budgets[k % 3], 0.35) for k in range(n))


def _outcome(draw, powers):
    """What the draw gives: the floats' ``repr``, each row's shape, dtype
    and bytes, or the message of the ValueError it raises."""
    try:
        out = draw(*powers)
    except ValueError as err:
        return "raises", str(err)
    if isinstance(out, list):
        return "floats", [repr(x) for x in out]
    return "rows", [(row.shape, row.dtype.str, row.tobytes()) for row in out]


def _as_paths(powers):
    """The same powers as Python floats (the float path), as numpy scalars
    and as arrays of one shape (the array path, 1-D and stacked)."""
    return [list(map(float, powers)), [np.float64(p) for p in powers],
            [np.full(3, p) for p in powers]]


def _cases(pas, rng):
    """Power tuples for ``pas``: inside the budgets, -0.0 and negative
    powers within the slack in each position, and powers out of budget,
    NaN and +-inf, in each position."""
    n = len(pas)
    base = [pa.p_max * float(u) for pa, u in zip(pas, rng.uniform(0, 1, n))]
    yield base
    yield [-0.0] * n
    for k, pa in enumerate(pas):
        for value in (-0.0, -pa.p_max * _SLACK, -0.5 * pa.p_max * _SLACK,
                      math.nextafter(-pa.p_max * _SLACK, math.inf), 0.0,
                      pa.p_max, pa.p_max * (1.0 + _SLACK), *_outside(pa)):
            yield base[:k] + [value] + base[k + 1:]


@pytest.mark.parametrize("kind", list(PaKind))
@pytest.mark.parametrize("n", range(1, 9))
def test_draw_gives_the_earlier_draw_on_both_paths(kind, n, rng):
    """Bit for bit, and error for error, on every path."""
    pas = _frame_pas(kind, n)
    draw, earlier = pa_draw(*pas), _earlier_draw(*pas)
    for powers in _cases(pas, rng):
        for path in _as_paths(powers):
            assert _outcome(draw, path) == _outcome(earlier, path), path


@pytest.mark.parametrize("kind", list(PaKind))
@pytest.mark.parametrize("n", range(1, 9))
def test_draw_of_other_forms_gives_the_earlier_draw(kind, n, rng):
    """Ints, numpy scalars of other types, mixed float and array powers of
    different shapes, and a count of powers that is not one per
    amplifier."""
    pas = _frame_pas(kind, n)
    draw, earlier = pa_draw(*pas), _earlier_draw(*pas)
    half = [0.5 * pa.p_max for pa in pas]
    forms = [[int(pa.p_max) for pa in pas], [0] * n,
             [np.float32(p) for p in half], [np.int64(0)] * n,
             # The first power an int, the rest floats.
             [int(half[0])] + half[1:],
             # A float beside arrays of shapes (4,), (2, 1) and (1, 4).
             [half[0]] + [np.full(shape, p) for shape, p in
                          zip([(4,), (2, 1), (1, 4)] * 3, half[1:])],
             # Every power but the last a 1-element list.
             [[p] for p in half[:-1]] + half[-1:],
             half[:-1], half + [0.0], []]
    for k in range(n):
        forms.append(half[:k] + [np.asarray(-0.0)] + half[k + 1:])
        forms.append(half[:k] + [np.array([-0.0, math.nan])] + half[k + 1:])
    for powers in forms:
        assert _outcome(draw, powers) == _outcome(earlier, powers), powers
