"""The numpy kernels the oracle's array paths rely on, held to the float
arithmetic they replace, bit for bit.

- ``strategies._bound_exps`` takes each rate's exponentials of an array of
  durations in one ``np.float_power(2.0, loads)`` call.  Its float64 loop
  calls the C ``pow`` once per element, the ``pow`` behind the float
  path's ``2.0 ** x``; ``np.power`` and ``np.exp2`` use vector kernels that
  are one ULP off it on some inputs.  If a numpy release moves
  ``float_power`` to such a kernel, the guard below names the first load
  that differs.
- ``oracle._duration_axis`` builds its grid as ``k * step + lo`` in numpy,
  ``np.linspace``'s own arithmetic.  The oracle never asks for a
  grid whose step underflows to 0: a scenario's frame is at least the
  least normal float, and a grid spans most of it.
"""

import builtins
import math
import sys

import numpy as np
import pytest

from fdrelay import oracle
from fdrelay.config import ScenarioParams
from fdrelay.feasibility import t_floor
from fdrelay.model import Strategy
from fdrelay.strategies import DESCRIPTIONS, _LOAD_LIMIT, _bound_exps


def _loads():
    """100,000 seeded loads in [0, _LOAD_LIMIT], tiny loads from 1e-15 to
    1e-3, every integer up to the limit, and the limit itself."""
    rng = np.random.default_rng(2904)
    return np.concatenate([
        rng.uniform(0.0, _LOAD_LIMIT, 100_000),
        10.0 ** rng.uniform(-15.0, -3.0, 10_000),
        np.logspace(-15.0, -3.0, 121),
        np.arange(0.0, _LOAD_LIMIT + 1.0),
        [_LOAD_LIMIT, 0.0],
    ])


def test_float_power_is_the_float_pow():
    loads = _loads()
    got = np.float_power(2.0, loads)
    want = np.array([2.0 ** x for x in loads.tolist()])
    if got.tobytes() != want.tobytes():
        first = int(np.flatnonzero(got.view(np.uint64)
                                   != want.view(np.uint64))[0])
        x = float(loads[first])
        pytest.fail(
            f"np.float_power(2.0, {x!r}) = {float(got[first])!r} but "
            f"2.0 ** {x!r} = {float(want[first])!r}: numpy's float_power "
            f"no longer calls libm pow, so the array closed forms no "
            f"longer equal the float ones")


@pytest.mark.parametrize("strategy,n_rates", [(Strategy.FD2TS, 1),
                                              (Strategy.HD2TS, 2)])
def test_array_exponentials_take_one_float_power_per_rate(monkeypatch,
                                                          strategy, n_rates):
    s = ScenarioParams(strategy=strategy).build()
    rates = (s.r_fl, s.r_rl)[:n_rates]
    # The floor's loads overflow, so the overflow mask is not empty.
    t = np.linspace(t_floor(s), s.frame_t, 194)
    want = _bound_exps(s, *rates)(t)
    float_power, calls = np.float_power, []

    def counting_float_power(*args, **kwargs):
        calls.append("float_power")
        return float_power(*args, **kwargs)

    def counting_pow(*args):
        calls.append("pow")
        return pow(*args)

    monkeypatch.setattr(np, "float_power", counting_float_power)
    monkeypatch.setattr(builtins, "pow", counting_pow)
    over, exps = _bound_exps(s, *rates)(t)
    monkeypatch.undo()
    assert calls == ["float_power"] * n_rates
    assert over.any() and not over.all()
    assert over.tobytes() == want[0].tobytes()
    assert [e.tobytes() for e in exps] == [e.tobytes() for e in want[1]]
    # Each element is the float path's, NaN where the load overflows.
    for i, ti in enumerate(t.tolist()):
        over_i, exps_i = _bound_exps(s, *rates)(ti)
        assert over_i == bool(over[i])
        for e, e_i in zip(exps, exps_i):
            assert math.isnan(e[i]) if over_i else e[i] == e_i


def _reference_axis(lo, hi, n_t, extras):
    """np.linspace, merged with the in-range finite extras by np.unique."""
    pts = np.linspace(lo, hi, n_t)
    keep = [e for e in extras if math.isfinite(e) and lo <= e <= hi]
    if keep:
        pts = np.unique(np.concatenate([pts, np.asarray(keep)]))
    return pts


@pytest.mark.parametrize("lo,hi,n_t", [
    # A span of width 0: the step is 0 and every point is lo.
    (1e-310, 1e-310, 40),
    (0.01, 0.01, 2),
    # Subnormal and ordinary spans.
    (5e-324, 1e-320, 40),
    (1e-300, 2e-300, 50),
    (1e-8, 0.01, 40),
    (2.5e-9, 0.0025, 2),
])
def test_duration_axis_grid_is_linspace(lo, hi, n_t):
    for extras in ((), (hi, lo, 0.5 * (lo + hi), math.nan)):
        got = oracle._duration_axis(lo, hi, n_t, extras)
        want = _reference_axis(lo, hi, n_t, extras)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("strategy", list(Strategy))
def test_duration_axis_step_is_positive_at_the_shortest_frame(
        make_scenario, strategy):
    # The grid has no branch for a step that underflows to 0; the oracle
    # never asks for one: at the shortest frame a scenario admits, the
    # step at either grid size is still above a fiftieth of the least
    # normal float.
    s = make_scenario(strategy=strategy, frame=sys.float_info.min)
    floor = t_floor(s)
    n_slots = len(DESCRIPTIONS[strategy].slots)
    lo, hi = floor, s.frame_t - (n_slots - 1) * floor
    for n_t in (oracle._VERIFY_N_T, oracle._GRID_N_T):
        assert (hi - lo) / (n_t - 1) >= sys.float_info.min / 50
        got = oracle._duration_axis(lo, hi, n_t, ())
        assert got.tobytes() == _reference_axis(lo, hi, n_t, ()).tobytes()
        assert (np.diff(got) > 0).all()


def test_duration_axis_grid_is_linspace_on_seeded_spans():
    rng = np.random.default_rng(2905)
    for _ in range(3000):
        scale = 10.0 ** rng.uniform(-320.0, 300.0)
        lo, hi = sorted((scale * rng.uniform(0.0, 2.0, 2)).tolist())
        n_t = int(rng.choice([2, 3, 7, 40, 50, int(rng.integers(2, 80))]))
        extras = tuple(rng.uniform(lo, hi, int(rng.integers(0, 3))).tolist())
        got = oracle._duration_axis(lo, hi, n_t, extras)
        want = _reference_axis(lo, hi, n_t, extras)
        assert got.tobytes() == want.tobytes(), (lo, hi, n_t)

