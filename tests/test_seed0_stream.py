"""The probe's seed-0 stream, computed in pure Python, and an audit path
that imports neither ``numpy.random`` nor ``numpy.ma``.

``oracle._seed0_doubles`` steps NumPy's PCG64 generator itself, from the
state ``default_rng(0)`` seeds, so its doubles must equal
``default_rng(0).random`` byte for byte, however the stream was extended
to reach them.  ``oracle._duration_axis`` merges the window's edges into
the grid without ``np.unique``, and must give the array ``np.unique``
gives.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fdrelay import oracle

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fresh_stream(monkeypatch):
    """The stream as a new process starts it: no doubles yet."""
    monkeypatch.setattr(oracle, "_SEED0",
                        (np.empty(0), oracle._PCG64_SEED0_STATE))


def _numpy_doubles(n):
    return np.random.default_rng(0).random(n)


def test_constants_are_numpys_seeded_pcg64():
    state = np.random.default_rng(0).bit_generator.state
    assert state["bit_generator"] == "PCG64"
    assert state["state"] == {"state": oracle._PCG64_SEED0_STATE,
                              "inc": oracle._PCG64_INC}
    # One step of numpy's generator is one step of the LCG with this
    # multiplier and increment.
    bit_generator = np.random.PCG64(0)
    bit_generator.random_raw()
    assert bit_generator.state["state"]["state"] == (
        (oracle._PCG64_SEED0_STATE * oracle._PCG64_MULT + oracle._PCG64_INC)
        % 2 ** 128)


@pytest.mark.parametrize("n", [1, 150, 600, 300_000])
def test_stream_equals_numpys(n, fresh_stream):
    u = oracle._seed0_doubles(n)
    assert u.dtype == np.float64 and u.size == n
    assert u.tobytes() == _numpy_doubles(n).tobytes()


def test_extended_stream_equals_numpys(fresh_stream):
    """Successive extensions, each past twice the last length, each
    within it, and shorter reads after them, all read numpy's prefix."""
    want = _numpy_doubles(300_000)
    for n in [1, 2, 3, 150, 299, 600, 601, 5000, 300_000, 40, 0]:
        assert oracle._seed0_doubles(n).tobytes() == want[:n].tobytes(), n


def test_next_doubles_continue_from_the_state():
    """Two draws from the seed state, one after the other, are one draw."""
    first, state = oracle._pcg64_doubles(oracle._PCG64_SEED0_STATE, 7)
    second, _ = oracle._pcg64_doubles(state, 5)
    both, _ = oracle._pcg64_doubles(oracle._PCG64_SEED0_STATE, 12)
    assert np.concatenate([first, second]).tobytes() == both.tobytes()
    assert both.tobytes() == _numpy_doubles(12).tobytes()


def test_stream_grows_by_doubling(fresh_stream):
    """A read past the stream extends it to the larger of the read and
    twice its length, never further."""
    for n, size in [(50, 50), (150, 150), (151, 300), (300, 300),
                    (301, 600), (2000, 2000), (10, 2000)]:
        oracle._seed0_doubles(n)
        assert oracle._SEED0[0].size == size, n


def test_stream_is_read_only_and_shared(fresh_stream):
    short = oracle._seed0_doubles(10)
    long = oracle._seed0_doubles(1000)
    again = oracle._seed0_doubles(10)
    for u in (short, long, again, oracle._seed0_doubles(0)):
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[:1] = 0.5
    # A read within the stream is a view of the one stream every caller
    # reads; an extension replaces it and leaves earlier views intact.
    assert again.base is long.base
    assert short.tobytes() == again.tobytes()


def _unique_axis(lo, hi, n_t, extras):
    """The axis as np.unique merged it: the reference."""
    pts = np.linspace(lo, hi, n_t)
    keep = [e for e in extras if math.isfinite(e) and lo <= e <= hi]
    if keep:
        pts = np.unique(np.concatenate([pts, np.asarray(keep)]))
    return pts


_GRID = np.linspace(1e-8, 0.01, 40)


@pytest.mark.parametrize("extras", [
    (),
    (0.0031,),
    (0.0031, 0.0047, 0.0031),
    # Repeats of grid points, the ends included.
    (float(_GRID[0]), float(_GRID[17]), float(_GRID[-1])),
    (float(_GRID[5]), 0.004, float(_GRID[5])),
    # Outside [lo, hi], alone and beside kept ones.
    (-1.0, 0.02, 5e-9),
    (5e-9, 0.004, 0.0100001),
    # Not finite.
    (math.nan, math.inf, -math.inf),
    (math.nan, 0.004, math.inf, 0.006, -math.inf),
])
def test_duration_axis_equals_unique_reference(extras):
    got = oracle._duration_axis(1e-8, 0.01, 40, extras)
    want = _unique_axis(1e-8, 0.01, 40, extras)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_duration_axis_equals_unique_on_random_extras(rng):
    for _ in range(200):
        lo, hi = sorted(rng.uniform(0.0, 0.02, 2).tolist())
        n_t = int(rng.integers(2, 60))
        grid = np.linspace(lo, hi, n_t).tolist()
        extras = tuple(rng.uniform(lo - 0.001, hi + 0.001,
                                   int(rng.integers(0, 6))).tolist()
                       + rng.choice(grid, int(rng.integers(0, 3))).tolist())
        got = oracle._duration_axis(lo, hi, n_t, extras)
        assert got.tobytes() == _unique_axis(lo, hi, n_t, extras).tobytes()


_AUDIT_SCRIPT = """
import io, sys
from dataclasses import replace
from fdrelay import solve, verify
from fdrelay.cli import cli_main
from fdrelay.config import ScenarioParams
from fdrelay.model import CircuitAccounting, PaKind, Strategy

for strategy in Strategy:
    for pa in PaKind:
        for accounting in CircuitAccounting:
            s = replace(ScenarioParams(strategy=strategy, pa=pa).build(),
                        circuit_accounting=accounting)
            assert verify(s, solve(s)).ok
out = io.StringIO()
code = cli_main(["sweep", "--axis", "cancellation", "--from", "20", "--to",
                 "80", "--step", "20"], out=out)
assert code == 0 and out.getvalue().count("\\n") > 4
print(sorted(name for name in ("numpy.random", "numpy.ma")
             if name in sys.modules))
"""


def test_audit_imports_neither_numpy_random_nor_ma():
    """A fresh interpreter solves and verifies every strategy and PA pair
    under both accountings, then runs one CLI sweep, without importing
    ``numpy.random`` or ``numpy.ma``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _AUDIT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
