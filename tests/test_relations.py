"""Mirror symmetry and monotone relations of the optimum.

Swapping the two end nodes (their distances, isolations, p_max, static and
idle circuit power, and the two demands) relabels the problem, so the
optimal energy must stay the same to rounding.  The one exception is fd1ts
under printed accounting, whose dynamic circuit power is
``epsilon * (r_fl + 2 * r_rl)``: the mirror adds ``epsilon * (r_fl - r_rl)``
to its active power, so its optimal energy moves by that much times a
duration between the two optima.  So printed fd1ts is direction-dependent,
and the test pins the move to that formula.

A better amplifier, a stronger self-cancellation and a smaller demand can
each only lower the optimum.  Each step is far above the duration search's
tolerance (``DURATION_TOL``, 1e-7 of the frame), so each relation must show
its sign: strictly for the amplifier and the demand, strictly for the
full-duplex strategies' cancellation, and exactly not at all for hd2ts,
which hears no self-interference.  These check the solver against itself,
where the oracle's grid checks the energy only to 1%.
"""

from dataclasses import replace

import numpy as np
import pytest

from fdrelay.model import CircuitAccounting, InfeasibleError, PaKind, Strategy
from fdrelay.oracle import random_params
from fdrelay.solver import solve

_SCENARIOS_PER_COMBO = 8
_MIRROR_REL = 1e-14

# The range each end node's isolation, p_max, static and idle circuit power
# is drawn from, apart from the other end node's, by (key of a, key of b).
_END_NODE_RANGES = {("self_iso_a_db", "self_iso_b_db"): (44.0, 66.0),
                    ("p_max_a_dbm", "p_max_b_dbm"): (40.0, 46.0),
                    ("p_base_a_mw", "p_base_b_mw"): (80.0, 120.0),
                    ("p_idle_a_mw", "p_idle_b_mw"): (24.0, 36.0)}
# (key of a, key of b) of every parameter the mirror swaps; random_params
# draws the distances and the demands apart.
_MIRRORED = (("d_ar_m", "d_rb_m"), ("r_fl_mbps", "r_rl_mbps"),
             *_END_NODE_RANGES)


def _draw(rng, strategy, pa, accounting):
    """``random_params`` with both end nodes' other parameters drawn too."""
    params = replace(random_params(rng, strategy, pa), accounting=accounting)
    for keys, (low, high) in _END_NODE_RANGES.items():
        params = replace(params, **{key: rng.uniform(low, high)
                                    for key in keys})
    return params


def _mirror(params):
    return replace(params, **{
        key: getattr(params, other) for pair in _MIRRORED
        for key, other in (pair, pair[::-1])})


def _outcome(params):
    try:
        return solve(params.build())
    except InfeasibleError as err:
        return err


def _combos():
    return [(strategy, pa, accounting) for strategy in Strategy
            for pa in PaKind for accounting in CircuitAccounting]


def _cases(strategy, pa, accounting):
    rng = np.random.default_rng(22)
    return [_draw(rng, strategy, pa, accounting)
            for _ in range(_SCENARIOS_PER_COMBO)]


@pytest.mark.parametrize("strategy, pa, accounting", _combos())
def test_mirror_keeps_the_optimal_energy(strategy, pa, accounting):
    printed_fd1ts = (strategy is Strategy.FD1TS
                     and accounting is CircuitAccounting.PRINTED)
    feasible = 0
    for params in _cases(strategy, pa, accounting):
        base, mirrored = _outcome(params), _outcome(_mirror(params))
        assert isinstance(base, InfeasibleError) == isinstance(
            mirrored, InfeasibleError), params
        if isinstance(base, InfeasibleError):
            assert base.cause == mirrored.cause
            continue
        feasible += 1
        slack = _MIRROR_REL * base.e_total
        moved = mirrored.e_total - base.e_total
        if not printed_fd1ts:
            assert abs(moved) <= slack, params
            continue
        # The mirror's slot cost is the base's plus delta * t1, so its
        # optimum moves by delta times a duration between the two optima.
        s = params.build()
        delta = s.circuit.a.epsilon * (s.r_fl - s.r_rl)
        low, high = sorted((delta * base.t1, delta * mirrored.t1))
        assert low - slack <= moved <= high + slack, params
        assert delta != 0.0
    assert feasible


def _sign(params, key, step):
    """Sign of the optimal energy's move when ``key`` rises by ``step``
    (a factor for the demand), or None when either side is infeasible."""
    value = getattr(params, key)
    raised = replace(params, **{
        key: value * step if key == "r_fl_mbps" else value + step})
    base, moved = _outcome(params), _outcome(raised)
    if isinstance(base, InfeasibleError) or isinstance(moved, InfeasibleError):
        return None
    if key != "r_fl_mbps" and repr(moved) == repr(base):
        return 0
    return int(np.sign(moved.e_total - base.e_total))


@pytest.mark.parametrize("key, step, fd_sign, hd_sign", [
    ("eta_max", 0.01, -1, -1),
    ("alpha_db", 1.0, -1, 0),
    ("self_iso_r_db", 1.0, -1, 0),
    ("r_fl_mbps", 1.001, 1, 1),
])
@pytest.mark.parametrize("strategy, pa, accounting", _combos())
def test_monotone_relations_have_their_sign(strategy, pa, accounting, key,
                                            step, fd_sign, hd_sign):
    want = hd_sign if strategy is Strategy.HD2TS else fd_sign
    signs = [_sign(params, key, step)
             for params in _cases(strategy, pa, accounting)]
    assert set(signs) - {None} == {want}, signs
