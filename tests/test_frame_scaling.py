"""Frame scaling is an exact relation of the optimum.

Every spectral load depends on a slot's duration only through its share
of the frame, and every tolerance of the window and the duration search is
a fraction of the frame.  Scaling the frame by 2 or 1/2 is exact in binary
floating point, so the solver must scale the energy and both durations by
exactly that factor and leave every power, the energy efficiency and the
relay case the same bit for bit.  Infeasible scenarios stay infeasible
for the same reason.  This checks the solver against itself at machine
precision, where the oracle's grid checks the energy only to 1%.
"""

from dataclasses import replace

import numpy as np
import pytest

from fdrelay.model import CircuitAccounting, InfeasibleError, PaKind, Strategy
from fdrelay.oracle import random_params
from fdrelay.solver import solve

_SCENARIOS_PER_COMBO = 8


def _outcome(params):
    try:
        return solve(params.build())
    except InfeasibleError as err:
        return f"infeasible: {err}|{err.binding_node}|{err.cause}"


@pytest.mark.parametrize("factor", [2.0, 0.5])
@pytest.mark.parametrize("accounting", list(CircuitAccounting))
@pytest.mark.parametrize("pa", list(PaKind))
@pytest.mark.parametrize("strategy", list(Strategy))
def test_scaling_the_frame_scales_energy_and_durations_exactly(
        strategy, pa, accounting, factor):
    rng = np.random.default_rng(10)
    feasible = 0
    for _ in range(_SCENARIOS_PER_COMBO):
        params = replace(random_params(rng, strategy, pa),
                         accounting=accounting)
        base = _outcome(params)
        scaled = _outcome(replace(params,
                                  frame_t_ms=params.frame_t_ms * factor))
        if isinstance(base, str):
            assert scaled == base
            continue
        feasible += 1
        want = replace(base, e_total=base.e_total * factor,
                       t1=base.t1 * factor, t2=base.t2 * factor)
        assert repr(scaled) == repr(want)
    assert feasible
