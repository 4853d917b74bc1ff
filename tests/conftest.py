from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from fdrelay.config import ScenarioParams
from fdrelay.model import (
    ChannelSet,
    NodeCircuit,
    PaKind,
    PaModel,
    PerNode,
    Scenario,
    Strategy,
)


@pytest.fixture
def params():
    """Default calibrated parameter set."""
    return ScenarioParams()


@pytest.fixture
def make_scenario():
    """Hand-built scenario factory for targeted formula tests."""

    def build(strategy=Strategy.FD2TS, kind=PaKind.ETPA, g_ar=1e-12,
              g_br=1e-12, gs=1e-18, sigma2=4e-14, p_max=(40.0, 40.0, 40.0),
              eta=0.35, u=0.0082, p_base=(0.1, 0.05, 0.02),
              p_idle=(0.03, 0.015, 0.005), eps=5e-11, r_fl=3e7, r_rl=3e7,
              bandwidth=1e7, frame=0.01, asymptotic=False, accounting=None):
        from fdrelay.model import CircuitAccounting

        channels = ChannelSet.reciprocal(g_ar=g_ar, g_br=g_br, gs_a=gs,
                                         gs_b=gs, gs_r=gs, sigma2=sigma2)
        pa = PerNode(a=PaModel(kind, p_max[0], eta, u=u),
                     r=PaModel(kind, p_max[1], eta, u=u),
                     b=PaModel(kind, p_max[2], eta, u=u))
        circuit = PerNode(
            a=NodeCircuit(p_base[0], p_idle[0], eps),
            r=NodeCircuit(p_base[1], p_idle[1], eps),
            b=NodeCircuit(p_base[2], p_idle[2], eps))
        return Scenario(
            bandwidth_w=bandwidth, frame_t=frame, r_fl=r_fl, r_rl=r_rl,
            strategy=strategy, pa=pa, circuit=circuit, channels=channels,
            asymptotic_1ts=asymptotic,
            circuit_accounting=accounting or CircuitAccounting.PRINTED)

    return build


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_scenario_params(rng, strategy, pa_kind=PaKind.ETPA):
    """Moderate random draw biased toward feasibility."""
    total = rng.uniform(10.0, 90.0)
    share = rng.uniform(0.3, 0.7)
    return ScenarioParams(
        d_ar_m=rng.uniform(20.0, 120.0),
        d_rb_m=rng.uniform(20.0, 120.0),
        alpha_db=rng.uniform(35.0, 80.0),
        r_fl_mbps=total * share,
        r_rl_mbps=total * (1.0 - share),
        strategy=strategy,
        pa=pa_kind,
    )


def with_powers(slot, powers):
    """``slot`` with its closed form replaced by ``powers(s, t)``: the
    binder a slot states, for a test that substitutes a form per call."""
    return replace(slot, bind=lambda s: partial(powers, s))


def slot_powers(s, desc, *durations):
    """Each slot's closed-form powers (``Slot.bind``) at its duration, one
    tuple per slot of ``desc``, in slot order."""
    return tuple(slot.bind(s)(t) for slot, t in zip(desc.slots, durations))


def capacities(s, desc, durations, powers):
    """The capacity of every rate constraint of ``desc`` (``Slot.rates``)
    at the given durations and per-slot powers: slot after slot, each in
    its ``rates`` order."""
    return tuple(c for slot, t, p in zip(desc.slots, durations, powers)
                 for group in slot.rates(s, t, *p) for _, c, _ in group)
