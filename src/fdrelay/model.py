"""Domain types and elementary power/rate conversions for two-way relay links.

Everything downstream (capacity formulas, energy objectives, solvers) is built
on the value objects defined here.  All quantities are SI internally: watts,
hertz, seconds, bit/s.  Conversions from dB / dBm / distance happen at the
configuration boundary, never inside the math.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Generic, TypeVar

import numpy as np

__all__ = [
    "PaKind",
    "Strategy",
    "CircuitAccounting",
    "RelayCase",
    "PaModel",
    "NodeCircuit",
    "ChannelSet",
    "PerNode",
    "Scenario",
    "Schedule",
    "InfeasibleError",
    "db_to_linear",
    "noise_power",
    "pathloss_gain",
    "residual_self_gain",
    "pa_consumption",
    "ee_from_energy",
]

# Reference path-loss law: 103.8 + 21*log10(d) dB at distance d in metres.
_PL_CONST_DB = 103.8
_PL_SLOPE_DB = 21.0

# Relative slack tolerated on transmit-power budgets (float dust from the
# feasibility bisection landing exactly on a cap).
_P_BUDGET_SLACK = 1e-9


class PaKind(str, Enum):
    """Power-amplifier consumption model family."""

    TPA = "tpa"
    ETPA = "etpa"


class Strategy(str, Enum):
    """Two-way relay transmission strategy."""

    FD1TS = "fd1ts"  # all three nodes full duplex, single timeslot
    FD2TS = "fd2ts"  # relay full duplex, two timeslots
    HD2TS = "hd2ts"  # half-duplex baseline, two timeslots


class CircuitAccounting(str, Enum):
    """How rate-dependent circuit power enters the energy objectives.

    PRINTED reproduces the reference constants verbatim (default); the
    FIRST_PRINCIPLES mode recomputes each node's dynamic circuit power from
    its actual transmit/receive rates.  The two agree for FD2TS.
    """

    PRINTED = "printed"
    FIRST_PRINCIPLES = "first-principles"


class RelayCase(str, Enum):
    """Which relay broadcast constraint binds in the single-slot strategy."""

    CASE_I = "case-i"  # reverse-link broadcast constraint active
    CASE_II = "case-ii"  # forward-link broadcast constraint active


class InfeasibleError(Exception):
    """A scenario cannot meet its rate demands within the power budgets."""

    def __init__(self, message: str, binding_node: str | None = None,
                 cause: str = "power_budget"):
        super().__init__(message)
        self.binding_node = binding_node
        self.cause = cause


@dataclass(frozen=True)
class PaModel:
    """Non-ideal power-amplifier consumption model of one node.

    Parameters
    ----------
    kind
        TPA (square-root consumption curve) or ETPA (affine curve).
    p_max
        Maximum average transmit power in W; the budget every feasible
        schedule must respect.
    eta_max
        PA efficiency at ``p_max``, in (0, 1].
    kappa
        Peak-to-average power ratio, linear (>= 1).  Default 8 dB.
    u
        ETPA shape parameter (>= 0); ignored for TPA.  ``u = 0`` recovers
        the ideal amplifier.
    """

    kind: PaKind
    p_max: float
    eta_max: float
    kappa: float = 10 ** 0.8
    u: float = 0.0082

    def __post_init__(self):
        if not 0 < self.p_max < math.inf:
            raise ValueError(f"p_max must be positive and finite, "
                             f"got {self.p_max}")
        if not 0 < self.eta_max <= 1:
            raise ValueError(f"eta_max must be in (0, 1], got {self.eta_max}")
        if not 1 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be >= 1 and finite, "
                             f"got {self.kappa}")
        if not 0 <= self.u < math.inf:
            raise ValueError(f"u must be >= 0 and finite, got {self.u}")


def _check_non_negative(obj, *names: str, finite: bool = False) -> None:
    """Raise ValueError naming the first field of ``obj`` that is not >= 0
    (NaN fails the test too) or, with ``finite``, is +inf."""
    for name in names:
        value = getattr(obj, name)
        if not value >= 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
        if finite and value == math.inf:
            raise ValueError(f"{name} must be finite, got {value}")


def _check_positive_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first field of ``obj`` that is not > 0
    and finite (NaN fails the test too)."""
    for name in names:
        value = getattr(obj, name)
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class NodeCircuit:
    """Static, idle and rate-proportional circuit power of one node."""

    p_base: float  # W, static draw of an active tx or rx chain
    p_idle: float  # W, draw when the node is fully idle
    epsilon: float  # W per bit/s, dynamic signal-processing coefficient

    def __post_init__(self):
        _check_non_negative(self, "p_base", "p_idle", "epsilon", finite=True)


@dataclass(frozen=True)
class ChannelSet:
    """Linear power gains and noise levels of the three-node network.

    ``g_xy`` is the gain from node x's transmitter to node y's receiver;
    ``gs_x`` is the residual self-interference gain at node x after
    cancellation (zero means perfect cancellation); ``sigma2_x`` is the
    noise power at node x's receiver in W.
    """

    g_ar: float
    g_br: float
    g_ra: float
    g_rb: float
    gs_a: float
    gs_b: float
    gs_r: float
    sigma2_a: float
    sigma2_b: float
    sigma2_r: float

    def __post_init__(self):
        _check_positive_finite(self, "g_ar", "g_br", "g_ra", "g_rb")
        _check_non_negative(self, "gs_a", "gs_b", "gs_r")
        _check_positive_finite(self, "sigma2_a", "sigma2_b", "sigma2_r")

    @classmethod
    def reciprocal(cls, g_ar: float, g_br: float, gs_a: float, gs_b: float,
                   gs_r: float, sigma2: float) -> "ChannelSet":
        """Build a channel set with reciprocal links and i.i.d. noise."""
        return cls(g_ar=g_ar, g_br=g_br, g_ra=g_ar, g_rb=g_br,
                   gs_a=gs_a, gs_b=gs_b, gs_r=gs_r,
                   sigma2_a=sigma2, sigma2_b=sigma2, sigma2_r=sigma2)


_T = TypeVar("_T")


@dataclass(frozen=True)
class PerNode(Generic[_T]):
    """A value per node, in (a, r, b) order."""

    a: _T
    r: _T
    b: _T


@dataclass(frozen=True)
class Scenario:
    """One complete problem instance to schedule."""

    bandwidth_w: float  # Hz
    frame_t: float  # s
    r_fl: float  # bit/s demanded a -> b
    r_rl: float  # bit/s demanded b -> a
    strategy: Strategy
    pa: PerNode[PaModel]
    circuit: PerNode[NodeCircuit]
    channels: ChannelSet
    asymptotic_1ts: bool = False
    circuit_accounting: CircuitAccounting = CircuitAccounting.PRINTED

    def __post_init__(self):
        if not self.bandwidth_w > 0:
            raise ValueError("bandwidth_w must be positive")
        # A subnormal frame's slot floor, a millionth of it, can round to 0 s.
        if not self.frame_t >= sys.float_info.min:
            raise ValueError(f"frame_t must be at least {sys.float_info.min} s")
        _check_non_negative(self, "r_fl", "r_rl")
        if not self.r_fl + self.r_rl > 0:
            raise ValueError("at least one rate demand must be positive")

    @property
    def p_idle_total(self) -> float:
        return self.circuit.a.p_idle + self.circuit.r.p_idle + self.circuit.b.p_idle

    @property
    def p_base_total(self) -> float:
        return self.circuit.a.p_base + self.circuit.r.p_base + self.circuit.b.p_base


@dataclass(frozen=True)
class Schedule:
    """A solved transmission schedule.

    ``t2`` is zero for the single-slot strategy.  For FD1TS and HD2TS the
    relay transmits a single signal, held in ``p_r_fwd``; ``p_r_rev`` is
    zero there.
    """

    t1: float
    t2: float
    p_a: float
    p_b: float
    p_r_fwd: float
    p_r_rev: float
    e_total: float
    ee: float
    active_case: RelayCase | None = None


def db_to_linear(x_db: float) -> float:
    """Convert a dB figure to a linear power ratio."""
    return 10.0 ** (x_db / 10.0)


def noise_power(n0_dbm_per_hz: float, w: float) -> float:
    """Total noise power in W over bandwidth ``w`` from a dBm/Hz density."""
    if not 0 < w < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {w}")
    return 10.0 ** ((n0_dbm_per_hz - 30.0) / 10.0) * w


def pathloss_gain(d_m: float) -> float:
    """Linear power gain of the reference path-loss law at ``d_m`` metres."""
    if not d_m > 0:
        raise ValueError("distance must be positive")
    loss_db = _PL_CONST_DB + _PL_SLOPE_DB * math.log10(d_m)
    return 10.0 ** (-loss_db / 10.0)


def residual_self_gain(d_self_m: float, alpha_db: float) -> float:
    """Residual self-interference power gain after ``alpha_db`` cancellation.

    The pre-cancellation coupling is taken from the reference path-loss law
    at the transmit/receive antenna separation ``d_self_m``.
    """
    if not alpha_db >= 0:
        raise ValueError(f"alpha_db must be non-negative, got {alpha_db}")
    return pathloss_gain(d_self_m) / db_to_linear(alpha_db)


def pa_consumption(pa: PaModel, p):
    """Power drawn by the amplifier to emit average transmit power ``p``.

    Accepts a scalar or an ndarray of powers; rejects anything outside the
    [0, p_max] budget.
    """
    arr = np.asarray(p, dtype=float)
    hi = pa.p_max * (1.0 + _P_BUDGET_SLACK)
    lo = -pa.p_max * _P_BUDGET_SLACK
    # NaN fails both comparisons and an infinity one of them, so this one
    # range test also rejects every non-finite power; the initial values
    # let an empty array pass.
    if not (arr.min(initial=lo) >= lo and arr.max(initial=hi) <= hi):
        raise ValueError(
            f"transmit power outside [0, {pa.p_max:.6g}] W budget")
    arr = np.minimum(np.maximum(arr, 0.0), pa.p_max)
    if pa.kind is PaKind.TPA:
        out = np.sqrt(arr * pa.p_max) / pa.eta_max
    else:
        uk = pa.u * pa.kappa
        out = (arr + uk * pa.p_max) / ((1.0 + uk) * pa.eta_max)
    return float(out) if np.ndim(p) == 0 else out


def ee_from_energy(r_fl: float, r_rl: float, frame_t: float, e_total: float) -> float:
    """Energy efficiency in bit/J: bits delivered per frame over energy spent."""
    if not e_total > 0:
        raise ValueError("total energy must be positive")
    return (r_fl + r_rl) * frame_t / e_total
