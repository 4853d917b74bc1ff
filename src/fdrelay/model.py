"""Domain types and elementary power/rate conversions for two-way relay links.

Everything downstream (capacity formulas, energy objectives, solvers) is built
on the value objects defined here.  All quantities are SI internally: watts,
hertz, seconds, bit/s.  Conversions from dB / dBm / distance happen at the
configuration boundary, never inside the math.  The PA draw binds to the
amplifiers of a frame's nodes once (:func:`pa_draw`), so a search that draws
many times reads their constants once and prices every node of every slot
in one numpy pass; it returns each amplifier's draw, and the caller adds a
slot's nodes left to right.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Generic, TypeVar

import numpy as np

if TYPE_CHECKING:
    from .feasibility import FeasibleWindow

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
    "pa_draw_range",
    "pa_draw",
    "pa_consumption",
    "ee_from_energy",
]

# Reference path-loss law: 103.8 + 21*log10(d) dB at distance d in metres.
_PL_CONST_DB = 103.8
_PL_SLOPE_DB = 21.0

# Relative slack tolerated on transmit-power budgets (float dust from the
# feasibility bisection landing exactly on a cap): the PA draw accepts a
# power this far past its budget, and the oracle clips such a grid anchor
# onto it.
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
    """One complete problem instance to schedule.

    Every node's amplifier is of one kind (``pa.a.kind``), since a frame
    prices all its nodes' draws through one curve (:func:`pa_draw`); a
    scenario that mixes TPA and ETPA amplifiers raises ValueError.
    """

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
        if not sys.float_info.min <= self.frame_t < math.inf:
            raise ValueError(f"frame_t must be finite and at least "
                             f"{sys.float_info.min} s, got {self.frame_t}")
        _check_non_negative(self, "r_fl", "r_rl", finite=True)
        if not self.r_fl + self.r_rl > 0:
            raise ValueError("at least one rate demand must be positive")
        pa = self.pa
        if not (pa.a.kind is pa.r.kind is pa.b.kind):
            raise ValueError(
                f"every amplifier must be of one kind, got a: "
                f"{pa.a.kind.value}, r: {pa.r.kind.value}, b: "
                f"{pa.b.kind.value}")

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
    zero there.  ``window`` is the feasibility window the solver searched
    in, which :func:`~fdrelay.oracle.verify` reuses; it is None for a
    schedule built by hand, and ``repr``, equality and hashing leave it out.
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
    window: FeasibleWindow | None = field(default=None, repr=False,
                                          compare=False)


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
    try:
        return 10.0 ** (-loss_db / 10.0)
    except OverflowError:
        raise ValueError(f"distance of {d_m} m is too short for the path-loss "
                         f"law: its gain overflows a float") from None


def residual_self_gain(d_self_m: float, alpha_db: float) -> float:
    """Residual self-interference power gain after ``alpha_db`` cancellation.

    The pre-cancellation coupling is taken from the reference path-loss law
    at the transmit/receive antenna separation ``d_self_m``.
    """
    if not alpha_db >= 0:
        raise ValueError(f"alpha_db must be non-negative, got {alpha_db}")
    return pathloss_gain(d_self_m) / db_to_linear(alpha_db)


def pa_draw_range(pa: PaModel) -> tuple[float, float]:
    """The amplifier's draw at 0 W and at ``p_max``: the least and the most
    it draws within its budget, since the draw never falls as the power
    grows.  Computed in float arithmetic, which gives the IEEE results of
    :func:`pa_draw`'s numpy body without its overflow warnings and without
    building an array.  Raises ValueError when either overflows a float
    (say ``eta_max = 1e-308``); every draw within the budget is then
    finite."""
    p_max, eta_max = pa.p_max, pa.eta_max
    if pa.kind is PaKind.TPA:
        ends = (0.0, math.sqrt(p_max * p_max) / eta_max)
    else:
        uk = pa.u * pa.kappa
        bias, scale = uk * p_max, (1.0 + uk) * eta_max
        ends = (bias / scale, (p_max + bias) / scale)
    if not (math.isfinite(ends[0]) and math.isfinite(ends[1])):
        raise ValueError(f"the {pa.kind.value} draw is not finite at 0 W or "
                         f"at p_max = {p_max:.6g} W")
    return ends


def pa_draw(*pas: PaModel) -> Callable:
    """The draw of each of one or more amplifiers of one kind, as a
    function of their transmit powers alone: ``draw(*powers)``, one power
    per amplifier, in argument order.

    The budget range, ``p_max``, ``eta_max`` and the ETPA curve's
    constants of every amplifier are read once, here, into one array, one
    row per amplifier, so a caller that draws many times pays for them
    once, and each call prices every amplifier in one numpy pass: one
    range check, one clip where some power is negative, and one curve.  A
    caller may bind the amplifiers of a whole frame, several slots' nodes
    in slot order, and one amplifier may appear more than once.  Python float powers go
    into one 1-D array through ``np.fromiter``, as do 0-d powers of other
    types through ``np.asarray``, and the draw is a list of Python floats,
    one per amplifier; powers of one shape stack into one
    array, and powers of different shapes are broadcast first, which gives
    one row per amplifier, of the broadcast shape.  The draws are not
    summed: a caller adds a slot's rows left to right in argument order,
    and the sum is then, bit for bit, that of one :func:`pa_consumption`
    call per amplifier.  A power outside its amplifier's budget, NaN and
    +-inf included, raises a ValueError naming the ``p_max`` of the first
    such amplifier in argument order; so does a count of powers that is
    not one per amplifier.  Raises ValueError for amplifiers of more than
    one kind, and for an amplifier whose draw overflows a float
    (:func:`pa_draw_range`).
    """
    kind = pas[0].kind
    if any(pa.kind is not kind for pa in pas):
        raise ValueError("pa_draw binds amplifiers of one kind, got "
                         + ", ".join(pa.kind.value for pa in pas))
    rows = []
    for pa in pas:
        pa_draw_range(pa)
        p, eta, uk = pa.p_max, pa.eta_max, pa.u * pa.kappa
        rows.append((-p * _P_BUDGET_SLACK, p * (1.0 + _P_BUDGET_SLACK), p,
                     eta, uk * p, (1.0 + uk) * eta))
    n = len(rows)
    lo, hi, p_max, eta_max, bias, scale = np.array(rows).T
    tpa = kind is PaKind.TPA
    asarray, minimum, sqrt, inf = np.asarray, np.minimum, np.sqrt, math.inf
    count_nonzero, fromiter = np.count_nonzero, np.fromiter

    def draw(*powers):
        if len(powers) != n:
            raise ValueError(f"expected {n} transmit power(s), one per "
                             f"amplifier, got {len(powers)}")
        for p in powers:
            if type(p) is not float:
                try:
                    arr = asarray(powers, dtype=float)
                except ValueError:  # powers of different shapes
                    arr = np.stack(np.broadcast_arrays(
                        *[asarray(p, dtype=float) for p in powers]))
                # The amplifier axis goes last, against the per-amplifier
                # arrays; a 1-D array has it there already.
                if arr.ndim > 1:
                    arr = arr.T
                negative = count_nonzero(arr < 0.0)
                break
        else:
            # All Python floats, the solver's path: one 1-D array, already
            # one element per amplifier, and the sign test in Python.
            arr = fromiter(powers, float, n)
            negative = min(powers) < 0.0
        # NaN fails both comparisons and an infinity one of them, so this
        # one range test also rejects every non-finite power.
        # (count_nonzero skips the Python-level wrapper of ndarray.all.)
        inside = (arr >= lo) & (arr <= hi)
        if count_nonzero(inside) != inside.size:
            first = int(np.argmin(inside.reshape(-1, n).all(axis=0)))
            raise ValueError(f"transmit power outside "
                             f"[0, {pas[first].p_max:.6g}] W budget")
        # A clip with array bounds gives +0.0 at a -0.0 power; minimum and
        # a clip with scalar bounds both keep its sign.  So the clip changes
        # only a negative power, and it runs only when there is one: it
        # goes through ndarray.clip's Python-level wrapper.
        clipped = minimum(arr, p_max)
        if negative:
            clipped = clipped.clip(0.0, inf)
        if tpa:
            out = sqrt(clipped * p_max) / eta_max
        else:
            out = (clipped + bias) / scale
        # Back to one row per amplifier: Python floats for a 1-D array of
        # 0-d powers, arrays otherwise.
        return out.tolist() if out.ndim == 1 else out.T

    return draw


def pa_consumption(pa: PaModel, p):
    """Power drawn by the amplifier to emit average transmit power ``p``:
    the one element of :func:`pa_draw` of the one amplifier.  ``p`` is
    anything ``np.asarray(p, dtype=float)`` accepts: a 0-d input (a Python
    or numpy number, or a 0-d array) gives a Python float, and any other
    gives an ndarray of its shape.  A -0.0 power draws what the curve gives
    at -0.0, sign and all.  Rejects any power outside the [0, p_max]
    budget, and any amplifier whose draw overflows a float.
    """
    return pa_draw(pa)(p)[0]


def ee_from_energy(r_fl: float, r_rl: float, frame_t: float, e_total: float) -> float:
    """Energy efficiency in bit/J: bits delivered per frame over energy spent."""
    if not e_total > 0:
        raise ValueError("total energy must be positive")
    return (r_fl + r_rl) * frame_t / e_total
