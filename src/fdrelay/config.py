"""Scenario construction from flat key=value configuration text.

All dB/dBm/distance handling lives here; the model layer only ever sees SI
quantities.  ``ScenarioParams`` holds the raw radio-planning parameters and
knows how to build a :class:`~fdrelay.model.Scenario`; ``parse_params``
reads the text format described below.  The CLI builds the parameters
inside ``unbuildable_is_config_error()``, so that a value that builds no
scenario ends in a :class:`ConfigError` too.

Format: one ``key=value`` per line, ``#`` starts a comment, blank lines are
ignored.  Unknown keys, unparsable values and invariant violations are
reported with their line number.

Default link-budget calibration
-------------------------------
The defaults pair the tabulated radio constants (10 MHz, -174 dBm/Hz noise
density, 10 ms frame, 50 m hops, 5 cm antenna separation, 60 dB
self-cancellation) with a directional-antenna link budget: 25 dB combined
antenna gain on the data links and extra isolation on each node's
transmit-to-own-receive path, 40 dB at the relay and 55 dB at the end
terminals.  Without those terms the raw path-loss law puts the data links
~35 dB under water at tens of Mbps and the self-coupling 63 dB above the
data links, leaving no feasible schedule at the reference workloads; the
calibrated budget keeps them in the feasible, PA-dominated regime the
solvers are designed for.  The relay defaults to the worst isolation
because it cancels its own broadcast while receiving both directions at
once, whereas each terminal cancels a single known signal.  All of these
knobs are plain config keys (``ant_gain_db``, ``self_iso_a_db``,
``self_iso_r_db``, ``self_iso_b_db``) and may be zeroed to study the
uncalibrated budget.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from enum import Enum

from .model import (
    ChannelSet,
    CircuitAccounting,
    NodeCircuit,
    PaKind,
    PaModel,
    PerNode,
    Scenario,
    Strategy,
    db_to_linear,
    noise_power,
    pa_draw,
    pathloss_gain,
    residual_self_gain,
)

__all__ = ["ConfigError", "ScenarioParams", "parse_params",
           "unbuildable_is_config_error"]


class ConfigError(Exception):
    """Bad configuration input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass(frozen=True, slots=True)
class ScenarioParams:
    """Raw scenario parameters in radio-planning units.

    Slotted: with 30 fields an instance is past CPython's limit for
    key-sharing instance dicts, so each would carry its own ``__dict__`` of
    about 1.6 KB, which dominates pools of thousands of parameter sets.
    """

    bandwidth_mhz: float = 10.0
    frame_t_ms: float = 10.0
    n0_dbm_per_hz: float = -174.0
    d_ar_m: float = 50.0
    d_rb_m: float = 50.0
    d_self_cm: float = 5.0
    alpha_db: float = 60.0
    ant_gain_db: float = 25.0
    self_iso_a_db: float = 55.0
    self_iso_r_db: float = 40.0
    self_iso_b_db: float = 55.0
    eta_max: float = 0.35
    kappa_db: float = 8.0
    etpa_u: float = 0.0082
    p_max_a_dbm: float = 46.0
    p_max_r_dbm: float = 46.0
    p_max_b_dbm: float = 46.0
    p_base_a_mw: float = 100.0
    p_base_r_mw: float = 50.0
    p_base_b_mw: float = 20.0
    p_idle_a_mw: float = 30.0
    p_idle_r_mw: float = 15.0
    p_idle_b_mw: float = 5.0
    epsilon_mw_per_gbps: float = 50.0
    r_fl_mbps: float = 32.5
    r_rl_mbps: float = 32.5
    strategy: Strategy = Strategy.FD1TS
    pa: PaKind = PaKind.ETPA
    accounting: CircuitAccounting = CircuitAccounting.PRINTED
    asymptotic_1ts: bool = False

    @property
    def total_rate_mbps(self) -> float:
        return self.r_fl_mbps + self.r_rl_mbps

    def build(self) -> Scenario:
        """Convert to SI and assemble the scenario value object.

        A value out of its range raises a ValueError.  So does a dB or dBm
        value whose linear value overflows a float, and its error names the
        key; a distance too short for the path-loss law names the
        distance.  So does an amplifier whose draw at 0 W or at its p_max
        is not finite, naming every key its draw reads."""

        def linear(name: str, convert, *args) -> float:
            try:
                return convert(*args)
            except OverflowError:
                raise ValueError(f"{name} of {getattr(self, name)} is too "
                                 f"large: its linear value overflows a float"
                                 ) from None

        w = self.bandwidth_mhz * 1e6
        sigma2 = linear("n0_dbm_per_hz", noise_power, self.n0_dbm_per_hz, w)
        ant = linear("ant_gain_db", db_to_linear, self.ant_gain_db)
        residual = linear("alpha_db", residual_self_gain,
                          self.d_self_cm / 100.0, self.alpha_db)

        def isolation(name: str) -> float:
            iso = linear(name, db_to_linear, getattr(self, name))
            if iso == 0.0:  # -inf dB, or low enough to underflow
                raise ValueError(f"{name} of {getattr(self, name)} dB "
                                 f"underflows to a linear isolation of 0")
            return iso

        channels = ChannelSet.reciprocal(
            g_ar=pathloss_gain(self.d_ar_m) * ant,
            g_br=pathloss_gain(self.d_rb_m) * ant,
            gs_a=residual / isolation("self_iso_a_db"),
            gs_b=residual / isolation("self_iso_b_db"),
            gs_r=residual / isolation("self_iso_r_db"),
            sigma2=sigma2)
        kappa = linear("kappa_db", db_to_linear, self.kappa_db)

        def pa_for(node: str) -> PaModel:
            name = f"p_max_{node}_dbm"
            p_max = linear(name, db_to_linear, getattr(self, name) - 30.0)
            pa = PaModel(kind=self.pa, p_max=p_max, eta_max=self.eta_max,
                         kappa=kappa, u=self.etpa_u)
            try:
                pa_draw(pa)
            except ValueError as err:
                keys = (name, "eta_max") + (("kappa_db", "etpa_u")
                                            if pa.kind is PaKind.ETPA else ())
                raise ValueError(f"node {node}: {err}, from " + ", ".join(
                    f"{key} = {getattr(self, key)}" for key in keys)) from None
            return pa

        eps = self.epsilon_mw_per_gbps * 1e-3 / 1e9

        def circuit_for(base_mw: float, idle_mw: float) -> NodeCircuit:
            return NodeCircuit(p_base=base_mw * 1e-3, p_idle=idle_mw * 1e-3,
                               epsilon=eps)

        return Scenario(
            bandwidth_w=w,
            frame_t=self.frame_t_ms * 1e-3,
            r_fl=self.r_fl_mbps * 1e6,
            r_rl=self.r_rl_mbps * 1e6,
            strategy=self.strategy,
            pa=PerNode(a=pa_for("a"), r=pa_for("r"), b=pa_for("b")),
            circuit=PerNode(
                a=circuit_for(self.p_base_a_mw, self.p_idle_a_mw),
                r=circuit_for(self.p_base_r_mw, self.p_idle_r_mw),
                b=circuit_for(self.p_base_b_mw, self.p_idle_b_mw)),
            channels=channels,
            asymptotic_1ts=self.asymptotic_1ts,
            circuit_accounting=self.accounting,
        )

    def with_total_rate(self, total_mbps: float) -> "ScenarioParams":
        """Scale both demands, preserving the traffic ratio.  A total that
        is negative or not finite, or a base with no traffic to scale,
        raises ValueError."""
        if not 0.0 <= total_mbps < math.inf:
            raise ValueError(f"total rate must be finite and non-negative, "
                             f"got {total_mbps}")
        if not self.total_rate_mbps > 0:
            raise ValueError(f"cannot scale to a total rate of {total_mbps}: "
                             f"the base has no traffic (r_fl_mbps = "
                             f"{self.r_fl_mbps}, r_rl_mbps = {self.r_rl_mbps})")
        share_fl = self.r_fl_mbps / self.total_rate_mbps
        return replace(self, r_fl_mbps=total_mbps * share_fl,
                       r_rl_mbps=total_mbps * (1.0 - share_fl))

    def with_traffic_ratio(self, ratio: float) -> "ScenarioParams":
        """Redistribute the fixed total so that r_fl / r_rl = ratio."""
        if not 0.0 <= ratio < math.inf:
            raise ValueError(
                f"traffic ratio must be finite and non-negative, got {ratio}")
        total = self.total_rate_mbps
        return replace(self, r_fl_mbps=total * ratio / (1.0 + ratio),
                       r_rl_mbps=total / (1.0 + ratio))


# Every field is a config key, parsed by the type of its default.
_DEFAULTS = {f.name: f.default for f in fields(ScenarioParams)}


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def parse_params(text: str) -> ScenarioParams:
    """Parse key=value text into parameters (defaults fill omissions)."""
    updates: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(
                f"duplicate key {key!r} (first set on line {seen[key]})",
                lineno)
        seen[key] = lineno
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        default = _DEFAULTS[key]
        try:
            if isinstance(default, bool):
                updates[key] = _parse_bool(value)
            elif isinstance(default, Enum):
                updates[key] = type(default)(value.lower())
            else:
                number = float(value)
                if not math.isfinite(number):
                    raise ValueError(f"{value!r} is not a finite number")
                updates[key] = number
        except ValueError as err:
            raise ConfigError(f"bad value for {key!r}: {err}", lineno) from err
    return replace(ScenarioParams(), **updates)


@contextmanager
def unbuildable_is_config_error(context: str = "invalid scenario"):
    """Turn parameters that build no scenario into a ConfigError that starts
    with ``context``.  A value out of its range raises ValueError, and so
    does one that overflows in the unit conversions (say ``alpha_db = 1e5``,
    whose error names ``alpha_db``); an ArithmeticError from any other
    arithmetic is caught too."""
    try:
        yield
    except (ValueError, ArithmeticError) as err:
        raise ConfigError(f"{context}: {err}") from err
