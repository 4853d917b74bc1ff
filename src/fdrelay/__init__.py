"""Energy-efficiency-optimal scheduling for full-duplex two-way relay links.

The package solves for the transmit powers and slot durations that minimize
the energy a three-node relay network spends delivering fixed two-way
traffic within a frame, under non-ideal power amplifiers, rate-dependent
circuit power and residual self-interference.  Three strategies are
covered: a single-slot design with every node full duplex, a two-slot
design with only the relay full duplex, and a two-slot half-duplex
baseline.
"""

from .config import ConfigError, ScenarioParams, parse_params
# bench/workloads.py imports tmin_1ts, tmin_2ts and tmin_hd from here.
from .feasibility import FeasibleWindow, tmin_1ts, tmin_2ts, tmin_for, tmin_hd
from .model import (
    ChannelSet,
    CircuitAccounting,
    InfeasibleError,
    NodeCircuit,
    PaKind,
    PaModel,
    PerNode,
    RelayCase,
    Scenario,
    Schedule,
    Strategy,
    db_to_linear,
    ee_from_energy,
    noise_power,
    pa_consumption,
    pathloss_gain,
    residual_self_gain,
)
from .oracle import (
    OracleReport,
    convexity_probe,
    grid_search,
    random_feasible_scenarios,
    verify,
    verify_necessary_conditions,
)
from .solver import minimize_unimodal_1d, solve
from .strategies import DESCRIPTIONS, Description, Slot
from .sweep import Axis, AxisKind, SweepRow, SweepSpec, emit_csv, run_sweep

__version__ = "0.1.0"
