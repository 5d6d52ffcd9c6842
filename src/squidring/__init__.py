"""Simulator for a SQUID ring inductively coupled to a quantized em field mode.

Units everywhere: hbar = 1, time in 1/omega_s, energy in hbar*omega_s,
flux in Phi0. See README for the protocol and the CLI.
"""
import os

# 16- to 256-wide matrices leave a second BLAS thread only spinning; set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .circuit import (
    CircuitParams,
    FluxDrive,
    RampHamiltonian,
    build_hs,
    build_total,
    truncate_to_eigenbasis,
)
from .dynamics import (
    BathParams,
    IntegratorConfig,
    QuantumState,
    Trajectory,
    evolve_lindblad,
    evolve_tdse,
    thermal_occupation,
)
from .experiments import (
    BathConfig,
    RampConfig,
    SweepConfig,
    default_model,
    find_crossing_time,
    run_dissipative,
    run_ramp,
    run_sweep,
)
from .linalg import vn_entropy
from .observables import (
    RECORD_COLUMNS,
    labeled_basis,
    record_columns,
    time_averaged_energy,
)

__version__ = "0.1.0"
