"""Simulator for a SQUID ring inductively coupled to a quantized em field mode.

Units everywhere: hbar = 1, time in 1/omega_s, energy in hbar*omega_s,
flux in Phi0. See README for the protocol and the CLI.
"""
from .circuit import (
    CircuitParams,
    DimensionlessGroups,
    FluxDrive,
    RampHamiltonian,
    StaticHamiltonian,
    TruncatedModel,
    build_he,
    build_hs,
    build_total,
    ladder,
    quadratures,
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
    ExchangeRegion,
    RampConfig,
    SweepConfig,
    default_model,
    find_crossing_time,
    run_dissipative,
    run_ramp,
    run_sweep,
)
from .linalg import (
    PositivityError,
    herm_func,
    kron,
    partial_trace,
    propagator,
    vn_entropy,
)
from .observables import (
    LabeledBasis,
    TimeSeriesRecord,
    basis_probabilities,
    bell_fidelity,
    component_energy,
    entanglement_indices,
    labeled_basis,
    record_from_state,
    time_averaged_energy,
)

__version__ = "0.1.0"
