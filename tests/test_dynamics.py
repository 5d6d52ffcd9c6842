"""Integrator tests: TDSE and Lindblad against independent analytic oracles."""
import math

import numpy as np
import pytest
from scipy.linalg import expm

from squidring.circuit import (
    HBAR,
    KB,
    CircuitParams,
    FluxDrive,
    RampHamiltonian,
    StaticHamiltonian,
    build_total,
    ladder,
)
from squidring.dynamics import (
    BathParams,
    IntegrationError,
    IntegratorConfig,
    NormDriftError,
    QuantumState,
    evolve_lindblad,
    evolve_tdse,
    thermal_occupation,
)
from squidring.linalg import hermitize

OMEGA_S = CircuitParams().omega_s

# Bose-Einstein occupation at 4.2 K and omega_s, computed independently
M_DEFAULT = 2.7541427979447616e-05


def test_thermal_occupation_values():
    assert abs(thermal_occupation(4.2, OMEGA_S) - M_DEFAULT) / M_DEFAULT < 1e-12
    # classical limit kT >> hbar w
    t_hot = 1e4
    approx = KB * t_hot / (HBAR * OMEGA_S)
    assert abs(thermal_occupation(t_hot, OMEGA_S) / approx - 1.0) < 0.01
    # occupation of exactly 1 when hbar w = kB T ln 2
    w = KB * 4.2 * math.log(2.0) / HBAR
    assert abs(thermal_occupation(4.2, w) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        thermal_occupation(-1.0, OMEGA_S)
    with pytest.raises(ValueError):
        thermal_occupation(4.2, 0.0)


def test_bath_params():
    b = BathParams(gamma_e=1e-5, gamma_s=1e-5, Tb=4.2, omega_b=OMEGA_S)
    assert abs(b.mean_occupation - M_DEFAULT) / M_DEFAULT < 1e-12
    with pytest.raises(ValueError):
        BathParams(gamma_e=-1.0)
    with pytest.raises(ValueError):
        _ = BathParams().mean_occupation  # omega_b unset


def test_quantum_state_validation():
    v = np.array([1.0, 0.0, 0.0, 0.0], complex)
    s = QuantumState.pure(v, (2, 2))
    assert s.is_pure and s.purity() == 1.0
    with pytest.raises(ValueError):
        QuantumState.pure(2 * v, (2, 2))
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    m = QuantumState.mixed(rho, (2, 2))
    assert not m.is_pure and abs(m.purity() - 0.5) < 1e-12
    with pytest.raises(ValueError):
        QuantumState.mixed(2 * rho, (2, 2))
    bad = rho.copy()
    bad[0, 1] = 1e-3
    with pytest.raises(ValueError):
        QuantumState.mixed(bad, (2, 2))


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)


def _random_setup(dim=8, seed=3):
    rng = np.random.default_rng(seed)
    h = hermitize(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return h, v / np.linalg.norm(v)


@pytest.mark.parametrize("method", ["rk4", "adaptive"])
def test_tdse_matches_spectral_propagator(method):
    """Constant-H evolution against the exact matrix exponential."""
    h, psi0 = _random_setup()
    t = 5.0
    state = QuantumState.pure(psi0, (2, 4))
    traj = evolve_tdse(state, StaticHamiltonian(h), t,
                       config=IntegratorConfig(method=method), sample_dt=t)
    exact = expm(-1j * h * t) @ psi0
    assert np.max(np.abs(traj.states[-1].data - exact)) < 1e-6


def test_tdse_eigenstate_populations_static(model):
    """An energy eigenstate only picks up a phase under its own Hamiltonian."""
    h = build_total(model, 0.42864)
    w, v = np.linalg.eigh(h)
    state = QuantumState.pure(v[:, 2], (model.de, model.ds))
    traj = evolve_tdse(state, StaticHamiltonian(h), 20.0, sample_dt=5.0)
    for st in traj.states:
        assert abs(abs(v[:, 2].conj() @ st.data) - 1.0) < 1e-8


def test_tdse_norm_drift_budget(model):
    """Norm preserved to 1e-8 over 1000 omega_s^-1 at the default step."""
    h = build_total(model, 0.42864)
    psi0 = np.zeros(model.dim, complex)
    psi0[model.ds] = 1.0  # |1e, 0s> in the product index ordering
    traj = evolve_tdse(QuantumState.pure(psi0, (model.de, model.ds)),
                       StaticHamiltonian(h), 1000.0, sample_dt=250.0)
    assert traj.max_norm_drift < 1e-8


def test_tdse_norm_abort():
    h = StaticHamiltonian(np.diag([0.0, 100.0]).astype(complex))
    state = QuantumState.pure(np.array([1.0, 1.0]) / math.sqrt(2), (1, 2))
    with pytest.raises(NormDriftError):
        evolve_tdse(state, h, 10.0, config=IntegratorConfig(dt=1.0), sample_dt=10.0)


def _lindblad_2x2(h, **kw):
    """Damped two-level run: one decay channel at gamma = 0.1."""
    baths = BathParams(gamma_e=0.1, gamma_s=0.0, omega_b=OMEGA_S)
    a = ladder(2)
    rho0 = QuantumState.mixed(np.full((2, 2), 0.5, complex), (1, 2))
    return evolve_lindblad(rho0, h, baths, (a, np.zeros_like(a)), **kw)


@pytest.mark.parametrize("equation", ["tdse", "lindblad step map", "lindblad stepping"])
def test_non_finite_state_aborts(equation):
    """A run that overflows to NaN raises instead of returning NaN states."""
    h = np.diag([0.0, 1e4]).astype(complex)
    kw = dict(t_end=100.0, config=IntegratorConfig(dt=1.0), sample_dt=100.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NormDriftError):
        if equation == "tdse":
            state = QuantumState.pure(np.array([1.0, 1.0]) / math.sqrt(2), (1, 2))
            evolve_tdse(state, StaticHamiltonian(h), **kw)
        elif equation == "lindblad step map":
            _lindblad_2x2(StaticHamiltonian(h), **kw)
        else:
            _lindblad_2x2(lambda t: h, **kw)


def _both_equations(model, equation, hamiltonian):
    """Evolve |1e,0s> for 20 omega_s^-1 under the TDSE or a damped master equation."""
    psi0 = np.zeros(model.dim, complex)
    psi0[model.ds] = 1.0
    state = QuantumState.pure(psi0, (model.de, model.ds))
    if equation == "tdse":
        return evolve_tdse(state, hamiltonian, 20.0, sample_dt=5.0)
    baths = BathParams(gamma_e=1e-3, gamma_s=1e-3, Tb=4.2, omega_b=OMEGA_S)
    rho0 = QuantumState.mixed(state.density(), state.dims)
    return evolve_lindblad(rho0, hamiltonian, baths, model.collapse_operators(), 20.0,
                           sample_dt=5.0)


def _max_deviation(traj_a, traj_b):
    np.testing.assert_array_equal(traj_a.times, traj_b.times)
    return max(np.max(np.abs(a.data - b.data)) for a, b in zip(traj_a.states, traj_b.states))


@pytest.mark.parametrize("equation", ["tdse", "lindblad"])
def test_step_map_matches_stepping(model, equation):
    """The cached RK4 step-map power equals RK4 step by step on a constant H."""
    h = build_total(model, 0.42864)
    mapped = _both_equations(model, equation, StaticHamiltonian(h))
    stepped = _both_equations(model, equation, lambda t: h)
    assert _max_deviation(mapped, stepped) < 1e-12


def test_tdse_sample_grid_and_breakpoints(model):
    drive = FluxDrive(t0=10.0, tr=4.0)
    ham = RampHamiltonian(model, drive)
    psi0 = np.zeros(model.dim, complex)
    psi0[model.ds] = 1.0
    traj = evolve_tdse(QuantumState.pure(psi0, (model.de, model.ds)), ham,
                       40.0, sample_dt=8.0)
    # output grid is exactly the requested one; breakpoints are internal only
    np.testing.assert_allclose(traj.times, [0, 8, 16, 24, 32, 40], atol=1e-12)


def test_rk4_adaptive_agree_through_ramp(model):
    drive = FluxDrive(t0=5.0, tr=3.0)
    ham = RampHamiltonian(model, drive)
    psi0 = np.zeros(model.dim, complex)
    psi0[model.ds] = 1.0
    state = QuantumState.pure(psi0, (model.de, model.ds))
    a = evolve_tdse(state, ham, 12.0, config=IntegratorConfig(method="rk4"),
                    sample_dt=12.0).states[-1].data
    b = evolve_tdse(state, ham, 12.0, config=IntegratorConfig(method="adaptive"),
                    sample_dt=12.0).states[-1].data
    assert abs(abs(a.conj() @ b) - 1.0) < 1e-6


@pytest.mark.parametrize("method", ["rk4", "adaptive"])
def test_lindblad_zero_damping_equals_tdse(model, method):
    """gamma = 0 reduces the master equation to unitary dynamics."""
    drive = FluxDrive(t0=15.0, tr=5.0)
    ham = RampHamiltonian(model, drive)
    psi0 = np.zeros(model.dim, complex)
    psi0[model.ds] = 1.0
    state = QuantumState.pure(psi0, (model.de, model.ds))
    cfg = IntegratorConfig(method=method)
    traj_u = evolve_tdse(state, ham, 40.0, config=cfg, sample_dt=10.0)
    baths = BathParams(gamma_e=0.0, gamma_s=0.0, omega_b=OMEGA_S)
    rho0 = QuantumState.mixed(state.density(), state.dims)
    traj_l = evolve_lindblad(rho0, ham, baths, model.collapse_operators(),
                             40.0, config=cfg, sample_dt=10.0)
    for su, sl in zip(traj_u.states, traj_l.states):
        assert np.max(np.abs(su.density() - sl.data)) < 1e-6


def test_lindblad_damped_relaxation_analytic():
    """Single damped mode: <n>(t) = M + (n0 - M) e^{-gamma t} within 1%."""
    d = 8
    a = ladder(d)
    n_op = a.conj().T @ a
    h = StaticHamiltonian(n_op.astype(complex))
    gamma = 0.1
    baths = BathParams(gamma_e=gamma, gamma_s=0.0, Tb=4.2, omega_b=OMEGA_S)
    m = baths.mean_occupation
    rho0 = np.zeros((d, d), complex)
    rho0[2, 2] = 1.0
    state = QuantumState.mixed(rho0, (1, d))
    zero = np.zeros_like(a)
    traj = evolve_lindblad(state, h, baths, (a, zero), 30.0, sample_dt=5.0)
    for st in traj.states[1:]:
        n_num = np.trace(n_op @ st.data).real
        n_exact = m + (2.0 - m) * math.exp(-gamma * st.t)
        assert abs(n_num - n_exact) / n_exact < 0.01


def test_lindblad_thermal_fixed_point():
    """A truncated thermal state of the damped mode is (nearly) stationary."""
    d = 8
    a = ladder(d)
    h = StaticHamiltonian((a.conj().T @ a).astype(complex))
    omega_b = KB * 4.2 * math.log(6.0) / HBAR   # makes M = 0.2 exactly
    baths = BathParams(gamma_e=0.3, gamma_s=0.0, Tb=4.2, omega_b=omega_b)
    assert abs(baths.mean_occupation - 0.2) < 1e-12
    beta_w = math.log(6.0)
    pops = np.exp(-beta_w * np.arange(d))
    rho0 = np.diag(pops / pops.sum()).astype(complex)
    state = QuantumState.mixed(rho0, (1, d))
    traj = evolve_lindblad(state, h, baths, (a, np.zeros_like(a)), 20.0,
                           sample_dt=10.0)
    assert np.max(np.abs(traj.states[-1].data - rho0)) < 1e-5


def test_lindblad_trace_and_positivity_reported(model):
    baths = BathParams(gamma_e=1e-4, gamma_s=1e-4, Tb=4.2, omega_b=OMEGA_S)
    psi0 = np.zeros(model.dim, complex)
    psi0[model.ds] = 1.0
    rho0 = QuantumState.mixed(np.outer(psi0, psi0.conj()), (model.de, model.ds))
    h = StaticHamiltonian(build_total(model, 0.42864))
    traj = evolve_lindblad(rho0, h, baths, model.collapse_operators(), 100.0,
                           sample_dt=25.0)
    assert traj.max_trace_drift < 1e-9
    assert traj.min_eigenvalue > -1e-10
    for st in traj.states:
        assert np.max(np.abs(st.data - st.data.conj().T)) < 1e-12


def test_integration_error_is_runtime_error():
    assert issubclass(NormDriftError, IntegrationError)
    assert issubclass(IntegrationError, RuntimeError)
