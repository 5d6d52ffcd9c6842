"""Integrator tests: TDSE and Lindblad against independent analytic oracles."""
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from squidring import dynamics
from squidring.circuit import (
    HBAR,
    KB,
    CircuitParams,
    FluxDrive,
    RampHamiltonian,
    build_total,
    ladder,
)
from squidring.dynamics import (
    SAMPLE_DT,
    BathParams,
    IntegrationError,
    IntegratorConfig,
    NormDriftError,
    QuantumState,
    evolve_lindblad,
    evolve_tdse,
    _knots,
    thermal_occupation,
)
from squidring.experiments import RampConfig, default_model, run_ramp
from squidring.linalg import PositivityError, hermitize
from squidring.observables import labeled_basis

from oracles import StaticHamiltonian, ivp_evolution

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
    # exp overflows past hbar w / kB T ~ 709.8, and 1/(e^x - 1) is ~1e-304 at 700
    assert thermal_occupation(0.01, OMEGA_S) == 0.0
    assert 0.0 < thermal_occupation(HBAR * OMEGA_S / (KB * 700.0), OMEGA_S) < 1e-300
    # hbar w / kB T underflows to 0: 1/(e^0 - 1) is not finite
    with pytest.raises(ValueError, match="not finite"):
        thermal_occupation(4.2, 1e-300)


def test_bath_params():
    b = BathParams(gamma_e=1e-5, gamma_s=1e-5, Tb=4.2, omega_b=OMEGA_S)
    assert abs(b.mean_occupation - M_DEFAULT) / M_DEFAULT < 1e-12
    with pytest.raises(ValueError):
        BathParams(gamma_e=-1.0)
    with pytest.raises(ValueError):
        _ = BathParams().mean_occupation  # omega_b unset


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["gamma_e", "gamma_s", "Tb", "omega_b"])
def test_bath_params_reject_non_finite_values(name, bad):
    """A NaN rate would otherwise be dropped from the collapse set, and the run
    would be lossless."""
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        BathParams(**{name: bad})


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["NaN", "+inf", "-inf"])
def test_quantum_state_rejects_non_finite_entries(bad):
    """A NaN entry fails the norm, trace and Hermiticity tests only as a NaN
    comparison, which is False, and an infinite coherence gives inf - inf;
    both constructors reject any non-finite entry outright."""
    for vector in ([bad, 0.0], [1.0, bad], [1.0, 1j * bad]):
        with pytest.raises(ValueError, match="non-finite"):
            QuantumState.pure(np.array(vector), (1, 2))
    for entry in ((0, 1), (1, 0), (0, 0)):
        rho = np.full((2, 2), 0.5, complex)
        rho[entry] = bad
        with pytest.raises(ValueError, match="non-finite"):
            QuantumState.mixed(rho, (1, 2))
    rho = np.full((2, 2), 0.5, complex)
    rho[0, 1] = rho[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        QuantumState.mixed(rho, (1, 2))


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)


def _random_setup(dim=8, seed=3):
    rng = np.random.default_rng(seed)
    h = hermitize(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return h, v / np.linalg.norm(v)


def test_tdse_matches_spectral_propagator():
    """Constant-H evolution against the exact matrix exponential."""
    h, psi0 = _random_setup()
    t = 5.0
    state = QuantumState.pure(psi0, (2, 4))
    traj = evolve_tdse(state, StaticHamiltonian(h), t, sample_dt=t)
    exact = expm(-1j * h * t) @ psi0
    assert np.max(np.abs(traj.data[-1] - exact)) < 1e-6


def test_tdse_eigenstate_populations_static(model):
    """An energy eigenstate only picks up a phase under its own Hamiltonian."""
    h = build_total(model, 0.42864)
    w, v = np.linalg.eigh(h)
    state = QuantumState.pure(v[:, 2], (model.de, model.ds))
    traj = evolve_tdse(state, StaticHamiltonian(h), 20.0, sample_dt=5.0)
    for psi in traj.data:
        assert abs(abs(v[:, 2].conj() @ psi) - 1.0) < 1e-8


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


def test_unstable_map_over_a_long_stretch_aborts_at_its_first_knot():
    """2,000 constant-flux knots of a map that grows the state about 4e6-fold per
    knot: the state overflows within the run, yet the abort names the first knot,
    as a check after every knot does, and no overflow warning escapes (the
    suite turns warnings into errors)."""
    h = StaticHamiltonian(np.diag([0.0, 100.0]).astype(complex))
    state = QuantumState.pure(np.array([1.0, 1.0]) / math.sqrt(2), (1, 2))
    with pytest.raises(NormDriftError, match=r"drift \S+ at t = 1\.000$"):
        evolve_tdse(state, h, 2000.0, config=IntegratorConfig(dt=1.0), sample_dt=1.0)


@pytest.mark.parametrize("t_end, sample_dt", [
    (2.0, SAMPLE_DT),          # ends before the state's time
    (math.nan, SAMPLE_DT),
    (math.inf, SAMPLE_DT),
    (10.0, 0.0),
    (10.0, -0.5),
    (10.0, math.nan),
    (10.0, math.inf),
])
@pytest.mark.parametrize("equation", ["tdse", "lindblad"])
def test_bad_end_or_sample_step_raises(equation, t_end, sample_dt):
    """A run that ends before it starts would label its initial state with t_end,
    and a zero sample step would divide by zero: both are refused."""
    state = QuantumState.pure(np.array([1.0, 0.0], complex), (1, 2), t=5.0)
    h = StaticHamiltonian(np.diag([0.0, 1.0]).astype(complex))
    with pytest.raises(ValueError, match="t_end must be|sample_dt must be"):
        if equation == "tdse":
            evolve_tdse(state, h, t_end, sample_dt=sample_dt)
        else:
            baths = BathParams(gamma_e=0.1, omega_b=OMEGA_S)
            a = ladder(2)
            evolve_lindblad(QuantumState.mixed(state.density(), state.dims, t=5.0), h, baths,
                            (a, np.zeros_like(a)), t_end, sample_dt=sample_dt)


def test_zero_length_run_returns_the_initial_sample():
    psi = np.array([0.6, 0.8j])
    traj = evolve_tdse(QuantumState.pure(psi, (1, 2), t=5.0),
                       StaticHamiltonian(np.diag([0.0, 1.0]).astype(complex)), 5.0)
    np.testing.assert_array_equal(traj.times, [5.0])
    np.testing.assert_array_equal(traj.data, [psi])


@pytest.mark.parametrize("t_end", [5.0, 10.0], ids=["zero length", "longer"])
@pytest.mark.parametrize("initial, error", [
    (np.array([math.nan, 0.0]), NormDriftError),
    (np.diag([1.2, -0.2]), PositivityError),
    (np.array([[0.5, math.nan], [math.nan, 0.5]]), PositivityError),
], ids=["NaN psi", "negative rho", "NaN coherence rho"])
def test_invalid_initial_state_raises_at_t_start(initial, error, t_end):
    """The initial state is checked as knot 0. The plain QuantumState
    constructor validates nothing (QuantumState.mixed would accept the
    non-positive rho of trace 1; .pure and .mixed reject the NaN entries), yet
    these states raise at t_start, for a zero-length run as for a longer one."""
    h = StaticHamiltonian(np.diag([0.0, 1.0]).astype(complex))
    state = QuantumState(initial.astype(complex), (1, 2), t=5.0)
    with pytest.raises(error, match=r"at t = 5\.000$"):
        if initial.ndim == 1:
            evolve_tdse(state, h, t_end)
        else:
            baths = BathParams(gamma_e=0.1, omega_b=OMEGA_S)
            a = ladder(2)
            evolve_lindblad(state, h, baths, (a, np.zeros_like(a)), t_end)


def test_slow_norm_drift_aborts_at_the_first_knot_beyond_the_threshold():
    """RK4 shrinks each component of psi by |R(-i theta)| per step, with
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 and theta = 0.095 (H - shift is
    diag(-0.095, 0.095), one step per knot), so the drift crosses 1e-6 well
    inside a 2,000-knot stretch. The abort names the first knot past it."""
    z = -0.095j
    gain = abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)
    drift = np.abs(gain ** np.arange(1, 2001) - 1.0)
    first = int(np.argmax(drift > 1e-6)) + 1
    assert 100 < first < 1000
    assert drift[first - 1] - 1e-6 > 1e-11 and 1e-6 - drift[first - 2] > 1e-11
    h = StaticHamiltonian(np.diag([0.0, 0.19]).astype(complex))
    state = QuantumState.pure(np.array([1.0, 1.0]) / math.sqrt(2), (1, 2))
    with pytest.raises(NormDriftError, match=rf"at t = {first}\.000$"):
        evolve_tdse(state, h, 2000.0, config=IntegratorConfig(dt=1.0), sample_dt=1.0)


def test_slow_trace_drift_aborts_at_the_first_knot_beyond_the_threshold():
    """H = diag(0, -i eps), not Hermitian, drains the upper level: RK4 scales
    rho_11 by R(-2 eps) per step (one step per knot), so the trace of
    rho0 = diag(1/2, 1/2) drifts by (1 - R^k)/2 and crosses 1e-6 well inside a
    2,000-knot stretch, about 3e-6 at its end. The abort names the first knot
    past 1e-6."""
    z = -2 * 1.5e-9
    gain = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    drift = 0.5 * (1.0 - gain ** np.arange(1, 2001))
    first = int(np.argmax(drift > 1e-6)) + 1
    assert 100 < first < 1000
    assert drift[first - 1] - 1e-6 > 1e-11 and 1e-6 - drift[first - 2] > 1e-11
    h = StaticHamiltonian(np.diag([0.0, -1.5e-9j]))
    rho0 = QuantumState.mixed(np.diag([0.5, 0.5]), (1, 2))
    baths = BathParams(omega_b=OMEGA_S)
    a = ladder(2)
    with pytest.raises(NormDriftError, match=rf"^Lindblad trace drift \S+ at t = {first}\.000$"):
        evolve_lindblad(rho0, h, baths, (a, np.zeros_like(a)), 2000.0,
                        config=IntegratorConfig(dt=1.0), sample_dt=1.0)


def test_positivity_abort_names_the_first_offending_sample():
    """At omega h = 2.84, beyond RK4's stability limit 2 sqrt(2) on the imaginary
    axis, the coherence of a damped two-level rho grows by about 3 % per step
    while the trace stays 1, so rho turns non-positive a few samples in. A
    plain per-sample RK4 loop, written here, finds the first sample below
    -1e-6; the integrator's stretch run must name the same one."""
    omega, gamma, dt = 2.84, 0.01, 1.0
    h = np.diag([0.0, omega]).astype(complex)
    baths = BathParams(gamma_e=gamma, omega_b=OMEGA_S)
    a = ladder(2)
    m = baths.mean_occupation
    cops = [math.sqrt(gamma * (m + 1)) * a, math.sqrt(gamma * m) * a.conj().T]

    def rhs(r):
        out = -1j * (h @ r - r @ h)
        for c in cops:
            cdc = c.conj().T @ c
            out += c @ r @ c.conj().T - 0.5 * (cdc @ r + r @ cdc)
        return out

    rho = np.array([[0.5, 0.4], [0.4, 0.5]], complex)
    rho0 = QuantumState.mixed(rho, (1, 2))
    lowest = []
    for _ in range(20):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        lowest.append(np.linalg.eigvalsh(rho).min())
    first = int(np.argmax(np.array(lowest) < -1e-6)) + 1
    assert 3 < first < 15 and lowest[first - 2] > 1e-4 and lowest[first - 1] < -1e-4
    with pytest.raises(PositivityError, match=rf"at t = {first}\.000$"):
        evolve_lindblad(rho0, StaticHamiltonian(h), baths, (a, np.zeros_like(a)), 20.0,
                        config=IntegratorConfig(dt=dt), sample_dt=dt)


def test_static_hamiltonian_wrapper():
    h = np.diag([1.0, 2.0]).astype(complex)
    sh = StaticHamiltonian(h)
    assert sh.static_on(0.0, 1e9)
    a, b = np.array([0.0, 5.0]), np.array([5.0, 1e9])
    np.testing.assert_array_equal(sh.static_on(a, b), [True, True])
    np.testing.assert_array_equal(StaticHamiltonian(h, frozen=False).static_on(a, b),
                                  [False, False])
    np.testing.assert_array_equal(sh(3.7), h)
    np.testing.assert_array_equal(sh(np.array([0.0, 1.0, 2.0])), [h, h, h])
    assert sh.breakpoints == ()


@pytest.mark.parametrize("equation", ["tdse", "lindblad"])
def test_plain_callable_is_not_a_hamiltonian(equation):
    """The integrators take one Hamiltonian interface (breakpoints, static_on,
    pieces and coefficients); a plain callable t -> H raises before any step
    is taken."""
    def h(t):
        return np.diag([0.0, 1.0]).astype(complex)

    with pytest.raises(AttributeError, match="breakpoints"):
        if equation == "tdse":
            evolve_tdse(QuantumState.pure(np.array([1.0, 0.0]), (1, 2)), h, 1.0)
        else:
            _lindblad_2x2(h, t_end=1.0)


def _lindblad_2x2(h, **kw):
    """Damped two-level run: one decay channel at gamma = 0.1."""
    baths = BathParams(gamma_e=0.1, gamma_s=0.0, omega_b=OMEGA_S)
    a = ladder(2)
    rho0 = QuantumState.mixed(np.full((2, 2), 0.5, complex), (1, 2))
    return evolve_lindblad(rho0, h, baths, (a, np.zeros_like(a)), **kw)


@pytest.mark.parametrize("equation", ["tdse", "tdse window", "lindblad step map",
                                      "lindblad stepping"])
def test_non_finite_state_aborts(equation):
    """A run that overflows to NaN raises instead of returning NaN states, and
    no overflow warning escapes on the way (the suite turns warnings into errors).
    An H that is never frozen makes every interval a window interval: the
    TDSE's per-step maps stay finite there, and psi overflows through their
    products."""
    h = np.diag([0.0, 1e4]).astype(complex)
    kw = dict(t_end=100.0, config=IntegratorConfig(dt=1.0), sample_dt=100.0)
    with pytest.raises(NormDriftError):
        if equation.startswith("tdse"):
            state = QuantumState.pure(np.array([1.0, 1.0]) / math.sqrt(2), (1, 2))
            evolve_tdse(state, StaticHamiltonian(h, frozen=equation == "tdse"), **kw)
        elif equation == "lindblad step map":
            _lindblad_2x2(StaticHamiltonian(h), **kw)
        else:
            _lindblad_2x2(StaticHamiltonian(h, frozen=False), **kw)


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
    return np.max(np.abs(traj_a.data - traj_b.data))


@pytest.mark.parametrize("equation", ["tdse", "lindblad"])
def test_step_map_matches_stepping(model, equation):
    """The cached RK4 step-map power equals RK4 step by step on a constant H."""
    h = build_total(model, 0.42864)
    mapped = _both_equations(model, equation, StaticHamiltonian(h))
    stepped = _both_equations(model, equation, StaticHamiltonian(h, frozen=False))
    assert _max_deviation(mapped, stepped) < 1e-12


@pytest.mark.parametrize("frozen", [True, False])
def test_integrators_read_only_the_four_interface_members(frozen):
    """A Hamiltonian with exactly `breakpoints`, `static_on`, `pieces` and
    `coefficients`, and no `__call__`, runs both integrators, frozen and
    through window knots, bit for bit as StaticHamiltonian does."""
    d = 3
    rng = np.random.default_rng(3)
    h = hermitize(rng.normal(size=(d, d, 2)) @ [1, 1j])
    bare = SimpleNamespace(breakpoints=(), pieces=h[None],
                           coefficients=lambda t: np.ones(np.shape(t) + (1,)),
                           static_on=lambda a, b: np.full(np.shape(a), frozen))
    assert not callable(bare)
    psi0 = QuantumState.pure(np.ones(d) / math.sqrt(d), (1, d))
    rho0 = QuantumState.mixed(psi0.density(), (1, d))
    baths = BathParams(gamma_e=0.1, gamma_s=0.0, omega_b=OMEGA_S)
    ops = (ladder(d), np.zeros((d, d)))

    def runs(ham):
        return (evolve_tdse(psi0, ham, 5.0, sample_dt=1.0),
                evolve_lindblad(rho0, ham, baths, ops, 5.0, sample_dt=1.0))

    for got, want in zip(runs(bare), runs(StaticHamiltonian(h, frozen=frozen))):
        np.testing.assert_array_equal(got.times, want.times)
        np.testing.assert_array_equal(got.data, want.data)


def test_tdse_sample_grid_and_breakpoints(model):
    drive = FluxDrive(t0=10.0, tr=4.0)
    ham = RampHamiltonian(model, drive)
    psi0 = np.zeros(model.dim, complex)
    psi0[model.ds] = 1.0
    traj = evolve_tdse(QuantumState.pure(psi0, (model.de, model.ds)), ham,
                       40.0, sample_dt=8.0)
    # output grid is exactly the requested one; breakpoints are internal only
    np.testing.assert_allclose(traj.times, [0, 8, 16, 24, 32, 40], atol=1e-12)


def _ramp_start(model):
    """A 3 omega_s^-1 ramp from t0 = 5 and the state |1e0s>."""
    ham = RampHamiltonian(model, FluxDrive(t0=5.0, tr=3.0))
    psi0 = np.zeros(model.dim, complex)
    psi0[model.ds] = 1.0
    return ham, QuantumState.pure(psi0, (model.de, model.ds))


def test_rk4_adaptive_agree_through_ramp(model):
    """Fixed-step RK4 through a ramp against the adaptive RK45 oracle."""
    ham, state = _ramp_start(model)
    a = evolve_tdse(state, ham, 12.0, sample_dt=12.0).data[-1]
    b = ivp_evolution(ham, state.data, 0.0, 12.0)
    assert abs(abs(a.conj() @ b) - 1.0) < 1e-6


def test_rk4_lindblad_matches_adaptive_oracle_through_ramp(model):
    """The damped master equation through a ramp against the adaptive RK45
    oracle, at a rate that takes the purity to 0.79. The window's first RK4
    stage takes the drive rate at t0, which is 0, so RK4 is first order there:
    4e-5 off at dt = 0.005 on this drive (2e-5 at dt/2). The bound allows for
    that; a dissipator 1 % too strong would be 1.1e-3 off."""
    ham, state = _ramp_start(model)
    baths = BathParams(gamma_e=1e-2, gamma_s=1e-2, omega_b=OMEGA_S)
    rho0 = QuantumState.mixed(state.density(), state.dims)
    a = evolve_lindblad(rho0, ham, baths, model.collapse_operators(), 12.0,
                        sample_dt=12.0).data[-1]
    b = ivp_evolution(ham, rho0.data, 0.0, 12.0,
                      cops=dynamics._collapse_set(baths, *model.collapse_operators()))
    assert np.trace(b @ b).real < 0.8
    assert np.max(np.abs(a - b)) < 1e-4


def test_sudden_ramp_conserves_the_total_flux():
    """The drive's sign from the physics alone, not from the code's own pieces:
    dPhis/dt = Qs/Cs - dPhix/dt, so across a ramp much shorter than 1/omega_s
    the total flux Phis + Phix holds and <a_s + a_s†> jumps by
    -2 pi (B - A)/lambda_s. From the labeled ground state at A on a 2 x 4 model,
    a 0.01 omega_s^-1 ramp gives +0.3315 against +0.3328; with the charge term
    negated it gives -0.3125."""
    model = default_model(de=2, ds=4)
    drive = FluxDrive(t0=0.5, tr=0.01)
    psi0 = QuantumState.pure(labeled_basis(model, drive.A).state(0, 0), (model.de, model.ds))
    traj = evolve_tdse(psi0, RampHamiltonian(model, drive), drive.t0 + drive.tr,
                       config=IntegratorConfig(dt=1e-4), sample_dt=drive.tr)
    x_s = np.kron(np.eye(model.de), model.ring.flux)
    before, after = (psi.conj() @ x_s @ psi for psi in traj.data[-2:])
    expected = -2 * math.pi * (drive.B - drive.A) / model.params.lambda_s
    assert traj.times[-2:].tolist() == [drive.t0, drive.t0 + drive.tr]
    assert abs((after - before).real / expected - 1) < 0.02


def test_lindblad_zero_damping_equals_tdse(model):
    """gamma = 0 reduces the master equation to unitary dynamics."""
    drive = FluxDrive(t0=15.0, tr=5.0)
    ham = RampHamiltonian(model, drive)
    psi0 = np.zeros(model.dim, complex)
    psi0[model.ds] = 1.0
    state = QuantumState.pure(psi0, (model.de, model.ds))
    traj_u = evolve_tdse(state, ham, 40.0, sample_dt=10.0)
    baths = BathParams(gamma_e=0.0, gamma_s=0.0, omega_b=OMEGA_S)
    rho0 = QuantumState.mixed(state.density(), state.dims)
    traj_l = evolve_lindblad(rho0, ham, baths, model.collapse_operators(),
                             40.0, sample_dt=10.0)
    for psi, rho in zip(traj_u.data, traj_l.data):
        assert np.max(np.abs(np.outer(psi, psi.conj()) - rho)) < 1e-6


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
    for t, rho in zip(traj.times[1:], traj.data[1:]):
        n_num = np.trace(n_op @ rho).real
        n_exact = m + (2.0 - m) * math.exp(-gamma * t)
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
    assert np.max(np.abs(traj.data[-1] - rho0)) < 1e-5


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
    for rho in traj.data:
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_damped_ramp_emits_exactly_hermitian_states(model):
    """_Master.settle hermitizes every stepped rho, so every emitted density
    matrix of a short damped ramp is Hermitian to the bit; without it the
    anti-Hermitian part of rounding builds up over the steps."""
    baths = BathParams(gamma_e=1e-4, gamma_s=1e-4)
    traj = run_ramp(RampConfig(t0=5.0, tr=1.0, t_end=12.0), model, baths=baths).trajectory
    assert traj.data.ndim == 3 and len(traj.data) == 25
    assert np.max(np.abs(traj.data - traj.data.conj().mT)) == 0


def test_integration_error_is_runtime_error():
    assert issubclass(NormDriftError, IntegrationError)
    assert issubclass(IntegrationError, RuntimeError)


def _knots_by_set(t_start, t_end, sample_dt, breakpoints):
    """The knots and sample flags as they were built before the flags were
    vectorised: one Python round and set lookup per knot."""
    n = max(1, int(round((t_end - t_start) / sample_dt)))
    samples = np.linspace(t_start, t_end, n + 1)
    extra = [b for b in breakpoints if t_start < b < t_end]
    knots = np.unique(np.concatenate([samples, np.asarray(extra)]))
    sample_set = set(np.round(samples, 12))
    return knots, np.array([round(k, 12) in sample_set for k in knots])


NEAR_SAMPLES = (3.0 + 1e-13, 4.5 - 1e-13)
ROUNDED_SUMS = (0.1 + 0.2 + 1.0, 1.7 - 4e-14)  # the first is the sample 1.3 bit for bit
# Breakpoints near a sample but not on it. The set construction flags them as
# samples too, so that sample time was emitted twice; they are knots only.
OFF_SAMPLES = {NEAR_SAMPLES: NEAR_SAMPLES, ROUNDED_SUMS: (1.7 - 4e-14,)}


@pytest.mark.parametrize("t_start, t_end, sample_dt, breakpoints", [
    (0.0, 978.0, SAMPLE_DT, FluxDrive().breakpoints),                        # default ramp
    (0.0, 978.0, SAMPLE_DT, FluxDrive(B=0.372687, tr=16.946).breakpoints),   # seed-1 drive
    (0.0, 10.0, 0.5, (3.0, 4.5)),                                            # on samples
    (0.0, 10.0, 0.5, NEAR_SAMPLES),                                          # 1e-13 off them
    (1.0, 4.0, 0.1, ROUNDED_SUMS),                                           # rounded sums
    (0.0, 10.0, 10.0, (0.0, 10.0)),                                          # on the ends
])
def test_knot_flags_match_the_set_construction(t_start, t_end, sample_dt, breakpoints):
    knots, flags = _knots(t_start, t_end, sample_dt, breakpoints)
    want_knots, want_flags = _knots_by_set(t_start, t_end, sample_dt, breakpoints)
    if breakpoints in OFF_SAMPLES:
        want_flags = want_flags & ~np.isin(want_knots, OFF_SAMPLES[breakpoints])
    np.testing.assert_array_equal(knots, want_knots)
    np.testing.assert_array_equal(flags, want_flags)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 50.0), st.floats(0.05, 50.0), st.floats(0.01, 5.0),
       st.lists(st.floats(-10.0, 110.0), max_size=4))
def test_knot_flags_are_exactly_the_samples(t_start, span, sample_dt, breakpoints):
    """Whatever the breakpoints, the flagged knots are the n + 1 grid samples,
    bit for bit and in order, and every knot is a sample or a breakpoint."""
    t_end = t_start + span
    knots, flags = _knots(t_start, t_end, sample_dt, breakpoints)
    n = max(1, int(round((t_end - t_start) / sample_dt)))
    np.testing.assert_array_equal(knots[flags], np.linspace(t_start, t_end, n + 1))
    assert set(knots[~flags].tolist()) <= set(breakpoints)
    assert np.all(np.diff(knots) > 0)


def test_ramp_near_a_sample_emits_each_sample_once(model):
    """A ramp starting 1e-13 after a sample time gives the same 21 records as one
    starting on it, with no time emitted twice."""
    for t0 in (3.0, 3.0 + 1e-13):
        t = run_ramp(RampConfig(t0=t0, tr=1.5, t_end=10.0), model).records["t"]
        np.testing.assert_array_equal(t, np.linspace(0.0, 10.0, 21))


def test_ramp_evaluates_h_per_stretch_and_window_knot(model, monkeypatch):
    """A default-length ramp takes H's coefficients once per pass: on a (1, 3)
    array for each frozen pass (the stage times of its first interval as one
    RK4 step, of which K at the midpoint is used), and on the (knots, 2n + 1)
    array of their RK4 stage times for each pass of ramp-window knots: a pass
    holds the knots of equal step count and span, so the 33 full sample
    intervals of the window make one and the short last one another. The
    frozen passes are the stretch before t0, and after t0 + tr the short
    interval to the next sample and the rest, each with its own K. It never
    takes the coefficients once per knot or RK4 step, and never calls H
    itself. It asks `static_on` once, on the arrays of all knot intervals, and
    builds one step map per frozen pass (one n = 1 call of `_rk4_maps` on a
    constant K). Each window knot builds its maps in one more call."""
    calls, h_calls, static_calls, step_maps = [], [], [], []
    real_coefficients, real_static_on = RampHamiltonian.coefficients, RampHamiltonian.static_on
    real_maps = dynamics._rk4_maps

    def counted(self, t):
        calls.append(np.shape(t))
        return real_coefficients(self, t)

    def counted_static_on(self, a, b):
        static_calls.append((np.shape(a), np.shape(b)))
        return real_static_on(self, a, b)

    def counted_maps(k1, k2, k4, h, out):
        step_maps.append((len(k1), k1 is k2 is k4))
        return real_maps(k1, k2, k4, h, out)

    monkeypatch.setattr(RampHamiltonian, "coefficients", counted)
    monkeypatch.setattr(RampHamiltonian, "__call__", lambda self, t: h_calls.append(t))
    monkeypatch.setattr(RampHamiltonian, "static_on", counted_static_on)
    monkeypatch.setattr(dynamics, "_rk4_maps", counted_maps)
    drive, t_end, dt = FluxDrive(), 3 * FluxDrive.t0, IntegratorConfig.dt
    ham = RampHamiltonian(model, drive)
    psi0 = np.zeros(model.dim, complex)
    psi0[model.ds] = 1.0
    evolve_tdse(QuantumState.pure(psi0, (model.de, model.ds)), ham, t_end)

    knots, is_sample = _knots(0.0, t_end, SAMPLE_DT, drive.breakpoints)
    assert static_calls == [((len(knots) - 1,), (len(knots) - 1,))]
    frozen_maps = [n for n, constant in step_maps if constant]
    assert frozen_maps == [1, 1, 1]
    window = [(a, b) for a, b in zip(knots[:-1], knots[1:]) if not ham.static_on(a, b)]
    assert len(window) == 34
    assert len(step_maps) == 3 + len(window)
    assert h_calls == []
    steps = [max(1, math.ceil((b - a) / dt)) for a, b in window]
    assert {b - a for a, b in window[:-1]} == {0.5} and set(steps[:-1]) == {100} != {steps[-1]}
    assert is_sample[(knots >= window[0][0]) & (knots < window[-1][1])].all()
    assert calls == [(1, 3), (len(window) - 1, 2 * steps[0] + 1), (1, 2 * steps[-1] + 1),
                     (1, 3), (1, 3)]


def _staged_rk4(ks, h, y, apply=np.matmul):
    """Textbook RK4 for dy/dt = apply(K(t), y), with K at the stage times a,
    a + h/2 (for stages 2 and 3) and a + h of each step: ks[2s], ks[2s + 1],
    ks[2s + 2]."""
    for s in range(0, len(ks) - 1, 2):
        s1 = apply(ks[s], y)
        s2 = apply(ks[s + 1], y + 0.5 * h * s1)
        s3 = apply(ks[s + 1], y + 0.5 * h * s2)
        s4 = apply(ks[s + 2], y + h * s3)
        y = y + (h / 6) * (s1 + 2 * s2 + 2 * s3 + s4)
    return y


def _k_thirds(ks):
    """The K1, K2 and K4 stacks (step starts, middles, ends) of stage stack ks."""
    return ks[0:-1:2], ks[1::2], ks[2::2]


def _random_stack(rng, n, d):
    """A random complex (2n + 1, d, d) stage stack whose K1, K2 and K4 all differ."""
    return 3 * (rng.normal(size=(2 * n + 1, d, d)) + 1j * rng.normal(size=(2 * n + 1, d, d)))


@pytest.mark.parametrize("d", [16, dynamics.WINDOW_MAP_MAX_DIM])
@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_tdse_window_maps_equal_staged_rk4(n, d):
    """The window core's n per-step maps for psi, applied in order, equal the
    staged RK4 loop within 1e-13 relative, on a random K stack: in fresh map
    buffers and in buffers that an earlier knot of the pass filled. Neither
    the stack nor psi is written to."""
    rng = np.random.default_rng(n)
    h, eq = 0.005, dynamics._Schrodinger(d)
    ks = _random_stack(rng, n, d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    want = _staged_rk4(ks, h, psi)
    used = np.empty((3, n, d, d), complex)
    dynamics._window(eq, *_k_thirds(_random_stack(rng, n, d)), h, psi, used)
    ks_before, psi_before = ks.copy(), psi.copy()
    for out in (np.empty((3, n, d, d), complex), used):
        got = dynamics._window(eq, *_k_thirds(ks), h, psi, out)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    np.testing.assert_array_equal(ks, ks_before)
    np.testing.assert_array_equal(psi, psi_before)


def test_tdse_window_above_map_dim_runs_the_stage_loop():
    """Above WINDOW_MAP_MAX_DIM, where the O(d^3) maps cost more than the stage
    loop, psi's window knot is the stage loop, bit for bit, although the
    window core is handed map buffers."""
    rng = np.random.default_rng(5)
    d, n, h = dynamics.WINDOW_MAP_MAX_DIM + 1, 7, 0.005
    ks = _random_stack(rng, n, d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    got = dynamics._window(dynamics._Schrodinger(d), *_k_thirds(ks), h, psi,
                           np.empty((3, n, d, d), complex))
    np.testing.assert_array_equal(got, _staged_rk4(ks, h, psi))


def test_window_runs_the_stage_loop_for_a_small_rho():
    """rho's window knot is the stage loop, then hermitized, bit for bit, even
    at d = 2, whose 4 entries are fewer than WINDOW_MAP_MAX_DIM, and although
    the window core is handed map buffers: the path follows the state's shape,
    not its size."""
    rng = np.random.default_rng(6)
    n, h = 7, 0.005
    ks, eq = _random_stack(rng, n, 2), dynamics._Master([ladder(2)], 2)
    rho = np.array([[0.75, 0.25j], [-0.25j, 0.25]])
    got = dynamics._window(eq, *_k_thirds(ks), h, rho, np.empty((3, n, 2, 2), complex))
    np.testing.assert_array_equal(got, hermitize(_staged_rk4(ks, h, rho, eq.apply)))


def test_tdse_default_ramp_peak_memory(model):
    """The default ramp's TDSE peaks below 8 MiB of traced memory (4.2 MiB
    measured): the window's per-step maps are built one knot at a time into
    reused buffers, never for all 3,321 window steps at once (13.6 MiB per
    (3321, 16, 16) complex stack)."""
    cfg = RampConfig()
    ham = RampHamiltonian(model, cfg)
    psi0 = np.zeros(model.dim, complex)
    psi0[model.ds] = 1.0
    state = QuantumState.pure(psi0, (model.de, model.ds))
    tracemalloc.start()
    try:
        evolve_tdse(state, ham, cfg.resolved_t_end)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
