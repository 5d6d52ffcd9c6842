"""Property tests over random small systems: the shared integrator core, the
closed-form static time average, the batched static and records passes, the
twin symmetry of the static sweep and of the flux ramp and the convergence of
the ring truncation."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from squidring import dynamics
from squidring.circuit import (
    DEFAULT_CS,
    DEFAULT_LAMBDA_S,
    HBAR,
    KB,
    CircuitParams,
    ConvergenceError,
    FluxDrive,
    RampHamiltonian,
    build_total,
    ladder,
    truncate_to_eigenbasis,
)
from squidring.dynamics import (
    BathParams,
    IntegratorConfig,
    QuantumState,
    Trajectory,
    _knots,
    evolve_lindblad,
    evolve_tdse,
)
from squidring.experiments import (
    RampConfig,
    StaticAverages,
    default_model,
    run_ramp,
)
from squidring.linalg import PositivityError, hermitize
from squidring.observables import (
    RECORD_COLUMNS,
    closed_form_time_average,
    labeled_basis,
    record_columns,
    time_averaged_energy,
)

from oracles import (
    StaticHamiltonian,
    basis_probabilities,
    bell_fidelity,
    entanglement_indices,
    rk4_taylor_map,
    static_averages,
)

T_END = 2.0
PROPERTY_SETTINGS = settings(max_examples=15, deadline=None)


@st.composite
def systems(draw):
    """(H, psi0, a_s): random Hermitian H of dimension 2-6 with |entries| <= 1,
    a normalized state and a second collapse operator of norm <= 1."""
    d = draw(st.integers(2, 6))
    unit = st.floats(-1.0, 1.0)
    re, im, c_re, c_im = (draw(arrays(float, (d, d), elements=unit)) for _ in range(4))
    v = draw(arrays(float, 2 * d, elements=unit))
    psi0 = v[:d] + 1j * v[d:]
    if np.linalg.norm(psi0) < 0.1:
        psi0 = np.eye(d)[0].astype(complex)
    a_s = c_re + 1j * c_im
    a_s /= max(1.0, np.linalg.norm(a_s, 2))
    return hermitize(re + 1j * im), psi0 / np.linalg.norm(psi0), a_s


@PROPERTY_SETTINGS
@given(systems(), st.floats(0.01, 0.5), st.floats(0.01, 0.5), st.floats(0.01, 1.0),
       st.booleans())
def test_master_equation_keeps_trace_and_positivity(system, gamma_e, gamma_s, m, static):
    h, psi0, a_s = system
    d = len(psi0)
    omega_b = KB * 4.2 * math.log1p(1.0 / m) / HBAR  # thermal occupation m at 4.2 K
    baths = BathParams(gamma_e=gamma_e, gamma_s=gamma_s, Tb=4.2, omega_b=omega_b)
    rho0 = QuantumState.mixed(np.outer(psi0, psi0.conj()), (1, d))
    ham = StaticHamiltonian(h, frozen=static)
    traj = evolve_lindblad(rho0, ham, baths, (ladder(d), a_s), T_END, sample_dt=0.5)
    assert traj.max_trace_drift < 1e-10
    assert traj.min_eigenvalue > -1e-10


@PROPERTY_SETTINGS
@given(systems(), st.booleans())
def test_undamped_master_equation_is_tdse(system, static):
    h, psi0, _ = system
    d = len(psi0)
    state = QuantumState.pure(psi0, (1, d))
    ham = StaticHamiltonian(h, frozen=static)
    off = BathParams(gamma_e=0.0, gamma_s=0.0, omega_b=CircuitParams().omega_s)
    pure = evolve_tdse(state, ham, T_END, sample_dt=0.5)
    mixed = evolve_lindblad(QuantumState.mixed(state.density(), state.dims), ham, off,
                            (ladder(d), np.zeros((d, d))), T_END, sample_dt=0.5)
    for psi, rho in zip(pure.data, mixed.data):
        assert np.max(np.abs(np.outer(psi, psi.conj()) - rho)) < 1e-6


@PROPERTY_SETTINGS
@given(systems())
def test_static_tdse_is_matrix_exponential(system):
    h, psi0, _ = system
    traj = evolve_tdse(QuantumState.pure(psi0, (1, len(psi0))), StaticHamiltonian(h),
                       T_END, sample_dt=0.5)
    for t, psi in zip(traj.times, traj.data):
        assert np.max(np.abs(psi - expm(-1j * h * t) @ psi0)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 64), st.floats(0.0, 0.05), st.integers(0, 2**32 - 1))
def test_rk4_maps_on_a_constant_generator_are_the_taylor_polynomial(d, h, seed):
    """On K1 = K2 = K4 = K, the one map the builder makes (every frozen pass's
    step map) is the degree-4 Taylor polynomial of exp(h K) within 1e-13
    relative, for random complex K with |h K| up to about 3."""
    k = 3 * np.random.default_rng(seed).normal(size=(1, d, d, 2)) @ [1, 1j]
    got = dynamics._rk4_maps(k, k, k, h, np.empty((3, 1, d, d), complex))
    want = rk4_taylor_map(k[0], h)
    assert got.shape == (1, d, d)
    assert np.linalg.norm(got[0] - want) <= 1e-13 * np.linalg.norm(want)


POWER_ROW_COUNTS = sorted({1, 2, 3} | {2**k + e for k in range(2, 8) for e in (-1, 0, 1)})


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(POWER_ROW_COUNTS), st.integers(0, 2**32 - 1))
def test_power_rows_are_the_per_knot_chain(count, seed):
    """A frozen pass's rows by doubling, rows[k] = M^(k + 1) y, equal the
    per-knot chain y_k = M y_(k-1) within 1e-13 relative (8.7e-15 seen), for
    random near-unitary 16 x 16 maps M and 1, 2, 3, 2^k and 2^k +- 1 rows."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(16, 16, 2)) @ [1, 1j])[0]
    m = q * (1 + 1e-3 * rng.normal(size=16))  # columns scaled off unit length
    y = rng.normal(size=(16, 2)) @ [1, 1j]
    rows = np.empty((count, 16), complex)
    dynamics._power_rows(m, y, rows)
    want = np.empty_like(rows)
    for k in range(count):
        y = want[k] = m @ y
    err = np.linalg.norm(rows - want, axis=1)
    assert (err <= 1e-13 * np.linalg.norm(want, axis=1)).all()


@settings(max_examples=25, deadline=None)
@given(st.floats(0.36, 0.40), st.floats(0.2, 20.0), st.floats(0.0, 400.0),
       st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4), st.integers(1, 8),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_k_stacks_are_the_generator_at_each_stage_time(model, b, tr, t0, spans, n,
                                                        dense_k_fix, seed):
    """The window's K builder on random drives, over window intervals from t0
    to t0 + tr: every K of its K1, K2 and K4 views, at the step starts
    a + j h, the midpoints a + (j + 1/2) h and the step ends (the last one b
    itself), equals -1j (H(t) - shift I) + k_fix within 1e-14 relative, with
    H = RampHamiltonian.__call__ at that stage time, shift its mean diagonal
    at a + n h / 2, and k_fix zero or a random dense matrix."""
    ham = RampHamiltonian(model, FluxDrive(B=b, t0=t0, tr=tr))
    rng = np.random.default_rng(seed)
    d = model.dim
    k_fix = rng.normal(size=(d, d, 2)) @ [1, 1j] if dense_k_fix else np.zeros((d, d), complex)
    knots = t0 + tr * np.cumsum([0.0] + spans) / sum(spans)
    knots[-1] = t0 + tr
    a, b = knots[:-1], knots[1:]
    for k, (shift, k1, k2, k4) in enumerate(dynamics._k_stacks(ham, k_fix, a, b, n)):
        h = (b[k] - a[k]) / n
        starts = a[k] + h * np.arange(n + 1)
        starts[-1] = b[k]
        h_mid = ham(a[k] + 0.5 * n * h)
        assert abs(shift - np.trace(h_mid).real / d) <= 1e-14 * np.abs(h_mid).max()
        for ks, stage in ((k1, starts[:-1]), (k2, a[k] + h * (np.arange(n) + 0.5)),
                          (k4, starts[1:])):
            want = -1j * (ham(stage) - shift * np.eye(d)) + k_fix
            assert ks.shape == want.shape
            for got_k, want_k in zip(ks, want):
                assert np.linalg.norm(got_k - want_k) <= 1e-14 * np.linalg.norm(want_k)


def _scalar_schedule(drive, t):
    """FluxDrive's documented schedule at one time, in plain Python."""
    if t <= drive.t0:
        return drive.A, 0.0
    if t <= drive.t0 + drive.tr:
        return drive.A + (drive.B - drive.A) * (t - drive.t0) / drive.tr, \
            (drive.B - drive.A) / drive.tr
    return drive.B, 0.0


@settings(max_examples=60, deadline=None)
@given(st.floats(0.3, 0.7), st.floats(0.3, 0.7), st.floats(0.0, 500.0),
       st.floats(0.01, 30.0), st.lists(st.floats(-10.0, 600.0), max_size=20))
def test_flux_drive_on_arrays_is_the_scalar_schedule(a, b, t0, tr, times):
    """value and rate on an array of times equal the one-time calls, and the
    documented piecewise schedule, elementwise and bit for bit: at random times,
    at both breakpoints and one ulp either side of them. One time gives a 0-d
    array."""
    drive = FluxDrive(A=a, B=b, t0=t0, tr=tr)
    edges = [t0, t0 + tr]
    ts = np.array(times + edges + [np.nextafter(e, s) for e in edges for s in (-1, 1)])
    values, rates = drive.value(ts), drive.rate(ts)
    assert values.shape == rates.shape == ts.shape
    for t, value, rate in zip(ts.tolist(), values.tolist(), rates.tolist()):
        one = drive.value(t), drive.rate(t)
        assert all(isinstance(x, np.ndarray) and x.shape == () for x in one)
        assert (value, rate) == one == _scalar_schedule(drive, t)
    assert drive.rate(t0) == 0.0


def _reference_evolution(apply, settle, k_fix, y, hamiltonian, t_start, t_end, sample_dt, dt):
    """The fixed-step integrator written with one scalar H call per RK4 stage and
    an accumulated time t += h, on every knot interval (the same knots and the
    same mean-diagonal shift, taken at each interval's midpoint). The rate jumps
    at the breakpoints, so an interval on which the drive is frozen takes its
    midpoint H at every stage (its end t0 + tr belongs to the ramp), and an
    interval's last stage is its end b itself (a t that rounds past b = t0 + tr
    would take the rate after the ramp). Returns the samples, TDSE states with
    the shift's phase restored."""
    knots, is_sample = _knots(t_start, t_end, sample_dt, hamiltonian.breakpoints)
    eye = np.eye(y.shape[0])
    phase, out = 0.0, [y]
    for a, b, sample in zip(knots[:-1], knots[1:], is_sample[1:]):
        span = b - a
        n = max(1, math.ceil(span / dt))
        h = span / n
        h_mid = hamiltonian(0.5 * (a + b))
        shift = np.trace(h_mid).real / len(eye)
        k_const = k_fix + 1j * shift * eye
        frozen = hamiltonian.static_on(a, b)
        t = a
        for step in range(n):
            end = t + h if step < n - 1 else b
            k0, k1, k2 = (-1j * (h_mid if frozen else hamiltonian(s)) + k_const
                          for s in (t, t + 0.5 * h, end))
            s1 = apply(k0, y)
            s2 = apply(k1, y + 0.5 * h * s1)
            s3 = apply(k1, y + 0.5 * h * s2)
            s4 = apply(k2, y + h * s3)
            y = y + (h / 6) * (s1 + 2 * s2 + 2 * s3 + s4)
            t += h
        phase += shift * span
        y = settle(y)
        if sample:
            out.append(np.exp(-1j * phase) * y if y.ndim == 1 else y)
    return np.array(out)


@pytest.mark.parametrize("equation", ["tdse", "lindblad"])
@settings(max_examples=8, deadline=None)
@given(st.floats(0.40, 0.45), st.floats(0.36, 0.40), st.floats(0.2, 2.0),
       st.integers(1, 3), st.one_of(st.just(0.0), st.floats(0.01, 0.49)))
@example(a=0.42864, b=0.38, tr=0.3, t0_samples=2, offset=0.1)  # t0, t0 + tr in (1.0, 1.5)
def test_ramp_window_matches_per_step_rk4(model, equation, a, b, tr, t0_samples, offset):
    """Through a random ramp, whose start t0 lies on the sample grid or off it,
    the integrator (one stacked H per window knot, one step map per frozen
    pass) stays within 1e-12 of per-step RK4 with scalar H calls. Both
    breakpoints may fall inside one sample interval; then both knots, neither
    a sample, pass through the same output row."""
    t0 = t0_samples * 0.5 + offset
    drive = FluxDrive(A=a, B=b, t0=t0, tr=tr)
    ham = RampHamiltonian(model, drive)
    t_end = t0 + tr + 1.0
    psi0 = np.zeros(model.dim, complex)
    psi0[model.ds] = 1.0
    state = QuantumState.pure(psi0, (model.de, model.ds))
    dt = IntegratorConfig.dt
    if equation == "tdse":
        traj = evolve_tdse(state, ham, t_end, sample_dt=0.5)
        want = _reference_evolution(lambda k, v: k @ v, lambda v: v, 0.0, psi0, ham,
                                    0.0, t_end, 0.5, dt)
    else:
        gammas, ops = (1e-3, 2e-3), model.collapse_operators()
        baths = BathParams(*gammas, Tb=4.2, omega_b=10 * KB * 4.2 / HBAR)
        traj = evolve_lindblad(QuantumState.mixed(state.density(), state.dims), ham, baths,
                               ops, t_end, sample_dt=0.5)
        m = baths.mean_occupation
        c = np.array([math.sqrt(g * (m + 1)) * op for g, op in zip(gammas, ops)]
                     + [math.sqrt(g * m) * op.conj().T for g, op in zip(gammas, ops)])
        c_dag = c.conj().transpose(0, 2, 1)

        def apply(k, rho):
            return k @ rho + rho @ k.conj().T + (c @ rho @ c_dag).sum(axis=0)

        want = _reference_evolution(apply, hermitize, -0.5 * (c_dag @ c).sum(axis=0),
                                    state.density(), ham, 0.0, t_end, 0.5, dt)
    assert traj.data.shape == want.shape
    assert np.max(np.abs(traj.data - want)) < 1e-12


@st.composite
def spectra(draw, real=False):
    """(energies, U, observable, psi0) for H = U diag(energies) U† of dimension
    2-6 whose spectrum is generic, exactly degenerate or nearly degenerate; with
    real, U, the observable and psi0 are real, as in the static sweep."""
    d = draw(st.integers(2, 6))
    unit = st.floats(-1.0, 1.0)
    energies = 3 * draw(arrays(float, d, elements=unit))
    kind = draw(st.sampled_from(["generic", "degenerate", "near-degenerate"]))
    if kind == "degenerate":
        energies[1] = energies[0]
    elif kind == "near-degenerate":
        energies[1] = energies[0] + draw(st.floats(1e-9, 1e-3))
    re, im, o_re, o_im = (draw(arrays(float, (d, d), elements=unit)) for _ in range(4))
    v = draw(arrays(float, 2 * d, elements=unit))
    u, obs, psi0 = re, o_re, v[:d]
    if not real:
        u, obs, psi0 = re + 1j * im, o_re + 1j * o_im, psi0 + 1j * v[d:]
    u, _ = np.linalg.qr(u)
    if np.linalg.norm(psi0) < 0.1:
        psi0 = np.eye(d)[0]
    return energies, u, hermitize(obs), psi0 / np.linalg.norm(psi0)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.floats(1.0, 100.0), st.floats(0.01, 0.25))
@pytest.mark.parametrize("parity, real", [(0, False), (1, False), (0, True), (1, True)],
                         ids=["0", "1", "0-real", "1-real"])
def test_closed_form_average_is_sampled_trapezoid(parity, real, data, tau, sample_dt):
    """The closed-form time average and its flag equal time_averaged_energy on
    E(t) sampled over the grid, for odd and even sample counts, with complex
    Hermitian amplitudes and with the real symmetric ones of the static sweep,
    which take only the cosine part of the phase sums."""
    energies, u, obs, psi0 = data.draw(spectra(real))
    nt = max(3, int(round(tau / sample_dt)) + 1)
    nt += (nt - parity) % 2
    ts = np.linspace(0.0, tau, nt)
    c = u.conj().T @ psi0
    psi_t = u @ (np.exp(-1j * np.outer(energies, ts)) * c[:, None])
    sampled = np.sum(psi_t.conj() * (obs @ psi_t), axis=0).real
    amplitudes = c.conj()[:, None] * (u.conj().T @ obs @ u) * c
    assert np.iscomplexobj(amplitudes) != real

    avg, flag = closed_form_time_average(ts, energies, amplitudes)
    want, want_flag = time_averaged_energy(ts, sampled)
    assert abs(avg - want) < 1e-12
    # the flag compares |avg - avg_half| with CONVERGENCE_REL_TOL * |avg|; where the two lie
    # within round-off of each other the decision is round-off, not a property
    k = np.searchsorted(ts, tau / 2, side="right")
    want_half, _ = time_averaged_energy(ts[:k], sampled[:k])
    if abs(abs(want - want_half) - 0.01 * max(abs(want), 1e-30)) > 1e-12:
        assert flag == want_flag


@settings(max_examples=12, deadline=None)
@given(st.floats(0.8, 1.2), st.floats(0.8, 1.2), st.floats(0.005, 0.02),
       st.lists(st.floats(0.30, 0.70), min_size=1, max_size=8))
def test_static_averages_twin_symmetry(cs_scale, lambda_scale, mu_es, fluxes):
    """Parity (-1)^n on the ring's Fock basis keeps cos_phi and the harmonic part
    and flips sin_phi, and sin 2 pi phi is the only drive coefficient that flips
    at 1 - phi, so H_s(1 - phi) = parity H_s(phi) parity; with parity on the field
    too, the coupling and |1e,0s> are kept. Over circuits around the defaults the
    averages at phi and 1 - phi therefore agree, and so do the convergence flags
    wherever |avg - avg_half| / |avg| is not within round-off of CONVERGENCE_REL_TOL
    (0.01)."""
    params = CircuitParams(Cs=cs_scale * DEFAULT_CS, Lambda_s=lambda_scale * DEFAULT_LAMBDA_S,
                           mu_es=mu_es)
    grid = dict(tau=2000.0, sample_dt=0.25, de=4, ds=4, pre_dim=40)
    phi = np.array(fluxes)
    left = static_averages(params, phi, **grid)
    right = static_averages(params, 1.0 - phi, **grid)
    for got, want in zip(left[:2], right[:2]):
        assert np.max(np.abs(got - want)) < 1e-11
    # the first half of the 2000 omega_s^-1 grid is the 1000 omega_s^-1 grid
    half = static_averages(params, phi, **{**grid, "tau": 1000.0})
    for avg, avg_half, flag, twin_flag in zip(left[:2], half[:2], left[2:], right[2:]):
        spread = np.abs(avg - avg_half) / np.abs(avg)
        clear = np.abs(spread - 0.01) > 1e-9
        assert np.array_equal(flag[clear], (spread < 0.01)[clear])
        assert np.array_equal(flag[clear], twin_flag[clear])


@settings(max_examples=12, deadline=None)
@given(st.floats(0.8, 1.2), st.floats(0.8, 1.2), st.floats(0.005, 0.02),
       st.lists(st.floats(0.30, 0.70), min_size=1, max_size=8))
def test_static_averages_assemble_build_total(cs_scale, lambda_scale, mu_es, fluxes):
    """In the ring's eigenbasis at phi, H = He (x) I + I (x) diag(w_s) -
    kappa x_e (x) V^T flux V. Over circuits around the defaults the H that
    StaticAverages hands to its 16 x 16 eigh equals build_total on the model
    truncated at phi within 1e-12; both take the same ring eigh, so the
    eigenvector signs agree."""
    params = CircuitParams(Cs=cs_scale * DEFAULT_CS, Lambda_s=lambda_scale * DEFAULT_LAMBDA_S,
                           mu_es=mu_es)
    static = StaticAverages(params, 200.0, 0.25, 4, 4, 40)
    handed = []
    real_eigh = np.linalg.eigh

    def eigh(a):
        if a.shape[-1] == 16:
            handed.append(a.copy())
        return real_eigh(a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigh", eigh)
        static._spectrum(np.array(fluxes))
    (h,) = handed
    assert h.shape == (len(fluxes), 16, 16)
    for got, phi in zip(h, fluxes):
        model = truncate_to_eigenbasis(params, ring_ref_flux=phi)
        assert np.max(np.abs(got - build_total(model, phi))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(2, 6), st.integers(0, 2**32 - 1),
       st.floats(1.0, 100.0), st.floats(0.01, 0.25))
def test_closed_form_average_stack_is_per_matrix(blocks, d, seed, tau, sample_dt):
    """On a stack of spectra, each shared by two amplitude matrices as in the
    static sweep, the averages and flags equal the per-matrix calls bit for bit;
    every other spectrum has an exactly degenerate pair."""
    rng = np.random.default_rng(seed)
    energies = rng.uniform(-3.0, 3.0, (blocks, 1, d))
    energies[::2, 0, 1] = energies[::2, 0, 0]
    amplitudes = hermitize(rng.normal(size=(blocks, 2, d, d))
                           + 1j * rng.normal(size=(blocks, 2, d, d)))
    ts = np.linspace(0.0, tau, max(3, int(round(tau / sample_dt)) + 1))
    avg, flag = closed_form_time_average(ts, energies, amplitudes)
    assert avg.shape == flag.shape == (blocks, 2)
    for b in range(blocks):
        for j in range(2):
            assert (avg[b, j], flag[b, j]) == closed_form_time_average(
                ts, energies[b, 0], amplitudes[b, j])


@st.composite
def flux_blocks(draw):
    """1-12 fluxes in [0.30, 0.70], some of them followed by their twin 1 - phi."""
    fluxes = []
    for _ in range(draw(st.integers(1, 12))):
        fluxes.append(draw(st.floats(0.30, 0.70)))
        if draw(st.booleans()):
            fluxes.append(1.0 - fluxes[-1])
    return np.array(fluxes[:12])


@settings(max_examples=10, deadline=None)
@given(flux_blocks(), st.floats(0.008, 0.012))
def test_static_averages_stack_is_per_point(fluxes, mu_es):
    """The batched static pass over an array of fluxes has the bits of the
    single-flux calls, so blocking the sweep cannot move it, and stays within
    1e-12 of the per-point construction: a TruncatedModel at each flux, the
    total H's eigenbasis and the scalar closed-form average."""
    params = CircuitParams(mu_es=mu_es)
    grid = dict(tau=2000.0, sample_dt=0.25, de=4, ds=4, pre_dim=40)
    stacked = static_averages(params, fluxes, **grid)
    single = [static_averages(params, phi, **grid) for phi in fluxes]
    for got, want in zip(stacked, zip(*single)):
        assert np.array_equal(got, want)

    ts = np.linspace(0.0, 2000.0, 8001)
    for phi, (avg_e, avg_s, _, _) in zip(fluxes, single):
        model = truncate_to_eigenbasis(params, ring_ref_flux=phi)
        w, v = np.linalg.eigh(build_total(model, phi))
        c = v[1 * 4 + 0].conj()  # |1e, 0s> in the eigenbasis
        for op, got in ((np.kron(model.field_h, np.eye(4)), avg_e),
                        (np.kron(np.eye(4), model.ring_hamiltonian(phi)), avg_s)):
            amplitudes = c.conj()[:, None] * (v.conj().T @ op @ v) * c
            assert abs(got - closed_form_time_average(ts, w, amplitudes)[0]) < 1e-12


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(0.30, 0.70), min_size=1, max_size=4), st.floats(0.008, 0.012))
def test_field_average_is_the_static_average(fluxes, mu_es):
    """The refinement's <<He>>-only path has the bits of the full static pass's
    <<He>> at every flux, also when a flux is asked for again."""
    params = CircuitParams(mu_es=mu_es)
    grid = dict(tau=2000.0, sample_dt=0.25, de=4, ds=4, pre_dim=40)
    static = StaticAverages(params, **grid)
    for phi in fluxes + fluxes[:1]:
        assert static.field_average(phi).hex() == static_averages(params, phi, **grid)[0].hex()


@st.composite
def state_stacks(draw):
    """(trajectory, drive, label_mode): up to 8 random pure or mixed states of the
    4 x 4 product space, |psi|^2 within 1e-6 of 1, at times before, inside and
    after a random flux ramp, so the labeling fluxes are random too."""
    drive = FluxDrive(A=draw(st.floats(0.3, 0.7)), B=draw(st.floats(0.3, 0.7)),
                      t0=draw(st.floats(1.0, 5.0)), tr=draw(st.floats(0.5, 3.0)))
    n = draw(st.integers(1, 8))
    times = np.sort(draw(arrays(float, n, elements=st.floats(0.0, drive.t0 + drive.tr + 2.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(n, 16, 16)) + 1j * rng.normal(size=(n, 16, 16))
    if draw(st.booleans()):
        psi = g[:, :, 0] / np.linalg.norm(g[:, :, 0], axis=1, keepdims=True)
        norm2 = 1.0 + draw(arrays(float, n, elements=st.floats(-1e-6, 1e-6)))
        data = psi * np.sqrt(norm2)[:, None]
    else:
        g = g[:, :, :draw(st.integers(1, 16))]  # rank 1 to 16
        data = g @ g.conj().mT
        data /= np.trace(data, axis1=1, axis2=2)[:, None, None]
    label_mode = draw(st.sampled_from(["instantaneous", "frozen"]))
    return Trajectory(times, (4, 4), data), drive, label_mode


@settings(max_examples=40, deadline=None)
@given(state_stacks())
def test_record_columns_are_the_per_state_definitions(model, stack):
    """Every column of the batched records pass equals the per-state definition
    of its sample within 1e-12."""
    traj, drive, label_mode = stack
    rec = record_columns(traj, model, drive, label_mode)
    he = np.kron(model.field_h, np.eye(4))
    for k, t in enumerate(traj.times):
        state = QuantumState(traj.data[k], traj.dims, t)
        if label_mode == "frozen" or t <= drive.t0:
            label_flux = drive.A
        elif t >= drive.t0 + drive.tr:
            label_flux = drive.B
        else:
            label_flux = drive.value(t)
        basis = labeled_basis(model, label_flux)
        probs = basis_probabilities(state, basis)
        i_e, i_s = entanglement_indices(state)
        hs = np.kron(np.eye(4), model.ring_hamiltonian(drive.value(t)))
        if state.is_pure:
            e_e, e_s = ((state.data.conj() @ op @ state.data).real for op in (he, hs))
        else:
            e_e, e_s = (np.trace(op @ state.data).real for op in (he, hs))
        want = {"t": t, "P_10": probs[1, 0], "P_01": probs[0, 1], "I_e": i_e, "I_s": i_s,
                "ent_mag": -0.5 * (i_e + i_s), "E_e": e_e, "E_s": e_s,
                "purity": state.purity(), "fidelity": bell_fidelity(state, basis)}
        for name in RECORD_COLUMNS:
            assert abs(rec[name][k] - want[name]) < 1e-12, (name, k)


def test_record_columns_reject_a_negative_density_matrix(model):
    """A mixed stack with one eigenvalue below -1e-8 raises PositivityError."""
    u, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(16, 16)) + 0j)
    good = u @ np.diag(np.full(16, 1 / 16)) @ u.conj().T
    bad = u @ np.diag(np.r_[1.0 + 2e-8, -2e-8, np.zeros(14)]) @ u.conj().T
    traj = Trajectory(np.array([0.0, 1.0, 2.0]), (4, 4), np.array([good, bad, good]))
    with pytest.raises(PositivityError):
        record_columns(traj, model, FluxDrive())


@settings(max_examples=30, deadline=None)
@given(st.floats(0.30, 0.70), st.floats(0.30, 0.70), st.floats(0.0, 500.0),
       st.floats(1e-3, 50.0), arrays(float, 8, elements=st.floats(-10.0, 600.0)))
def test_ramp_config_is_the_drive_it_runs(a, b, t0, tr, t):
    """The ramp block is a FluxDrive: its value, rate and breakpoints are those of
    FluxDrive(A, B, t0, tr) bit for bit, on arrays of times, at one time and on
    the breakpoints themselves."""
    cfg = RampConfig(A=a, B=b, t0=t0, tr=tr, t_end=t0 + tr + 1.0)
    drive = FluxDrive(A=a, B=b, t0=t0, tr=tr)
    assert cfg.breakpoints == drive.breakpoints
    for times in (t, t[0], *drive.breakpoints):
        for name in ("value", "rate"):
            got, want = getattr(cfg, name)(times), getattr(drive, name)(times)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=3, deadline=None)
@given(st.floats(2.0, 8.0), st.floats(0.37, 0.40))
def test_ramp_twin_symmetry(t0, b):
    """The ramp from A to B and its mirror from 1 - A to 1 - B, each with the ring
    truncated at its start flux, give the same records."""
    cfg = RampConfig(B=b, t0=t0, t_end=t0 + RampConfig.tr + 2.0)
    mirror = replace(cfg, A=1.0 - cfg.A, B=1.0 - cfg.B)
    left = run_ramp(cfg, default_model(ref_flux=cfg.A)).records
    right = run_ramp(mirror, default_model(ref_flux=mirror.A)).records
    for name in RECORD_COLUMNS:
        assert np.max(np.abs(left[name] - right[name])) < 1e-10, name


@settings(max_examples=15, deadline=None)
@given(st.floats(0.8, 1.25), st.floats(0.005, 0.02), st.floats(0.30, 0.70))
def test_truncation_converges_over_circuits(cs_scale, mu_es, phi):
    """Over ring capacitances, couplings and fluxes around the defaults the 40-state
    Fock basis passes the doubled-basis check, and the four lowest ring energies
    move by less than TRUNCATION_TOL (1e-6) from 40 to 80 states."""
    params = CircuitParams(Cs=cs_scale * DEFAULT_CS, mu_es=mu_es)
    model = truncate_to_eigenbasis(params, ring_ref_flux=phi, pre_dim=40)
    doubled = truncate_to_eigenbasis(params, ring_ref_flux=phi, pre_dim=80)
    assert np.max(np.abs(model.ring_energies - doubled.ring_energies)) < 1e-6


def test_small_fock_basis_fails_the_convergence_check():
    """At the defaults 8 to 16 Fock states move the retained ring energies by
    1.3e-2 to 3.8e-5 when doubled, so the check rejects every one of them."""
    for pre_dim in range(8, 17):
        with pytest.raises(ConvergenceError):
            truncate_to_eigenbasis(CircuitParams(), pre_dim=pre_dim)
