"""Pipeline tests: sweep, ramp, dissipative ramp.

The heavy default runs come from session fixtures in conftest; tests here
only add short bespoke runs.
"""
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

import squidring as sq
from squidring import circuit, experiments, observables
from squidring.circuit import CircuitParams, build_he, build_total
from squidring.dynamics import IntegrationError, QuantumState, evolve_tdse
from squidring.experiments import (
    StaticAverages,
    _detect_regions,
    _fminbound,
    _zeroin,
)
from squidring.observables import labeled_basis, time_averaged_energy

from oracles import StaticHamiltonian, complex_sweep, static_averages

BIAS = 0.42864

# half-exchange time of |1e,0s> <-> |0e,1s> at the bias point, from an
# independent spectral-evolution script
CROSSING_TIME = 317.4


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        sq.SweepConfig(phi_min=0.7, phi_max=0.3)
    with pytest.raises(ValueError):
        sq.SweepConfig(points=1)
    grid = sq.SweepConfig(phi_min=0.4, phi_max=0.5, points=11).grid
    np.testing.assert_allclose(grid, np.linspace(0.4, 0.5, 11), atol=1e-15)


@pytest.mark.parametrize("gammas", [(1e-5, 1e-5), (1e-5, 1.0000001e-5), (0.0, -0.0)])
def test_bath_rates_that_print_alike_rejected(gammas):
    """Each rate names its output file and summary entry by format(gamma, "g"),
    so two rates alike to 6 significant digits would overwrite each other."""
    with pytest.raises(ValueError, match="bath.gammas"):
        sq.BathConfig(gammas=gammas)


def test_ramp_config_validation():
    with pytest.raises(ValueError):
        sq.RampConfig(t_end=100.0)  # ends before the default ramp finishes
    with pytest.raises(ValueError):
        sq.RampConfig(label_mode="rotating")
    assert sq.RampConfig().resolved_t_end == 3 * 326.0


def test_static_point_off_resonance():
    """Away from resonance the field keeps its quantum on time average."""
    avg_e, avg_s, conv_e, _ = static_averages(
        CircuitParams(), 0.33, tau=2000.0, sample_dt=0.25,
        de=4, ds=4, pre_dim=40,
    )
    assert abs(avg_e - 1.5) < 0.02
    assert conv_e


@pytest.mark.parametrize("phi", [BIAS, 0.33])
def test_static_averages_match_time_grid(phi):
    """The sweep's closed-form averages and flags equal time_averaged_energy on
    energies sampled along the evolved state, on resonance and off it."""
    tau, dt = 2000.0, 0.25
    got = static_averages(CircuitParams(), phi, tau=tau, sample_dt=dt,
                          de=4, ds=4, pre_dim=40)
    model = sq.truncate_to_eigenbasis(CircuitParams(), ring_ref_flux=phi,
                                      check_convergence=False)
    w, v = np.linalg.eigh(build_total(model, phi))
    psi0 = np.zeros(16, complex)
    psi0[1 * 4 + 0] = 1.0
    ts = np.linspace(0.0, tau, 8001)
    psi_t = v @ (np.exp(-1j * np.outer(w, ts)) * (v.conj().T @ psi0)[:, None])
    want = []
    for op in (np.kron(build_he(4, model.groups), np.eye(4)),
               np.kron(np.eye(4), model.ring_hamiltonian(phi))):
        energies = np.sum(psi_t.conj() * (op @ psi_t), axis=0).real
        want.append(time_averaged_energy(ts, energies))
    (avg_e, conv_e), (avg_s, conv_s) = want
    assert abs(got[0] - avg_e) < 1e-12
    assert abs(got[1] - avg_s) < 1e-12
    assert got[2:] == (conv_e, conv_s)


def test_static_point_matches_integrator():
    """Cross-validation of the sweep's spectral evolution against the RK4
    integrator on the same static Hamiltonian."""
    phi = 0.43
    tau, dt = 200.0, 0.25
    model = sq.truncate_to_eigenbasis(CircuitParams(), ring_ref_flux=phi,
                                      check_convergence=False)
    avg_e, _, _, _ = static_averages(
        CircuitParams(), phi, tau=tau, sample_dt=dt,
        de=4, ds=4, pre_dim=40,
    )
    h = build_total(model, phi)
    basis = labeled_basis(model, phi)
    state = QuantumState.pure(basis.state(1, 0), (4, 4))
    traj = evolve_tdse(state, StaticHamiltonian(h), tau, sample_dt=dt)
    he = np.kron(build_he(4, model.groups), np.eye(4))
    e_e = np.array([(psi.conj() @ he @ psi).real for psi in traj.data])
    avg_num = np.trapezoid(e_e, traj.times) / tau
    assert abs(avg_num - avg_e) < 1e-6


def test_sweep_slice_detects_resonance():
    cfg = sq.SweepConfig(phi_min=0.41, phi_max=0.45, points=21)
    result = sq.run_sweep(cfg)
    assert len(result.records["phi_x"]) == 21
    assert all(result.records["converged"])
    assert result.baseline == pytest.approx(1.5)
    assert len(result.regions) == 1
    region = result.regions[0]
    assert abs(region.center - BIAS) < 0.002
    assert region.depth > 0.4
    assert 0.0 < region.width < 0.01


def test_sweep_unrefined_center_on_grid():
    cfg = sq.SweepConfig(phi_min=0.41, phi_max=0.45, points=21, refine=False)
    result = sq.run_sweep(cfg)
    assert len(result.regions) == 1
    assert result.regions[0].center in cfg.grid


def test_find_crossing_time(model):
    t = sq.find_crossing_time(model, BIAS, t_max=600.0)
    assert abs(t - CROSSING_TIME) < 0.5
    with pytest.raises(RuntimeError):
        sq.find_crossing_time(model, 0.33, t_max=50.0)


def test_ramp_initial_state_and_grid(ramp_result):
    recs = ramp_result.records
    assert recs["t"][0] == 0.0
    assert abs(recs["P_10"][0] - 1.0) < 1e-10
    assert abs(recs["ent_mag"][0]) < 1e-10
    dts = np.diff(recs["t"])
    np.testing.assert_allclose(dts, 0.5, atol=1e-9)
    assert recs["t"][-1] == pytest.approx(978.0)
    assert ramp_result.trajectory.max_norm_drift < 1e-8


def test_ramp_plateau_summary(ramp_result):
    plat = ramp_result.plateau
    for key in ("P_10_mean", "P_01_mean", "ent_mag_mean", "purity_mean",
                "fidelity_mean", "P_10_drift", "window_start"):
        assert key in plat
    assert plat["window_start"] == pytest.approx(652.0)
    assert plat["purity_mean"] == pytest.approx(1.0)


def test_ramp_probabilities_remain_normalized(ramp_result):
    p10, p01 = ramp_result.records["P_10"], ramp_result.records["P_01"]
    assert np.all((0.0 <= p10) & (p10 <= 1.0) & (0.0 <= p01) & (p01 <= 1.0))
    assert np.all(p10 + p01 <= 1.0 + 1e-9)


def test_label_mode_changes_labels_not_entanglement(model):
    cfg = dict(t0=20.0, tr=5.0, t_end=70.0)
    inst = sq.run_ramp(sq.RampConfig(**cfg), model, sample_dt=5.0)
    froz = sq.run_ramp(sq.RampConfig(label_mode="frozen", **cfg), model, sample_dt=5.0)
    rec_i, rec_f = inst.records, froz.records
    # the entanglement index is basis independent, the labels are not
    assert abs(rec_i["ent_mag"][-1] - rec_f["ent_mag"][-1]) < 1e-10
    assert abs(rec_i["P_10"][-1] - rec_f["P_10"][-1]) > 1e-4


@pytest.mark.parametrize("baths", [None, sq.BathParams(gamma_e=1e-3, gamma_s=1e-3)])
@pytest.mark.parametrize("signs, tol", [(True, 1e-12), (False, 1e-11)])
def test_ramp_records_ignore_eigenvector_phases(model, monkeypatch, signs, baths, tol):
    """eigh fixes each eigenvector only up to a phase, a sign in real arithmetic.
    Rephasing the truncated ring basis (its operators become D† A D, its
    transform t D) and each eigenvector that eigh returns while the ramp runs
    (the labels at A, at B and in the window, a new draw per call) leaves a
    short ramp's records, lossless and damped, unchanged: within 1e-12 with
    random signs (sign flips are exact), and within 1e-11 with random complex
    phases, whose complex products round H differently by about 1e-16
    (measured up to 1.3e-12 after 60 omega_s^-1)."""
    rng = np.random.default_rng(3)

    def draw(shape):
        if signs:
            return rng.choice([-1.0, 1.0], size=shape)
        return np.exp(2j * np.pi * rng.random(shape))

    cfg = sq.RampConfig(t0=20.0, tr=5.0, t_end=60.0)
    want = sq.run_ramp(cfg, model, sample_dt=1.0, baths=baths).records
    d = np.diag(draw(model.ds))
    rephased = replace(model, ring=model.ring.transformed(d),
                       ring_transform=model.ring_transform @ d)
    real_eigh = np.linalg.eigh

    def eigh(a):
        w, v = real_eigh(a)
        return w, v * draw(v.shape[:-2] + (1, v.shape[-1]))

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    got = sq.run_ramp(cfg, rephased, sample_dt=1.0, baths=baths).records
    for name in observables.RECORD_COLUMNS:
        assert np.max(np.abs(got[name] - want[name])) < tol, name


def test_auto_t0_reaches_plateau(model):
    cfg = sq.RampConfig(t_end=400.0, auto_t0=True)
    result = sq.run_ramp(cfg, model, sample_dt=2.0)
    rec = result.records
    assert 0.4 < rec["P_10"][-1] < 0.6
    assert rec["ent_mag"][-1] > 0.6


def test_dissipative_results_structure(dissipative_results):
    assert set(dissipative_results) == {1e-5, 1e-4}
    weak, strong = dissipative_results[1e-5], dissipative_results[1e-4]
    assert weak.plateau["t_ent_below_half"] is None
    assert strong.plateau["t_ent_below_half"] is not None
    assert strong.plateau["purity_mean"] < weak.plateau["purity_mean"]
    assert weak.trajectory.max_trace_drift < 1e-8
    assert strong.trajectory.max_trace_drift < 1e-8
    assert weak.trajectory.min_eigenvalue > -1e-8


@st.composite
def smooth_problems(draw):
    """(f, lo, hi): c0 + c1 x + c2 x^2 + amp sin(w x + phase) on a random
    interval; half the draws put a zero of f inside the interval, and some
    round f to 0.1 or 0.01 steps, whose flat stretches make ties."""
    coef = st.floats(-2.0, 2.0)
    c0, c1, c2, amp = (draw(coef) for _ in range(4))
    w = draw(st.floats(0.1, 10.0))
    phase = draw(st.floats(-math.pi, math.pi))
    lo = draw(st.floats(-3.0, 3.0))
    hi = lo + draw(st.floats(1e-3, 3.0))
    digits = draw(st.sampled_from([None, 1, 2]))

    def f(x):
        value = float(c0 + c1 * x + c2 * x * x + amp * math.sin(w * x + phase))
        return value if digits is None else round(value, digits)

    if draw(st.booleans()):
        c0 -= f(lo + draw(st.floats(0.0, 1.0)) * (hi - lo))
    return f, lo, hi


@settings(max_examples=200, deadline=None)
@given(smooth_problems())
def test_fminbound_is_scipy_bounded_minimizer(problem):
    """The ported Brent minimiser returns scipy's x and f(x) bit for bit."""
    f, lo, hi = problem
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-5})
    x, fx = _fminbound(f, lo, hi)
    assert x == res.x and fx == res.fun


def _underflowing(x):
    """Values near 1e-300: zeroin's interpolation denominators underflow to 0."""
    return -2.5e-300 + 1e-300 * x + 1e-300 * math.sin(2.0 * x)


@settings(max_examples=200, deadline=None)
@given(smooth_problems())
@example((_underflowing, 2.0, 4.0))
def test_zeroin_is_scipy_brentq(problem):
    """The ported Brent root finder returns scipy's root bit for bit, and
    raises ValueError exactly where brentq finds no sign change."""
    f, lo, hi = problem
    try:
        root = brentq(f, lo, hi, xtol=1e-5)
    except ValueError:
        with pytest.raises(ValueError, match="different signs"):
            _zeroin(f, lo, hi)
    else:
        assert _zeroin(f, lo, hi) == root


def test_sweep_is_blocked_without_per_point_models(monkeypatch):
    """The default grid is evaluated in blocks of SWEEP_BLOCK fluxes, with no
    TruncatedModel per point, and its traced peak stays below the size of one
    unblocked (201, 40, 40) float64 ring stack."""
    def per_point_model(*args, **kwargs):
        raise AssertionError("the sweep built a per-point model")

    monkeypatch.setattr(experiments, "truncate_to_eigenbasis", per_point_model)
    cfg = sq.SweepConfig(refine=False)
    tracemalloc.start()
    try:
        result = experiments.run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.records["phi_x"]) == cfg.points == 201
    assert peak < cfg.points * 40 * 40 * np.dtype(float).itemsize


def test_default_sweep_regions_are_pinned(full_sweep):
    """The default sweep's refined twin regions, bit for bit as the sweep gives
    them in real arithmetic; test_sweep_matches_complex_arithmetic holds them
    to the complex-arithmetic refinement."""
    assert [(r.center.hex(), r.width.hex(), r.depth.hex()) for r in full_sweep.regions] == [
        ("0x1.b6edca90c05c7p-2", "0x1.78aefac859200p-11", "0x1.0b96ded0df99fp-1"),
        ("0x1.24891ab79fd2cp-1", "0x1.78aefac85a800p-11", "0x1.0b96ded0df43cp-1"),
    ]


def test_sweep_matches_complex_arithmetic(full_sweep):
    """The real-arithmetic default sweep against the same sweep with complex
    static pieces, every grid flux solved directly and the regions refined on
    the complex evaluator: both energy columns and every region's centre, width
    and depth agree within 1e-12, and the convergence flags are equal."""
    avg_e, avg_s, converged, regions = complex_sweep(sq.SweepConfig())
    records = full_sweep.records
    assert np.max(np.abs(records["avg_E_e"] - avg_e)) < 1e-12
    assert np.max(np.abs(records["avg_E_s"] - avg_s)) < 1e-12
    assert np.array_equal(records["converged"], converged)
    assert len(full_sweep.regions) == len(regions) == 2
    for got, want in zip(full_sweep.regions, regions):
        for name in ("center", "width", "depth"):
            assert abs(getattr(got, name) - getattr(want, name)) < 1e-12, name


def test_static_sweep_runs_in_float64(monkeypatch):
    """The sweep's static pieces are real, so both stacks StaticAverages hands
    to eigh, the ring projected onto each flux's eigenstates and the amplitudes
    are float64, on the grid path and on the refinement path."""
    static = StaticAverages(CircuitParams(), 200.0, 0.25, 4, 4, 40)
    assert static.pieces.dtype == static.h_e.dtype == np.float64
    solved = []
    real_eigh = np.linalg.eigh

    def eigh(a):
        solved.append((a.shape, a.dtype))
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    ring, w, v = static._spectrum(np.array([0.3, 0.42864, 0.5]))
    assert {op.dtype for op in vars(ring).values()} == {np.dtype(float)}
    assert circuit.drive_terms(ring, static.groups, 4).dtype == np.float64
    assert w.dtype == v.dtype == static._amplitudes(v, static.h_e).dtype == np.float64
    static.averages(np.array([0.3, 0.42864]))
    static.field_average(0.43)
    assert solved == [((3, 40, 40), float), ((3, 16, 16), float), ((2, 40, 40), float),
                      ((2, 16, 16), float), ((1, 40, 40), float), ((1, 16, 16), float)]


def test_refinement_solves_each_flux_once(monkeypatch):
    """The default sweep builds the pre_dim ring pieces once, asks for <<He>> at 54
    fluxes while refining but solves the 50 distinct ones once each, and takes
    two trapezoid phase sums per grid block but one per refined flux; the grid
    is symmetric about 1/2, so its blocks cover the 101 fluxes up to 0.5 only."""
    counts = Counter()
    fluxes = []

    def counted(name, fn, record=lambda *args: True):
        def wrapper(*args):
            if record(*args):
                counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(observables, "_trapezoid_phase_sums",
                        counted("phase sums", observables._trapezoid_phase_sums))
    pre_dim_ring = counted("pre_dim ring pieces", circuit.ring_pieces,
                           lambda ops, groups: ops.flux.shape[-1] == 40)
    monkeypatch.setattr(circuit, "ring_pieces", pre_dim_ring)
    monkeypatch.setattr(experiments, "ring_pieces", pre_dim_ring)
    monkeypatch.setattr(experiments, "closed_form_average",
                        counted("<<He>> solves", experiments.closed_form_average))
    real_field = StaticAverages.field_average

    def field_average(self, phi):
        fluxes.append(phi)
        return real_field(self, phi)

    monkeypatch.setattr(StaticAverages, "field_average", field_average)
    experiments.run_sweep(sq.SweepConfig())
    assert (len(fluxes), len(set(fluxes))) == (54, 50)
    assert counts == {"<<He>> solves": 50, "phase sums": 2 * 13 + 50,  # 101 fluxes, blocks of 8
                      "pre_dim ring pieces": 1}


def _solved_fluxes(monkeypatch, cfg):
    """The fluxes run_sweep(cfg) passes to StaticAverages.averages, in order."""
    fluxes = []
    real_averages = StaticAverages.averages

    def averages(self, phi):
        fluxes.extend(phi)
        return real_averages(self, phi)

    monkeypatch.setattr(StaticAverages, "averages", averages)
    experiments.run_sweep(cfg)
    return np.array(fluxes)


def test_symmetric_grid_solves_its_lower_half(monkeypatch):
    """The default grid is symmetric about 1/2, so the fluxes up to 0.5 are
    solved and the twins above are mirrored; a grid ending at 0.69 has no
    twins, so all of its fluxes are solved."""
    cfg = sq.SweepConfig(refine=False)
    assert np.array_equal(_solved_fluxes(monkeypatch, cfg), cfg.grid[:101])
    cfg = replace(cfg, phi_max=0.69)
    assert np.array_equal(_solved_fluxes(monkeypatch, cfg), cfg.grid)


def test_mirrored_sweep_is_the_full_static_pass(full_sweep):
    """The mirrored default sweep equals the static pass over all 201 fluxes
    within 1e-12, with the same convergence flags."""
    records = full_sweep.records
    avg_e, avg_s, conv_e, conv_s = static_averages(
        CircuitParams(), records["phi_x"], tau=2000.0, sample_dt=0.25, de=4, ds=4, pre_dim=40)
    assert np.max(np.abs(records["avg_E_e"] - avg_e)) < 1e-12
    assert np.max(np.abs(records["avg_E_s"] - avg_s)) < 1e-12
    assert np.array_equal(records["converged"], conv_e & conv_s)


def _poison(monkeypatch, poisoned):
    """Make the evaluator's spectrum NaN at every flux where poisoned(phi) holds."""
    real_spectrum = StaticAverages._spectrum

    def spectrum(self, phi):
        ring, w, v = real_spectrum(self, phi)
        w = np.where(poisoned(phi)[:, None], np.nan, w)
        return ring, w, v

    monkeypatch.setattr(StaticAverages, "_spectrum", spectrum)


def test_non_finite_grid_average_raises(monkeypatch):
    cfg = sq.SweepConfig(phi_min=0.41, phi_max=0.45, points=21, refine=False)
    _poison(monkeypatch, lambda phi: phi == cfg.grid[7])
    with pytest.raises(IntegrationError, match="non-finite static time average"):
        experiments.run_sweep(cfg)


def test_non_finite_average_on_a_symmetric_grid_raises(monkeypatch):
    """A NaN at a solved flux of a grid symmetric about 1/2 still fails the
    sweep, naming that flux, and is not hidden by the mirror."""
    cfg = sq.SweepConfig(phi_min=0.40, phi_max=0.60, points=21, refine=False)
    bad = cfg.grid[3]
    _poison(monkeypatch, lambda phi: phi == bad)
    with pytest.raises(IntegrationError, match=f"non-finite static time average at "
                                               f"phi_x = {bad:.17g} Phi0"):
        experiments.run_sweep(cfg)


def test_non_finite_refinement_average_raises(monkeypatch):
    """A NaN <<He>> at a refinement step is not a missed bracket or a failed
    comparison: the sweep fails instead of reporting a region of depth nan."""
    cfg = sq.SweepConfig(phi_min=0.41, phi_max=0.45, points=21)
    _poison(monkeypatch, lambda phi: ~np.isin(phi, cfg.grid))
    # the grid alone never meets the poisoned fluxes
    assert len(experiments.run_sweep(replace(cfg, refine=False)).regions) == 1
    with pytest.raises(IntegrationError, match="non-finite static time average"):
        experiments.run_sweep(cfg)


def _dip(center, width):
    """<<He>> with a Gaussian dip of depth 0.5 below the baseline 1.5."""
    return lambda phi: 1.5 - 0.5 * np.exp(-((phi - center) / width) ** 2)


def test_half_depth_not_bracketed_keeps_grid_spacing():
    """A dip still deeper than half at two grid spacings from its refined centre
    keeps the grid spacing as its width; a narrow one gets its full width at half
    depth, 2 sqrt(ln 2) times the Gaussian width."""
    cfg = sq.SweepConfig(phi_min=0.40, phi_max=0.50, points=11)
    grid = cfg.grid
    broad, narrow = _dip(0.453, 0.1), _dip(0.453, 0.01)
    for f, want_width in ((broad, grid[1] - grid[0]), (narrow, 0.02 * math.sqrt(math.log(2)))):
        [region] = _detect_regions(cfg, grid, f(grid), 1.5, lambda phi: float(f(phi)))
        assert region.center == pytest.approx(0.453, abs=1e-4)
        assert region.depth == pytest.approx(0.5, abs=1e-6)
        assert region.width == pytest.approx(want_width, abs=1e-4)
