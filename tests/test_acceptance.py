"""Acceptance gate: the eight release criteria, one pass/fail line each.

The verdict lines are collected by acceptance_report and printed in the
pytest terminal summary. The property suite (criterion 8) is defined first
so it runs before the figure-level criteria.
"""
import math

import numpy as np
from scipy.linalg import expm

import squidring as sq
from squidring.circuit import (
    CircuitParams,
    FluxDrive,
    build_hs,
    build_total,
    fock_ring_ops,
    ladder,
)
from squidring.dynamics import BathParams, QuantumState, evolve_lindblad, evolve_tdse

import acceptance_report
from oracles import StaticHamiltonian, entanglement_indices

BIAS = 0.42864
TWIN = 0.57136
OMEGA_S = CircuitParams().omega_s


def _check(number, passed, detail):
    acceptance_report.record(number, passed, detail)
    assert passed, f"criterion {number}: {detail}"


def _initial_product_state(model):
    psi0 = np.zeros(model.dim, complex)
    psi0[model.ds] = 1.0  # |1e, 0s> in the labeling basis at the bias flux
    return QuantumState.pure(psi0, (model.de, model.ds))


def test_criterion_8_property_suite(model, ramp_result):
    failures = []

    # TDSE norm drift over 1000 omega_s^-1
    h = build_total(model, BIAS)
    traj = evolve_tdse(_initial_product_state(model), StaticHamiltonian(h),
                       1000.0, sample_dt=250.0)
    if traj.max_norm_drift >= 1e-8:
        failures.append(f"norm drift {traj.max_norm_drift:.1e}")

    # Lindblad trace drift over 1000 omega_s^-1
    baths = BathParams(gamma_e=1e-4, gamma_s=1e-4, Tb=4.2, omega_b=OMEGA_S)
    rho0 = QuantumState.mixed(_initial_product_state(model).density(),
                              (model.de, model.ds))
    traj_l = evolve_lindblad(rho0, StaticHamiltonian(h), baths,
                             model.collapse_operators(), 1000.0, sample_dt=250.0)
    if traj_l.max_trace_drift >= 1e-8:
        failures.append(f"trace drift {traj_l.max_trace_drift:.1e}")

    # zero-damping master equation reduces to the TDSE
    off = BathParams(gamma_e=0.0, gamma_s=0.0, omega_b=OMEGA_S)
    t_u = evolve_tdse(_initial_product_state(model), StaticHamiltonian(h),
                      50.0, sample_dt=10.0)
    t_l = evolve_lindblad(rho0, StaticHamiltonian(h), off,
                          model.collapse_operators(), 50.0, sample_dt=10.0)
    dev = max(np.max(np.abs(np.outer(psi, psi.conj()) - rho))
              for psi, rho in zip(t_u.data, t_l.data))
    if dev >= 1e-6:
        failures.append(f"gamma=0 Lindblad vs TDSE {dev:.1e}")

    # constant-H TDSE against the spectral propagator
    psi_num = evolve_tdse(_initial_product_state(model), StaticHamiltonian(h),
                          20.0, sample_dt=20.0).data[-1]
    psi_exact = expm(-1j * h * 20.0) @ _initial_product_state(model).data
    dev = np.max(np.abs(psi_num - psi_exact))
    if dev >= 1e-6:
        failures.append(f"TDSE vs spectral {dev:.1e}")

    # single-mode thermal relaxation: <n>(t) = M + (n0 - M) e^{-gamma t}
    d, gamma = 8, 0.1
    a = ladder(d)
    n_op = a.conj().T @ a
    bath1 = BathParams(gamma_e=gamma, gamma_s=0.0, Tb=4.2, omega_b=OMEGA_S)
    m = bath1.mean_occupation
    r0 = np.zeros((d, d), complex)
    r0[2, 2] = 1.0
    relax = evolve_lindblad(QuantumState.mixed(r0, (1, d)),
                            StaticHamiltonian(n_op.astype(complex)), bath1,
                            (a, np.zeros_like(a)), 30.0, sample_dt=5.0)
    for t, rho in zip(relax.times[1:], relax.data[1:]):
        n_num = np.trace(n_op @ rho).real
        n_exact = m + (2.0 - m) * math.exp(-gamma * t)
        if abs(n_num - n_exact) / n_exact >= 0.01:
            failures.append(f"relaxation off by {abs(n_num/n_exact-1):.3f} at t={t}")
            break

    # ring spectral twin symmetry about half a flux quantum
    p = CircuitParams()
    ops = fock_ring_ops(40, p.lambda_s)
    w1 = np.linalg.eigvalsh(build_hs(ops, p, BIAS))[:6]
    w2 = np.linalg.eigvalsh(build_hs(ops, p, 1.0 - BIAS))[:6]
    if np.max(np.abs(w1 - w2)) >= 1e-9:
        failures.append("twin symmetry")

    # equal entanglement indices for pure states
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        i_e, i_s = entanglement_indices(
            QuantumState.pure(v / np.linalg.norm(v), (4, 4)))
        if abs(i_e - i_s) >= 1e-8:
            failures.append("pure-state index symmetry")
            break

    # truncation robustness: (4,4) -> (6,6) moves the plateau entanglement < 0.02
    big_model = sq.default_model(de=6, ds=6)
    big = sq.run_ramp(sq.RampConfig(), big_model)
    shift = abs(big.plateau["ent_mag_mean"] - ramp_result.plateau["ent_mag_mean"])
    if shift >= 0.02:
        failures.append(f"truncation plateau shift {shift:.3f}")

    _check(8, not failures,
           "property suite (drift, unitarity, relaxation, symmetry, truncation)"
           + ("" if not failures else f" -- failed: {failures}"))


def test_criterion_1_thermal_occupation():
    m = sq.thermal_occupation(4.2, OMEGA_S)
    rel = abs(m - 2.746e-5) / 2.746e-5
    _check(1, rel < 0.01,
           f"thermal occupation M = {m:.4e} ({100 * rel:.2f}% from 2.746e-5)")


def test_criterion_2_twin_exchange_regions(full_sweep):
    regions = full_sweep.regions
    ok = len(regions) == 2
    detail = f"{len(regions)} exchange region(s)"
    if ok:
        c1, c2 = regions[0].center, regions[1].center
        ok = (abs(c1 - BIAS) < 0.005 and abs(c2 - TWIN) < 0.005
              and abs((c1 + c2) - 1.0) < 0.002)
        detail = (f"centers {c1:.5f} / {c2:.5f} Phi0, sum {c1 + c2:.5f}")
    _check(2, ok, "twin exchange regions: " + detail)


def test_criterion_3_plateau_probabilities(ramp_result):
    p = ramp_result.plateau
    ok = (abs(p["P_10_mean"] - 0.5) < 0.05 and abs(p["P_01_mean"] - 0.5) < 0.05
          and p["P_10_drift"] < 0.02 and p["P_01_drift"] < 0.02)
    _check(3, ok,
           f"plateau P_10 = {p['P_10_mean']:.3f} (drift {p['P_10_drift']:.3f}), "
           f"P_01 = {p['P_01_mean']:.3f} (drift {p['P_01_drift']:.3f})")


def test_criterion_4_plateau_entanglement(ramp_result):
    p = ramp_result.plateau
    ok = (abs(p["ent_mag_mean"] - 0.69) < 0.05 and p["ent_mag_drift"] < 0.02
          and p["fidelity_mean"] > 0.95)
    _check(4, ok,
           f"plateau entanglement = {p['ent_mag_mean']:.3f} "
           f"(drift {p['ent_mag_drift']:.3f}), Bell fidelity = "
           f"{p['fidelity_mean']:.3f}")


def test_criterion_5_weak_dissipation(ramp_result, dissipative_results):
    weak = dissipative_results[1e-5]
    p0, pw = ramp_result.plateau, weak.plateau
    d10 = abs(pw["P_10_mean"] - p0["P_10_mean"])
    d01 = abs(pw["P_01_mean"] - p0["P_01_mean"])
    ent_end = weak.records["ent_mag"][-1]
    ok = d10 < 0.05 and d01 < 0.05 and ent_end > 0.5
    _check(5, ok,
           f"gamma=1e-5: plateau shifts {d10:.3f} / {d01:.3f}, "
           f"entanglement at 3 t0 = {ent_end:.3f}")


def test_criterion_6_strong_dissipation(dissipative_results):
    weak, strong = dissipative_results[1e-5], dissipative_results[1e-4]
    purity_end = strong.records["purity"][-1]
    ramp_end = FluxDrive().t0 + FluxDrive().tr
    post = weak.records["t"] > ramp_end
    pairs = list(zip(weak.records["ent_mag"][post], strong.records["ent_mag"][post]))
    ordered = all(s < w for w, s in pairs)
    ok = purity_end < 0.95 and ordered
    _check(6, ok,
           f"gamma=1e-4: purity at 3 t0 = {purity_end:.3f}, entanglement below "
           f"the gamma=1e-5 run at all {len(pairs)} post-ramp samples: {ordered}")


def test_criterion_7_decoherence_timescale():
    t_ns = 1.0 / (1e-5 * OMEGA_S) * 1e9
    _check(7, 15.0 <= t_ns <= 20.0,
           f"1/gamma at gamma = 1e-5 omega_s is {t_ns:.1f} ns")
