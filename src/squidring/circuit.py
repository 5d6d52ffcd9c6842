"""Physical model: a SQUID ring inductively coupled to one quantized em field mode.

Nondimensionalization used throughout the package: hbar = 1, time in units of
1/omega_s, energy in hbar*omega_s, flux in units of the superconducting flux
quantum Phi0 = h/2e. All Hamiltonians handed to the integrators are in these
units; CircuitParams keeps the SI values and the conversion factors.

The ring potential is

    Hs = Qs^2/2Cs + Phis^2/2Lambda_s
         - hbar*nu * cos(2 pi (Phis + Phix(t)) / Phi0)
         - Qs * dPhix/dt

(the last term comes from working in the frame translated by the bias flux),
the field mode is a plain LC oscillator, and the interaction is
Hes = (mu_es/Lambda_s) * Phis * Phie, entering the total as H = He + Hs - Hes.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .linalg import herm_func, hermitize

# Exact SI values since the 2019 redefinition (equal to scipy.constants bit for bit)
_H = 6.62607015e-34    # Planck constant, J s
_E = 1.602176634e-19   # elementary charge, C
HBAR = _H / (2 * math.pi)
KB = 1.380649e-23      # Boltzmann constant, J/K
PHI0 = _H / (2 * _E)

# Operating bias flux (Phi0): the default ramp start A and the default flux at
# which the ring is truncated to its eigenbasis.
DEFAULT_BIAS = 0.42864

# Default truncation: field levels, ring levels, and the ring's Fock basis size
# before it is reduced to its lowest eigenstates.
DEFAULT_DE = 4
DEFAULT_DS = 4
DEFAULT_PRE_DIM = 40

# Cosine-well energy as a multiple of Phi0^2/Lambda_s. Calibrated so that with
# the default circuit the ring's first transition is resonant with one field
# quantum at the DEFAULT_BIAS operating point (which also reproduces the
# ~326 omega_s^-1 half-exchange time there).
JOSEPHSON_ENERGY_FACTOR = 0.074291666753732

DEFAULT_CS = 1e-16       # F
DEFAULT_LAMBDA_S = 3e-10  # H
DEFAULT_MU_ES = 0.01


class ConvergenceError(RuntimeError):
    """Basis truncation did not converge against a doubled pre-truncation basis."""


def _finite(value) -> bool:
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


# What a field of each annotated type takes, and how an error names it.
_KINDS = {
    float: (_finite, "a finite number"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
}
_field_types = lru_cache(maxsize=None)(get_type_hints)


def check_types(block) -> None:
    """Raise ValueError unless each field of the config block holds its annotated
    type: a float field a finite real number (ints too, but not NaN, +-Infinity or
    bools), an int field an int but not a bool, tuple[float, ...] a list or tuple of
    finite numbers, bool True or False, str a string; None only where admitted."""
    for name, annotation in _field_types(type(block)).items():
        value = getattr(block, name)
        args = get_args(annotation)
        if value is None and type(None) in args:
            continue
        if get_origin(annotation) is tuple:
            ok = isinstance(value, (list, tuple)) and all(map(_finite, value))
            what = "a list of finite numbers"
        else:
            test, what = _KINDS[next(a for a in args or [annotation] if a is not type(None))]
            ok = test(value)
        if not ok:
            raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class CircuitParams:
    """SI circuit values. Derived frequencies/groups are exposed as properties."""

    Cs: float = DEFAULT_CS
    Lambda_s: float = DEFAULT_LAMBDA_S
    Ce: float | None = None
    Lambda_e: float | None = None
    hbar_nu: float | None = None  # J; default JOSEPHSON_ENERGY_FACTOR * Phi0^2/Lambda_s
    mu_es: float = DEFAULT_MU_ES

    def __post_init__(self):
        check_types(self)
        if self.Ce is None:
            object.__setattr__(self, "Ce", self.Cs)
        if self.Lambda_e is None:
            object.__setattr__(self, "Lambda_e", self.Lambda_s)
        if self.hbar_nu is None:
            object.__setattr__(
                self, "hbar_nu", JOSEPHSON_ENERGY_FACTOR * PHI0**2 / self.Lambda_s
            )
        for name in ("Cs", "Lambda_s", "Ce", "Lambda_e"):
            if getattr(self, name) <= 0:
                raise ValueError(f"CircuitParams.{name} must be positive")
        if not 0 <= self.mu_es < 1:
            raise ValueError("CircuitParams.mu_es must lie in [0, 1)")
        try:  # the model is built from these, so each must be finite
            groups = asdict(DimensionlessGroups.from_params(self))
        except ArithmeticError as exc:
            raise ValueError(f"CircuitParams values give no dimensionless groups: {exc}") from None
        bad = [name for name, value in groups.items() if not math.isfinite(value)]
        if bad:
            raise ValueError(f"CircuitParams values make the dimensionless group(s) "
                             f"{', '.join(bad)} non-finite")

    @property
    def omega_s(self) -> float:
        return 1.0 / math.sqrt(self.Lambda_s * self.Cs)

    @property
    def omega_e(self) -> float:
        return 1.0 / math.sqrt(self.Lambda_e * self.Ce)

    @property
    def nu(self) -> float:
        """Josephson angular frequency nu = hbar_nu / hbar (rad/s)."""
        return self.hbar_nu / HBAR


@dataclass(frozen=True)
class DimensionlessGroups:
    """Dimensionless combinations entering the hbar*omega_s-unit Hamiltonians.

    lambda_i : zero-point flux angle, (2 pi/Phi0) sqrt(hbar/(2 omega_i C_i))
    nu_tilde : nu/omega_s, weight of the cosine term
    kappa    : coupling prefactor multiplying (ae+ae†)(as+as†)
    eta_s    : ring charge zero point sqrt(hbar omega_s Cs / 2), in C
    drive_scale : multiplies the flux ramp rate (Phi0*omega_s units) to give
                  the -Qs dPhix/dt term in hbar*omega_s per unit charge quadrature
    """

    lambda_s: float
    lambda_e: float
    nu_tilde: float
    kappa: float
    eta_s: float
    drive_scale: float
    omega_ratio: float  # omega_e / omega_s

    @classmethod
    def from_params(cls, p: CircuitParams) -> "DimensionlessGroups":
        lam_s = (2 * math.pi / PHI0) * math.sqrt(HBAR / (2 * p.omega_s * p.Cs))
        lam_e = (2 * math.pi / PHI0) * math.sqrt(HBAR / (2 * p.omega_e * p.Ce))
        eta_s = math.sqrt(HBAR * p.omega_s * p.Cs / 2)
        # (mu_es/Lambda_s) <Phis><Phie> zero-point product over hbar omega_s
        kappa = (
            p.mu_es
            / (2 * p.Lambda_s * p.omega_s)
            / math.sqrt(p.omega_s * p.Cs * p.omega_e * p.Ce)
        )
        drive_scale = eta_s * PHI0 / HBAR  # equals pi/lambda_s
        return cls(
            lambda_s=lam_s,
            lambda_e=lam_e,
            nu_tilde=p.nu / p.omega_s,
            kappa=kappa,
            eta_s=eta_s,
            drive_scale=drive_scale,
            omega_ratio=p.omega_e / p.omega_s,
        )


@dataclass(frozen=True)
class FluxDrive:
    """Piecewise-linear external flux schedule, Phi0 / omega_s^-1 units.

    value(t): A for t <= t0, linear ramp to B over (t0, t0+tr], B afterwards.
    rate(t):  (B-A)/tr inside the ramp window, 0 outside (so rate(t0) is 0).
    Both return an array shaped like t, 0-d for one time.
    """

    A: float = DEFAULT_BIAS
    B: float = 0.38
    t0: float = 326.0
    tr: float = 16.6

    def __post_init__(self):
        check_types(self)
        if self.tr <= 0:
            raise ValueError("FluxDrive.tr must be positive")
        if self.t0 < 0:
            raise ValueError("FluxDrive.t0 must be nonnegative")

    def _window(self, t):
        """Where t lies inside the ramp window (t0, t0+tr], and where after it:
        the one piecewise rule of value and rate."""
        t1 = self.t0 + self.tr
        return (self.t0 < t) & (t <= t1), t > t1

    def value(self, t: float | np.ndarray) -> np.ndarray:
        inside, after = self._window(t)
        return np.where(inside, self.A + (self.B - self.A) * (t - self.t0) / self.tr,
                        np.where(after, self.B, self.A))

    def rate(self, t: float | np.ndarray) -> np.ndarray:
        inside, _ = self._window(t)
        return np.where(inside, (self.B - self.A) / self.tr, 0.0)

    @property
    def breakpoints(self) -> tuple[float, float]:
        return (self.t0, self.t0 + self.tr)


def ladder(n: int) -> np.ndarray:
    """Fock-basis annihilation operator, a[k-1, k] = sqrt(k) (real)."""
    if n < 2:
        raise ValueError(f"ladder dimension must be >= 2, got {n}")
    return np.diag(np.sqrt(np.arange(1, n)), 1)


@dataclass(frozen=True)
class RingOperators:
    """Static ring operators in some basis, dimensionless (hbar*omega_s units),
    real symmetric in the Fock basis and the ring's eigenbases; each is a matrix
    or a (..., dim, dim) stack. With the Fock basis's LC ladder operator a:

    harmonic : a†a + 1/2 (the LC part of Hs)
    cos_phi / sin_phi : cos / sin of the flux angle lambda_s (a + a†)
    flux : a + a†        (the charge i (a† - a) comes only with the drive rate)
    """

    harmonic: np.ndarray
    cos_phi: np.ndarray
    sin_phi: np.ndarray
    flux: np.ndarray

    def transformed(self, t: np.ndarray) -> "RingOperators":
        """Project every operator with a (..., dim, k) isometry of basis columns;
        a stack of isometries gives a stack of projected operators."""
        td = t.mT.conj()
        return RingOperators(**{name: hermitize(td @ op @ t)
                                for name, op in vars(self).items()})


@lru_cache(maxsize=8)
def fock_ring_ops(pre_dim: int, lambda_s: float) -> RingOperators:
    """Ring operators in the bare LC Fock basis of dimension pre_dim.

    They do not depend on the flux, so they are built once per (pre_dim,
    lambda_s) and shared; the arrays are read-only.
    """
    a = ladder(pre_dim)
    x = a + a.conj().T
    ops = RingOperators(
        harmonic=(a.conj().T @ a + 0.5 * np.eye(pre_dim)),
        cos_phi=herm_func(lambda_s * x, np.cos),
        sin_phi=herm_func(lambda_s * x, np.sin),
        flux=x,
    )
    for op in vars(ops).values():
        op.flags.writeable = False
    return ops


def drive_coefficients(phi_x: float | np.ndarray) -> np.ndarray:
    """Weights of the ring_pieces / drive_terms pieces: 1, cos(2 pi phi_x),
    sin(2 pi phi_x), along the last axis; one row of them per flux of an array."""
    angle = 2 * np.pi * np.asarray(phi_x, dtype=float)
    return np.stack([np.ones_like(angle), np.cos(angle), np.sin(angle)], axis=-1)


def _combine(coefficients: np.ndarray, pieces: np.ndarray) -> np.ndarray:
    """sum_k coefficients[..., k] * pieces[..., k, :, :]: one matrix per row of
    coefficients, from pieces (k, n, n) shared by every row or (..., k, n, n)
    stacked per row."""
    flat = pieces.reshape(pieces.shape[:-2] + (-1,))
    return (coefficients[..., None, :] @ flat)[..., 0, :].reshape(
        coefficients.shape[:-1] + pieces.shape[-2:])


def ring_pieces(ops: RingOperators, groups: DimensionlessGroups) -> np.ndarray:
    """The static ring Hamiltonian's flux-independent pieces, stacked as
    (..., 3, dim, dim): harmonic, -nu cos_phi, nu sin_phi. The cosine of the
    shifted flux is expanded so that the operator-valued trig functions are the
    precomputed cos_phi/sin_phi."""
    return np.stack([ops.harmonic, -groups.nu_tilde * ops.cos_phi,
                     groups.nu_tilde * ops.sin_phi], axis=-3)


def build_hs(ops: RingOperators, groups: DimensionlessGroups,
             phi_x: float | np.ndarray) -> np.ndarray:
    """Static ring Hamiltonian (dPhix/dt = 0) in hbar*omega_s units, in whatever
    basis `ops` uses; an array of fluxes gives a stack, one Hamiltonian per flux
    (and per entry of stacked `ops`)."""
    return _combine(drive_coefficients(phi_x), ring_pieces(ops, groups))


def build_he(de: int, groups: DimensionlessGroups) -> np.ndarray:
    """Field Hamiltonian (hbar*omega_s units): (omega_e/omega_s)(n + 1/2)."""
    return groups.omega_ratio * np.diag(np.arange(de) + 0.5)


@dataclass(frozen=True)
class TruncatedModel:
    """Both components reduced to their lowest energy eigenstates.

    Field: lowest `de` Fock states (exact eigenstates of He). Ring: lowest `ds`
    eigenstates of Hs at the reference flux, computed in a pre_dim-dimensional
    Fock basis; `ring_transform` holds the eigenvector columns used.
    The product-space ordering is field (x) ring.
    """

    params: CircuitParams
    groups: DimensionlessGroups
    de: int
    ds: int
    pre_dim: int
    ring_ref_flux: float
    ring: RingOperators
    ring_energies: np.ndarray          # lowest ds eigenvalues at the ref flux
    ring_transform: np.ndarray         # pre_dim x ds isometry
    field_a: np.ndarray = field(repr=False, default=None)
    field_h: np.ndarray = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return self.de * self.ds

    @cached_property
    def _ring_pieces(self) -> np.ndarray:
        return ring_pieces(self.ring, self.groups)

    def ring_hamiltonian(self, phi_x: float | np.ndarray) -> np.ndarray:
        """build_hs on the truncated ring, from pieces built once per model; an
        array of fluxes gives a stack, one Hamiltonian per flux."""
        return _combine(drive_coefficients(phi_x), self._ring_pieces)

    def ring_eigenbasis(self, phi_x: float) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues/vectors of the truncated ring Hamiltonian at phi_x."""
        return np.linalg.eigh(self.ring_hamiltonian(phi_x))

    def collapse_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """Bare LC ladder operators on the product space: (a_e, a_s)."""
        t = self.ring_transform
        return (
            np.kron(self.field_a, np.eye(self.ds)),
            np.kron(np.eye(self.de), t.conj().T @ ladder(self.pre_dim) @ t),
        )


def truncate_to_eigenbasis(
    params: CircuitParams,
    ring_ref_flux: float = DEFAULT_BIAS,
    pre_dim: int = DEFAULT_PRE_DIM,
    de: int = DEFAULT_DE,
    ds: int = DEFAULT_DS,
    check_convergence: bool = True,
    convergence_tol: float = 1e-6,
) -> TruncatedModel:
    """Project the ring onto its `ds` lowest eigenstates at the reference flux.

    With check_convergence the retained ring eigenvalues are compared against a
    doubled pre-truncation basis and must agree to convergence_tol (hbar*omega_s).
    """
    groups = DimensionlessGroups.from_params(params)
    ops = fock_ring_ops(pre_dim, groups.lambda_s)
    w, v = np.linalg.eigh(build_hs(ops, groups, ring_ref_flux))
    if check_convergence:
        ops2 = fock_ring_ops(2 * pre_dim, groups.lambda_s)
        w2 = np.linalg.eigvalsh(build_hs(ops2, groups, ring_ref_flux))
        shift = np.max(np.abs(w[:ds] - w2[:ds]))
        if shift > convergence_tol:
            raise ConvergenceError(
                f"ring eigenvalues move by {shift:.2e} hbar*omega_s when pre_dim "
                f"doubles from {pre_dim}; increase pre_dim"
            )
    t = v[:, :ds]
    return TruncatedModel(
        params=params,
        groups=groups,
        de=de,
        ds=ds,
        pre_dim=pre_dim,
        ring_ref_flux=ring_ref_flux,
        ring=ops.transformed(t),
        ring_energies=w[:ds].copy(),
        ring_transform=t,
        field_a=ladder(de),
        field_h=build_he(de, groups),
    )


def drive_terms(ring: RingOperators, groups: DimensionlessGroups, de: int) -> np.ndarray:
    """The static total Hamiltonian's flux-independent pieces, stacked as
    (..., 3, dim, dim), so that H = _combine(drive_coefficients(phi_x), pieces):
    the ring_pieces on the product space of `de` field levels and the ring in the
    basis of `ring`, with He - Hes added to piece 0. A stack of ring operators
    gives one stack of pieces per entry."""
    a = ladder(de)
    ie = np.eye(de)
    # every piece is a field (x) ring product; the last two are folded into piece 0
    field = np.stack([ie, ie, ie, build_he(de, groups), a + a.conj().T])
    eye_s = np.broadcast_to(np.eye(ring.flux.shape[-1]), ring.flux.shape)
    rings = np.concatenate([ring_pieces(ring, groups),
                            np.stack([eye_s, -groups.kappa * ring.flux], axis=-3)], axis=-3)
    dim = de * rings.shape[-1]
    p = np.einsum("kij,...kab->...kiajb", field, rings).reshape(*rings.shape[:-2], dim, dim)
    p[..., 0, :, :] += p[..., 3, :, :] + p[..., 4, :, :]
    return p[..., :3, :, :]


def build_total(model: TruncatedModel, phi_x: float) -> np.ndarray:
    """Static total H = He + Hs - Hes on the product space, hbar*omega_s units."""
    return _combine(drive_coefficients(phi_x), drive_terms(model.ring, model.groups, model.de))


class RampHamiltonian:
    """H(t) along a FluxDrive schedule, in the integrators' Hamiltonian
    interface: `breakpoints`, where the drive rate jumps; `static_on(a, b)`,
    whether the drive is frozen on each of arrays of intervals [a, b]; and a
    call on an array of times, giving one H per time (one H for one time).

    H(t) is build_total at the drive's flux plus the rate times the one complex
    piece, the charge term -drive_scale i (a_s† - a_s); all pieces are precomputed."""

    def __init__(self, model: TruncatedModel, drive: FluxDrive):
        self.drive = drive
        a_s = model.collapse_operators()[1]  # the ring's bare ladder operator
        charge_piece = -model.groups.drive_scale * 1j * (a_s.conj().T - a_s)
        self._pieces = np.concatenate([drive_terms(model.ring, model.groups, model.de),
                                       [charge_piece]])

    @property
    def breakpoints(self) -> tuple[float, float]:
        return self.drive.breakpoints

    def __call__(self, t: float | np.ndarray) -> np.ndarray:
        """H at time t; an array of times gives a stack, one H per time."""
        rate = self.drive.rate(t)[..., None]
        coefficients = np.concatenate([drive_coefficients(self.drive.value(t)), rate], -1)
        return _combine(coefficients, self._pieces)

    def static_on(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        t0, t1 = self.drive.breakpoints
        return (b <= t0) | (a >= t1)

