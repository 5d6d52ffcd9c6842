"""Dense linear algebra primitives, real or complex.

Everything here operates on plain square numpy arrays, real or complex. Density
matrices and Hamiltonians share the same currency; helpers below check the
flags (Hermitian / positive) that the rest of the package relies on.
`hermitize`, `partial_trace`, `density_eigenvalues` and `vn_entropy` also take
stacks of matrices (shape (..., n, n)) and act on each. Entropies are in nats.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

HERMITIAN_TOL = 1e-12
EIG_CLIP = 1e-8       # eigenvalues of rho in [-EIG_CLIP, 0) are round-off
EIG_ZERO = 1e-14      # below this a population contributes 0 to -p ln p


class PositivityError(ValueError):
    """A density matrix eigenvalue is negative beyond round-off tolerance."""


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a†)/2."""
    return (a + a.conj().mT) / 2


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    return bool(np.max(np.abs(a - a.conj().T)) < tol)


def herm_func(a: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a real scalar function to a Hermitian operator, V f(w) V†."""
    w, v = np.linalg.eigh(a)
    return hermitize((v * f(w)) @ v.conj().T)


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Reduced density operator of component `keep` (0 = first factor).

    `dims` are the factor dimensions in tensor-product order, so with the
    package convention dims = (de, ds) and keep=0 returns the field state.
    """
    d0, d1 = dims
    if rho.shape[-2:] != (d0 * d1, d0 * d1):
        raise ValueError(
            f"partial_trace: operator is {rho.shape}, expected {(d0 * d1, d0 * d1)}"
        )
    r = rho.reshape(rho.shape[:-2] + (d0, d1, d0, d1))
    if keep == 0:
        return np.einsum("...ikjk->...ij", r)
    if keep == 1:
        return np.einsum("...kikj->...ij", r)
    raise ValueError(f"keep must be 0 or 1, got {keep!r}")


def density_eigenvalues(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a density matrix, clipped of round-off negatives.

    Raises PositivityError when an eigenvalue is more negative than -1e-8.
    """
    w = np.linalg.eigvalsh(hermitize(rho))
    if w.min() < -EIG_CLIP:
        raise PositivityError(f"density matrix eigenvalue {w.min():.3e} < -{EIG_CLIP}")
    return np.clip(w, 0.0, None)


def vn_entropy(rho: np.ndarray):
    """von Neumann entropy -Tr(rho ln rho) in nats, with 0 ln 0 := 0; one value
    per matrix of a stack."""
    w = density_eigenvalues(rho)
    kept = w > EIG_ZERO
    return -np.sum(w * np.log(w, where=kept, out=np.zeros_like(w)), axis=-1)
