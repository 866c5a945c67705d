"""Dense complex-matrix kernel: validation, Hermitian parts and tensor products."""

from __future__ import annotations

import numpy as np

# Fixed tolerances, shared by every operation: the largest accepted Hermiticity
# defect, and how far below zero an eigenvalue may sit and still count as PSD noise.
TOL_HERM = 1e-10
TOL_PSD = 1e-9

NON_FINITE = "non-finite entry (NaN or inf) in matrix"


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex ndarray with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(NON_FINITE)
    return a


def hermitianize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†)/2 of a float or complex matrix, or of each
    matrix in a stack (..., n, n); used to scrub asymmetry noise.

    Formed in one new array, m† copied in C order, then m added and the sum
    halved in place: the same bits as (m + m†)/2, since addition commutes
    and halving is exact, with one temporary fewer."""
    h = np.conjugate(m.swapaxes(-1, -2), order="C")
    h += m
    h *= 0.5
    return h


def herm_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def require_hermitian(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: shape {a.shape}")
    defect = herm_defect(a)
    if defect > TOL_HERM:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > {TOL_HERM:.1e}")
    return a


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the first factor as the most significant index
    block: each entry a[i, j] b[k, l] is the one product ``np.kron`` takes,
    broadcast without its generic reshaping."""
    a, b = as_matrix(a), as_matrix(b)
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)
