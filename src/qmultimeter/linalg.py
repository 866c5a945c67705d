"""Dense complex-matrix kernel: tensor products, partial traces, Hermitian decompositions."""

from __future__ import annotations

import math

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
    """Hermitian part (m + m†)/2 of a matrix, or of each matrix in a stack
    (..., n, n); used to scrub asymmetry noise."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


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
    """Kronecker product with the first factor as the most significant index block."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(m, dims, keep) -> np.ndarray:
    """Reduce a matrix on a tensor-product space to the subsystems in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order (first factor =
    most significant index); ``keep`` holds 0-based subsystem indices. The
    kept subsystems retain their relative order. Keeping nothing returns a
    1x1 matrix holding the full trace.
    """
    a = as_matrix(m)
    dims = [int(d) for d in dims]
    if any(d <= 0 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    total = math.prod(dims)
    if a.shape != (total, total):
        raise ValueError(f"matrix shape {a.shape} does not match dims {dims} (product {total})")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")

    k = len(dims)
    t = a.reshape(dims + dims)
    rows = list(range(k))
    cols = [i if i not in keep else k + i for i in range(k)]
    out = [i for i in keep] + [k + i for i in keep]
    reduced = np.einsum(t, rows + cols, out)
    d_keep = math.prod(dims[i] for i in keep) if keep else 1
    return np.asarray(reduced, dtype=complex).reshape(d_keep, d_keep)


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues in descending order, orthonormal eigenvectors as
    matching columns) so that m = V diag(w) V†.
    """
    a = require_hermitian(m)
    w, v = np.linalg.eigh(hermitianize(a))
    return w[::-1].copy(), v[:, ::-1].copy()


def psd_sqrt(m) -> np.ndarray:
    """Unique positive square root of a PSD matrix.

    Eigenvalues in [-TOL_PSD, 0) are treated as numerical noise and clipped
    to zero; anything more negative is an error.
    """
    w, v = hermitian_eig(m)
    if w.size and w[-1] < -TOL_PSD:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {w[-1]:.3e} < -{TOL_PSD:.1e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T
