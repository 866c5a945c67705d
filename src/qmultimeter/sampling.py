"""Seeded random ensembles: states, unitaries, observables, channels, kernels."""

from __future__ import annotations

import numpy as np

from .linalg import hermitianize
from .quantum import DensityState, Multimeter, Observable, QuantumChannel


def random_pure_vector(rng, dim: int) -> np.ndarray:
    """A unit vector of dimension ``dim``, at least 1, drawn from the
    unitarily invariant measure; a smaller ``dim`` is rejected before any draw."""
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim: int) -> DensityState:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityState(m / np.trace(m).real)


def random_unitary(rng, dim: int) -> np.ndarray:
    # QR of a Ginibre matrix with the phases of R's diagonal divided out
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag)).conj()


def random_pvm(rng, dim: int) -> Observable:
    """Rank-1 projective measurement from the eigenbasis of a random Hermitian."""
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    _, v = np.linalg.eigh(hermitianize(h))
    effects = [np.outer(v[:, i], v[:, i].conj()) for i in range(dim)]
    return Observable(effects)


def random_povm(rng, dim: int, n_outcomes: int) -> Observable:
    """Random POVM: Wishart blocks sandwiched by the inverse root of their sum."""
    blocks = []
    for _ in range(n_outcomes):
        y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(y.conj().T @ y)
    total = sum(blocks)
    w, v = np.linalg.eigh(hermitianize(total))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    effects = [hermitianize(inv_root @ b @ inv_root) for b in blocks]
    return Observable(effects)


def random_postprocessing(rng, n_in: int, n_out: int):
    from .postprocessing import PostProcessing

    return PostProcessing(rng.dirichlet(np.ones(n_out), size=n_in))


def random_channel(rng, dim: int, n_kraus: int) -> QuantumChannel:
    """Random CPTP map: Ginibre Kraus blocks normalized by the inverse root of the sum."""
    blocks = [
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(n_kraus)
    ]
    total = sum(b.conj().T @ b for b in blocks)
    w, v = np.linalg.eigh(hermitianize(total))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return QuantumChannel([b @ inv_root for b in blocks])


def random_multimeter(rng, system_dim: int, probe_dim: int) -> Multimeter:
    """Random device: unitary interaction on system x probe, random pointer PVM."""
    u = random_unitary(rng, system_dim * probe_dim)
    return Multimeter(
        probe_dim=probe_dim,
        pointer=random_pvm(rng, probe_dim),
        interaction=QuantumChannel([u]),
    )


def random_pure_pair(rng, dim: int):
    """Two random pure states with an overlap of at least 1e-6."""
    while True:
        v1 = random_pure_vector(rng, dim)
        v2 = random_pure_vector(rng, dim)
        if abs(np.vdot(v1, v2)) >= 1e-6:
            return v1, v2
