"""States, observables, channels, and multimeter programming."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    NON_FINITE,
    TOL_HERM,
    TOL_PSD,
    as_matrix,
    hermitianize,
    require_hermitian,
)

ATOL_TRACE = 1e-9
ATOL_COMPLETE = 1e-9     # sum of effects vs identity
NEG_MASS_TOL = 1e-9      # repairable negative eigenvalue mass in a state
PROB_CLIP = 1e-12        # outcome probabilities this far below zero are noise


@dataclass(eq=False)
class DensityState:
    """Positive unit-trace matrix, kept as a read-only view.

    Negative eigenvalue mass up to ``PROB_CLIP`` is rounding noise and kept,
    so a stored matrix validated again (as a loader does) is left bit for bit
    as it was. Mass up to ``NEG_MASS_TOL`` from upstream arithmetic is
    re-projected onto the PSD cone and the trace renormalized; anything larger
    is rejected as a real bug.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = require_hermitian(self.matrix)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > ATOL_TRACE:
            raise ValueError(f"state trace {tr!r} is not 1 within {ATOL_TRACE:.1e}")
        w, v = np.linalg.eigh(hermitianize(m))
        neg_mass = float(-np.sum(w[w < 0.0]))
        if neg_mass > NEG_MASS_TOL:
            raise ValueError(f"state has negative eigenvalue mass {neg_mass:.3e}")
        if neg_mass > PROB_CLIP:
            w = np.clip(w, 0.0, None)
            m = (v * w) @ v.conj().T
            m = hermitianize(m / float(np.trace(m).real))
        # a read-only view: an array taken without a copy stays writable to its owner
        self.matrix = m.view()
        self.matrix.flags.writeable = False

    @classmethod
    def from_vector(cls, psi) -> "DensityState":
        v = np.asarray(psi, dtype=complex).reshape(-1)
        n = float(np.linalg.norm(v))
        if n == 0.0:
            raise ValueError("cannot build a state from the zero vector")
        v = v / n
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityState":
        return cls(np.eye(dim, dtype=complex) / dim)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def root(self) -> np.ndarray:
        """The read-only square root ``_state_root(matrix)``, computed on first read."""
        root = _state_root(self.matrix)
        root.flags.writeable = False
        return root

    def transpose(self) -> "DensityState":
        """Transpose in the fixed computational basis (still a valid state)."""
        return DensityState(self.matrix.T.copy())


EFFECT_BLOCK = 16        # effects per block of the Hermiticity and Cholesky checks
_EPS = float(np.finfo(float).eps)


def _psd_certified(stack: np.ndarray, exact: bool) -> bool:
    """True when a Cholesky factorization proves every effect's Hermitian part
    H has smallest eigenvalue above -TOL_PSD.

    Each block of ``EFFECT_BLOCK`` effects factors H + sI with
    s = TOL_PSD - d(d+1) eps max(1, max diag H). A factorization that
    completes gives R*R = H + sI + dA with |dA| <= gamma_(d+1) |R*||R|
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10), so
    ||dA|| <= gamma_(d+1) tr(R*R), about d(d+1) (eps/2) max(1, max diag H);
    the factor 2 to spare covers the rounding of the shift and of complex
    arithmetic. Hence lambda_min(H) >= -s - ||dA|| > -TOL_PSD. ``exact``
    says every effect is exactly Hermitian, hence its own Hermitian part.
    False (a block that fails, a non-finite factor, or s <= 0) proves nothing.
    """
    d = stack.shape[1]
    diag = np.arange(d)
    for lo in range(0, len(stack), EFFECT_BLOCK):
        block = stack[lo : lo + EFFECT_BLOCK]
        h = block if exact else hermitianize(block)
        top = np.max(h[:, diag, diag].real)
        s = TOL_PSD - d * (d + 1) * _EPS * np.maximum(1.0, top)
        if not s > 0.0:
            return False
        try:
            r = np.linalg.cholesky(h + s * np.eye(d))
        except np.linalg.LinAlgError:
            return False
        if not np.isfinite(r).all():
            return False
    return True


@dataclass(eq=False)
class Observable:
    """Finite outcome-labelled POVM: positive effects summing to the identity.

    ``effects`` is one read-only (n, d, d) complex stack, built and validated
    once. The constructor takes a list of matrices, or an (n, d, d) array,
    which is kept without a copy when it is already a C-contiguous complex
    stack. Positivity is first certified by blocked Cholesky factorizations
    (see ``_psd_certified``); only when that proves nothing do the smallest
    eigenvalues decide.
    """

    effects: np.ndarray
    outcomes: list = None
    atol_complete: float = ATOL_COMPLETE

    def __post_init__(self):
        effects = self.effects
        is_stack = isinstance(effects, np.ndarray) and effects.ndim == 3
        if is_stack and effects.shape[1] == effects.shape[2]:
            stack = np.ascontiguousarray(effects, dtype=complex)
            n = n_ok = len(stack)
        else:
            mats = [as_matrix(e) for e in effects]
            n = len(mats)
            if n:
                d = mats[0].shape[0]
                n_ok = next((j for j, e in enumerate(mats) if e.shape != (d, d)), n)
                stack = np.array(mats[:n_ok]).reshape(n_ok, d, d)
        if not n:
            raise ValueError("observable needs at least one effect")
        d = stack.shape[1]
        # the error raised is that of the first effect failing a check, shape
        # before Hermiticity before positivity; non-finite entries come first.
        # A NaN or inf entry leaves a NaN or inf in its effect's Hermiticity
        # defect, so only a block with such a defect (or an overflowed one)
        # has its entries checked.
        defects = np.empty(n_ok)
        with np.errstate(invalid="ignore", over="ignore"):
            for lo in range(0, n_ok, EFFECT_BLOCK):
                block = stack[lo : lo + EFFECT_BLOCK]
                diff = np.abs(block - block.conj().transpose(0, 2, 1))
                defects[lo : lo + EFFECT_BLOCK] = np.max(diff, axis=(1, 2))
                if not np.isfinite(defects[lo : lo + EFFECT_BLOCK]).all():
                    if not np.isfinite(block).all():
                        raise ValueError(NON_FINITE)
        n_herm = next((j for j, x in enumerate(defects) if x > TOL_HERM), n_ok)
        exact = not defects[:n_herm].any()
        if not _psd_certified(stack[:n_herm], exact):
            herm = stack.conj().transpose(0, 2, 1)
            lows = np.linalg.eigvalsh((stack[:n_herm] + herm[:n_herm]) / 2)[:, 0]
            negative = np.flatnonzero(lows < -TOL_PSD)
            if negative.size:
                low = lows[negative[0]]
                raise ValueError(f"effect has eigenvalue {low:.3e} below -{TOL_PSD:.1e}")
        if n_herm < n_ok:
            raise ValueError(
                f"matrix is not Hermitian: defect {defects[n_herm]:.3e} > {TOL_HERM:.1e}"
            )
        if n_ok < n:
            raise ValueError("effects must be square matrices of equal dimension")
        defect = float(np.max(np.abs(stack.sum(0) - np.eye(d))))
        if defect > self.atol_complete:
            raise ValueError(
                f"effects sum to identity only within {defect:.3e} > {self.atol_complete:.1e}"
            )
        if self.outcomes is None:
            self.outcomes = [str(i) for i in range(n)]
        self.outcomes = [str(x) for x in self.outcomes]
        if len(self.outcomes) != n:
            raise ValueError("one outcome label per effect required")
        # a read-only view: an array taken without a copy stays writable to its owner
        self.effects = stack.view()
        self.effects.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]

    def conjugated(self, u) -> "Observable":
        """Observable with effects U† E(x) U (same outcome labels)."""
        u = as_matrix(u)
        return Observable(
            u.conj().T @ self.effects @ u,
            outcomes=list(self.outcomes),
            atol_complete=self.atol_complete,
        )

    def allclose(self, other: "Observable") -> bool:
        if self.n_outcomes != other.n_outcomes or self.dim != other.dim:
            return False
        return np.allclose(self.effects, other.effects, atol=1e-9, rtol=0.0)


class QuantumChannel:
    """Completely positive trace-preserving map in Kraus form."""

    def __init__(self, kraus: list):
        kraus = [as_matrix(k) for k in kraus]
        if not kraus:
            raise ValueError("channel needs at least one Kraus operator")
        shape = kraus[0].shape
        for k in kraus:
            if k.shape != shape:
                raise ValueError("Kraus operators must share a common shape")
        total = sum(k.conj().T @ k for k in kraus)
        defect = float(np.max(np.abs(total - np.eye(shape[1]))))
        if defect > ATOL_COMPLETE:
            raise ValueError(f"channel is not trace preserving: defect {defect:.3e}")
        self.kraus = kraus

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        return sum(k @ rho @ k.conj().T for k in self.kraus)

    def dual_matrix(self, b: np.ndarray) -> np.ndarray:
        """Heisenberg-picture action sum of K† B K on an operator, or on each
        operator of a stack (..., n, n)."""
        b = np.asarray(b, dtype=complex)
        return sum(k.conj().T @ b @ k for k in self.kraus)

    @classmethod
    def identity(cls, dim: int) -> "QuantumChannel":
        return cls([np.eye(dim, dtype=complex)])

    @classmethod
    def unitary(cls, u) -> "QuantumChannel":
        u = as_matrix(u)
        if float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))) > 1e-10:
            raise ValueError("matrix is not unitary")
        return cls([u])


def apply_channel(channel: QuantumChannel, rho: DensityState) -> DensityState:
    if rho.dim != channel.in_dim:
        raise ValueError(f"state dim {rho.dim} != channel input dim {channel.in_dim}")
    return DensityState(channel.apply_matrix(rho.matrix))


def dual_apply(channel: QuantumChannel, e: Observable) -> Observable:
    """Pull an observable back through a channel (Heisenberg picture)."""
    if e.dim != channel.out_dim:
        raise ValueError(f"observable dim {e.dim} != channel output dim {channel.out_dim}")
    return Observable(hermitianize(channel.dual_matrix(e.effects)), outcomes=list(e.outcomes))


def stinespring_dilation(channel: QuantumChannel) -> tuple[np.ndarray, int]:
    """Unitary dilation of a square channel.

    Returns ``(u, anc_dim)`` with ``anc_dim`` = number of Kraus operators,
    such that the channel equals rho -> tr_anc[u (rho x |0><0|) u†] on the
    system-first ordering (system x ancilla).
    """
    if channel.in_dim != channel.out_dim:
        raise ValueError("dilation implemented for square channels only")
    d = channel.in_dim
    kraus = channel.kraus
    r = len(kraus)
    iso = np.zeros((d * r, d), dtype=complex)
    for i, k in enumerate(kraus):
        # column j of iso = sum_i (K_i e_j) x e_i
        iso[i::r, :] += k
    u = np.zeros((d * r, d * r), dtype=complex)
    u[:, 0::r] = iso
    if r > 1:
        # complete the isometry columns to a unitary with the orthogonal
        # complement of their span
        q = np.linalg.qr(iso, mode="complete")[0]
        comp = q[:, d:]
        cols = [j for j in range(d * r) if j % r != 0]
        u[:, cols] = comp
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(d * r))))
    if defect > 1e-10:
        raise ValueError(f"dilation failed to produce a unitary (defect {defect:.3e})")
    return u, r


def outcome_distribution(e: Observable, rho: DensityState) -> np.ndarray:
    """Outcome probabilities tr[E(x) rho] as a clipped, normalized vector."""
    if e.dim != rho.dim:
        raise ValueError(f"observable dim {e.dim} != state dim {rho.dim}")
    p = np.trace(e.effects @ rho.matrix, axis1=1, axis2=2).real
    low = p.min() if p.size else 0.0
    if low < -PROB_CLIP:
        raise ValueError(f"probability {low:.3e} below -{PROB_CLIP:.1e}; broken inputs")
    p = np.clip(p, 0.0, None)
    s = p.sum()
    if abs(s - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {s!r}, not 1")
    return p


_REL_RANK_CLIP = 1e-12


def _state_root(m: np.ndarray) -> np.ndarray:
    # relative clip decides the numerical rank; without it, sqrt of noise
    # eigenvalues (~1e-16) pollutes rank-deficient states at the 1e-8 level
    w, v = np.linalg.eigh(hermitianize(m))
    w = np.clip(w, 0.0, None)
    if w.size:
        w[w < w.max() * _REL_RANK_CLIP] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho1: DensityState, rho2: DensityState) -> float:
    """State fidelity tr sqrt(sqrt(rho1) rho2 sqrt(rho1)), in [0, 1].

    Evaluated as the trace norm of the product of the two state roots, which
    is the same quantity with far better behavior on pure states. Each state
    computes its root once (``DensityState.root``).
    """
    if rho1.dim != rho2.dim:
        raise ValueError("states must share a dimension")
    prod = rho1.root @ rho2.root
    val = float(np.linalg.svd(prod, compute_uv=False).sum())
    return min(max(val, 0.0), 1.0)


@dataclass(eq=False)
class Multimeter:
    """Programmable device: probe space, pointer observable, interaction channel.

    The probe state is left free; supplying one (see ``program``) realizes an
    observable on the system.
    """

    probe_dim: int
    pointer: Observable
    interaction: QuantumChannel
    # the projective representation of a covariant device
    # (groups.CovariantMultimeter), which ``program`` then reads instead of the pointer
    representation = None

    def __post_init__(self):
        if self.pointer.dim != self.probe_dim:
            raise ValueError("pointer must act on the probe space")
        if self.interaction.in_dim != self.interaction.out_dim:
            raise ValueError("interaction must preserve the system x probe space")
        if self.interaction.in_dim % self.probe_dim != 0:
            raise ValueError("interaction dimension is not a multiple of probe_dim")

    @property
    def n_outcomes(self) -> int:
        return self.pointer.n_outcomes

    @property
    def system_dim(self) -> int:
        return self.interaction.in_dim // self.probe_dim


def _probe_contraction(k: np.ndarray, xi: np.ndarray, d_sys: int, d_probe: int) -> np.ndarray:
    """One Kraus operator's term of T, rows (p, m) and columns (q, i)."""
    k4 = k.reshape(d_sys, d_probe, d_sys, d_probe)
    n = d_sys * d_probe
    # both factors are written straight into row-major (probe, system, s, l')
    # buffers, so neither the product nor the transpose leaves an extra copy
    a = np.empty((d_probe, d_sys, d_sys, d_probe), dtype=complex)
    np.matmul(k4, xi, out=a.transpose(2, 0, 1, 3))
    b = np.conjugate(k4.transpose(1, 2, 0, 3), out=np.empty_like(a))
    return a.reshape(n, n) @ b.reshape(n, n).T


def program(multimeter: Multimeter, xi: DensityState) -> Observable:
    """Observable E_xi realized on the system when the probe starts in ``xi``.

    Every effect is tr_probe of the dual interaction of 1 x Z(x) against
    1 x xi, computed per probe state with nothing cached on the device. For a
    Kraus channel the probe state is contracted through each Kraus operator
    once, giving
    T[(p,m),(q,i)] = sum_r sum_(s,l,l') K_r[s,p,m,l] xi[l,l'] conj(K_r[s,q,i,l'])
    (s, m, i index the system, p, q, l the probe), and every effect is read
    off in one product, E(x)_im = sum_(p,q) Z(x)[q,p] T[(p,m),(q,i)].

    A covariant device (pointer effects (d^2/n)|u_g><u_g| with
    u_g = vec U(g)/sqrt(d), the system swapped into the probe's first factor)
    needs neither: E_xi(g) = (d/n) U(g) sigma^T U(g)^dagger, with
    sigma = tr_1 xi the probe state traced over its first factor. A
    completeness defect beyond 1e-8 signals a broken interaction channel.
    """
    d_sys, d_probe = multimeter.system_dim, multimeter.probe_dim
    if xi.dim != d_probe:
        raise ValueError(f"probe state dim {xi.dim} != probe dim {d_probe}")
    xi = xi.matrix
    rep = multimeter.representation
    if rep is not None:
        sigma = np.trace(xi.reshape(d_sys, d_sys, d_sys, d_sys), axis1=0, axis2=2)
        u = rep.matrices
        stacked = (d_sys / rep.group.order) * u @ sigma.T @ u.conj().transpose(0, 2, 1)
        outcomes = rep.group.names
    else:
        t = sum(_probe_contraction(k, xi, d_sys, d_probe) for k in multimeter.interaction.kraus)
        # rows (q, p), columns (i, m), to meet Z(x)[q, p] flattened row-major
        t_qp = t.reshape(d_probe, d_sys, d_probe, d_sys).transpose(2, 0, 3, 1)
        t_qp = t_qp.reshape(d_probe**2, d_sys**2)
        z = multimeter.pointer.effects
        stacked = (z.reshape(-1, d_probe**2) @ t_qp).reshape(-1, d_sys, d_sys)
        outcomes = multimeter.pointer.outcomes
    return Observable(hermitianize(stacked), outcomes=list(outcomes), atol_complete=1e-8)
