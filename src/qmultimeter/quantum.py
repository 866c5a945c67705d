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
ATOL_PROGRAM = 1e-8      # the same for a programmed observable
NEG_MASS_TOL = 1e-9      # repairable negative eigenvalue mass in a state
PROB_CLIP = 1e-12        # outcome probabilities this far below zero are noise


def _require_unit_trace(matrix, hermitian: bool = False) -> np.ndarray:
    """A finite, square, Hermitian (within TOL_HERM) matrix of unit trace.
    ``hermitian`` says the caller has proved the first three, so that only
    the trace is checked."""
    m = matrix if hermitian else require_hermitian(matrix)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > ATOL_TRACE:
        raise ValueError(f"state trace {tr!r} is not 1 within {ATOL_TRACE:.1e}")
    return m


@dataclass(eq=False)
class DensityState:
    """Positive unit-trace matrix, kept as a read-only view.

    Negative eigenvalue mass up to ``PROB_CLIP`` is rounding noise and kept,
    so a stored matrix validated again (as a loader does) is left bit for bit
    as it was. Mass up to ``NEG_MASS_TOL`` from upstream arithmetic is
    re-projected onto the PSD cone and the trace renormalized; anything larger
    is rejected as a real bug.

    ``DensityState(m)``, and so every loaded or sampled state, finds that mass
    with ``eigh``. ``from_vector``, ``maximally_mixed`` and
    ``groups.covariant_program_state`` know their spectrum from how they are
    built and read the mass off it (``_with_spectrum``), after the trace check
    and the same finite and Hermiticity checks, which the probe skips when
    its factors bound its Hermiticity defect. Each state keeps the spectrum its
    validation found or was given. A state whose matrix ``eigh`` validated
    unchanged also keeps the eigenvectors, until ``root`` is built from them.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _require_unit_trace(self.matrix)
        # finite entries can overflow the Hermitian part: eigh then returns NaN
        with np.errstate(over="ignore", invalid="ignore"):
            w, v = np.linalg.eigh(hermitianize(m))
        if not np.isfinite(w).all():
            raise ValueError("state has a non-finite spectrum")
        neg_mass = float(-np.sum(w[w < 0.0]))
        if neg_mass > NEG_MASS_TOL:
            raise ValueError(f"state has negative eigenvalue mass {neg_mass:.3e}")
        if neg_mass > PROB_CLIP:
            w = np.clip(w, 0.0, None)
            m = (v * w) @ v.conj().T
            tr = float(np.trace(m).real)
            # re-projected: the eigenvectors are no longer those of eigh(m)
            m, w, v = hermitianize(m / tr), w / tr, None
        self._keep(m, w, v)

    def _keep(self, m: np.ndarray, spectrum: np.ndarray, vectors=None):
        # a read-only view: an array taken without a copy stays writable to its owner
        self.matrix = m.view()
        self.matrix.flags.writeable = False
        # the eigenvalues its validation found or was given, and the
        # eigenvectors of eigh(hermitianize(matrix)) when validation ran it
        self._spectrum = spectrum
        self._vectors = vectors

    @classmethod
    def _with_spectrum(cls, matrix, spectrum, hermitian: bool = False) -> "DensityState":
        """The state of ``matrix``, whose eigenvalues ``spectrum`` are known
        from how it was built, validated without ``eigh``.

        The finite, square, Hermiticity and trace checks are those of
        ``DensityState(matrix)``; ``hermitian`` says the caller has proved the
        matrix finite, square and Hermitian within ``TOL_HERM``, so that only
        the trace is checked. A negative mass of ``spectrum`` within
        ``PROB_CLIP`` is kept as it is, as ``eigh`` would keep it, so the
        matrix is stored bit for bit; any more falls back to
        ``DensityState(matrix)``, which re-projects or rejects it.
        """
        spectrum = np.asarray(spectrum, dtype=float)
        if float(-np.sum(spectrum[spectrum < 0.0])) > PROB_CLIP:
            return cls(matrix)
        state = cls.__new__(cls)
        state._keep(_require_unit_trace(matrix, hermitian), spectrum.ravel())
        return state

    @classmethod
    def from_vector(cls, psi) -> "DensityState":
        """The pure state of a nonzero finite vector.

        The outer product of a unit vector has spectrum {1, 0, ...}, and its
        rounding moves that by at most about 2 sqrt(d) eps, far inside
        ``PROB_CLIP``. A vector whose norm underflows to 0 or overflows is
        first scaled by its largest modulus.
        """
        v = np.asarray(psi, dtype=complex).reshape(-1)
        if not np.isfinite(v).all():
            raise ValueError(NON_FINITE)
        with np.errstate(over="ignore"):
            n = float(np.linalg.norm(v))
        if n == 0.0 or n == np.inf:
            top = float(np.max(np.abs(v), initial=0.0))
            if top == 0.0:
                raise ValueError("cannot build a state from the zero vector")
            v = v / top
            n = float(np.linalg.norm(v))
        v = v / n
        # eigenvalues 1, 0, ..., 0
        return cls._with_spectrum(np.outer(v, v.conj()), np.eye(len(v), 1).ravel())

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityState":
        return cls._with_spectrum(np.eye(dim, dtype=complex) / dim, np.full(dim, 1.0 / dim))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def root(self) -> np.ndarray:
        """The read-only square root ``_state_root(matrix)``, computed on first
        read from the eigenvectors validation kept, if any, which it drops."""
        vectors, self._vectors = self._vectors, None
        root = _state_root(self.matrix, None if vectors is None else (self._spectrum, vectors))
        root.flags.writeable = False
        return root


# entries per block of the Hermiticity and eigenvalue checks of an effect stack:
# 2^14 complex entries are 256 KiB: all 49 effects of d = 7, one effect from d = 91 on
EFFECT_BLOCK_ELEMENTS = 2**14


def _effect_block(d: int) -> int:
    """Effects per block: at most ``EFFECT_BLOCK_ELEMENTS`` entries, at least one effect."""
    return max(1, EFFECT_BLOCK_ELEMENTS // (d * d))


@dataclass(eq=False)
class Observable:
    """Finite outcome-labelled POVM: positive effects summing to the identity.

    ``effects`` is one read-only (n, d, d) complex stack, built and validated
    once. The constructor takes a list of matrices, or an (n, d, d) array,
    which is kept without a copy when it is already a C-contiguous complex
    stack. It is checked in one pass over blocks of at most
    ``EFFECT_BLOCK_ELEMENTS`` entries: each effect's Hermiticity defect, then
    the smallest eigenvalue of its Hermitian part, E/2 + E^dagger/2, which
    no finite effect overflows. An effect is positive only when that
    eigenvalue is at least -TOL_PSD, so a NaN eigenvalue fails. An
    observable built by ``_from_factors`` keeps its Gram factors instead and
    builds ``effects`` when it is first read.
    """

    effects: np.ndarray
    outcomes: list = None
    atol_complete: float = ATOL_COMPLETE
    # the read-only (n, d, r) Gram factors of an observable built by
    # ``_from_factors``; every other observable has none
    _factors = None

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
        if not d:
            raise ValueError("effects must be square matrices of dimension at least 1")
        # the error raised is that of the first effect failing a check, shape
        # before Hermiticity before positivity; non-finite entries come first.
        # A NaN or inf entry leaves a NaN or inf in its effect's Hermiticity
        # defect, so only a block with such a defect (or an overflowed one)
        # has its entries checked. Eigenvalues are taken only up to the first
        # effect that fails either check.
        low = defect = None
        step = _effect_block(d)
        with np.errstate(invalid="ignore", over="ignore"):
            for lo in range(0, n_ok, step):
                block = stack[lo : lo + step]
                herm = block.conj().transpose(0, 2, 1)
                defects = np.max(np.abs(block - herm), axis=(1, 2))
                if not np.isfinite(defects).all() and not np.isfinite(block).all():
                    raise ValueError(NON_FINITE)
                if low is None and defect is None:
                    skew = np.flatnonzero(defects > TOL_HERM)
                    k = skew[0] if skew.size else len(block)
                    lows = np.linalg.eigvalsh(block[:k] / 2 + herm[:k] / 2)[:, 0]
                    negative = np.flatnonzero(~(lows >= -TOL_PSD))
                    if negative.size:
                        low = lows[negative[0]]
                    elif skew.size:
                        defect = defects[k]
            # finite effects can overflow their sum, which then fails completeness
            total = stack.sum(0)
        if low is not None:
            raise ValueError(f"effect has eigenvalue {low:.3e} below -{TOL_PSD:.1e}")
        if defect is not None:
            raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > {TOL_HERM:.1e}")
        if n_ok < n:
            raise ValueError("effects must be square matrices of equal dimension")
        self._check_sum_and_labels(total, n)
        # a read-only view: an array taken without a copy stays writable to its owner
        self.effects = stack.view()
        self.effects.flags.writeable = False

    def _check_sum_and_labels(self, total: np.ndarray, n: int):
        """Check that the effects, of sum ``total``, sum to the identity and
        that there is one label for each of the ``n`` effects."""
        defect = float(np.max(np.abs(total - np.eye(len(total)))))
        if defect > self.atol_complete:
            raise ValueError(
                f"effects sum to identity only within {defect:.3e} > {self.atol_complete:.1e}"
            )
        if self.outcomes is None:
            self.outcomes = [str(i) for i in range(n)]
        self.outcomes = [str(x) for x in self.outcomes]
        if len(self.outcomes) != n:
            raise ValueError("one outcome label per effect required")

    @classmethod
    def _from_factors(cls, factors, outcomes, atol_complete: float) -> "Observable":
        """The observable of the Gram products E(x) = hermitianize(a a^dagger)
        of the (d, r) factors a = ``factors[x]``. It keeps the factors,
        read-only, and builds the effects, one batched product, when
        ``effects`` is first read.

        Completeness is checked on the factors: with M the d x n r matrix of
        all factors side by side, the effects sum to M M^dagger, held within
        ``atol_complete`` of the identity. A non-finite sum is rejected
        first; a NaN or inf factor entry M_ij leaves one in the diagonal
        entry sum_j |M_ij|^2, so it is rejected too. The labels are checked
        as in ``Observable(effects)``.
        The effects cannot fail the Hermiticity and eigenvalue checks of
        ``Observable(effects)``, so they are not run: ``hermitianize`` makes
        each effect exactly Hermitian, and the computed a a^dagger is the
        Gram product of the stored a, which is positive, plus a rounding
        error of norm at most about r eps tr E(x) (Higham, Accuracy and
        Stability of Numerical Algorithms, ch. 3). Since
        tr E(x) <= tr M M^dagger, within ``atol_complete`` of d, every
        eigenvalue lies above about -r d eps, far inside -TOL_PSD.
        """
        n, d, r = factors.shape
        side_by_side = factors.transpose(1, 0, 2).reshape(d, n * r)
        total = side_by_side @ side_by_side.conj().T
        if not np.isfinite(total).all():
            raise ValueError(NON_FINITE)
        obs = cls.__new__(cls)
        obs.outcomes, obs.atol_complete = outcomes, atol_complete
        obs._check_sum_and_labels(total, n)
        obs._factors = factors.view()
        obs._factors.flags.writeable = False
        return obs

    def __getattr__(self, name):
        # reached only for an attribute not set: the effects of an observable
        # built by ``_from_factors``, built on first read and kept
        if name != "effects" or self._factors is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.effects = hermitianize(self._factors @ self._factors.conj().swapaxes(-1, -2))
        self.effects.flags.writeable = False
        return self.effects

    @property
    def dim(self) -> int:
        return (self.effects if self._factors is None else self._factors).shape[1]

    @property
    def n_outcomes(self) -> int:
        return (self.effects if self._factors is None else self._factors).shape[0]

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

    def dual_matrix(self, b: np.ndarray) -> np.ndarray:
        """Heisenberg-picture action sum of K† B K on an operator, or on each
        operator of a stack (..., n, n)."""
        b = np.asarray(b, dtype=complex)
        return sum(k.conj().T @ b @ k for k in self.kraus)


def dual_apply(channel: QuantumChannel, e: Observable) -> Observable:
    """Pull an observable back through a channel (Heisenberg picture)."""
    if e.dim != channel.out_dim:
        raise ValueError(f"observable dim {e.dim} != channel output dim {channel.out_dim}")
    return Observable(hermitianize(channel.dual_matrix(e.effects)), outcomes=list(e.outcomes))


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


# eigenvalues below this fraction of the largest count as zero: the rank
# decision of a state's square root and of a covariant seed's factor
REL_RANK_CLIP = 1e-12


def _state_root(m: np.ndarray, eigh: tuple = None) -> np.ndarray:
    # ``eigh``, when given, is np.linalg.eigh(hermitianize(m)), already run.
    # relative clip decides the numerical rank; without it, sqrt of noise
    # eigenvalues (~1e-16) pollutes rank-deficient states at the 1e-8 level
    w, v = np.linalg.eigh(hermitianize(m)) if eigh is None else eigh
    w = np.clip(w, 0.0, None)
    if w.size:
        w[w < w.max() * REL_RANK_CLIP] = 0.0
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


# the contraction order of ``Multimeter.programmed_observable``, fixed so that no
# path search runs on each call and none can move the rounding: xi into
# conj(K), that against K (the tensor T), then T against the pointer
_KRAUS_PATH = ["einsum_path", (1, 2), (0, 2), (0, 1)]


@dataclass(eq=False)
class Multimeter:
    """Programmable device: probe space, pointer observable, interaction channel.

    The probe state is left free; supplying one (see ``program``) realizes an
    observable on the system.
    """

    probe_dim: int
    pointer: Observable
    interaction: QuantumChannel

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

    def programmed_observable(self, xi: np.ndarray) -> Observable:
        """The observable realized on the system by the probe state matrix
        ``xi``, validated in full. Each effect is tr_probe of the dual
        interaction of 1 x Z(x) against 1 x xi, one ``np.einsum`` over the
        stacked Kraus operators K_r[s,p,m,l] (s, m, i index the system,
        p, q, l, j the probe). The probe state is contracted into
        T[p,m,q,i] = sum_(r,s,l,j) K_r[s,p,m,l] xi[l,j] conj(K_r[s,q,i,j]),
        and every effect is read off it, E(x)_im = sum_(p,q) Z(x)[q,p] T[p,m,q,i].
        """
        d_sys, d_probe = self.system_dim, self.probe_dim
        k = np.array(self.interaction.kraus).reshape(-1, d_sys, d_probe, d_sys, d_probe)
        z = self.pointer.effects
        effects = np.einsum("rspml,lj,rsqij,xqp->xim", k, xi, k.conj(), z, optimize=_KRAUS_PATH)
        return Observable(
            hermitianize(effects), outcomes=list(self.pointer.outcomes), atol_complete=ATOL_PROGRAM
        )


def program(multimeter: Multimeter, xi: DensityState) -> Observable:
    """Observable E_xi realized on the system when the probe starts in ``xi``.

    The device builds and validates it (``programmed_observable``): a Kraus
    contraction checked in full for a ``Multimeter``, Gram products certified
    by construction for a covariant device (``groups.CovariantMultimeter``).
    A completeness defect beyond ``ATOL_PROGRAM`` signals a broken
    interaction channel.
    """
    if xi.dim != multimeter.probe_dim:
        raise ValueError(f"probe state dim {xi.dim} != probe dim {multimeter.probe_dim}")
    return multimeter.programmed_observable(xi.matrix)
