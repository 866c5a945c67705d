"""Finite groups, projective representations, covariant observables, and the
coset method for sharpening them into projective measurements."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import as_matrix, hermitianize, tensor
from .postprocessing import PostProcessing
from .quantum import DensityState, Multimeter, Observable, QuantumChannel

UNITARY_TOL = 1e-10
MULTIPLIER_TOL = 1e-9
EIGVEC_INVARIANCE_TOL = 1e-9
TARGET_EIGENVALUE_TOL = 1e-8
IRREDUCIBLE_TOL = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(eq=False)
class FiniteGroup:
    """Finite group as an element-name list plus a multiplication index table."""

    names: list
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=int)
        n = len(self.names)
        if t.shape != (n, n):
            raise ValueError(f"table shape {t.shape} does not match {n} elements")
        ar = np.arange(n)
        if not np.all(np.sort(t, axis=1) == ar[None, :]):
            raise ValueError("multiplication table rows are not permutations")
        if not np.all(np.sort(t, axis=0) == ar[:, None]):
            raise ValueError("multiplication table columns are not permutations")
        # associativity one left factor a at a time, (ab)c against a(bc) for
        # every b, c: O(n^2) memory instead of two n^3 tables
        if not all(np.array_equal(t[t[a]], t[a][t]) for a in range(n)):
            raise ValueError("multiplication table is not associative")
        idn = np.flatnonzero(np.all(t == ar, axis=1) & np.all(t.T == ar, axis=1))
        if idn.size != 1:
            raise ValueError("table does not have a unique identity")
        self.table = t
        self.identity = int(idn[0])
        # gh = e and kg = e give k = k(gh) = (kg)h = h: each right inverse is two-sided
        self.inverse = np.argmax(t == self.identity, axis=1)

    @property
    def order(self) -> int:
        return len(self.names)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def element_order(self, g: int) -> int:
        out, k = g, 1
        while out != self.identity:
            out = self.mul(out, g)
            k += 1
        return k


@dataclass(eq=False)
class CyclicSubgroup:
    """Cyclic subgroup recorded as its generator and the cycle of its powers."""

    group: FiniteGroup
    generator: int

    def __post_init__(self):
        elems = [self.group.identity]
        g = self.generator
        while g != self.group.identity:
            elems.append(g)
            g = self.group.mul(g, self.generator)
        self.elements = tuple(elems)

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_set(self) -> frozenset:
        return frozenset(self.elements)


def cyclic_subgroups(group: FiniteGroup, n: int) -> list:
    """All distinct cyclic subgroups of order ``n``, deduplicated as element sets."""
    found = {}
    for g in range(group.order):
        if group.element_order(g) == n:
            sub = CyclicSubgroup(group, g)
            key = sub.element_set()
            if key not in found:
                found[key] = sub
    if n == 1:
        found.setdefault(frozenset({group.identity}), CyclicSubgroup(group, group.identity))
    return sorted(found.values(), key=lambda s: s.generator)


def _require_subgroup(group: FiniteGroup, sub: CyclicSubgroup) -> np.ndarray:
    if sub.group is not group and not np.array_equal(sub.group.table, group.table):
        raise ValueError("subgroup belongs to a different group")
    h = np.array(sub.elements)
    if not set(group.table[np.ix_(h, h)].ravel().tolist()) <= set(sub.elements):
        raise ValueError("subgroup elements are not closed under the group product")
    return h


def left_cosets(group: FiniteGroup, sub: CyclicSubgroup) -> list:
    """Partition of element indices into left cosets of ``sub``.

    The coset containing the identity comes first, the rest follow in order of
    their smallest element index; every coset is sorted, so that index leads it.
    """
    h = _require_subgroup(group, sub)
    # g and g' share a left coset exactly when gH = g'H, so min(gH) labels it;
    # a stable sort, identity's label first, lines up the |H|-element cosets
    labels = group.table[:, h].min(axis=1)
    return np.lexsort((labels, labels != labels[group.identity])).reshape(-1, len(h)).tolist()


def coset_postprocessing(group: FiniteGroup, sub: CyclicSubgroup) -> PostProcessing:
    """Deterministic kernel merging group-labelled outcomes by left coset."""
    cosets = np.array(left_cosets(group, sub))
    kernel = np.zeros((group.order, len(cosets)))
    kernel[cosets, np.arange(len(cosets))[:, None]] = 1.0
    return PostProcessing(kernel, out_labels=[group.names[g] for g in cosets[:, 0]])


@dataclass(eq=False)
class ProjectiveRepresentation:
    """One unitary per group element, homomorphic up to a unit-modulus multiplier,
    kept as one read-only (n, d, d) complex stack indexed by element."""

    group: FiniteGroup
    matrices: np.ndarray

    def __post_init__(self):
        mats = [as_matrix(u) for u in self.matrices]
        if len(mats) != self.group.order:
            raise ValueError("one matrix per group element required")
        d = mats[0].shape[0]
        if any(m.shape != (d, d) for m in mats):
            raise ValueError("representation matrices must share a dimension")
        u = np.stack(mats)
        if float(np.max(np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(d)))) > UNITARY_TOL:
            raise ValueError("representation matrix is not unitary")
        mu = np.empty((len(mats), len(mats)), dtype=complex)
        defect = 0.0
        # one row of products U(g)U(h) at a time: O(|G| d^2) memory, not O(|G|^2 d^2)
        for g, row in enumerate(self.group.table):
            prod = u[g] @ u
            target = u[row]
            mu[g] = np.einsum("hab,hab->h", prod, target.conj()) / d
            defect = max(defect, float(np.max(np.abs(prod - mu[g][:, None, None] * target))))
        if float(np.max(np.abs(np.abs(mu) - 1.0))) > MULTIPLIER_TOL:
            raise ValueError("multiplier is not unit modulus; not a projective representation")
        if defect > MULTIPLIER_TOL:
            raise ValueError(f"products deviate from the group law by {defect:.3e}")
        u.flags.writeable = False
        self.matrices = u
        self.multiplier = mu

    @property
    def degree(self) -> int:
        return self.matrices.shape[1]

    def unitary(self, g: int) -> np.ndarray:
        return self.matrices[g]


def covariant_observable(rep: ProjectiveRepresentation, seed: DensityState) -> Observable:
    """Group-covariant POVM with effects (d/#G) U(g) seed U(g)†.

    Completeness of the effect family is exactly the operational consequence
    of irreducibility, so a normalization failure is reported as such.
    """
    d, n = rep.degree, rep.group.order
    if seed.dim != d:
        raise ValueError(f"seed dim {seed.dim} != representation degree {d}")
    u = rep.matrices
    effects = hermitianize((d / n) * u @ seed.matrix @ u.conj().transpose(0, 2, 1))
    try:
        return Observable(effects, outcomes=list(rep.group.names))
    except ValueError as exc:
        raise ValueError(
            f"covariant effects do not form an observable ({exc}); "
            "the representation is likely not irreducible"
        ) from exc


# ---------------------------------------------------------------------------
# fixtures


@lru_cache(maxsize=None)
def q8_representation() -> ProjectiveRepresentation:
    """Degree-2 irreducible representation of the quaternion group.

    Element order is 1, -1, i, -i, j, -j, k, -k with U(i) = i sigma_x,
    U(j) = -i sigma_y, U(k) = i sigma_z. The matrices state the group law:
    their entries are 0, +-1 and +-i, so every product U(g)U(h) is exactly one
    of the eight, and the multiplication table is the index of that product.
    """
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    units = [np.eye(2, dtype=complex), 1j * PAULI_X, -1j * PAULI_Y, 1j * PAULI_Z]
    u = np.stack([m for unit in units for m in (unit, -unit)])
    hits = np.all((u[:, None] @ u)[:, :, None] == u, axis=(-2, -1))
    return ProjectiveRepresentation(FiniteGroup(names, np.argmax(hits, axis=-1)), u)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(n**0.5) + 1):
        if n % p == 0:
            return False
    return True


@lru_cache(maxsize=None)
def weyl_heisenberg(d: int) -> ProjectiveRepresentation:
    """Displacement representation of Z_d x Z_d on a d-dimensional space.

    U(x, y) maps basis vector phi_k to omega^(y k) phi_(k+x) with
    omega = exp(2 pi i / d). Requires prime d.
    """
    if not is_prime(d):
        raise ValueError(f"dimension must be prime, got {d}")
    names = [f"({x},{y})" for x in range(d) for y in range(d)]
    n = d * d
    x, y = divmod(np.arange(n), d)
    group = FiniteGroup(names, (x[:, None] + x) % d * d + (y[:, None] + y) % d)
    omega = np.exp(2j * np.pi / d)
    ks = np.arange(d)
    u = np.zeros((n, d, d), dtype=complex)
    u[np.arange(n)[:, None], (ks + x[:, None]) % d, ks] = omega ** (y[:, None] * ks)
    return ProjectiveRepresentation(group, u)


def wh_element_index(d: int, x: int, y: int) -> int:
    return (x % d) * d + (y % d)


# ---------------------------------------------------------------------------
# programming vectors and sharp observables


@dataclass(eq=False)
class ProgramVectors:
    """Orthonormal eigenvectors of U(generator), ordered by eigenvalue phase."""

    vectors: np.ndarray      # columns
    eigenvalues: np.ndarray


def eigenvector_program_states(rep: ProjectiveRepresentation, generator: int) -> ProgramVectors:
    """Eigenvectors of U(generator), each an invariant seed for the subgroup it generates.

    The generator must produce a cyclic subgroup of order #G / degree, the
    regime where coset merging of the covariant observable turns sharp.
    """
    group = rep.group
    want = group.order // rep.degree
    have = group.element_order(generator)
    if have != want:
        raise ValueError(
            f"generator has order {have}, expected #G/degree = {want}"
        )
    import scipy.linalg

    u = rep.unitary(generator)
    # Schur form of a normal matrix: unitary eigenbasis regardless of degeneracy
    t, z = scipy.linalg.schur(u, output="complex")
    eigvals = np.diag(t).copy()
    phases = np.mod(np.angle(eigvals), 2 * np.pi)
    order = np.argsort(phases, kind="stable")
    eigvals = eigvals[order]
    vecs = z[:, order]
    pivots = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    # the scalar abs, not the array np.abs: the two round differently, and
    # every programmed payload downstream carries these phases
    vecs = vecs / np.array([x / abs(x) for x in pivots])
    p = vecs.T[:, :, None] * vecs.T.conj()[:, None, :]
    if float(np.max(np.abs(u @ p @ u.conj().T - p))) > EIGVEC_INVARIANCE_TOL:
        raise ValueError("schur vector failed the invariance check")
    return ProgramVectors(vecs, eigvals)


def eigenvector_program(
    rep: ProjectiveRepresentation, generator: int, target_eigenvalue: complex
) -> tuple:
    """Program the sharp observable of the cyclic subgroup ``<generator>``.

    Picks the eigenvector of U(generator) whose eigenvalue is nearest the
    target; when none lies within TARGET_EIGENVALUE_TOL (d = 2 phase space)
    the first vector, smallest eigenvalue phase, is used instead. Returns
    ``(psi, probe, kernel, exact)``: the vector, the probe state
    maximally_mixed x transpose(psi) for the covariant multimeter, the coset
    merging kernel that sharpens the programmed observable, and whether the
    target eigenvalue was found.
    """
    pv = eigenvector_program_states(rep, generator)
    dist = np.abs(pv.eigenvalues - target_eigenvalue)
    pick = int(np.argmin(dist))
    exact = bool(dist[pick] <= TARGET_EIGENVALUE_TOL)
    psi = pv.vectors[:, pick if exact else 0]
    probe = covariant_program_state(
        DensityState.maximally_mixed(rep.degree), DensityState.from_vector(psi)
    )
    kernel = coset_postprocessing(rep.group, CyclicSubgroup(rep.group, generator))
    return psi, probe, kernel, exact


def sharp_from_subgroup(
    rep: ProjectiveRepresentation, sub: CyclicSubgroup, psi: np.ndarray
) -> Observable:
    """Sharp observable from coset-merging the covariant POVM seeded with psi.

    psi must be an eigenvector of U(generator); the effects are the orbit of
    its projection under coset representatives.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != rep.degree:
        raise ValueError("vector dimension does not match the representation degree")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError("psi must be a unit vector")
    p = np.outer(psi, psi.conj())
    u_gen = rep.unitary(sub.generator)
    if float(np.max(np.abs(u_gen @ p @ u_gen.conj().T - p))) > EIGVEC_INVARIANCE_TOL:
        raise ValueError("psi is not an eigenvector of the subgroup generator")
    firsts = [coset[0] for coset in left_cosets(rep.group, sub)]
    u = rep.matrices[firsts]
    effects = hermitianize(u @ p @ u.conj().transpose(0, 2, 1))
    return Observable(effects, outcomes=[rep.group.names[g] for g in firsts])


# ---------------------------------------------------------------------------
# the covariant multimeter


def pointer_vector(rep: ProjectiveRepresentation, g: int | np.ndarray) -> np.ndarray:
    """Unit vector u(g) = (U(g) x 1) applied to the maximally entangled vector.

    Entry (a, b) of that vector is U(g)[a, b] / sqrt(d), so it is the
    flattened matrix, with no Kronecker product. For an index array ``g`` the
    vectors are the rows of the result.
    """
    return rep.matrices[g].reshape(np.shape(g) + (-1,)) * (1.0 / np.sqrt(rep.degree))


def partial_swap_channel(d: int) -> QuantumChannel:
    """Unitary channel permuting A x B x C to B x A x C on three d-dim factors:
    its one Kraus operator is the dense d^3 x d^3 0/1 matrix of basis vector
    (a, b, c) -> (b, a, c)."""
    perm = np.arange(d**3).reshape(d, d, d).transpose(1, 0, 2).reshape(-1)
    return QuantumChannel([np.eye(d**3, dtype=complex)[perm]])


def covariant_pointer(rep: ProjectiveRepresentation) -> Observable:
    """Pointer of the covariant multimeter: effects (d^2/#G)|u(g)><u(g)|."""
    d, n = rep.degree, rep.group.order
    u = pointer_vector(rep, np.arange(n))
    # scale * outer(u, conj(u)) for every g, scaled in place: one (n, d^2, d^2) array
    effects = u[:, :, None] * u.conj()[:, None, :]
    effects *= d * d / n
    return Observable(effects, outcomes=list(rep.group.names))


class CovariantMultimeter(Multimeter):
    """The partial-SWAP multimeter of an irreducible projective representation.

    ``program`` reads only ``representation``. The (n, d^2, d^2) pointer stack
    and the d^3 x d^3 partial-SWAP interaction are each built when first read,
    and kept.
    """

    def __init__(self, rep: ProjectiveRepresentation):
        self.representation = rep
        self.probe_dim = rep.degree**2

    @cached_property
    def pointer(self) -> Observable:
        return covariant_pointer(self.representation)

    @cached_property
    def interaction(self) -> QuantumChannel:
        return partial_swap_channel(self.representation.degree)

    @property
    def n_outcomes(self) -> int:
        return self.representation.group.order

    @property
    def system_dim(self) -> int:
        return self.representation.degree

    def dual_pointer_effects(self) -> list:
        """Pointer effects pulled back through the partial SWAP: the dense
        Heisenberg duals K†(1 x Z(x))K, one per outcome, rebuilt on every call.

        K permutes basis vectors, so each dual is an index transpose of
        1 x Z(x), swapping the first two factors of its rows and of its
        columns. Programming never reads it; only the ``ProgramWarm`` set-up
        of the benchmark calls it.
        """
        d = self.representation.degree
        eye = np.eye(d, dtype=complex)
        return [
            tensor(eye, z).reshape((d,) * 6).transpose(1, 0, 2, 4, 3, 5).reshape(d**3, d**3)
            for z in self.pointer.effects
        ]


def covariant_multimeter(rep: ProjectiveRepresentation) -> Multimeter:
    """Single device programming every covariant observable of a representation.

    The probe is a doubled system space; the pointer effects are scaled
    projections onto the vectors u(g); the interaction swaps the system with
    the probe's first factor. Programming with eta x transpose(seed) realizes
    the covariant observable of the seed for any eta.

    The pointer is complete exactly when the representation is irreducible,
    which Schur's criterion sum_g |tr U(g)|^2 = #G checks up front.
    """
    n = rep.group.order
    chars = float(np.sum(np.abs(np.trace(rep.matrices, axis1=1, axis2=2)) ** 2))
    if abs(chars - n) > IRREDUCIBLE_TOL * n:
        raise ValueError(
            f"representation is not irreducible: sum |tr U(g)|^2 = {chars:.6g} != #G = {n}"
        )
    return CovariantMultimeter(rep)


def covariant_program_state(eta: DensityState, seed: DensityState) -> DensityState:
    """Probe state eta x transpose(seed) that programs the seed's observable."""
    return DensityState(tensor(eta.matrix, seed.matrix.T))
