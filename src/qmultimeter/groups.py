"""Finite groups, projective representations, covariant observables, and the
coset method for sharpening them into projective measurements."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import as_matrix, hermitianize, tensor
from .postprocessing import PostProcessing
from .quantum import ATOL_COMPLETE, ATOL_PROGRAM, DensityState, Multimeter, Observable, block_items

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
    """Finite group as an element-name list plus a multiplication index table.

    The table must be a Latin square with a two-sided identity. ``generators``
    are picked greedily: the smallest element outside the subgroup generated
    so far, so never the identity (Z_d x Z_d gets (0,1) and (1,0); the
    quaternion order 1, -1, i, ... gets -1, i and j). Associativity is then
    Light's test: (xs)y = x(sy) for every x, y and every generator s. The
    elements s with that property form a closed subset, so it holds for the
    whole table once it holds on a generating set (A. H. Clifford and
    G. B. Preston, The Algebraic Theory of Semigroups, vol. I, 1961).
    """

    names: list
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table)
        # an integer dtype, not a cast: a cast would truncate 0.9 to the index 0
        if not np.issubdtype(t.dtype, np.integer):
            raise ValueError(f"multiplication table entries must be integers, got {t.dtype}")
        n = len(self.names)
        if t.shape != (n, n):
            raise ValueError(f"table shape {t.shape} does not match {n} elements")
        ar = np.arange(n)
        if not np.all(np.sort(t, axis=1) == ar[None, :]):
            raise ValueError("multiplication table rows are not permutations")
        if not np.all(np.sort(t, axis=0) == ar[:, None]):
            raise ValueError("multiplication table columns are not permutations")
        idn = np.flatnonzero(np.all(t == ar, axis=1) & np.all(t.T == ar, axis=1))
        if idn.size != 1:
            raise ValueError("table does not have a unique identity")
        # the subgroup <gens> grows from the identity by right products with
        # the generators; a boolean mask per step, O(n) memory
        inside = ar == idn[0]
        gens = []
        while not inside.all():
            gens.append(int(np.argmin(inside)))
            size = 0
            while size < inside.sum():
                size = inside.sum()
                inside[t[np.ix_(inside, gens)]] = True
        # (xs)y against x(sy) for every x, y: O(n^2) memory per generator
        if not all(np.array_equal(t[t[:, s]], t[:, t[s]]) for s in gens):
            raise ValueError("multiplication table is not associative")
        self.table = t
        self.identity = int(idn[0])
        self.generators = tuple(gens)

    @property
    def order(self) -> int:
        return len(self.names)


def _check_index(group: FiniteGroup, generator) -> None:
    """``generator`` must be an integer element index in [0, #G): a negative
    index would wrap to another element and a bool would pass as 0 or 1."""
    if isinstance(generator, (bool, np.bool_)) or not isinstance(generator, (int, np.integer)):
        raise ValueError(f"generator index must be an integer, got {generator!r}")
    if not 0 <= generator < group.order:
        raise ValueError(f"generator index {generator} outside [0, {group.order})")


def cyclic_subgroup(group: FiniteGroup, generator: int) -> np.ndarray:
    """The powers e, g, g^2, ... of ``generator`` read off the table, identity
    first: closed, and a subgroup of ``group``, by construction. The index is
    checked as ``_check_index`` says."""
    _check_index(group, generator)
    powers = [group.identity]
    while (g := int(group.table[powers[-1], generator])) != group.identity:
        powers.append(g)
    return np.array(powers)


def _coset_relabellings(group: FiniteGroup, powers: np.ndarray) -> tuple:
    """Left cosets of the cyclic subgroups H whose elements are the columns
    of the (m, k) array ``powers``, each of order m: a (k, #G) array sending
    every element to the index of its coset, and the (k, #G/m) smallest
    element of each coset, in coset order.

    The coset containing the identity comes first, the rest follow in order
    of their smallest element. g and g' share a left coset exactly when
    gH = g'H, so min(gH), one ``np.minimum`` per power, labels it, and the
    elements that are their own label lead the cosets.
    """
    labels = group.table[:, powers[0]]
    for row in powers[1:]:
        np.minimum(labels, group.table[:, row], out=labels)
    labels = labels.T
    leads = labels == np.arange(group.order)
    # each element's coset in order of the leaders, then the identity's moved first
    rank = np.take_along_axis(np.cumsum(leads, axis=1) - 1, labels, axis=1)
    first = rank[:, [group.identity]]
    relabel = np.where(rank == first, 0, rank + (rank < first))
    rows, cols = np.nonzero(leads)
    leaders = np.empty((len(labels), group.order // len(powers)), dtype=int)
    leaders[rows, relabel[rows, cols]] = cols
    return relabel, leaders


def _coset_kernel(group: FiniteGroup, relabel: np.ndarray, leaders: np.ndarray) -> PostProcessing:
    """The relabelling of one row of ``_coset_relabellings``, each output
    labelled by the name of its coset's smallest element."""
    return PostProcessing._relabelling(relabel, len(leaders), [group.names[g] for g in leaders])


def coset_postprocessing(group: FiniteGroup, generator: int) -> PostProcessing:
    """Deterministic kernel merging group-labelled outcomes by left coset of
    ``<generator>``."""
    relabel, leaders = _coset_relabellings(group, cyclic_subgroup(group, generator)[:, None])
    return _coset_kernel(group, relabel[0], leaders[0])


@dataclass(eq=False)
class ProjectiveRepresentation:
    """One unitary per group element, homomorphic up to a unit-modulus multiplier,
    kept as one read-only (n, d, d) complex stack indexed by element.

    The group law U(g)U(s) = mu(g, s) U(gs), with |mu| = 1, is checked for
    every element g and every generator s of the group (``FiniteGroup``), so
    every matrix is checked as a left factor, within ``MULTIPLIER_TOL`` per
    entry. That certifies every pair: by induction on the length k of h as a
    word in the generators, U(g)U(h) is a unit multiple of U(gh) within
    (2k - 1)(d + 1) MULTIPLIER_TOL in operator norm. Only generator pairs are
    held to ``MULTIPLIER_TOL`` itself.
    """

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
        # both checks run over blocks of elements (``block_items``), so each
        # temporary holds at most EFFECT_BLOCK_ELEMENTS entries, not |G| d^2
        step = block_items(d * d)
        blocks = [slice(lo, lo + step) for lo in range(0, len(u), step)]
        eye = np.eye(d)
        errors = (np.abs(u[b].conj().transpose(0, 2, 1) @ u[b] - eye) for b in blocks)
        if max(float(np.max(e)) for e in errors) > UNITARY_TOL:
            raise ValueError("representation matrix is not unitary")
        self.matrices = u
        # the products U(g)U(s) of one block of elements g at a time; the
        # trivial group has no generator, and U(e)U(e) ~ U(e) makes U(e) scalar
        gens = self.group.generators or (self.group.identity,)
        table = self.group.table
        laws = [self._law(u[b] @ u[s], table[b, s]) for s in gens for b in blocks]
        if max(float(np.max(np.abs(np.abs(mu) - 1.0))) for mu, _ in laws) > MULTIPLIER_TOL:
            raise ValueError("multiplier is not unit modulus; not a projective representation")
        defect = max(x for _, x in laws)
        if defect > MULTIPLIER_TOL:
            raise ValueError(f"products deviate from the group law by {defect:.3e}")
        u.flags.writeable = False

    def _law(self, prod: np.ndarray, index: np.ndarray) -> tuple:
        """The multipliers mu = <target, prod> / d of a stack of products
        against the matrices ``target`` at ``index``, and the largest entry of
        prod - mu target."""
        target = self.matrices[index]
        mu = np.einsum("hab,hab->h", prod, target.conj()) / self.degree
        return mu, float(np.max(np.abs(prod - mu[:, None, None] * target)))

    @property
    def degree(self) -> int:
        return self.matrices.shape[1]


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


def _subgroup_powers(rep: ProjectiveRepresentation, gens: np.ndarray) -> np.ndarray:
    """The (m, k) powers g^0, ..., g^(m-1) of the k generators ``gens``, with
    m = #G / degree, stacked by m steps of the table. Each index is checked
    as ``_check_index`` says, and each generator must have order m."""
    group, want = rep.group, rep.group.order // rep.degree
    for g in gens:
        _check_index(group, g)
    powers = np.full((max(want, 1), len(gens)), group.identity)
    for p in range(1, want):
        powers[p] = group.table[powers[p - 1], gens]
    early = (powers[1:] == group.identity).any(axis=0)
    wrong = early | (group.table[powers[-1], gens] != group.identity) | (want < 1)
    if wrong.any():
        g = gens[np.argmax(wrong)]
        raise ValueError(
            f"generator {g} ({group.names[g]}) has order {len(cyclic_subgroup(group, g))}, "
            f"expected #G/degree = {want}"
        )
    return powers


def eigenvector_program_states(
    rep: ProjectiveRepresentation, generators: int | np.ndarray
) -> tuple:
    """Eigenvalues and orthonormal eigenvectors (columns) of U(generator),
    ordered by their root-of-unity index k. Each vector is an invariant seed
    for the subgroup the generator generates. For an index array
    ``generators`` the results are stacked along its axes: every step runs on
    the whole stack and returns, bit for bit, what it returns for each matrix
    alone.

    Every generator must produce a cyclic subgroup of order m = #G / degree,
    the regime where coset merging of the covariant observable turns sharp
    (``_subgroup_powers`` checks it).
    Then U^m = c 1, so the eigenvalues are phi exp(2 pi i k / m), with phi the
    principal m-th root of c = tr(U^m) / d. The Cayley transform of
    V = U exp(i (pi/m - pi)) / phi, H = i (1 - V)(1 + V)^-1, is Hermitian
    with eigenvalues tan(theta_k / 2) at the angles
    theta_k = 2 pi k / m + pi/m - pi of V, which lie in (-pi, pi) and increase
    with k. So one ``eigh`` gives an orthonormal basis, that of a repeated
    eigenvalue included, already in k order. Each eigenvalue is read back as
    the Rayleigh quotient lambda = v^dagger U v.

    The invariance check bounds each projector P = v v^dagger by the residual
    r = Uv - lambda v, which is orthogonal to the unit vector v. With
    delta = |Uv|^2 - 1 = |lambda|^2 + |r|^2 - 1, UPU^dagger - P acts on
    span(v, r) as [[delta - |r|^2, lambda |r|], [conj(lambda) |r|, |r|^2]],
    a traceless part of norm |r| |Uv| plus diag(delta, 0). So
    max|UPU^dagger - P| <= |r| |Uv| + |delta| (exactly |r| for U unitary),
    and that bound, not the entries it bounds, is held within
    ``EIGVEC_INVARIANCE_TOL`` for every vector: O(d^3) per generator, where
    the entries took O(d^4).
    """
    gens = np.reshape(generators, -1)
    want = len(_subgroup_powers(rep, gens))  # m, the order of every generator
    u = rep.matrices[gens]
    c = np.trace(np.linalg.matrix_power(u, want), axis1=1, axis2=2) / rep.degree
    v = u * (np.exp(1j * np.pi * (1 / want - 1)) / c ** (1 / want))[:, None, None]
    eye = np.eye(rep.degree)
    vecs = np.linalg.eigh(hermitianize(1j * np.linalg.solve(eye + v, eye - v)))[1]
    pivots = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=-2)[:, None, :], axis=-2)
    # the scalar abs, not the array np.abs: the two round differently, and
    # every programmed payload downstream carries these phases
    vecs = vecs / np.array([x / abs(x) for x in pivots.reshape(-1)]).reshape(pivots.shape)
    uv = u @ vecs
    eigvals = np.sum(vecs.conj() * uv, axis=-2)
    norm = np.linalg.norm(uv, axis=-2)
    residual = np.linalg.norm(uv - vecs * eigvals[:, None, :], axis=-2)
    if float(np.max(residual * norm + np.abs(norm**2 - 1.0))) > EIGVEC_INVARIANCE_TOL:
        raise ValueError("eigenvector failed the invariance check")
    shape = np.shape(generators)
    return eigvals.reshape(shape + eigvals.shape[1:]), vecs.reshape(shape + vecs.shape[1:])


def eigenvector_program(
    rep: ProjectiveRepresentation, generators: np.ndarray, targets: np.ndarray
) -> Iterator[tuple]:
    """Program the sharp observable of each cyclic subgroup ``<generator>``.

    Yields, one generator at a time, ``(psi, probe, kernel, exact)``: the
    eigenvector of U(generator) whose eigenvalue is nearest the generator's
    target, the probe state maximally_mixed x transpose(psi) for the
    covariant multimeter, the coset merging kernel that sharpens the
    programmed observable, and whether the target eigenvalue was found. When
    no eigenvalue lies within TARGET_EIGENVALUE_TOL (d = 2 phase space) the
    first vector, smallest eigenvalue phase, is used instead.

    Every vector comes from one stacked ``eigenvector_program_states`` call
    and the mixed state is built once. Each probe keeps that state and the
    vector's pure state as its pair (``covariant_program_state``), so no
    d^2 x d^2 matrix is built unless its ``matrix`` is read.
    """
    if np.shape(targets) != (len(generators),):
        raise ValueError(f"{np.size(targets)} targets for {len(generators)} generators")
    eigvals, vecs = eigenvector_program_states(rep, generators)
    relabels = _coset_relabellings(rep.group, _subgroup_powers(rep, np.reshape(generators, -1)))
    dist = np.abs(eigvals - np.asarray(targets)[:, None])
    eta = DensityState.maximally_mixed(rep.degree)
    for row, vec, relabel, leaders in zip(dist, vecs, *relabels):
        pick = int(np.argmin(row))
        exact = bool(row[pick] <= TARGET_EIGENVALUE_TOL)
        psi = vec[:, pick if exact else 0]
        probe = covariant_program_state(eta, DensityState.from_vector(psi))
        yield psi, probe, _coset_kernel(rep.group, relabel, leaders), exact


# ---------------------------------------------------------------------------
# the covariant multimeter


def pointer_vector(rep: ProjectiveRepresentation, g: int | np.ndarray) -> np.ndarray:
    """Unit vector u(g) = (U(g) x 1) applied to the maximally entangled vector.

    Entry (a, b) of that vector is U(g)[a, b] / sqrt(d), so it is the
    flattened matrix, with no Kronecker product. For an index array ``g`` the
    vectors are the rows of the result.
    """
    return rep.matrices[g].reshape(np.shape(g) + (-1,)) * (1.0 / np.sqrt(rep.degree))


def covariant_pointer(rep: ProjectiveRepresentation) -> Observable:
    """Pointer of the covariant multimeter: effects (d^2/#G)|u(g)><u(g)|, the
    Gram products of the (d^2, 1) factors sqrt(d^2/#G) u(g), certified by
    construction (``Observable._from_factors``) and built when first read."""
    d, n = rep.degree, rep.group.order
    a = pointer_vector(rep, np.arange(n))[:, :, None] * np.sqrt(d * d / n)
    return Observable._from_factors(a, list(rep.group.names), ATOL_COMPLETE)


class CovariantMultimeter(Multimeter):
    """The partial-SWAP multimeter of an irreducible projective representation.

    Its interaction swaps the system with the probe's first factor, a d^3 x d^3
    unitary that the device never builds: it programs itself in closed form
    (``programmed_observable``). The pointer is built from its Gram factors
    when first read, and kept; its (n, d^2, d^2) stack only when its effects
    are read. The pointer is complete exactly when the representation is
    irreducible, which Schur's criterion sum_g |tr U(g)|^2 = #G checks when
    the device is built.
    """

    def __init__(self, rep: ProjectiveRepresentation):
        n = rep.group.order
        chars = float(np.sum(np.abs(np.trace(rep.matrices, axis1=1, axis2=2)) ** 2))
        if abs(chars - n) > IRREDUCIBLE_TOL * n:
            raise ValueError(
                f"representation is not irreducible: sum |tr U(g)|^2 = {chars:.6g} != #G = {n}"
            )
        self.representation = rep
        self.probe_dim = rep.degree**2

    @cached_property
    def pointer(self) -> Observable:
        return covariant_pointer(self.representation)

    def __repr__(self) -> str:
        # the dataclass repr of Multimeter would read the pointer and the interaction
        return f"CovariantMultimeter(degree={self.system_dim}, outcomes={self.n_outcomes})"

    @property
    def n_outcomes(self) -> int:
        return self.representation.group.order

    @property
    def system_dim(self) -> int:
        return self.representation.degree

    def programmed_observable(self, xi: DensityState) -> Observable:
        """The covariant observable E_xi(g) = (d/#G) U(g) sigma^T U(g)^dagger
        of the seed sigma^T, labelled by the group elements, with
        sigma = tr_1 xi the probe state traced over its first factor: the
        Kraus contraction of the swap against the pointer
        (``covariant_pointer``) in closed form, which reads neither.

        A product probe eta x seed^T (``covariant_program_state``) has
        sigma^T = tr(eta) seed, read off its pair, so its d^2 x d^2 matrix is
        never read. Any other probe is traced over its first factor, and
        sigma^T, positive and of unit trace as the partial trace of a state,
        is certified as the seed, with tr(eta) = 1. Either way the seed's Gram
        factor (``DensityState.factor``) times sqrt(tr(eta) d/#G) programs it.

        That scaled factor F, of r columns, gives each effect as the Gram
        product a a^dagger of a = U(g) F, all a formed by one
        (#G d, d) x (d, r) product: O(#G d^2 r), so O(d^4) for a pure seed.
        ``Observable._from_factors`` states why such effects skip the
        Hermiticity and eigenvalue checks."""
        rep, d, n = self.representation, self.system_dim, self.n_outcomes
        if xi._pair is None:
            sigma = np.trace(xi.matrix.reshape(d, d, d, d), axis1=0, axis2=2)
            seed, tr_eta = DensityState._certified(sigma.T), 1.0
        else:
            eta, seed = xi._pair
            tr_eta = float(np.trace(eta.matrix).real)
        f = seed.factor * np.sqrt(tr_eta * (d / n))
        a = (rep.matrices.reshape(n * d, d) @ f).reshape(n, d, -1)
        return Observable._from_factors(a, list(rep.group.names), ATOL_PROGRAM)

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
    the covariant observable of the seed for any eta. The representation must
    be irreducible, as ``CovariantMultimeter`` checks.
    """
    return CovariantMultimeter(rep)


def covariant_program_state(eta: DensityState, seed: DensityState) -> DensityState:
    """Probe state eta x transpose(seed) that programs the seed's observable,
    for two states of one dimension, the degree of the representation.

    It keeps the two validated states as its pair and builds its
    d^2 x d^2 matrix only when that is read (``DensityState._product``):
    programming a covariant multimeter and the fidelity of two such probes
    read the pair alone.
    """
    return DensityState._product(eta, seed)
