import functools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from oracles import (
    covariant_effects_oracle,
    eig_program_states,
    left_cosets,
    phase_fixed_by_column,
    programmed_covariant,
    schur_vectors_by_index,
    sharp_from_subgroup,
    sharp_generators,
    walked_cosets,
    walked_powers,
)

from qmultimeter import groups, quantum
from qmultimeter.groups import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    CovariantMultimeter,
    FiniteGroup,
    ProjectiveRepresentation,
    coset_postprocessing,
    covariant_multimeter,
    covariant_program_state,
    cyclic_subgroup,
    eigenvector_program,
    eigenvector_program_states,
    pointer_vector,
    q8_representation,
    weyl_heisenberg,
    wh_element_index,
)
from qmultimeter.linalg import TOL_HERM, herm_defect, hermitianize, tensor
from qmultimeter.postprocessing import PostProcessing, post_process_observable
from qmultimeter.quantum import REL_RANK_CLIP, DensityState, Observable, fidelity, program
from qmultimeter.sampling import random_density, random_unitary
from qmultimeter.verify import PHASE_SPACE_MAX_DIM

I2 = np.eye(2, dtype=complex)

# products in the element order 1, -1, i, -i, j, -j, k, -k
Q8_TABLE = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 0, 3, 2, 5, 4, 7, 6],
    [2, 3, 1, 0, 6, 7, 5, 4],
    [3, 2, 0, 1, 7, 6, 4, 5],
    [4, 5, 7, 6, 1, 0, 2, 3],
    [5, 4, 6, 7, 0, 1, 3, 2],
    [6, 7, 4, 5, 3, 2, 1, 0],
    [7, 6, 5, 4, 2, 3, 0, 1],
]

# commutator phase of the displacement pair (1,0), (0,1): recorded fixture
WH_COMMUTATOR_EXPONENT = {2: 1, 3: 2, 5: 4, 7: 6}


@functools.cache
def fixture_representation(which):
    """q8 or the Weyl-Heisenberg representation of dimension ``which``, built
    once per session: d = 19 takes seconds."""
    return q8_representation() if which == "q8" else weyl_heisenberg(which)


def trace_multipliers(rep) -> np.ndarray:
    """The (n, n) multipliers mu(g, h) = tr[U(g)U(h)U(gh)^dagger] / d."""
    u = rep.matrices
    return np.einsum("gab,hbc,ghac->gh", u, u, u[rep.group.table].conj()) / rep.degree


def relabelled_q8() -> FiniteGroup:
    """The quaternion group with every index shifted by 3, so the identity is 3."""
    g = q8_representation().group
    shift = (np.arange(8) + 3) % 8
    table = np.empty((8, 8), dtype=int)
    table[np.ix_(shift, shift)] = shift[g.table]
    return FiniteGroup([g.names[a] for a in np.argsort(shift)], table)


class TestQ8:
    def test_canonical_order(self, q8):
        assert q8.group.names == ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def test_unit_products(self, q8):
        g = q8.group
        idx = {n: i for i, n in enumerate(g.names)}
        assert g.table[idx["i"], idx["j"]] == idx["k"]
        assert g.table[idx["j"], idx["i"]] == idx["-k"]
        assert g.table[idx["i"], idx["i"]] == idx["-1"]
        assert g.table[idx["-1"], idx["-1"]] == idx["1"]

    def test_hamilton_relations(self, q8):
        g = q8.group
        idx = {n: i for i, n in enumerate(g.names)}

        def mul(a, b):
            return g.names[g.table[idx[a], idx[b]]]

        def neg(a):
            return a[1:] if a.startswith("-") else "-" + a

        assert (mul("i", "j"), mul("j", "k"), mul("k", "i")) == ("k", "i", "j")
        assert (mul("j", "i"), mul("k", "j"), mul("i", "k")) == ("-k", "-i", "-j")
        assert [mul(a, a) for a in "ijk"] == ["-1", "-1", "-1"]
        units = ["1", "i", "j", "k"]
        for a in units:
            assert mul("-1", a) == mul(a, "-1") == "-" + a
            for b in units:
                ab = mul(a, b)
                assert mul("-" + a, b) == mul(a, "-" + b) == neg(ab)
                assert mul("-" + a, "-" + b) == ab

    def test_table_derived_from_matrices(self, q8):
        assert np.array_equal(q8.group.table, Q8_TABLE)

    def test_representation_matrices(self, q8):
        idx = {n: i for i, n in enumerate(q8.group.names)}
        assert np.allclose(q8.matrices[idx["-1"]], -I2)
        assert np.allclose(q8.matrices[idx["i"]], 1j * PAULI_X)
        assert np.allclose(q8.matrices[idx["j"]], -1j * PAULI_Y)
        assert np.allclose(q8.matrices[idx["k"]], 1j * PAULI_Z)

    def test_matrix_product_oracle(self, q8):
        # U(i) U(j) = (i sx)(-i sy) = sx sy = i sz = U(k)
        idx = {n: i for i, n in enumerate(q8.group.names)}
        prod = q8.matrices[idx["i"]] @ q8.matrices[idx["j"]]
        assert np.allclose(prod, q8.matrices[idx["k"]], atol=1e-12)

    def test_trivial_multiplier(self, q8):
        assert np.max(np.abs(trace_multipliers(q8) - 1.0)) < 1e-12

    def test_three_order4_subgroups(self, q8):
        subs = [cyclic_subgroup(q8.group, g).tolist() for g in range(q8.group.order)]
        found = {frozenset(s) for s in subs if len(s) == 4}
        assert len(found) == 3
        names = {n: i for i, n in enumerate(q8.group.names)}
        assert found == {frozenset(cyclic_subgroup(q8.group, names[n]).tolist()) for n in "ijk"}


class TestWeylHeisenberg:
    def test_identity_element(self, wh3):
        assert np.allclose(wh3.matrices[wh_element_index(3, 0, 0)], np.eye(3))

    def test_shift_matrix(self, wh3):
        u = wh3.matrices[wh_element_index(3, 1, 0)]
        shift = np.zeros((3, 3))
        for k in range(3):
            shift[(k + 1) % 3, k] = 1.0
        assert np.allclose(u, shift)

    def test_clock_matrix(self, wh3):
        u = wh3.matrices[wh_element_index(3, 0, 1)]
        omega = np.exp(2j * np.pi / 3)
        assert np.allclose(u, np.diag([1, omega, omega**2]))

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_commutator_phase_fixture(self, d):
        rep = weyl_heisenberg(d)
        u10 = rep.matrices[wh_element_index(d, 1, 0)]
        u01 = rep.matrices[wh_element_index(d, 0, 1)]
        lhs = u10 @ u01
        rhs = u01 @ u10
        omega = np.exp(2j * np.pi / d)
        s = WH_COMMUTATOR_EXPONENT[d]
        assert s % d != 0
        assert np.allclose(lhs, omega**s * rhs, atol=1e-12)

    def test_multiplier_unit_modulus(self, wh3):
        assert np.max(np.abs(np.abs(trace_multipliers(wh3)) - 1.0)) < 1e-12

    @pytest.mark.parametrize("d", [3, 5])
    def test_d_plus_one_subgroups(self, d):
        rep = weyl_heisenberg(d)
        subs = [cyclic_subgroup(rep.group, g).tolist() for g in range(rep.group.order)]
        found = {frozenset(s) for s in subs if len(s) == d}
        assert len(found) == d + 1
        # the stated generating set, up to replacing a generator by a power
        expected_sets = []
        for x, y in [(0, 1)] + [(1, k) for k in range(d)]:
            sub = cyclic_subgroup(rep.group, wh_element_index(d, x, y))
            expected_sets.append(frozenset(sub.tolist()))
        assert found == set(expected_sets)

    def test_d2_table(self):
        # Z_2 x Z_2 in the order (0,0), (0,1), (1,0), (1,1): bitwise xor of indices
        expected = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
        assert np.array_equal(weyl_heisenberg(2).group.table, expected)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            weyl_heisenberg(4)
        with pytest.raises(ValueError, match="prime"):
            weyl_heisenberg(1)


class TestProjectiveRepresentation:
    def test_matrices_are_read_only(self, q8):
        assert q8.matrices.shape == (8, 2, 2)
        with pytest.raises(ValueError, match="read-only"):
            q8.matrices[0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            q8.matrices[0][0, 0] = 0.0

    def test_non_unitary_matrix_rejected(self, q8):
        mats = list(q8.matrices)
        mats[3] = 2.0 * mats[3]
        with pytest.raises(ValueError, match="not unitary"):
            ProjectiveRepresentation(q8.group, mats)

    def test_misshapen_matrix_rejected(self, q8):
        mats = list(q8.matrices)
        mats[3] = np.eye(3)
        with pytest.raises(ValueError, match="share a dimension"):
            ProjectiveRepresentation(q8.group, mats)

    def test_swapped_matrices_break_the_multiplier_modulus(self):
        rep = q8_representation()
        mats = list(rep.matrices)
        i, j = rep.group.names.index("i"), rep.group.names.index("j")
        mats[i], mats[j] = mats[j], mats[i]
        with pytest.raises(ValueError, match="not unit modulus"):
            ProjectiveRepresentation(rep.group, mats)

    def test_small_perturbation_breaks_the_group_law(self):
        rep = weyl_heisenberg(3)
        swap01 = np.zeros((3, 3))
        swap01[0, 1] = swap01[1, 0] = 1.0
        mats = list(rep.matrices)
        mats[4] = mats[4] @ scipy.linalg.expm(1e-6j * swap01)
        with pytest.raises(ValueError, match="deviate from the group law by 1.000e-06"):
            ProjectiveRepresentation(rep.group, mats)

    @pytest.mark.parametrize("which", ["q8", 3])
    def test_every_perturbed_matrix_breaks_the_group_law(self, which):
        # each element is checked as a left factor, generator or not
        rep = fixture_representation(which)
        x = np.zeros((rep.degree, rep.degree))
        x[0, 1] = x[1, 0] = 1.0
        kick = scipy.linalg.expm(1e-6j * x)
        for g in range(rep.group.order):
            mats = list(rep.matrices)
            mats[g] = mats[g] @ kick
            with pytest.raises(ValueError, match="deviate from the group law"):
                ProjectiveRepresentation(rep.group, mats)

    def test_trivial_group_needs_a_scalar(self):
        trivial = FiniteGroup(["e"], [[0]])
        assert trivial.generators == ()
        ProjectiveRepresentation(trivial, [1j * np.eye(2)])
        with pytest.raises(ValueError, match="not unit modulus"):
            ProjectiveRepresentation(trivial, [np.diag([1.0, -1.0])])

    @pytest.mark.parametrize("d", [2, 5])
    def test_multiplier_matches_the_trace_formula(self, d):
        # U(x1, y1) U(x2, y2) = omega^(y1 x2) U(x1 + x2, y1 + y2)
        rep = weyl_heisenberg(d)
        x, y = divmod(np.arange(d * d), d)
        expected = np.exp(2j * np.pi / d) ** (y[:, None] * x[None, :])
        assert np.max(np.abs(trace_multipliers(rep) - expected)) < 1e-12

    def test_multiplier_check_memory_is_bounded(self):
        # holding all |G|^2 products of WH(13) at once takes 77 MB per array
        rep = weyl_heisenberg(13)
        tracemalloc.start()
        try:
            rebuilt = ProjectiveRepresentation(rep.group, rep.matrices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert np.array_equal(rebuilt.matrices, rep.matrices)

    def test_validation_memory_at_d29_is_bounded(self):
        # the 10.8 MiB unitary stack of WH(29), the caller's copy and the 5.4
        # MiB table peak near 28 MiB; one full-stack product per step peaked near 70
        tracemalloc.start()
        try:
            rep = weyl_heisenberg.__wrapped__(29)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.matrices.shape == (841, 29, 29)
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("elements", [9, 20, 2**14])
    def test_block_boundaries_leave_every_verdict_unchanged(self, monkeypatch, elements):
        # 9 entries: one WH(3) element per block; 20: two per block
        rep = weyl_heisenberg(3)
        swap01 = np.zeros((3, 3))
        swap01[0, 1] = swap01[1, 0] = 1.0
        kick = scipy.linalg.expm(1e-6j * swap01)
        cases = []
        for g in (0, 4, 8):
            mats = list(rep.matrices)
            mats[g] = mats[g] @ kick
            cases.append(mats)
            cases.append([2.0 * m if h == g else m for h, m in enumerate(rep.matrices)])
        swapped = list(rep.matrices)
        swapped[1], swapped[3] = swapped[3], swapped[1]
        cases += [swapped, list(rep.matrices)]

        def verdicts():
            out = []
            for mats in cases:
                try:
                    ProjectiveRepresentation(rep.group, mats)
                    out.append("ok")
                except ValueError as exc:
                    out.append(str(exc))
            return out

        want = verdicts()
        monkeypatch.setattr(quantum, "EFFECT_BLOCK_ELEMENTS", elements)
        assert verdicts() == want
        assert want[-1] == "ok" and len(set(want)) == 4


class TestSubgroupsAndCosets:
    def test_trivial_subgroup(self, q8):
        assert cyclic_subgroup(q8.group, q8.group.identity).tolist() == [q8.group.identity]

    def test_q8_cosets_of_k(self, q8):
        g = q8.group
        idx = {n: i for i, n in enumerate(g.names)}
        cosets = left_cosets(g, idx["k"])
        assert len(cosets) == 2
        assert all(len(c) == 4 for c in cosets)
        # recompute each coset from the group table and the subgroup <k>
        for coset in cosets:
            assert sorted(g.table[coset[0], [idx[n] for n in ("1", "k", "-1", "-k")]]) == coset
        assert g.identity in cosets[0]

    def test_z3_cosets(self, wh3):
        g = wh3.group
        cosets = left_cosets(g, wh_element_index(3, 0, 1))
        assert len(cosets) == 3
        assert all(len(c) == 3 for c in cosets)
        covered = sorted(x for c in cosets for x in c)
        assert covered == list(range(9))

    def test_whole_group_single_coset(self, q8):
        g = q8.group
        idx = {n: i for i, n in enumerate(g.names)}
        # <i> has order 4; the whole group is not cyclic, so use an order-8 walk
        assert len(left_cosets(g, idx["i"])) == 2

    @pytest.mark.parametrize("which", ["q8", "q8-relabelled", 2, 3, 5, 7])
    def test_cosets_and_kernel_match_the_table_walk(self, which):
        if which == "q8-relabelled":
            g = relabelled_q8()
            assert g.identity == 3 and g.names[3] == "1"
        else:
            g = (q8_representation() if which == "q8" else weyl_heisenberg(which)).group
        for gen in range(g.order):
            assert cyclic_subgroup(g, gen).tolist() == walked_powers(g, gen)
            walked = walked_cosets(g, gen)
            assert left_cosets(g, gen) == walked
            kern = coset_postprocessing(g, gen)
            expected = np.zeros((g.order, len(walked)))
            for j, coset in enumerate(walked):
                expected[coset, j] = 1.0
            assert np.array_equal(kern.kernel, expected)
            assert kern.out_labels == [g.names[c[0]] for c in walked]
            # the kernel built as a relabelling, and the one validated densely
            dense = PostProcessing(expected, out_labels=kern.out_labels)
            assert kern.kernel.tobytes() == dense.kernel.tobytes()
            assert np.array_equal(kern._relabel, dense._relabel)

    def test_coset_kernel_is_deterministic(self, q8):
        g = q8.group
        idx = {n: i for i, n in enumerate(g.names)}
        kern = coset_postprocessing(g, idx["k"])
        assert kern.n_in == 8 and kern.n_out == 2
        assert np.all((kern.kernel == 0.0) | (kern.kernel == 1.0))
        assert np.allclose(kern.kernel.sum(axis=1), 1.0)


class TestCovariantObservable:
    def test_invariant_seed_gives_uniform_effects(self, q8):
        obs = programmed_covariant(q8, DensityState.maximally_mixed(2))
        for eff in obs.effects:
            assert np.allclose(eff, np.eye(2) / 8, atol=1e-12)

    def test_q8_sigma_z_seed_pattern(self, q8):
        # conjugation flips the seed's axis exactly on the i and j orbits
        obs = programmed_covariant(q8, DensityState((I2 + PAULI_Z) / 2))
        plus = (I2 + PAULI_Z) / 8
        minus = (I2 - PAULI_Z) / 8
        expected = {
            "1": plus, "-1": plus,
            "i": minus, "-i": minus,
            "j": minus, "-j": minus,
            "k": plus, "-k": plus,
        }
        for name, eff in zip(obs.outcomes, obs.effects):
            assert np.allclose(eff, expected[name], atol=1e-12)
        assert np.allclose(sum(obs.effects), np.eye(2), atol=1e-12)

    def test_wh3_rank_one_seed_traces(self, wh3):
        seed = DensityState(np.diag([1.0, 0.0, 0.0]))
        obs = programmed_covariant(wh3, seed)
        assert obs.n_outcomes == 9
        for eff in obs.effects:
            assert abs(np.trace(eff).real - 1 / 3) < 1e-10
            w = np.linalg.eigvalsh(eff)
            assert np.sum(w > 1e-10) == 1  # rank one

    def test_effect_traces_and_completeness(self, q8, rng):
        seed = random_density(rng, 2)
        obs = programmed_covariant(q8, seed)
        for eff in obs.effects:
            assert abs(np.trace(eff).real - 2 / 8) < 1e-10
        assert np.allclose(sum(obs.effects), np.eye(2), atol=1e-9)

    def test_covariance_permutes_effects(self, q8, rng):
        # conjugating the seed by U(h) maps the effect at g to the one at hg
        seed = random_density(rng, 2)
        base = programmed_covariant(q8, seed)
        g_tbl = q8.group.table
        for h in range(8):
            u = q8.matrices[h]
            moved = programmed_covariant(q8, DensityState(u @ seed.matrix @ u.conj().T))
            for g in range(8):
                assert np.allclose(
                    moved.effects[g], base.effects[g_tbl[h, g]], atol=1e-10
                )

    def test_seed_dim_mismatch(self, q8, rng):
        with pytest.raises(ValueError):
            programmed_covariant(q8, random_density(rng, 3))


class TestProgramVectors:
    def test_q8_k_eigenvectors(self, q8):
        idx = {n: i for i, n in enumerate(q8.group.names)}
        _, vecs = eigenvector_program_states(q8, idx["k"])
        projections = [
            np.outer(vecs[:, c], vecs[:, c].conj()) for c in range(2)
        ]
        targets = [(I2 + PAULI_Z) / 2, (I2 - PAULI_Z) / 2]
        match = set()
        for p in projections:
            for t_i, t in enumerate(targets):
                if np.allclose(p, t, atol=1e-10):
                    match.add(t_i)
        assert match == {0, 1}

    def test_wh_01_eigenvector_is_first_basis_vector(self, wh3):
        eigvals, vecs = eigenvector_program_states(wh3, wh_element_index(3, 0, 1))
        pick = int(np.argmin(np.abs(eigvals - 1.0)))
        psi = vecs[:, pick]
        assert np.allclose(np.abs(psi), [1.0, 0.0, 0.0], atol=1e-10)

    @pytest.mark.parametrize("d", [3, 5])
    def test_closed_form_coefficients(self, d):
        # psi_k has components omega^(j k (j-1)/2 - j)/sqrt(d) at eigenvalue omega
        rep = weyl_heisenberg(d)
        omega = np.exp(2j * np.pi / d)
        for k in range(d):
            gen = wh_element_index(d, 1, k)
            formula = np.array(
                [omega ** (0.5 * j * k * (j - 1) - j) for j in range(d)]
            ) / np.sqrt(d)
            u = rep.matrices[gen]
            # formula vector is an eigenvector with eigenvalue omega
            assert np.allclose(u @ formula, omega * formula, atol=1e-10)
            eigvals, vecs = eigenvector_program_states(rep, gen)
            pick = int(np.argmin(np.abs(eigvals - omega)))
            lib = vecs[:, pick]
            # agreement up to a global phase
            assert abs(abs(np.vdot(lib, formula)) - 1.0) < 1e-10

    @pytest.mark.parametrize("d", [3, 5])
    def test_unbiased_overlaps(self, d):
        rep = weyl_heisenberg(d)
        omega = np.exp(2j * np.pi / d)
        vectors = []
        eigvals, vecs = eigenvector_program_states(rep, wh_element_index(d, 0, 1))
        vectors.append(vecs[:, int(np.argmin(np.abs(eigvals - 1.0)))])
        for k in range(d):
            eigvals, vecs = eigenvector_program_states(rep, wh_element_index(d, 1, k))
            vectors.append(vecs[:, int(np.argmin(np.abs(eigvals - omega)))])
        for a in range(len(vectors)):
            for b in range(a + 1, len(vectors)):
                assert abs(abs(np.vdot(vectors[a], vectors[b])) - 1 / np.sqrt(d)) < 1e-8

    @pytest.mark.parametrize("which", ["q8", 3, 5, 7, 13])
    def test_vectors_equal_the_per_column_phase_fix(self, which, monkeypatch):
        # the stacked phase fix of eigh's vectors equals, bit for bit, the
        # per-column fix through the scalar abs, whose rounding every
        # programmed payload carries
        rep = fixture_representation(which)
        gens = sharp_generators(rep)
        assert gens
        raw = []
        eigh = np.linalg.eigh

        def recording(h):
            w, v = eigh(h)
            raw.append(v)
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", recording)
        _, vecs = eigenvector_program_states(rep, np.array(gens))
        monkeypatch.undo()
        assert np.array_equal(vecs, phase_fixed_by_column(raw[0]))
        # every column is the eig + QR column up to a unit phase, fixed by
        # one of its largest entries, which is then real and positive; every
        # entry of a MUB vector has one modulus, so rounding picks that pivot,
        # and the two bases may pick different entries: the reference is
        # compared after aligning it at ours
        _, ref = eig_program_states(rep.matrices[gens], rep.group.order // rep.degree)
        top = np.abs(vecs) >= np.max(np.abs(vecs), axis=-2, keepdims=True) - 1e-15
        real = (vecs.real > 0) & (np.abs(vecs.imag) <= 2 * np.finfo(float).eps)
        assert np.all(np.any(top & real, axis=-2))
        pivots = np.argmax(top & real, axis=-2)[:, None, :]
        ratio = np.take_along_axis(vecs, pivots, axis=-2) / np.take_along_axis(ref, pivots, axis=-2)
        assert np.max(np.abs(vecs - ref * (ratio / np.abs(ratio)))) < 1e-14

    @pytest.mark.parametrize("which", ["q8", 2, 3, 5, 7, 11, 13, 17, 19])
    def test_eigenbasis_matches_eig_and_qr(self, which):
        # the Cayley eigh against the general eig + QR it replaced: the same
        # eigenvalue order, eigenvalues and projectors within 1e-14
        rep = fixture_representation(which)
        gens = sharp_generators(rep)
        eigvals, vecs = eigenvector_program_states(rep, np.array(gens))
        ref_vals, ref = eig_program_states(rep.matrices[gens], rep.group.order // rep.degree)
        assert np.max(np.abs(eigvals - ref_vals)) < 1e-14
        got = vecs.swapaxes(-1, -2)[..., None] * vecs.swapaxes(-1, -2).conj()[..., None, :]
        want = ref.swapaxes(-1, -2)[..., None] * ref.swapaxes(-1, -2).conj()[..., None, :]
        assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("which", ["q8", 19])
    def test_invariance_check_rejects_a_rotated_basis(self, which, monkeypatch):
        # a basis rotated by 1e-8 between two eigenvectors of distinct
        # eigenvalues moves their projectors by about 1e-8 |lambda - lambda'|,
        # above EIGVEC_INVARIANCE_TOL
        rep = fixture_representation(which)
        gen = sharp_generators(rep)[0]
        eigh = np.linalg.eigh

        def rotated(h):
            w, v = eigh(h)
            c, s = np.cos(1e-8), np.sin(1e-8)
            return w, np.concatenate([c * v[..., :1] + s * v[..., 1:2], v[..., 1:]], axis=-1)

        eigenvector_program_states(rep, gen)
        monkeypatch.setattr(np.linalg, "eigh", rotated)
        with pytest.raises(ValueError, match="invariance check"):
            eigenvector_program_states(rep, gen)

    @pytest.mark.parametrize("which", ["q8", 2, 3, 5, 7, 11, 13, 17, 19])
    def test_projectors_match_schur(self, which):
        rep = fixture_representation(which)
        want = rep.group.order // rep.degree
        gens = sharp_generators(rep)
        assert gens
        for gen in gens:
            eigvals, vecs = eigenvector_program_states(rep, gen)
            ref_vals, z = schur_vectors_by_index(rep.matrices[gen], want)
            got = vecs.T[:, :, None] * vecs.T.conj()[:, None, :]
            ref = z.T[:, :, None] * z.T.conj()[:, None, :]
            assert np.max(np.abs(eigvals - ref_vals)) < 1e-12
            assert np.max(np.abs(got - ref)) < 1e-12
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(rep.degree))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 17, 19])
    def test_eigenvalue_one_sorts_first(self, d):
        # an eigenvalue 1 whose rounded imaginary part is below 0 has phase
        # 2 pi - 1e-17 mod 2 pi; it must still come first
        rep = fixture_representation(d)
        gens = sharp_generators(rep)
        with_one = 0
        for gen in gens:
            ones = np.flatnonzero(np.abs(eigenvector_program_states(rep, gen)[0] - 1) < 1e-9)
            if ones.size:
                assert ones.tolist() == [0], gen
                with_one += 1
        # at d = 2 one generator squares to -1: its eigenvalues are +-i
        assert with_one == len(gens) - (d == 2)

    def test_repeated_eigenvalue_gets_an_orthonormal_basis(self):
        # Z_6 on C^3 by W diag(1, 1, (-1)^k) W^dagger: U(3) has eigenvalue 1
        # twice, and eig's own vectors for it are far from orthogonal
        k = np.arange(6)
        w = random_unitary(np.random.default_rng(0), 3)
        u = np.stack([w @ np.diag([1.0, 1.0, (-1.0) ** j]) @ w.conj().T for j in k])
        rep = ProjectiveRepresentation(FiniteGroup([str(j) for j in k], (k[:, None] + k) % 6), u)
        eigvals, v = eigenvector_program_states(rep, 3)
        assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-12
        assert np.max(np.abs(rep.matrices[3] @ v - v * eigvals)) < 1e-12
        # the repeated eigenvalue 1 has index 0, so its two vectors come first
        assert np.max(np.abs(eigvals - [1.0, 1.0, -1.0])) < 1e-12

    def test_same_generator_eigenvectors_orthogonal(self, q8):
        idx = {n: i for i, n in enumerate(q8.group.names)}
        _, vecs = eigenvector_program_states(q8, idx["j"])
        assert abs(np.vdot(vecs[:, 0], vecs[:, 1])) < 1e-10

    def test_wrong_order_generator_rejected(self, q8):
        idx = {n: i for i, n in enumerate(q8.group.names)}
        with pytest.raises(ValueError, match="order"):
            eigenvector_program_states(q8, idx["-1"])

    def test_wrong_order_generator_in_a_stack_is_named(self, q8):
        idx = {n: i for i, n in enumerate(q8.group.names)}
        gens = np.array([idx["i"], idx["-1"], idx["k"]])
        with pytest.raises(ValueError, match=rf"generator {idx['-1']} \(-1\) has order 2"):
            eigenvector_program_states(q8, gens)

    @pytest.mark.parametrize("which", ["q8", 2, 3, 5, 7, 11, 13, 17, 19])
    def test_stacked_rows_equal_the_scalar_calls(self, which):
        rep = fixture_representation(which)
        if which == "q8":
            gens = np.array([rep.group.names.index(n) for n in "ijk"])
        else:
            gens = np.array(
                [wh_element_index(which, 0, 1)]
                + [wh_element_index(which, 1, k) for k in range(which)]
            )
        eigvals, vecs = eigenvector_program_states(rep, gens)
        d = rep.degree
        assert eigvals.shape == (len(gens), d) and vecs.shape == (len(gens), d, d)
        for row, gen in enumerate(gens):
            one_vals, one_vecs = eigenvector_program_states(rep, int(gen))
            assert one_vals.shape == (d,) and one_vecs.shape == (d, d)
            assert eigvals[row].tobytes() == one_vals.tobytes()
            assert vecs[row].tobytes() == one_vecs.tobytes()


class TestGeneratorIndex:
    """Element indices are checked where every subgroup helper starts."""

    @pytest.mark.parametrize("bad", [-1, -9, 9])
    def test_out_of_range_index_is_rejected(self, wh3, bad):
        with pytest.raises(ValueError, match=rf"generator index {bad} outside \[0, 9\)"):
            eigenvector_program_states(wh3, bad)
        with pytest.raises(ValueError, match=rf"generator index {bad} outside"):
            eigenvector_program_states(wh3, np.array([wh_element_index(3, 0, 1), bad]))

    @pytest.mark.parametrize("bad", [True, np.True_, 1.0, np.float64(3.0)])
    def test_non_integer_index_is_rejected(self, wh3, bad):
        for helper in (cyclic_subgroup, coset_postprocessing):
            with pytest.raises(ValueError, match="generator index must be an integer"):
                helper(wh3.group, bad)
        with pytest.raises(ValueError, match="generator index must be an integer"):
            eigenvector_program_states(wh3, bad)

    def test_numpy_integer_index_is_accepted(self, wh3):
        gen = wh_element_index(3, 0, 1)
        assert cyclic_subgroup(wh3.group, np.int64(gen)).tolist() == walked_powers(wh3.group, gen)


class TestSharpFromSubgroup:
    def test_q8_x_axis(self, q8):
        idx = {n: i for i, n in enumerate(q8.group.names)}
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        obs = sharp_from_subgroup(q8, idx["i"], psi)
        assert np.allclose(obs.effects[0], (I2 + PAULI_X) / 2, atol=1e-10)
        assert np.allclose(obs.effects[1], (I2 - PAULI_X) / 2, atol=1e-10)

    def test_q8_z_axis(self, q8):
        idx = {n: i for i, n in enumerate(q8.group.names)}
        obs = sharp_from_subgroup(q8, idx["k"], np.array([1.0, 0.0]))
        assert np.allclose(obs.effects[0], (I2 + PAULI_Z) / 2, atol=1e-10)
        assert np.allclose(obs.effects[1], (I2 - PAULI_Z) / 2, atol=1e-10)

    def test_z5_rank_one_pvm(self):
        rep = weyl_heisenberg(5)
        gen = wh_element_index(5, 1, 2)
        eigvals, vecs = eigenvector_program_states(rep, gen)
        omega = np.exp(2j * np.pi / 5)
        psi = vecs[:, int(np.argmin(np.abs(eigvals - omega)))]
        obs = sharp_from_subgroup(rep, gen, psi)
        assert obs.n_outcomes == 5
        for eff in obs.effects:
            assert np.max(np.abs(eff @ eff - eff)) < 1e-8

    def test_equals_coset_merged_covariant(self, q8):
        idx = {n: i for i, n in enumerate(q8.group.names)}
        psi = eigenvector_program_states(q8, idx["j"])[1][:, 0]
        direct = sharp_from_subgroup(q8, idx["j"], psi)
        merged = post_process_observable(
            coset_postprocessing(q8.group, idx["j"]),
            programmed_covariant(q8, DensityState.from_vector(psi)),
        )
        for a, b in zip(direct.effects, merged.effects):
            assert np.max(np.abs(a - b)) < 1e-9

    def test_non_eigenvector_rejected(self, q8):
        idx = {n: i for i, n in enumerate(q8.group.names)}
        with pytest.raises(ValueError, match="eigenvector"):
            sharp_from_subgroup(q8, idx["k"], np.array([1.0, 1.0]) / np.sqrt(2))


class TestEigenvectorProgram:
    @staticmethod
    def _missed(rep, targets):
        """Generators whose target eigenvalue was missed; every probe must
        program the subgroup's sharp observable either way."""
        mm = covariant_multimeter(rep)
        missed = []
        gens = [gen for gen, _ in targets]
        programs = eigenvector_program(rep, gens, [target for _, target in targets])
        for gen, (psi, probe, kernel, exact) in zip(gens, programs):
            programmed = post_process_observable(kernel, program(mm, probe))
            direct = sharp_from_subgroup(rep, gen, psi)
            assert programmed.n_outcomes == direct.n_outcomes
            for a, b in zip(programmed.effects, direct.effects):
                assert np.max(np.abs(a - b)) < 1e-9
            if not exact:
                missed.append(gen)
        return missed

    def test_q8_axes(self, q8):
        targets = [(q8.group.names.index(n), t) for n, t in (("i", 1j), ("j", -1j), ("k", 1j))]
        assert self._missed(q8, targets) == []

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_phase_space_generators(self, d):
        rep = weyl_heisenberg(d)
        omega = np.exp(2j * np.pi / d)
        targets = [(wh_element_index(d, 0, 1), 1.0 + 0j)]
        targets += [(wh_element_index(d, 1, k), omega) for k in range(d)]
        # d = 2: U(1,1) has eigenvalues +-i, so the target -1 is missed
        assert self._missed(rep, targets) == ([wh_element_index(2, 1, 1)] if d == 2 else [])

    @pytest.mark.parametrize("n_targets", [1, 3])
    def test_target_count_must_match_the_generators(self, n_targets, monkeypatch):
        def refuse(*args):
            raise AssertionError("the eigenvectors were computed before the targets were checked")

        monkeypatch.setattr(groups, "eigenvector_program_states", refuse)
        gens = [wh_element_index(3, 0, 1), wh_element_index(3, 1, 0)]
        with pytest.raises(ValueError, match=f"^{n_targets} targets for 2 generators$"):
            next(eigenvector_program(weyl_heisenberg(3), gens, [1.0] * n_targets))


def _revalidates_to_itself(state) -> bool:
    """Full ``eigh`` validation of the stored matrix leaves it bit for bit."""
    return DensityState(state.matrix.copy()).matrix.tobytes() == state.matrix.tobytes()


class TestKnownSpectrumStates:
    """States validated by their known spectrum are those ``eigh`` validation keeps."""

    @pytest.mark.parametrize("which", ["q8", 2, 3, 5, 7])
    def test_every_program_state_revalidates_to_itself(self, which):
        rep = fixture_representation(which)
        eta = DensityState.maximally_mixed(rep.degree)
        assert _revalidates_to_itself(eta)
        for gen in sharp_generators(rep):
            eigvals, vecs = eigenvector_program_states(rep, gen)
            for k, psi in enumerate(vecs.T):
                seed = DensityState.from_vector(psi)
                probe = covariant_program_state(eta, seed)
                assert _revalidates_to_itself(seed) and _revalidates_to_itself(probe)
            # eigenvector_program builds the same probe from the vector it picks
            ((picked, probe_built, _, _),) = eigenvector_program(rep, [gen], [eigvals[k]])
            assert np.array_equal(picked, psi)
            assert probe_built.matrix.tobytes() == probe.matrix.tobytes()

    def test_products_of_random_states_revalidate_to_themselves(self, rng):
        for d in (2, 3, 4, 7):
            for _ in range(5):
                eta, seed = random_density(rng, d), random_density(rng, d)
                assert _revalidates_to_itself(covariant_program_state(eta, seed))
                pure = DensityState.from_vector(random_unitary(rng, d)[:, 0])
                assert _revalidates_to_itself(covariant_program_state(eta, pure))


@pytest.fixture
def factor_ranks(monkeypatch):
    """The column count r of every factor stack a Gram-built observable is
    formed from, in call order."""
    ranks = []
    original = Observable._from_factors.__func__

    def spy(cls, factors, *args):
        ranks.append(factors.shape[-1])
        return original(cls, factors, *args)

    monkeypatch.setattr(Observable, "_from_factors", classmethod(spy))
    return ranks


@pytest.fixture
def hermiticity_scans(monkeypatch):
    """The shapes of the matrices whose Hermiticity ``quantum`` checks in full."""
    shapes = []
    original = quantum.require_hermitian

    def spy(m):
        shapes.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(quantum, "require_hermitian", spy)
    return shapes


def _assert_full_check_agrees(obs):
    """``Observable(effects)``, with its Hermiticity and eigenvalue checks,
    accepts the Gram-built effects and keeps them bit for bit."""
    full = Observable(obs.effects.copy(), outcomes=obs.outcomes, atol_complete=obs.atol_complete)
    assert full.effects.tobytes() == obs.effects.tobytes()
    assert full.outcomes == obs.outcomes


def _product_herm_bound(a: np.ndarray, b: np.ndarray) -> float:
    """The Hermiticity bound ``DensityState._product`` states for the
    product of ``a`` and ``b``: max|a| defect(b) + defect(a) max|b| + 4 eps max|a| max|b|."""
    top_a, top_b = float(np.max(np.abs(a))), float(np.max(np.abs(b)))
    rounding = 4 * np.finfo(float).eps * top_a * top_b
    return top_a * herm_defect(b) + herm_defect(a) * top_b + rounding


def _assert_probe_is_the_product(eta, seed, probe):
    """The probe's matrix, built when first read, is tensor(eta, seed^T) bit
    for bit, Hermitian within the bound its two states give."""
    product = tensor(eta.matrix, seed.matrix.T)
    assert probe.matrix.tobytes() == product.tobytes()
    assert herm_defect(probe.matrix) <= _product_herm_bound(eta.matrix, seed.matrix.T)


class TestGramBuiltObservables:
    """Covariant effects are Gram products of a seed factor, certified by
    construction; the full checks they skip agree on every shipped fixture."""

    def _programs_and_agrees(self, mm, eta, seed):
        probe = covariant_program_state(eta, seed)
        _assert_probe_is_the_product(eta, seed, probe)
        programmed = program(mm, probe)
        _assert_full_check_agrees(programmed)
        _assert_full_check_agrees(programmed_covariant(mm.representation, seed))
        return programmed

    def test_q8_every_target(self, q8, factor_ranks):
        mm = covariant_multimeter(q8)
        for gen in sharp_generators(q8):
            eigvals, vecs = eigenvector_program_states(q8, gen)
            for target in eigvals:
                ((psi, probe, _, exact),) = eigenvector_program(q8, [gen], [target])
                assert exact
                eta, seed = DensityState.maximally_mixed(2), DensityState.from_vector(psi)
                built = covariant_program_state(eta, seed)
                assert probe.matrix.tobytes() == built.matrix.tobytes()
                _assert_probe_is_the_product(eta, seed, probe)
                _assert_full_check_agrees(program(mm, probe))
        # pure seeds program through one factor column
        assert factor_ranks == [1] * 2 * len(sharp_generators(q8))

    @pytest.mark.parametrize(
        "d", [p for p in range(2, PHASE_SPACE_MAX_DIM + 1) if groups.is_prime(p)]
    )
    def test_eigenvector_program_at_every_prime(self, d, factor_ranks):
        rep = weyl_heisenberg(d)
        mm = covariant_multimeter(rep)
        gens = [wh_element_index(d, 0, 1)] + [wh_element_index(d, 1, k) for k in range(d)]
        targets = [1.0 + 0j] + [np.exp(2j * np.pi / d)] * d
        eta = DensityState.maximally_mixed(d)
        for psi, probe, _, _ in eigenvector_program(rep, gens, targets):
            _assert_probe_is_the_product(eta, DensityState.from_vector(psi), probe)
            _assert_full_check_agrees(program(mm, probe))
        assert factor_ranks == [1] * (d + 1)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_random_mixed_and_rank_deficient_seeds(self, d, rng, factor_ranks):
        mm = covariant_multimeter(weyl_heisenberg(d))
        for rank in range(1, d + 1):
            for _ in range(3):
                # a mixture of ``rank`` orthonormal vectors with random weights
                vecs = random_unitary(rng, d)[:, :rank]
                weights = rng.dirichlet(np.ones(rank))
                seed = DensityState((vecs * weights) @ vecs.conj().T)
                self._programs_and_agrees(mm, random_density(rng, d), seed)
        for _ in range(3):
            self._programs_and_agrees(mm, random_density(rng, d), random_density(rng, d))
        # each seed programs once and builds its observable once
        ranks = [r for r in range(1, d + 1) for _ in range(3) for _ in "pc"] + [d] * 6
        assert factor_ranks == ranks

    def test_pure_seed_programs_through_one_column(self, rng, factor_ranks):
        rep = weyl_heisenberg(5)
        seed = DensityState.from_vector(random_unitary(rng, 5)[:, 0])
        mm = covariant_multimeter(rep)
        programmed = self._programs_and_agrees(mm, random_density(rng, 5), seed)
        assert factor_ranks == [1, 1]
        oracle = covariant_effects_oracle(rep, seed.matrix)
        assert np.max(np.abs(programmed.effects - oracle)) < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_factor_bound_holds_on_factors_off_hermitian(self, d, rng, hermiticity_scans):
        # validated factors keep their asymmetry, here up to about 4e-11 an entry
        def off_hermitian():
            noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            return DensityState(random_density(rng, d).matrix + 1e-11 * noise)

        for _ in range(10):
            eta, seed = off_hermitian(), off_hermitian()
            bound = _product_herm_bound(eta.matrix, seed.matrix.T)
            assert 0.0 < herm_defect(eta.matrix) and bound <= TOL_HERM
            scans = len(hermiticity_scans)
            probe = covariant_program_state(eta, seed)
            _assert_probe_is_the_product(eta, seed, probe)
            assert hermiticity_scans[scans:] == []
            assert 0.0 < herm_defect(probe.matrix)
            full = DensityState(probe.matrix.copy())
            assert hermiticity_scans[scans:] == [(d * d, d * d)]
            assert full.matrix.tobytes() == probe.matrix.tobytes()

    def test_probe_near_the_tolerance_is_accepted_on_its_factors(self, hermiticity_scans):
        # two valid states, each 0.9 TOL_HERM from Hermitian, of largest entry 1:
        # the stated bound exceeds TOL_HERM, yet the product is not scanned
        eta = DensityState(np.array([[1.0, 0.9 * TOL_HERM], [0.0, 0.0]], dtype=complex))
        seed = DensityState(np.array([[0.0, 0.0], [0.9 * TOL_HERM, 1.0]], dtype=complex))
        assert herm_defect(eta.matrix) == herm_defect(seed.matrix) == 0.9 * TOL_HERM
        assert _product_herm_bound(eta.matrix, seed.matrix.T) > TOL_HERM
        scans = len(hermiticity_scans)
        probe = covariant_program_state(eta, seed)
        _assert_probe_is_the_product(eta, seed, probe)
        assert hermiticity_scans[scans:] == []
        assert herm_defect(probe.matrix) <= TOL_HERM


def _probes(rep):
    """(psi, probe) of every eigenvector of the first two sharp generators of
    ``rep``: pairs of overlap 1, 0 and that of two subgroups."""
    eta = DensityState.maximally_mixed(rep.degree)
    for gen in sharp_generators(rep)[:2]:
        for psi in eigenvector_program_states(rep, gen)[1].T:
            yield psi, covariant_program_state(eta, DensityState.from_vector(psi))


@pytest.fixture
def probe_builds(monkeypatch):
    """The shapes of the factors of every deferred probe matrix built."""
    shapes = []
    original = quantum.tensor

    def spy(a, b):
        shapes.append((np.shape(a), np.shape(b)))
        return original(a, b)

    monkeypatch.setattr(quantum, "tensor", spy)
    return shapes


class TestFactoredProbes:
    """A probe eta x seed^T keeps its pair (eta, seed); programming and
    fidelity read it and agree with the dense probe."""

    @pytest.mark.parametrize("which", ["q8", 2, 3, 5, 7])
    def test_program_matches_the_dense_probe(self, which, probe_builds):
        rep = fixture_representation(which)
        mm = covariant_multimeter(rep)
        for _, probe in _probes(rep):
            factored = program(mm, probe)
            assert probe_builds == []
            dense = program(mm, DensityState(probe.matrix.copy()))
            assert factored.outcomes == dense.outcomes
            assert np.max(np.abs(factored.effects - dense.effects)) <= 1e-12
            probe_builds.clear()

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_random_mixed_product_matches_the_dense_probe(self, d, rng, probe_builds):
        mm = covariant_multimeter(weyl_heisenberg(d))
        for _ in range(5):
            eta, seed = random_density(rng, d), random_density(rng, d)
            probe = covariant_program_state(eta, seed)
            factored = program(mm, probe)
            assert probe_builds == []
            dense = program(mm, DensityState(probe.matrix.copy()))
            assert np.max(np.abs(factored.effects - dense.effects)) <= 1e-12
            probe_builds.clear()

    @pytest.mark.parametrize("which", ["q8", 2, 3, 5, 7])
    def test_fidelity_matches_the_dense_fidelity(self, which, probe_builds):
        probes = list(_probes(fixture_representation(which)))
        for psi1, xi1 in probes:
            for psi2, xi2 in probes:
                built = len(probe_builds)
                f = fidelity(xi1, xi2)
                assert len(probe_builds) == built
                # the shared eta has fidelity 1, the pure seeds |<psi1|psi2>|
                assert abs(f - abs(np.vdot(psi1, psi2))) <= 1e-12
                if xi1 is not xi2:
                    dense1, dense2 = DensityState(xi1.matrix.copy()), DensityState(xi2.matrix.copy())
                    dense = fidelity(dense1, dense2)
                    assert abs(f - dense) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_fidelity_of_random_mixed_products(self, d, rng):
        for _ in range(5):
            a, b = (covariant_program_state(random_density(rng, d), random_density(rng, d))
                    for _ in range(2))
            dense = fidelity(DensityState(a.matrix.copy()), DensityState(b.matrix.copy()))
            assert abs(fidelity(a, b) - dense) <= 1e-12
            # a product against a dense state builds the product's matrix
            assert abs(fidelity(a, DensityState(b.matrix.copy())) - dense) <= 1e-12

    def test_matrix_is_built_on_first_read_once(self, rng, probe_builds):
        eta, seed = random_density(rng, 3), DensityState.from_vector(random_unitary(rng, 3)[:, 0])
        probe = covariant_program_state(eta, seed)
        assert probe.dim == 9 and probe_builds == []
        first = probe.matrix
        assert probe.matrix is first and probe_builds == [((3, 3), (3, 3))]
        assert not first.flags.writeable
        assert first.tobytes() == tensor(eta.matrix, seed.matrix.T).tobytes()

    def test_pure_seed_runs_no_eigh(self, q8, monkeypatch):
        # the seed's factor is its unit column: the same effects as the
        # eigh of its matrix, which a dense copy of the seed takes
        psi = eigenvector_program_states(q8, sharp_generators(q8)[0])[1][:, 0]
        seed, eta = DensityState.from_vector(psi), DensityState.maximally_mixed(2)
        dense_seed = programmed_covariant(q8, DensityState(seed.matrix.copy()))
        product = DensityState(tensor(eta.matrix, seed.matrix.T))
        dense_probe = program(covariant_multimeter(q8), product)

        def refuse(*args, **kwargs):
            raise AssertionError("a pure seed ran eigh")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        programmed = program(covariant_multimeter(q8), covariant_program_state(eta, seed))
        assert np.max(np.abs(programmed.effects - dense_seed.effects)) <= 1e-15
        assert np.max(np.abs(programmed.effects - dense_probe.effects)) <= 1e-15

    def test_factors_of_different_dimensions_are_refused(self, rng):
        with pytest.raises(ValueError, match="^eta dim 2 != seed dim 3$"):
            covariant_program_state(random_density(rng, 2), random_density(rng, 3))

    def test_trace_of_the_product_is_checked(self):
        # each factor's trace is 1 + 0.9e-9, within ATOL_TRACE; the product's is not
        near = DensityState(np.diag([0.5, 0.5 + 0.9e-9]).astype(complex))
        with pytest.raises(ValueError, match="state trace .* is not 1 within 1.0e-09"):
            covariant_program_state(near, near)


class TestDeferredEffects:
    """A Gram-built observable keeps only its factors, checks completeness on
    them, and builds its effects on first read."""

    def test_effects_are_built_on_first_read_once(self, rng, monkeypatch):
        rep = weyl_heisenberg(5)
        factors = programmed_covariant(rep, random_density(rng, 5))._factors
        obs = Observable._from_factors(factors, list(rep.group.names), quantum.ATOL_PROGRAM)
        assert "effects" not in vars(obs)
        assert (obs.n_outcomes, obs.dim) == (25, 5)
        built = []
        original = quantum.hermitianize
        monkeypatch.setattr(quantum, "hermitianize", lambda m: built.append(1) or original(m))
        first = obs.effects
        assert obs.effects is first and len(built) == 1
        expected = hermitianize(factors @ factors.conj().swapaxes(-1, -2))
        assert first.dtype == expected.dtype and first.shape == expected.shape
        assert first.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0, 0] = 0.0
        # any other missing attribute is still missing
        with pytest.raises(AttributeError, match="no attribute 'nothing'"):
            obs.nothing

    @pytest.mark.parametrize("case", ["incomplete", "nan", "inf", "overflow", "labels"])
    def test_rejected_with_the_message_of_the_full_check(self, wh3, rng, case):
        factors = programmed_covariant(wh3, random_density(rng, 3))._factors.copy()
        labels = list(wh3.group.names)
        if case == "incomplete":
            factors *= 1.01
        elif case == "nan":
            factors[4, 1, 0] = np.nan
        elif case == "inf":
            factors[7, 2, 0] = np.inf
        elif case == "overflow":
            # finite factors whose Gram sum overflows
            factors *= 1e200
        else:
            labels = labels[:-1]
        with np.errstate(all="ignore"), pytest.raises(ValueError) as deferred:
            Observable._from_factors(factors, labels, quantum.ATOL_COMPLETE)
        with np.errstate(all="ignore"):
            effects = hermitianize(factors @ factors.conj().swapaxes(-1, -2))
        with pytest.raises(ValueError) as full:
            Observable(effects, outcomes=labels)
        assert str(deferred.value) == str(full.value)
        expected = {
            "incomplete": r"effects sum to identity only within 2\.010e-02 > 1\.0e-09",
            "nan": r"non-finite entry",
            "inf": r"non-finite entry",
            "overflow": r"non-finite entry",
            "labels": r"one outcome label per effect required",
        }[case]
        assert deferred.match(expected)

    def test_reducible_representation_is_named(self, q8):
        # U(g) + U(g) block-diagonally: sum_g |tr U(g)|^2 = 4 #G, so a device
        # built directly refuses it; a seed inside one block would program
        # effects summing to twice that block's identity and nothing on the other
        doubled = np.zeros((8, 4, 4), dtype=complex)
        doubled[:, :2, :2] = doubled[:, 2:, 2:] = q8.matrices
        rep = ProjectiveRepresentation(q8.group, doubled)
        with pytest.raises(ValueError, match="not irreducible") as failure:
            CovariantMultimeter(rep)
        assert failure.match(r"sum \|tr U\(g\)\|\^2 = 32 != #G = 8")


class TestStackedCosetKernels:
    """``eigenvector_program`` builds every coset kernel from one stacked
    power table; each equals ``coset_postprocessing`` and the table walk."""

    @pytest.mark.parametrize("which", ["q8", 2, 3, 5, 7, 11, 13, 17, 19])
    def test_every_demo_generator(self, which):
        rep = fixture_representation(which)
        g = rep.group
        if which == "q8":
            gens = [g.names.index(n) for n in "ijk"]
        else:
            gens = [wh_element_index(which, 0, 1)] + [wh_element_index(which, 1, k) for k in range(which)]
        for gen, (_, _, kern, _) in zip(gens, eigenvector_program(rep, gens, [1.0] * len(gens))):
            ref = coset_postprocessing(g, gen)
            assert kern.kernel.shape == ref.kernel.shape
            assert kern.kernel.tobytes() == ref.kernel.tobytes()
            assert kern._relabel.dtype == ref._relabel.dtype
            assert kern._relabel.tobytes() == ref._relabel.tobytes()
            assert kern.out_labels == ref.out_labels
            walked = walked_cosets(g, gen)
            assert kern.out_labels == [g.names[c[0]] for c in walked]
            assert [np.flatnonzero(kern._relabel == j).tolist() for j in range(kern.n_out)] == walked

    def test_wrong_order_generator_keeps_its_message(self, q8):
        idx = {n: i for i, n in enumerate(q8.group.names)}
        programs = eigenvector_program(q8, [idx["i"], idx["-1"]], [1j, 1j])
        message = rf"generator {idx['-1']} \(-1\) has order 2, expected #G/degree = 4"
        with pytest.raises(ValueError, match=message):
            next(programs)

    def test_order_above_the_group_is_rejected(self):
        # a degree-2 representation of the trivial group: #G/degree = 0
        rep = ProjectiveRepresentation(FiniteGroup(["e"], np.array([[0]])), np.eye(2)[None])
        with pytest.raises(ValueError, match=r"generator 0 \(e\) has order 1, expected #G/degree = 0"):
            eigenvector_program_states(rep, 0)


class TestEffectStacks:
    """Each effect stack equals the per-element construction bit for bit."""

    @pytest.mark.parametrize("which", ["q8", "wh5"])
    def test_pointer_effects_are_scaled_outer_products(self, which):
        # hermitianize(a a^dagger) of a = sqrt(d^2/#G) u(g), one element at a time
        rep = q8_representation() if which == "q8" else weyl_heisenberg(5)
        scale = np.sqrt(rep.degree**2 / rep.group.order)
        expected = []
        for g in range(rep.group.order):
            a = pointer_vector(rep, g)[:, None] * scale
            expected.append(hermitianize(a @ a.conj().T))
        assert np.array_equal(covariant_multimeter(rep).pointer.effects, np.array(expected))

    def test_covariant_observable(self, rng):
        # the Gram products of U(g) F, F the seed's clipped eigendecomposition
        # scaled by sqrt(d/#G), and within 1e-15 of the triple product
        for which in ("q8", 3, 5, 7):
            rep = fixture_representation(which)
            d, n = rep.degree, rep.group.order
            seed = random_density(rng, d)
            w, v = np.linalg.eigh(hermitianize(seed.matrix))
            keep = w > w.max() * REL_RANK_CLIP
            f = v[:, keep] * np.sqrt(w[keep]) * np.sqrt(d / n)
            expected = [hermitianize((u @ f) @ (u @ f).conj().T) for u in rep.matrices]
            effects = programmed_covariant(rep, seed).effects
            assert np.array_equal(effects, np.array(expected)), which
            oracle = covariant_effects_oracle(rep, seed.matrix)
            assert np.max(np.abs(effects - oracle)) <= 1e-15, which


class TestGramBuiltPointer:
    """The covariant pointer is the Gram family of sqrt(d^2/#G) u(g)."""

    @pytest.mark.parametrize("which", ["q8", 3, 5, 7])
    def test_full_check_agrees_and_keeps_the_bits(self, which):
        pointer = covariant_multimeter(fixture_representation(which)).pointer
        _assert_full_check_agrees(pointer)

    @pytest.mark.parametrize("which", ["q8", 3, 5, 7])
    def test_entries_within_a_rounding_of_the_scaled_outer_products(self, which):
        rep = fixture_representation(which)
        u = pointer_vector(rep, np.arange(rep.group.order))
        outer = u[:, :, None] * u.conj()[:, None, :] * (rep.degree**2 / rep.group.order)
        assert np.max(np.abs(covariant_multimeter(rep).pointer.effects - outer)) <= 5.6e-17

    def test_factors_are_read_only(self, wh3):
        pointer = covariant_multimeter(wh3).pointer
        assert pointer._factors.shape == (9, 9, 1)
        with pytest.raises(ValueError, match="read-only"):
            pointer._factors[0, 0, 0] = 1.0

    def test_effects_are_built_once_on_first_read(self, wh3, monkeypatch):
        pointer = groups.covariant_pointer(wh3)
        assert "effects" not in vars(pointer)
        assert pointer.dim == 9 and pointer.n_outcomes == 9
        assert "effects" not in vars(pointer)
        built = []
        original = quantum.hermitianize

        def spy(m):
            built.append(m.shape)
            return original(m)

        monkeypatch.setattr(quantum, "hermitianize", spy)
        first = pointer.effects
        assert pointer.effects is first and built == [(9, 9, 9)]
        assert not first.flags.writeable


class TestCovariantMultimeter:
    def test_reducible_representation_rejected_up_front(self, q8, monkeypatch):
        # U(g) + U(g) block-diagonally: still projective, no longer irreducible
        doubled = np.zeros((8, 4, 4), dtype=complex)
        doubled[:, :2, :2] = doubled[:, 2:, 2:] = q8.matrices
        rep = ProjectiveRepresentation(q8.group, doubled)

        def refuse(rep):
            raise AssertionError("the pointer was built")

        pointer = groups.covariant_pointer
        monkeypatch.setattr(groups, "covariant_pointer", refuse)
        with pytest.raises(ValueError, match="not irreducible"):
            covariant_multimeter(rep)
        # the pointer's factor completeness check refuses it too
        with pytest.raises(ValueError, match="effects sum to identity only within"):
            pointer(rep)

    def test_pointer_normalization(self, q8):
        mm = covariant_multimeter(q8)
        assert mm.probe_dim == 4
        total = sum(mm.pointer.effects)
        assert np.max(np.abs(total - np.eye(4))) < 1e-9

    @pytest.mark.parametrize("fixture", ["q8", "wh3"])
    def test_pointer_identity(self, fixture, q8, wh3, rng):
        # tr[Z(g) rho x seed^T] = tr[E_seed(g) rho] on random triples
        rep = q8 if fixture == "q8" else wh3
        d = rep.degree
        mm = covariant_multimeter(rep)
        for _ in range(20):
            rho = random_density(rng, d)
            seed = random_density(rng, d)
            g = int(rng.integers(rep.group.order))
            z = mm.pointer.effects[g]
            lhs = np.trace(z @ tensor(rho.matrix, seed.matrix.T)).real
            direct = covariant_effects_oracle(rep, seed.matrix)
            rhs = np.trace(direct[g] @ rho.matrix).real
            assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("device", ["q8", 3, 5, 7, 11])
    def test_programming_matches_direct_construction(self, device, q8, rng):
        rep = q8 if device == "q8" else weyl_heisenberg(device)
        mm = covariant_multimeter(rep)
        seed = random_density(rng, rep.degree)
        eta = random_density(rng, rep.degree)
        programmed = program(mm, covariant_program_state(eta, seed))
        direct = covariant_effects_oracle(rep, seed.matrix)
        assert programmed.n_outcomes == len(direct) == rep.group.order
        for a, b in zip(programmed.effects, direct):
            assert np.max(np.abs(a - b)) < 1e-9

    def test_program_independent_of_eta(self, q8, rng):
        mm = covariant_multimeter(q8)
        seed = random_density(rng, 2)
        reference = None
        for _ in range(5):
            eta = random_density(rng, 2)
            obs = program(mm, covariant_program_state(eta, seed))
            if reference is None:
                reference = obs
            else:
                for a, b in zip(obs.effects, reference.effects):
                    assert np.max(np.abs(a - b)) < 1e-10

    def test_transpose_convention(self, q8, rng):
        # programming with seed^T reproduces E_seed, not E_(seed^T)
        mm = covariant_multimeter(q8)
        seed = random_density(rng, 2)
        eta = DensityState.maximally_mixed(2)
        programmed = program(mm, covariant_program_state(eta, seed))
        direct = covariant_effects_oracle(q8, seed.matrix)
        transposed = covariant_effects_oracle(q8, seed.matrix.T)
        agree = all(
            np.allclose(a, b, atol=1e-9)
            for a, b in zip(programmed.effects, direct)
        )
        assert agree
        differs = any(
            np.max(np.abs(a - b)) > 1e-6
            for a, b in zip(programmed.effects, transposed)
        )
        assert differs  # a generic seed is not transpose symmetric

    def test_q8_full_pipeline_to_sigma_z(self, q8):
        idx = {n: i for i, n in enumerate(q8.group.names)}
        mm = covariant_multimeter(q8)
        eta = DensityState.maximally_mixed(2)
        seed = DensityState((I2 + PAULI_Z) / 2)
        programmed = program(mm, covariant_program_state(eta, seed))
        kern = coset_postprocessing(q8.group, idx["k"])
        sharp = post_process_observable(kern, programmed)
        assert np.allclose(sharp.effects[0], (I2 + PAULI_Z) / 2, atol=1e-9)
        assert np.allclose(sharp.effects[1], (I2 - PAULI_Z) / 2, atol=1e-9)

    def test_pointer_vectors_are_unit(self, q8):
        for g in range(8):
            assert abs(np.linalg.norm(pointer_vector(q8, g)) - 1.0) < 1e-12

    @pytest.mark.parametrize("device", ["q8", 3, 5])
    def test_pointer_vector_equals_kronecker_form(self, device):
        rep = q8_representation() if device == "q8" else weyl_heisenberg(device)
        d = rep.degree
        omega = np.zeros(d * d, dtype=complex)
        omega[:: d + 1] = 1.0 / np.sqrt(d)
        for g in range(rep.group.order):
            kron_form = tensor(rep.matrices[g], np.eye(d)) @ omega
            assert np.array_equal(pointer_vector(rep, g), kron_form)


class TestFiniteGroupValidation:
    def test_rejects_non_latin_square(self):
        with pytest.raises(ValueError, match="permutation"):
            FiniteGroup(["e", "a"], np.array([[0, 0], [1, 1]]))

    def test_rejects_non_associative(self):
        # a Latin square that is not a group table
        table = np.array(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )
        with pytest.raises(ValueError, match="associative"):
            FiniteGroup(list("abcde"), table)

    def test_associativity_check_memory_is_bounded(self):
        # two n^3 index tables for the 169 elements of WH(13) take 78 MiB
        group = weyl_heisenberg(13).group
        tracemalloc.start()
        try:
            rebuilt = FiniteGroup(group.names, group.table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert (rebuilt.identity, rebuilt.generators) == (group.identity, group.generators)

    @pytest.mark.parametrize("which", ["q8", "relabelled", 2, 3, 5, 13])
    def test_generators_generate_the_table(self, which):
        group = relabelled_q8() if which == "relabelled" else fixture_representation(which).group
        gens = list(group.generators)
        assert group.identity not in gens
        reached = {group.identity}
        while True:
            grown = reached | {int(group.table[a, s]) for a in reached for s in gens}
            if grown == reached:
                break
            reached = grown
        assert reached == set(range(group.order))

    def test_generator_counts(self, q8):
        # Z_d x Z_d needs (0,1) and (1,0); the order 1, -1, i, ... takes -1 before i and j
        wh7 = weyl_heisenberg(7).group
        assert wh7.generators == (wh_element_index(7, 0, 1), wh_element_index(7, 1, 0))
        assert [q8.group.names[s] for s in q8.group.generators] == ["-1", "i", "j"]

    def test_element_orders(self, q8):
        g = q8.group
        idx = {n: i for i, n in enumerate(g.names)}
        assert cyclic_subgroup(g, idx["1"]).tolist() == [idx["1"]]
        assert cyclic_subgroup(g, idx["-1"]).tolist() == [idx["1"], idx["-1"]]
        assert cyclic_subgroup(g, idx["i"]).tolist() == [idx[n] for n in ("1", "i", "-1", "-i")]

    @pytest.mark.parametrize(
        "table", [[[0.9, 1.2], [1.0, 0.3]], [[0.0, 1.0], [1.0, 0.0]], [[True, False], [False, True]]]
    )
    def test_rejects_non_integer_table(self, table):
        # a cast to int would truncate the first table to Z_2
        with pytest.raises(ValueError, match="must be integers"):
            FiniteGroup(["a", "b"], table)
