import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmultimeter.divergence import bhattacharyya
from qmultimeter.groups import (
    coset_postprocessing,
    eigenvector_program_states,
    q8_representation,
    weyl_heisenberg,
    wh_element_index,
)
from qmultimeter.linalg import TOL_PSD
from qmultimeter.postprocessing import (
    PostProcessing,
    post_process_observable,
    pp_fidelity,
)
from qmultimeter.quantum import (
    DensityState,
    Multimeter,
    Observable,
    QuantumChannel,
    outcome_distribution,
    program,
)
from qmultimeter.sampling import random_density, random_postprocessing, random_povm

from oracles import programmed_covariant, simplex_grid

I2 = np.eye(2, dtype=complex)


def dirichlet_rows(rng, n_in, n_out):
    return rng.dirichlet(np.ones(n_out), size=n_in)


class TestPostProcessingType:
    def test_row_sum_validation(self):
        with pytest.raises(ValueError, match="sum"):
            PostProcessing(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_range_validation(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            PostProcessing(np.array([[1.5, -0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kernel_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite entry"):
            PostProcessing(np.array([[bad, 1.0], [0.5, 0.5]]))

    @pytest.mark.parametrize("shape", [(0, 2), (0, 0)])
    def test_kernel_without_rows_rejected(self, shape):
        with pytest.raises(ValueError, match="^kernel needs at least one input row$"):
            PostProcessing(np.zeros(shape))

    def test_relabelling_is_recognised_by_its_exact_entries(self):
        assert PostProcessing(np.eye(3)[[2, 0, 2]])._relabel.tolist() == [2, 0, 2]
        # within ROW_SUM_TOL of a relabelling, but not one
        assert PostProcessing(np.array([[1.0, 1e-13], [0.0, 1.0]]))._relabel is None
        assert PostProcessing(np.full((2, 2), 0.5))._relabel is None
        # entries a rounding above 1 or below 0 are clipped to a relabelling
        assert PostProcessing(np.array([[1.0 + 1e-13, -1e-13]]))._relabel.tolist() == [0]


def _merged_in_full(kern, e):
    """The merged observable as the kernel's tensordot, validated in full."""
    return Observable(
        np.tensordot(kern.kernel, e.effects, axes=(0, 0)),
        outcomes=kern.out_labels,
        atol_complete=e.atol_complete,
    )


@pytest.fixture
def full_checks(monkeypatch):
    """The number of ``Observable.__post_init__`` runs."""
    calls = []
    original = Observable.__post_init__

    def counting(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(Observable, "__post_init__", counting)
    return calls


class TestFactorMerge:
    """A relabelling of Gram-factored effects merges the factors."""

    @staticmethod
    def _agrees(kern, e, full_checks):
        full_checks.clear()
        merged = post_process_observable(kern, e)
        assert merged._factors is not None and not full_checks
        ref = _merged_in_full(kern, e)
        assert merged.outcomes == ref.outcomes
        assert merged.atol_complete == ref.atol_complete
        assert np.max(np.abs(merged.effects - ref.effects)) <= 1e-15
        return merged

    @pytest.mark.parametrize("d", ["q8", 2, 3, 5, 7, 11, 13, 17, 19])
    def test_cosets_of_every_program_vector(self, d, full_checks):
        if d == "q8":
            rep = q8_representation()
            gens = [rep.group.names.index(n) for n in "ijk"]
        else:
            rep = weyl_heisenberg(d)
            gens = [wh_element_index(d, 0, 1)] + [wh_element_index(d, 1, k) for k in range(d)]
        _, vecs = eigenvector_program_states(rep, np.array(gens))
        for gen, basis in zip(gens, vecs):
            kern = coset_postprocessing(rep.group, gen)
            # the vectors of the first and the last eigenvalue
            for psi in basis.T[[0, -1]]:
                e = programmed_covariant(rep, DensityState.from_vector(psi))
                self._agrees(kern, e, full_checks)

    @pytest.mark.parametrize("d", ["q8", 3, 5])
    def test_random_mixed_seeds_and_relabellings(self, d, rng, full_checks):
        # mixed seeds give r = degree columns a factor; random relabellings
        # give outputs of unequal size, some of them empty
        rep = q8_representation() if d == "q8" else weyl_heisenberg(d)
        n = rep.group.order
        for trial in range(10):
            e = programmed_covariant(rep, random_density(rng, rep.degree))
            assert e._factors.shape == (n, rep.degree, rep.degree)
            n_out = int(rng.integers(1, n + 3))
            relabel = rng.integers(0, n_out, size=n)
            kern = PostProcessing(np.eye(n_out)[relabel], out_labels=[f"o{j}" for j in range(n_out)])
            merged = self._agrees(kern, e, full_checks)
            for j in np.setdiff1d(np.arange(n_out), relabel):
                assert not merged.effects[j].any()
            if trial == 0:
                # a merged observable merges again through its factors
                self._agrees(PostProcessing(np.ones((n_out, 1))), merged, full_checks)

    def test_stochastic_kernel_takes_the_full_check(self, q8, rng, full_checks):
        e = programmed_covariant(q8, random_density(rng, 2))
        out = post_process_observable(random_postprocessing(rng, 8, 3), e)
        assert len(full_checks) == 1 and out._factors is None

    def test_dense_validated_input_takes_the_full_check(self, q8, rng, full_checks):
        e = programmed_covariant(q8, random_density(rng, 2))
        dense = Observable(e.effects.copy(), outcomes=e.outcomes)
        assert dense._factors is None
        out = post_process_observable(coset_postprocessing(q8.group, 2), dense)
        assert len(full_checks) == 2 and out._factors is None

    def test_factors_are_read_only(self, q8, rng):
        e = programmed_covariant(q8, random_density(rng, 2))
        with pytest.raises(ValueError, match="read-only"):
            e._factors[0, 0, 0] = 0.0


class TestObservableAction:
    def test_matches_effectwise_sum(self, rng):
        e = random_povm(rng, 3, 5)
        kern = random_postprocessing(rng, 5, 3)
        out = post_process_observable(kern, e)
        for j, eff in enumerate(out.effects):
            expected = sum(kern.kernel[i, j] * e.effects[i] for i in range(5))
            assert np.max(np.abs(eff - expected)) < 1e-14

    def test_matches_the_stacked_list_form(self, rng):
        # no per-effect loop reproduces the one product bit for bit (a sum of
        # kernel[i, j] * E(i) differs by ~1e-15), so the reference is the
        # product on a list of effects restacked, as it was computed before
        e = random_povm(rng, 4, 6)
        kern = random_postprocessing(rng, 6, 3)
        restacked = np.stack([eff.copy() for eff in e.effects])
        expected = np.tensordot(kern.kernel, restacked, axes=(0, 0))
        assert np.array_equal(post_process_observable(kern, e).effects, expected)

    def test_programmed_observable_keeps_its_completeness_tolerance(self):
        # pointer and channel are each 8e-10 from complete, within 1e-9; the
        # programmed effects sum to 1 + 1.6e-9, which programming accepts
        off = 8e-10
        mm = Multimeter(
            probe_dim=2,
            pointer=Observable([np.diag([1 + off, 0.0]), np.diag([0.0, 1.0])]),
            interaction=QuantumChannel([np.sqrt(1 + off) * np.eye(4)]),
        )
        e = program(mm, DensityState(np.diag([1.0, 0.0])))
        assert np.max(np.abs(e.effects.sum(0) - I2)) > 1.5e-9
        out = post_process_observable(PostProcessing(np.eye(2)), e)
        assert out.atol_complete == e.atol_complete
        assert np.array_equal(out.effects, e.effects)

    def test_merged_effects_keep_the_full_positivity_check(self):
        # each effect is certified only above -TOL_PSD, and a merging kernel
        # adds them, so two effects at -0.9 TOL_PSD merge to -1.8 TOL_PSD:
        # the merged observable must be checked in full, not passed on trust
        low = -0.9 * TOL_PSD
        e = Observable([np.diag([low, 0.5]), np.diag([low, 0.5]), np.diag([1 - 2 * low, 0.0])])
        merge = PostProcessing(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match=r"effect has eigenvalue -1\.800e-09 below -1\.0e-09"):
            post_process_observable(merge, e)

    def test_identity_kernel(self, rng):
        e = random_povm(rng, 2, 3)
        out = post_process_observable(PostProcessing(np.eye(3)), e)
        for a, b in zip(out.effects, e.effects):
            assert np.allclose(a, b)

    def test_all_merge_gives_trivial(self, rng):
        e = random_povm(rng, 3, 4)
        out = post_process_observable(PostProcessing(np.ones((4, 1))), e)
        assert out.n_outcomes == 1
        assert np.allclose(out.effects[0], np.eye(3), atol=1e-10)

    def test_coset_kernel_on_covariant_gives_x_pvm(self, q8):
        from qmultimeter.groups import PAULI_X

        idx = {n: i for i, n in enumerate(q8.group.names)}
        psi = DensityState((I2 + PAULI_X) / 2)
        covariant = programmed_covariant(q8, psi)
        kern = coset_postprocessing(q8.group, idx["i"])
        sharp = post_process_observable(kern, covariant)
        assert np.allclose(sharp.effects[0], (I2 + PAULI_X) / 2, atol=1e-10)
        assert np.allclose(sharp.effects[1], (I2 - PAULI_X) / 2, atol=1e-10)
        assert sharp.outcomes == ["1", "j"]

    def test_uniform_kernel_forgets_input(self, rng):
        e = random_povm(rng, 3, 4)
        out = post_process_observable(PostProcessing(np.full((4, 5), 0.2)), e)
        assert np.max(np.abs(out.effects - np.eye(3) / 5)) < 1e-12
        assert np.allclose(outcome_distribution(out, random_density(rng, 3)), 0.2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_chaining_matches_sequential_action(self, seed):
        # relabeling by inner then outer is relabeling once by the product kernel
        rng = np.random.default_rng(seed)
        e = random_povm(rng, 2, 4)
        inner = PostProcessing(dirichlet_rows(rng, 4, 3))
        outer = PostProcessing(dirichlet_rows(rng, 3, 2))
        chained = post_process_observable(PostProcessing(inner.kernel @ outer.kernel), e)
        sequential = post_process_observable(outer, post_process_observable(inner, e))
        assert np.max(np.abs(chained.effects - sequential.effects)) < 1e-12

    def test_outcome_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            post_process_observable(PostProcessing(np.eye(2)), random_povm(rng, 2, 3))


class TestDistributionAction:
    def test_commutes_with_born_rule(self, rng):
        # relabeling the observable then measuring equals measuring then relabeling
        for _ in range(100):
            e = random_povm(rng, 2, 4)
            rho = random_density(rng, 2)
            kern = random_postprocessing(rng, 4, 3)
            lhs = outcome_distribution(post_process_observable(kern, e), rho)
            rhs = outcome_distribution(e, rho) @ kern.kernel
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestKernelFidelity:
    def test_self_fidelity_one(self, rng):
        for _ in range(10):
            k = random_postprocessing(rng, 4, 3)
            assert abs(pp_fidelity(k, k) - 1.0) < 1e-12

    def test_disagreeing_deterministic_kernels(self):
        k1 = PostProcessing(np.array([[1.0, 0.0], [0.0, 1.0]]))
        k2 = PostProcessing(np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert pp_fidelity(k1, k2) == 0.0

    def test_matches_simplex_grid_infimum(self, rng):
        # the closed form equals the infimum over input distributions; the
        # grid contains the point masses, so its minimum matches exactly
        grid = simplex_grid(3, 20)
        for _ in range(25):
            k1 = random_postprocessing(rng, 3, 2)
            k2 = random_postprocessing(rng, 3, 2)
            closed = pp_fidelity(k1, k2)
            vals = [
                bhattacharyya(p @ k1.kernel, p @ k2.kernel) for p in grid
            ]
            assert closed <= min(vals) + 1e-12
            assert abs(closed - min(vals)) < 1e-3

    def test_symmetric_and_permutation_invariant(self, rng):
        k1 = random_postprocessing(rng, 4, 3)
        k2 = random_postprocessing(rng, 4, 3)
        assert abs(pp_fidelity(k1, k2) - pp_fidelity(k2, k1)) < 1e-15
        perm = rng.permutation(4)
        p1 = PostProcessing(k1.kernel[perm])
        p2 = PostProcessing(k2.kernel[perm])
        assert abs(pp_fidelity(p1, p2) - pp_fidelity(k1, k2)) < 1e-15

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            pp_fidelity(random_postprocessing(rng, 3, 2), random_postprocessing(rng, 2, 2))


class TestMonotonicity:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bhattacharyya_never_decreases_under_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        n_in = int(rng.integers(2, 6))
        n_out = int(rng.integers(1, 5))
        kern = PostProcessing(dirichlet_rows(rng, n_in, n_out))
        p = rng.dirichlet(np.ones(n_in))
        q = rng.dirichlet(np.ones(n_in))
        lhs = bhattacharyya(p @ kern.kernel, q @ kern.kernel)
        assert lhs >= bhattacharyya(p, q) - 1e-12

    def test_coset_merging_of_sharp_fixture_is_deterministic(self, q8):
        # the merged observables here are extremal sharp targets, so the
        # kernels that produce them are 0/1 valued by construction
        idx = {n: i for i, n in enumerate(q8.group.names)}
        for name in ("i", "j", "k"):
            kern = coset_postprocessing(q8.group, idx[name])
            assert np.all((kern.kernel == 0.0) | (kern.kernel == 1.0))
