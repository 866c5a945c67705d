import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmultimeter.divergence import bhattacharyya
from qmultimeter.groups import coset_postprocessing, covariant_observable
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

from oracles import simplex_grid

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
        out = post_process_observable(PostProcessing.identity(2), e)
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
        out = post_process_observable(PostProcessing.identity(3), e)
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
        covariant = covariant_observable(q8, psi)
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
            post_process_observable(PostProcessing.identity(2), random_povm(rng, 2, 3))


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
