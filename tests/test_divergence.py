import numpy as np
import pytest

from qmultimeter.divergence import (
    DivergenceOptions,
    bhattacharyya,
    divergence_ratio,
    estimate_recompute,
    observable_divergence,
)
from qmultimeter.groups import PAULI_X, PAULI_Z
from qmultimeter.quantum import DensityState, Observable
from qmultimeter.sampling import random_povm, random_pvm

from oracles import bloch_grid_infimum, smeared_qubit_observable

I2 = np.eye(2, dtype=complex)


def sigma_z_pvm():
    return Observable([(I2 + PAULI_Z) / 2, (I2 - PAULI_Z) / 2])


def sigma_x_pvm():
    return Observable([(I2 + PAULI_X) / 2, (I2 - PAULI_X) / 2])


class TestBhattacharyya:
    def test_equal_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert abs(bhattacharyya(p, p) - 1.0) < 1e-12

    def test_disjoint_supports(self):
        assert bhattacharyya([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_half_overlap(self):
        assert abs(bhattacharyya([0.5, 0.5], [1.0, 0.0]) - 1 / np.sqrt(2)) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            bhattacharyya([0.5, 0.4], [0.5, 0.5])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            bhattacharyya([1.0], [0.5, 0.5])


class TestDivergenceRatio:
    def test_identical_inputs_give_one(self, rng):
        e = random_povm(rng, 2, 3)
        rho = DensityState.maximally_mixed(2)
        assert abs(divergence_ratio(e, e, rho, rho) - 1.0) < 1e-12

    def test_shared_observable_bounded_below_by_one(self, rng):
        e = random_povm(rng, 2, 3)
        for _ in range(50):
            r1 = DensityState.from_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            r2 = DensityState.from_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            assert divergence_ratio(e, e, r1, r2) >= 1.0 - 1e-9

    def test_complementary_sharp_witness_is_zero(self):
        # +z eigenstate against the -x eigenstate: the two outcome
        # distributions have disjoint supports while the states overlap
        rho_z = DensityState(np.diag([1.0, 0.0]))
        rho_minus_x = DensityState((I2 - PAULI_X) / 2)
        r = divergence_ratio(sigma_z_pvm(), sigma_x_pvm(), rho_z, rho_minus_x)
        assert r < 1e-7

    def test_near_orthogonal_rejected(self):
        a = DensityState(np.diag([1.0, 0.0]))
        b = DensityState(np.diag([0.0, 1.0]))
        with pytest.raises(ValueError, match="orthogonal"):
            divergence_ratio(sigma_z_pvm(), sigma_z_pvm(), a, b)


class TestObservableDivergence:
    def test_equal_observables_estimate_one(self, rng):
        e = random_povm(rng, 2, 3)
        est = observable_divergence(e, e, DivergenceOptions(seed=3, restarts=8))
        assert est.value >= 1.0 - 2e-3
        assert est.value <= 1.0 + 1e-9

    def test_distinct_sharp_pair_yields_zero_witness(self):
        est = observable_divergence(sigma_z_pvm(), sigma_x_pvm())
        assert est.value == 0.0
        assert est.converged
        assert "exact-zero" in est.method
        # the witnessing pair really evaluates to zero under the objective
        assert estimate_recompute(sigma_z_pvm(), sigma_x_pvm(), est) == 0.0

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_pvm_pairs_give_an_eigenvector_zero_witness(self, d, seed):
        # above qubits there is no grid scan: the eigenvector candidates alone
        # must find the pair with disjoint statistics
        rng = np.random.default_rng([d, seed])
        a, b = random_pvm(rng, d), random_pvm(rng, d)
        est = observable_divergence(a, b, DivergenceOptions(seed=seed, restarts=4))
        assert est.value == 0.0
        assert est.restarts == 0
        assert "exact-zero witness from eigenvector candidates" in est.method
        assert estimate_recompute(a, b, est) == 0.0

    def test_random_sharp_pairs_zero(self, rng):
        for _ in range(3):
            a, b = random_pvm(rng, 2), random_pvm(rng, 2)
            est = observable_divergence(a, b, DivergenceOptions(seed=1, restarts=4))
            assert est.value < 1e-4

    def test_smeared_pair_matches_grid_oracle(self):
        e1 = smeared_qubit_observable([0, 0, 1.0])
        e2 = smeared_qubit_observable([1.0, 0, 0])
        est = observable_divergence(e1, e2, DivergenceOptions(seed=0))
        oracle = bloch_grid_infimum(e1, e2)
        assert abs(est.value - oracle) < 1e-3

    def test_deterministic_given_seed(self, rng):
        e1 = random_povm(rng, 2, 3)
        e2 = random_povm(rng, 2, 3)
        opts = DivergenceOptions(seed=11, restarts=6)
        a = observable_divergence(e1, e2, opts)
        b = observable_divergence(e1, e2, opts)
        assert a.value == b.value
        assert np.array_equal(a.argmin[0].matrix, b.argmin[0].matrix)

    def test_swap_symmetry(self, rng):
        e1 = random_povm(rng, 2, 3)
        e2 = random_povm(rng, 2, 3)
        opts = DivergenceOptions(seed=5, restarts=12)
        a = observable_divergence(e1, e2, opts)
        b = observable_divergence(e2, e1, opts)
        assert abs(a.value - b.value) < 2e-3

    def test_value_consistent_with_argmin(self, rng):
        e1 = random_povm(rng, 2, 3)
        e2 = random_povm(rng, 2, 3)
        opts = DivergenceOptions(seed=2, restarts=8)
        est = observable_divergence(e1, e2, opts)
        assert abs(est.value - estimate_recompute(e1, e2, est)) < 1e-10

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            observable_divergence(random_povm(rng, 2, 3), random_povm(rng, 3, 3))

    def test_outcome_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            observable_divergence(random_povm(rng, 2, 3), random_povm(rng, 2, 4))

    def test_higher_dimension_equal_pair(self, rng):
        e = random_povm(rng, 3, 3)
        est = observable_divergence(e, e, DivergenceOptions(seed=9, restarts=12))
        assert est.value >= 1.0 - 2e-3
