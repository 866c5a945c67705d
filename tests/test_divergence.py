import numpy as np
import pytest

from qmultimeter import divergence
from qmultimeter.divergence import (
    GRID_BLOCK,
    MAX_RESTARTS,
    DivergenceOptions,
    bhattacharyya,
    divergence_ratio,
    estimate_recompute,
    observable_divergence,
)
from qmultimeter.groups import PAULI_X, PAULI_Z
from qmultimeter.quantum import DensityState, Observable
from qmultimeter.sampling import random_povm, random_pvm, random_unitary

from oracles import (
    bloch_grid_infimum,
    full_grid_ratio_min,
    scipy_multistart_divergence,
    smeared_qubit_observable,
)

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


def _b4_pair(i):
    # the pair verify bprops builds at its default seed, conjugated as in B4
    rng = np.random.default_rng(0)
    e1, e2 = random_povm(rng, 2, 3), random_povm(rng, 2, 3)
    u = random_unitary(np.random.default_rng([7, i]), 2)
    return e1.conjugated(u), e2.conjugated(u), DivergenceOptions(seed=i, restarts=4, maxiter=600)


def _random_pair(d, outcomes, restarts, maxiter):
    rng = np.random.default_rng([d, outcomes])
    e1, e2 = random_povm(rng, d, outcomes), random_povm(rng, d, outcomes)
    return e1, e2, DivergenceOptions(seed=d, restarts=restarts, maxiter=maxiter)


# (d, outcomes, restarts, maxiter, converged): the flag the oracle reports,
# pinned so that both outcomes stay covered
HIGHER_DIM_CASES = [
    (3, 3, 1, 2000, True),
    (3, 2, 1, 2000, True),
    (3, 4, 0, 2000, True),
    (3, 3, 4, 600, False),
    (4, 3, 1, 2500, True),
    (4, 2, 1, 2500, False),
    (4, 4, 2, 1500, False),
]


class TestLockstepMatchesScipy:
    """The lockstep search against one scipy ``minimize`` run per start."""

    @staticmethod
    def _assert_same(est, ref):
        assert abs(est.value - ref.value) <= 1e-12
        assert est.converged == ref.converged
        assert (est.method, est.restarts, est.seed) == (ref.method, ref.restarts, ref.seed)

    @pytest.mark.parametrize("i", range(6))
    def test_conjugated_qubit_pairs(self, i):
        e1, e2, opts = _b4_pair(i)
        self._assert_same(observable_divergence(e1, e2, opts), scipy_multistart_divergence(e1, e2, opts))

    @pytest.mark.parametrize("d, outcomes, restarts, maxiter, converged", HIGHER_DIM_CASES)
    def test_higher_dimension_pairs(self, d, outcomes, restarts, maxiter, converged):
        e1, e2, opts = _random_pair(d, outcomes, restarts, maxiter)
        ref = scipy_multistart_divergence(e1, e2, opts)
        assert ref.converged == converged
        self._assert_same(observable_divergence(e1, e2, opts), ref)

    def test_does_not_call_scipy_minimize(self, monkeypatch):
        e1, e2, opts = _b4_pair(0)
        ref = scipy_multistart_divergence(e1, e2, opts)

        def refuse(*args, **kwargs):
            raise AssertionError("divergence.minimize was called")

        monkeypatch.setattr(divergence, "minimize", refuse)
        self._assert_same(observable_divergence(e1, e2, opts), ref)


class TestRestartsEnvelope:
    def test_at_the_limit(self, rng):
        e1, e2 = random_povm(rng, 2, 3), random_povm(rng, 2, 3)
        est = observable_divergence(e1, e2, DivergenceOptions(restarts=MAX_RESTARTS, maxiter=2))
        assert est.restarts == MAX_RESTARTS
        assert not est.converged  # one step is not enough for any start
        assert 0.0 < est.value <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "kwargs", [{"restarts": MAX_RESTARTS + 1}, {"restarts": -1}, {"maxiter": 0}]
    )
    def test_past_the_limit_rejected(self, rng, kwargs):
        e1, e2 = random_povm(rng, 2, 3), random_povm(rng, 2, 3)
        with pytest.raises(ValueError, match="restarts|maxiter"):
            observable_divergence(e1, e2, DivergenceOptions(**kwargs))


def _random_states(rng, n, d=2):
    v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestGridScanBlocks:
    """The row-block candidate scan against the full ratio matrix."""

    @staticmethod
    def _assert_same(got, ref):
        assert got[0] == ref[0]
        assert got[1].tobytes() == ref[1].tobytes()
        assert got[2].tobytes() == ref[2].tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_bloch_grid_matches_full_matrix(self, seed):
        rng = np.random.default_rng(seed)
        e1, e2 = random_povm(rng, 2, 3), random_povm(rng, 2, 3)
        s1, s2 = np.stack(e1.effects), np.stack(e2.effects)
        grid = divergence._bloch_states(divergence.BLOCH_GRID, divergence.BLOCH_GRID)
        assert len(grid) % GRID_BLOCK != 0
        self._assert_same(
            divergence._grid_ratio_min(s1, s2, grid, grid), full_grid_ratio_min(s1, s2, grid, grid)
        )

    def test_minimum_in_the_last_partial_block(self, rng):
        e1, e2 = random_povm(rng, 2, 3), random_povm(rng, 2, 3)
        s1, s2 = np.stack(e1.effects), np.stack(e2.effects)
        states1 = _random_states(rng, 2 * GRID_BLOCK + 44)
        states2 = _random_states(rng, 300)
        _, v1, _ = full_grid_ratio_min(s1, s2, states1, states2)
        i = int(np.flatnonzero((states1 == v1).all(axis=1))[0])
        states1[[i, -1]] = states1[[-1, i]]
        ref = full_grid_ratio_min(s1, s2, states1, states2)
        assert ref[1].tobytes() == states1[-1].tobytes()
        self._assert_same(divergence._grid_ratio_min(s1, s2, states1, states2), ref)

    def test_all_near_orthogonal_gives_inf(self):
        s = np.stack(sigma_z_pvm().effects)
        up = np.tile([1.0 + 0j, 0.0], (GRID_BLOCK + 5, 1))
        down = np.tile([0.0 + 0j, 1.0], (3, 1))
        value, _, _ = divergence._grid_ratio_min(s, s, up, down)
        assert value == np.inf
        assert full_grid_ratio_min(s, s, up, down)[0] == np.inf
