import warnings

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    pure_fidelity,
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

    def test_zero_witness_from_eigenvectors(self):
        # cap 0: only rows with an exact-zero overlap are scanned exactly
        a, b = sigma_z_pvm(), sigma_x_pvm()
        s1, s2 = np.stack(a.effects), np.stack(b.effects)
        states1 = divergence._top_eigenvectors(a.effects)
        states2 = divergence._top_eigenvectors(b.effects)
        ref = full_grid_ratio_min(s1, s2, states1, states2)
        assert ref[0] == 0.0
        self._assert_same(divergence._grid_ratio_min(s1, s2, states1, states2), ref)

    def test_sharp_pair_on_the_bloch_grid(self):
        # the grid holds no x eigenvector, so its minimum is small but not 0;
        # with the two appended after it, every |0> row of the grid has a zero
        a, b = sigma_z_pvm(), sigma_x_pvm()
        s1, s2 = np.stack(a.effects), np.stack(b.effects)
        grid = divergence._bloch_states(divergence.BLOCH_GRID, divergence.BLOCH_GRID)
        ref = full_grid_ratio_min(s1, s2, grid, grid)
        assert 0.0 < ref[0] < 0.1
        self._assert_same(divergence._grid_ratio_min(s1, s2, grid, grid), ref)
        states2 = np.concatenate([grid, divergence._top_eigenvectors(b.effects)])
        ref = full_grid_ratio_min(s1, s2, grid, states2)
        assert ref[0] == 0.0
        self._assert_same(divergence._grid_ratio_min(s1, s2, grid, states2), ref)

    @pytest.mark.parametrize("seed", range(3))
    def test_equal_observables_tie_near_one(self, seed):
        # every (v, v) pair scores 1 within a few ulps, so the first minimum
        # decides which pair is returned
        e = random_povm(np.random.default_rng([5, seed]), 2, 3)
        s = np.stack(e.effects)
        grid = divergence._bloch_states(divergence.BLOCH_GRID, divergence.BLOCH_GRID)
        ref = full_grid_ratio_min(s, s, grid, grid)
        assert abs(ref[0] - 1.0) < 1e-9
        self._assert_same(divergence._grid_ratio_min(s, s, grid, grid), ref)

    def test_lowest_bound_row_orthogonal_to_every_state(self, rng):
        # the row with the least overlap is near orthogonal to every state of
        # the second collection, so its ratios are all inf and no row is pruned
        s = np.stack(sigma_z_pvm().effects)
        states1 = _random_states(rng, GRID_BLOCK + 20)
        states1[37] = [0.0, 1.0]
        states2 = np.tile([1.0 + 0j, 0.0], (50, 1))
        states2[1:] *= np.exp(1j * rng.uniform(0, 2 * np.pi, (49, 1)))
        sq = lambda states: np.sqrt(np.einsum("si,xij,sj->sx", states.conj(), s, states).real.clip(0))
        low = (sq(states1) @ sq(states2).T).min(axis=1)
        assert np.argmin(low) == 37
        assert np.abs(states1[37].conj() @ states2.T).max() < divergence.EPS_DEN
        ref = full_grid_ratio_min(s, s, states1, states2)
        assert ref[0] < np.inf
        self._assert_same(divergence._grid_ratio_min(s, s, states1, states2), ref)

    @pytest.mark.parametrize("seed", range(3))
    def test_duplicate_pole_states_of_the_grid(self, seed):
        # the grid's first BLOCH_GRID states are all |0>: equal bounds, equal
        # ratios, and the first of them must win
        rng = np.random.default_rng([6, seed])
        e1, e2 = random_povm(rng, 2, 3), random_povm(rng, 2, 3)
        s1, s2 = np.stack(e1.effects), np.stack(e2.effects)
        grid = divergence._bloch_states(divergence.BLOCH_GRID, divergence.BLOCH_GRID)
        poles = grid[: divergence.BLOCH_GRID]
        assert (poles == poles[0]).all()
        for states1 in (poles, np.concatenate([poles, grid[[700, 1100]]])):
            ref = full_grid_ratio_min(s1, s2, states1, grid)
            self._assert_same(divergence._grid_ratio_min(s1, s2, states1, grid), ref)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 300), st.integers(1, 300))
    @settings(max_examples=40, deadline=None)
    def test_random_collections_match_full_matrix(self, seed, outcomes, n1, n2):
        rng = np.random.default_rng(seed)
        e1, e2 = random_povm(rng, 2, outcomes), random_povm(rng, 2, outcomes)
        s1, s2 = np.stack(e1.effects), np.stack(e2.effects)
        states1, states2 = _random_states(rng, n1), _random_states(rng, n2)
        self._assert_same(
            divergence._grid_ratio_min(s1, s2, states1, states2),
            full_grid_ratio_min(s1, s2, states1, states2),
        )


class _Captured(Exception):
    pass


def _oracle_objective(monkeypatch, e1, e2):
    """The scalar objective ``scipy_multistart_divergence`` hands to scipy."""
    captured = []

    def capture(fun, x0, **kwargs):
        captured.append(fun)
        raise _Captured

    monkeypatch.setattr(oracles, "minimize", capture)
    with pytest.raises(_Captured):
        scipy_multistart_divergence(e1, e2, DivergenceOptions(restarts=1))
    return captured[0]


def _boundary_rows(rng, d):
    """Parameter rows (m, 4d) around the feasibility boundary, with the mask
    each should get: pairs with fidelity just below, at and just above
    ``EPS_DEN``, and halves that are zero or just below or above the norm cut."""
    u = random_unitary(rng, d)
    e0, e1 = u[:, 0], u[:, 1]
    eps = divergence.EPS_DEN
    pairs, mask = [], []
    for t, ok in ((eps * (1 - 1e-3), False), (eps * (1 + 1e-3), True), (0.0, False), (0.5, True)):
        pairs.append((3.0 * e0, -0.7j * (t * e0 + e1)))
        mask.append(ok)
    pairs.append((np.eye(d)[0], eps * np.eye(d)[0] + np.eye(d)[1]))  # fidelity exactly EPS_DEN
    mask.append(True)
    for scale, ok in ((0.0, False), (5e-13, False), (2e-12, True)):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        pairs += [(scale * v / np.linalg.norm(v), w), (w, scale * v / np.linalg.norm(v))]
        mask += [ok, ok]
    x = np.array([np.concatenate([a.real, a.imag, b.real, b.imag]) for a, b in pairs])
    return x, np.array(mask)


class TestPopulationBoundary:
    """The population objective on rows near ``EPS_DEN`` and the norm cut,
    against the oracle's scalar objective."""

    @pytest.mark.parametrize("d, outcomes", [(2, 2), (2, 3), (3, 3), (4, 2)])
    def test_matches_scalar_objective_bit_for_bit(self, monkeypatch, d, outcomes):
        rng = np.random.default_rng([d, outcomes, 9])
        e1, e2 = random_povm(rng, d, outcomes), random_povm(rng, d, outcomes)
        objective = _oracle_objective(monkeypatch, e1, e2)
        x, mask = _boundary_rows(rng, d)
        x = np.concatenate([x, rng.standard_normal((7, 4 * d))])
        mask = np.concatenate([mask, np.ones(7, dtype=bool)])
        with np.errstate(divide="ignore", invalid="ignore"):
            values, feasible = divergence._population_ratio(np.stack([e1.effects, e2.effects]), x, d)
        assert np.array_equal(feasible, mask)
        for row, value in zip(x, values):
            assert np.float64(objective(row)).tobytes() == value.tobytes()

    def test_boundary_fidelities(self):
        # the rows straddle EPS_DEN by construction; check where they landed
        x, mask = _boundary_rows(np.random.default_rng(3), 2)
        fid = [pure_fidelity(*divergence._pair_from_params(row, 2)) for row in x[:5]]
        eps = divergence.EPS_DEN
        assert fid[0] < eps < fid[1] and fid[2] < 1e-15 and fid[4] == eps
        assert list(mask[:5]) == [False, True, False, True, True]

    def test_penalty_rows_raise_no_warning(self, monkeypatch):
        # every population call of the estimator also evaluates a zero half and
        # an orthogonal pair, whose divisions by zero are silenced around the search
        e1, e2, opts = _b4_pair(0)
        stacks = np.stack([e1.effects, e2.effects])
        penalty_rows = np.array([[0.0, 0, 0, 0, 1, 0, 0, 0], [1.0, 0, 0, 0, 0, 1, 0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning):
                divergence._population_ratio(stacks, penalty_rows, 2)
        original = divergence._population_ratio
        calls = []

        def with_penalty_rows(stacks, x, d):
            values, feasible = original(stacks, penalty_rows, d)
            assert not feasible.any() and (values == divergence._PENALTY + np.array([0, 1e-8])).all()
            calls.append(len(x))
            return original(stacks, x, d)

        ref = observable_divergence(e1, e2, opts)
        monkeypatch.setattr(divergence, "_population_ratio", with_penalty_rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = observable_divergence(e1, e2, opts)
        assert calls
        assert est.value == ref.value and est.converged == ref.converged
