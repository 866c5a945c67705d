import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from qmultimeter.quantum import DensityState, Observable, fidelity, program
from qmultimeter.sampling import random_povm, random_pvm, random_unitary, rng_from
from qmultimeter.verify import q8_program_pair, wh_program_pair

from oracles import (
    bloch_grid_infimum,
    full_grid_ratio_min,
    full_ratio_matrix,
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
        # the eigenvector candidates must find the pair with disjoint statistics
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


# (d, outcomes, restarts, maxiter): random pairs above qubits
HIGHER_DIM_CASES = [
    (3, 3, 1, 2000),
    (3, 2, 1, 2000),
    (3, 4, 0, 2000),
    (3, 3, 4, 600),
    (4, 3, 1, 2500),
    (4, 2, 1, 2500),
    (4, 4, 2, 1500),
]


def _root_probabilities(e, v):
    """sqrt(<v|E|v>) for every effect, as |sqrt(E) v| with the positive square
    root of E: accurate to rounding near 0, where the square root of a
    rounded <v|E|v> is not."""
    w, u = np.linalg.eigh(e.effects)
    coords = np.abs(np.einsum("xij,i->xj", u.conj(), v)) ** 2
    return np.sqrt(np.einsum("xj,xj->x", np.clip(w, 0.0, None), coords))


def _unfloored_ratio(e1, e2, v1, v2):
    """The ratio at a pure pair, probabilities not floored."""
    return float(_root_probabilities(e1, v1) @ _root_probabilities(e2, v2)) / pure_fidelity(v1, v2)


def _argmin_vectors(est):
    return [np.linalg.eigh(s.matrix)[1][:, -1] for s in est.argmin]


def _assert_ratio_at_argmin(e1, e2, est):
    assert abs(est.value - _unfloored_ratio(e1, e2, *_argmin_vectors(est))) <= 1e-12


class TestRatioGradient:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_central_differences(self, d):
        rng = np.random.default_rng([d, 11])
        roots = divergence._effect_roots(
            np.stack([random_povm(rng, d, 3).effects, random_povm(rng, d, 3).effects])
        )
        h = 1e-6
        for _ in range(5):
            x = rng.standard_normal(4 * d)
            value, grad = divergence._ratio_gradient(x, roots)
            steps = h * np.eye(4 * d)
            fd = np.array(
                [
                    divergence._ratio_gradient(x + s, roots)[0]
                    - divergence._ratio_gradient(x - s, roots)[0]
                    for s in steps
                ]
            ) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)

    def test_value_is_the_unfloored_ratio(self, rng):
        e1, e2 = random_povm(rng, 3, 4), random_povm(rng, 3, 4)
        x = rng.standard_normal(12)
        roots = divergence._effect_roots(np.stack([e1.effects, e2.effects]))
        value, _ = divergence._ratio_gradient(x, roots)
        v1, v2 = x.view(complex).reshape(2, 3)
        ratio = _unfloored_ratio(e1, e2, v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2))
        assert abs(value - ratio) <= 1e-14

    def test_scale_invariant(self, rng):
        # the ratio of two unnormalised vectors depends on their directions only,
        # so the gradient has no component along either vector
        roots = divergence._effect_roots(
            np.stack([random_povm(rng, 3, 3).effects, random_povm(rng, 3, 3).effects])
        )
        x = rng.standard_normal(12)
        value, grad = divergence._ratio_gradient(x, roots)
        scaled = np.concatenate([2.5 * x[:6], 0.3 * x[6:]])
        assert abs(divergence._ratio_gradient(scaled, roots)[0] - value) <= 1e-14
        assert abs(grad[:6] @ x[:6]) <= 1e-12 and abs(grad[6:] @ x[6:]) <= 1e-12


class TestSearchAgainstOracle:
    """The gradient search against derivative-free Nelder-Mead from the same
    starts, both on the unfloored ratio."""

    @pytest.mark.parametrize("i", range(6))
    def test_conjugated_qubit_pairs(self, i):
        e1, e2, opts = _b4_pair(i)
        est = observable_divergence(e1, e2, opts)
        assert est.value <= scipy_multistart_divergence(e1, e2, opts).value + 1e-9
        assert est.converged
        _assert_ratio_at_argmin(e1, e2, est)

    @pytest.mark.parametrize("d, outcomes, restarts, maxiter", HIGHER_DIM_CASES)
    def test_higher_dimension_pairs(self, d, outcomes, restarts, maxiter):
        e1, e2, opts = _random_pair(d, outcomes, restarts, maxiter)
        est = observable_divergence(e1, e2, opts)
        assert est.value <= scipy_multistart_divergence(e1, e2, opts).value + 1e-9
        _assert_ratio_at_argmin(e1, e2, est)

    def test_seeded_four_dimensional_pair_converges(self):
        # the d = 4 pair drawn right after a d = 3 pair from rng_from(0), which
        # the derivative-free search left unconverged at 0.7604
        rng = rng_from(0)
        for _ in range(2):
            random_povm(rng, 3, 3)
        e1, e2 = random_povm(rng, 4, 3), random_povm(rng, 4, 3)
        est = observable_divergence(e1, e2)
        assert est.value <= 0.7556
        assert est.converged
        _assert_ratio_at_argmin(e1, e2, est)

    def test_calls_scipy_minimize_once_per_start(self, monkeypatch):
        e1, e2, opts = _b4_pair(0)
        calls = []
        real = divergence.minimize

        def counted(*args, **kwargs):
            calls.append(kwargs["method"])
            return real(*args, **kwargs)

        monkeypatch.setattr(divergence, "minimize", counted)
        observable_divergence(e1, e2, opts)
        # one seed per top eigenvector of e1, then the random starts
        assert calls == ["L-BFGS-B"] * (e1.n_outcomes + opts.restarts)


    def test_runs_are_ranked_by_the_ratio_at_their_point(self, monkeypatch):
        # an abnormal line-search exit can return x0 with a trial point's
        # value; a stale fun, lower for each later run, must not decide
        e1, e2, opts = _b4_pair(1)
        reference = observable_divergence(e1, e2, opts)
        real = divergence.minimize
        runs = []

        def stale(*args, **kwargs):
            res = real(*args, **kwargs)
            runs.append(res)
            res.fun = res.fun - 0.1 * len(runs)
            return res

        monkeypatch.setattr(divergence, "minimize", stale)
        est = observable_divergence(e1, e2, opts)
        assert min(res.fun for res in runs) < reference.value - 0.1
        assert est.value == reference.value
        _assert_ratio_at_argmin(e1, e2, est)

    @pytest.mark.parametrize("seed", range(10))
    def test_every_seed_of_a_five_outcome_qubit_pair_finds_the_minimum(self, seed):
        # with a single eigenvector seed, this pair's restarts=4 searches stuck
        # in a local minimum 4.2e-3 above the default estimate; a seed per
        # eigenvector row reaches it from every seed, in both orders
        rng = np.random.default_rng([7, 57])
        n = int(rng.integers(2, 6))
        assert n == 5
        e1, e2 = random_povm(rng, 2, n), random_povm(rng, 2, n)
        opts = DivergenceOptions(seed=seed, restarts=4, maxiter=600)
        for a, b in ((e1, e2), (e2, e1)):
            default = observable_divergence(a, b).value
            assert abs(observable_divergence(a, b, opts).value - default) <= 1e-9


PROGRAMMED_PAIRS = [("q8", q8_program_pair)] + [
    (f"wh{d}", lambda d=d: wh_program_pair(d)) for d in (2, 3, 5)
]


@pytest.mark.parametrize("name, pair", PROGRAMMED_PAIRS, ids=[n for n, _ in PROGRAMMED_PAIRS])
def test_programmed_pairs_stay_above_the_program_fidelity(name, pair):
    # Proposition 1: every ratio of two programmed observables is at least the
    # fidelity of the two program states, so a real ratio cannot fall below it
    mm, xi1, xi2, _, _ = pair()
    e1, e2 = program(mm, xi1), program(mm, xi2)
    est = observable_divergence(e1, e2)
    assert est.value >= fidelity(xi1, xi2) - 1e-12
    _assert_ratio_at_argmin(e1, e2, est)


class TestInfeasiblePoints:
    """Pairs with a vector of norm below 1e-12 or a fidelity below ``EPS_DEN``."""

    @staticmethod
    def _rows(rng, d):
        u = random_unitary(rng, d)
        e0, e1 = u[:, 0], u[:, 1]
        eps = divergence.EPS_DEN
        w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        pairs = [
            (3.0 * e0, -0.7j * (eps * (1 - 1e-3) * e0 + e1), False),
            (3.0 * e0, -0.7j * (eps * (1 + 1e-3) * e0 + e1), True),
            (e0, e1, False),
            (0 * w, w, False),
            (w, 5e-13 * e0, False),
            (2e-12 * e0, w, True),
        ]
        return [(divergence._params_from_pair(a, b), ok) for a, b, ok in pairs]

    @pytest.mark.parametrize("d", [2, 3])
    def test_objective_refuses_them_without_warnings(self, d):
        rng = np.random.default_rng([d, 12])
        roots = divergence._effect_roots(
            np.stack([random_povm(rng, d, 3).effects, random_povm(rng, d, 3).effects])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, ok in self._rows(rng, d):
                out = divergence._ratio_gradient(x, roots)
                assert (out is not None) == ok
                if ok:
                    assert np.isfinite(out[0]) and np.isfinite(out[1]).all()

    def test_runs_ending_on_them_are_never_reported(self, monkeypatch):
        e1, e2, opts = _b4_pair(0)
        bad = [x for x, ok in self._rows(np.random.default_rng(13), 2) if not ok]
        real = divergence.minimize
        results = []

        def from_infeasible(fun, x0, **kwargs):
            # the first runs start where the objective refuses the pair
            res = real(fun, bad[len(results)] if len(results) < len(bad) else x0, **kwargs)
            results.append(res)
            return res

        monkeypatch.setattr(divergence, "minimize", from_infeasible)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = observable_divergence(e1, e2, opts)
        assert len(results) == e1.n_outcomes + opts.restarts > len(bad)
        for res, x in zip(results, bad):
            assert np.array_equal(res.x, x)  # a zero gradient: the run stays put
        assert est.value == min(res.fun for res in results[len(bad) :])
        v1, v2 = _argmin_vectors(est)
        assert pure_fidelity(v1, v2) >= divergence.EPS_DEN
        _assert_ratio_at_argmin(e1, e2, est)

    def test_no_feasible_run_is_an_error(self, monkeypatch):
        e1, e2, opts = _b4_pair(0)
        real = divergence.minimize
        orthogonal = divergence._params_from_pair(np.array([1, 0j]), np.array([0, 1 + 0j]))
        monkeypatch.setattr(
            divergence, "minimize", lambda fun, x0, **kwargs: real(fun, orthogonal, **kwargs)
        )
        with pytest.raises(ValueError, match="no feasible state pair"):
            observable_divergence(e1, e2, opts)


class TestEqualObservables:
    @pytest.mark.parametrize("d, outcomes", [(2, 3), (3, 4)])
    def test_one_at_the_first_top_eigenvector_without_a_search(self, monkeypatch, d, outcomes):
        e = random_povm(np.random.default_rng([d, outcomes, 14]), d, outcomes)
        monkeypatch.setattr(divergence, "minimize", None)  # any search would fail
        est = observable_divergence(e, Observable(e.effects.copy()), DivergenceOptions(seed=5))
        v = divergence._top_eigenvectors(e.effects)[0]
        assert est.value == 1.0
        assert (est.restarts, est.converged, est.seed) == (0, True, 5)
        assert "equal observables" in est.method
        for state in est.argmin:
            assert np.allclose(state.matrix, np.outer(v, v.conj()), atol=1e-15)
        assert abs(estimate_recompute(e, e, est) - 1.0) <= 1e-12

    def test_nearly_equal_observables_are_searched(self, rng):
        e = random_povm(rng, 2, 3)
        effects = e.effects.copy()
        effects[0] = effects[0] * (1 - 1e-9)
        effects[1] = effects[1] + effects[0] * 1e-9 / (1 - 1e-9)
        est = observable_divergence(e, Observable(effects), DivergenceOptions(seed=5, restarts=2))
        assert "l-bfgs-b" in est.method
        assert 1.0 - 1e-6 <= est.value <= 1.0 + 1e-9


class TestRestartsEnvelope:
    def test_at_the_limit(self, rng):
        e1, e2 = random_povm(rng, 2, 3), random_povm(rng, 2, 3)
        est = observable_divergence(e1, e2, DivergenceOptions(restarts=MAX_RESTARTS, maxiter=2))
        assert est.restarts == MAX_RESTARTS
        assert not est.converged  # two iterations are not enough for the winning run
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


class TestCandidateScan:
    """The row-block candidate scan against the full ratio matrix."""

    @staticmethod
    def _assert_same(stacks, states1, states2):
        low, col = divergence._row_ratio_min(*stacks, states1, states2)
        ratio = full_ratio_matrix(*stacks, states1, states2)
        assert low.tobytes() == ratio.min(axis=1).tobytes()
        assert np.array_equal(col, np.argmin(ratio, axis=1))
        value, v1, v2 = full_grid_ratio_min(*stacks, states1, states2)
        i = int(np.argmin(low))
        assert low[i] == value
        assert states1[i].tobytes() == v1.tobytes()
        assert states2[col[i]].tobytes() == v2.tobytes()

    @staticmethod
    def _stacks(e1, e2):
        return np.stack(e1.effects), np.stack(e2.effects)

    @pytest.mark.parametrize("n1", [GRID_BLOCK + 1, 2 * GRID_BLOCK + 44])
    def test_more_rows_than_a_block(self, n1):
        rng = np.random.default_rng([8, n1])
        stacks = self._stacks(random_povm(rng, 2, 3), random_povm(rng, 2, 3))
        self._assert_same(stacks, _random_states(rng, n1), _random_states(rng, 300))

    def test_all_near_orthogonal_gives_inf(self):
        s = np.stack(sigma_z_pvm().effects)
        up = np.tile([1.0 + 0j, 0.0], (GRID_BLOCK + 5, 1))
        down = np.tile([0.0 + 0j, 1.0], (3, 1))
        low, col = divergence._row_ratio_min(s, s, up, down)
        assert (low == np.inf).all() and (col == 0).all()
        self._assert_same((s, s), up, down)

    def test_zero_witness_from_eigenvectors(self):
        a, b = sigma_z_pvm(), sigma_x_pvm()
        top1 = divergence._top_eigenvectors(a.effects)
        top2 = divergence._top_eigenvectors(b.effects)
        assert full_grid_ratio_min(*self._stacks(a, b), top1, top2)[0] == 0.0
        self._assert_same(self._stacks(a, b), top1, top2)

    @pytest.mark.parametrize("seed", range(3))
    def test_duplicate_states_tie_to_the_first(self, seed):
        # equal rows and equal columns have equal ratios: the first must win
        rng = np.random.default_rng([6, seed])
        stacks = self._stacks(random_povm(rng, 2, 3), random_povm(rng, 2, 3))
        states = _random_states(rng, GRID_BLOCK + 20)
        states[::7] = states[3]
        self._assert_same(stacks, states, states)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 300), st.integers(1, 300))
    @example(seed=2, outcomes=2, n1=203, n2=196)  # BLAS rounded row 195 per block
    @settings(max_examples=40, deadline=None)
    def test_random_collections_match_full_matrix(self, seed, outcomes, n1, n2):
        rng = np.random.default_rng(seed)
        stacks = self._stacks(random_povm(rng, 2, outcomes), random_povm(rng, 2, outcomes))
        self._assert_same(stacks, _random_states(rng, n1), _random_states(rng, n2))
