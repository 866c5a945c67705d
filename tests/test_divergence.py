import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmultimeter import divergence
from qmultimeter.divergence import (
    GRID_BLOCK,
    GTOL,
    MAX_RESTARTS,
    DivergenceOptions,
    bhattacharyya,
    divergence_ratio,
    minimize,
    observable_divergence,
)
from qmultimeter.groups import PAULI_X, PAULI_Z
from qmultimeter.quantum import DensityState, Observable, fidelity, program
from qmultimeter.sampling import random_povm, random_pvm, random_unitary
from qmultimeter.serialize import estimate_to_json
from qmultimeter.verify import q8_program_pair, wh_program_pair

from oracles import (
    ancilla_extended,
    bloch_grid_infimum,
    estimate_recompute,
    full_grid_ratio_min,
    full_ratio_matrix,
    pairs_oracle,
    pure_fidelity,
    scipy_multistart_divergence,
    smeared_qubit_observable,
    top_eigenvectors,
    wolfe_steps_oracle,
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
        assert (est.restarts, est.converged_starts) == (0, 0)
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
        assert np.array_equal(a.argmin, b.argmin)

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

    @pytest.mark.parametrize("kind", ["equal", "exact zero", "search"])
    def test_argmin_is_a_read_only_pair_of_unit_vectors_and_no_state(self, monkeypatch, kind):
        rng = np.random.default_rng([3, 17])
        e1, e2 = {
            "equal": lambda: (sigma_z_pvm(), sigma_z_pvm()),
            "exact zero": lambda: (sigma_z_pvm(), sigma_x_pvm()),
            "search": lambda: (random_povm(rng, 3, 3), random_povm(rng, 3, 3)),
        }[kind]()

        def refuse(*args):
            raise AssertionError("the estimator built a DensityState")

        monkeypatch.setattr(DensityState, "_keep", refuse)
        est = observable_divergence(e1, e2, DivergenceOptions(seed=0, restarts=2))
        assert est.argmin.shape == (2, e1.dim) and est.argmin.dtype == complex
        assert not est.argmin.flags.writeable
        assert np.abs(np.linalg.norm(est.argmin, axis=1) - 1.0).max() <= 1e-15

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


def _assert_ratio_at_argmin(e1, e2, est):
    assert abs(est.value - _unfloored_ratio(e1, e2, *est.argmin)) <= 1e-12


def _roots(e1, e2):
    """The effect roots ``_ratio_gradient`` reads, from one ``eigh`` of both stacks."""
    return divergence._effect_roots(*np.linalg.eigh(np.stack([e1.effects, e2.effects])))


def _ratio_at(x, roots):
    """The objective at one point: a stack of one row."""
    value, grad = divergence._ratio_gradient(x[None], roots)
    return value[0], grad[0]


class TestRatioGradient:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_central_differences(self, d):
        rng = np.random.default_rng([d, 11])
        roots = _roots(random_povm(rng, d, 3), random_povm(rng, d, 3))
        h = 1e-6
        for _ in range(5):
            x = rng.standard_normal(4 * d)
            value, grad = _ratio_at(x, roots)
            steps = h * np.eye(4 * d)
            # both sides of every coordinate in one stack
            ends = divergence._ratio_gradient(np.concatenate([x + steps, x - steps]), roots)[0]
            fd = (ends[: 4 * d] - ends[4 * d :]) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)

    def test_value_is_the_unfloored_ratio(self, rng):
        e1, e2 = random_povm(rng, 3, 4), random_povm(rng, 3, 4)
        x = rng.standard_normal(12)
        roots = _roots(e1, e2)
        value, _ = _ratio_at(x, roots)
        v1, v2 = x.view(complex).reshape(2, 3)
        ratio = _unfloored_ratio(e1, e2, v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2))
        assert abs(value - ratio) <= 1e-14

    def test_scale_invariant(self, rng):
        # the ratio of two unnormalised vectors depends on their directions only,
        # so the gradient has no component along either vector
        roots = _roots(random_povm(rng, 3, 3), random_povm(rng, 3, 3))
        x = rng.standard_normal(12)
        value, grad = _ratio_at(x, roots)
        scaled = np.concatenate([2.5 * x[:6], 0.3 * x[6:]])
        assert abs(_ratio_at(scaled, roots)[0] - value) <= 1e-14
        assert abs(grad[:6] @ x[:6]) <= 1e-12 and abs(grad[6:] @ x[6:]) <= 1e-12

    @pytest.mark.parametrize("d, outcomes", [(2, 3), (3, 5), (5, 30)])
    def test_each_row_is_computed_from_that_row_alone(self, d, outcomes):
        rng = np.random.default_rng([d, outcomes, 15])
        roots = _roots(random_povm(rng, d, outcomes), random_povm(rng, d, outcomes))
        x = rng.standard_normal((9, 4 * d))
        x[4] = 0.0  # an infeasible row among them
        values, grads = divergence._ratio_gradient(x, roots)
        for i in range(len(x)):
            value, grad = _ratio_at(x[i], roots)
            assert value == values[i] and grad.tobytes() == grads[i].tobytes()


def _rosenbrock(x):
    r = x[1:] - x[:-1] ** 2
    g = np.zeros_like(x)
    g[:-1] = -400 * x[:-1] * r - 2 * (1 - x[:-1])
    g[1:] += 200 * r
    return float(100 * r @ r + (1 - x[:-1]) @ (1 - x[:-1])), g


def _quadratic(n, seed):
    """0.5 x.A x - b.x with a seeded positive definite A, and its minimiser."""
    rng = np.random.default_rng([n, seed])
    m = rng.standard_normal((n, n))
    a, b = m @ m.T + n * np.eye(n), rng.standard_normal(n)
    return (lambda x: (float(0.5 * x @ a @ x - b @ x), a @ x - b)), np.linalg.solve(a, b)


def _stacked(fun):
    """The stacked objective ``minimize`` calls, from a one-point ``fun``."""

    def stacked(xs):
        out = [fun(x) for x in xs]
        return np.array([v for v, _ in out]), np.array([g for _, g in out]).reshape(xs.shape)

    return stacked


def _ratio_objective(e1, e2):
    roots = _roots(e1, e2)
    return lambda x: divergence._ratio_gradient(x, roots)


class TestMinimize:
    """The in-package L-BFGS on problems with a known minimiser."""

    @pytest.mark.parametrize("seed", range(3))
    def test_convex_quadratic(self, seed):
        fun, x_star = _quadratic(8, seed)
        x0 = np.concatenate([np.zeros((1, 8)), np.random.default_rng(seed).standard_normal((3, 8))])
        res = minimize(_stacked(fun), x0, maxiter=200)
        assert res.success and res.converged.all() and (res.nit < 20).all()
        for x, value in zip(res.x, res.fun):
            assert value - fun(x_star)[0] <= 1e-9
            assert np.abs(x - x_star).max() <= 1e-4
            assert value == fun(x)[0]

    def test_isotropic_quadratic_stops_on_the_gradient_test(self):
        # the cubic through two points of a quadratic is the quadratic itself,
        # so one interpolated step, or the second quasi-Newton step, is exact
        c = np.arange(1.0, 7.0)
        fun = _stacked(lambda x: (float(1.5 * (x - c) @ (x - c)), 3 * (x - c)))
        res = minimize(fun, np.zeros((1, 6)), 50)
        assert res.success and np.abs(3 * (res.x[0] - c)).max() <= GTOL

    def test_eight_parameter_rosenbrock(self):
        x0 = np.stack([np.tile([-1.2, 1.0], 4), np.zeros(8)])  # the classic start and zero
        res = minimize(_stacked(_rosenbrock), x0, maxiter=2000)
        assert res.success
        assert (res.fun <= 1e-9).all()
        assert np.abs(res.x - 1.0).max() <= 1e-4

    def test_one_iteration_is_not_success(self):
        x0 = np.tile([-1.2, 1.0], (1, 4))
        res = minimize(_stacked(_rosenbrock), x0, maxiter=1)
        assert (res.nit[0], res.converged[0], res.success) == (1, False, False)
        assert res.fun[0] < _rosenbrock(x0[0])[0]

    def test_nfev_counts_every_point(self):
        calls = []

        def counted(xs):
            calls.append(len(xs))
            return _stacked(_rosenbrock)(xs)

        x0 = np.stack([np.zeros(8), np.tile([-1.2, 1.0], 4), np.full(8, 0.5)])
        res = minimize(counted, x0, maxiter=2000)
        assert res.nfev == sum(calls) > res.nit.sum()
        # one call per round on the rows still searching, never more rows than the stack
        assert calls[0] == 3 and max(calls) <= 3 and len(calls) < sum(calls)
        assert type(res.nfev) is int and type(res.success) is bool

    def test_zero_gradient_plateau_returns_the_start(self):
        x0 = divergence._params_from_pair(np.array([1, 0j]), np.array([0, 1 + 0j]))[None]
        plateau = divergence.INFEASIBLE
        res = minimize(lambda x: (np.full(len(x), plateau), np.zeros_like(x)), x0, maxiter=600)
        assert np.array_equal(res.x, x0) and res.x is not x0
        assert (res.fun[0], res.nfev, res.nit[0], res.converged[0]) == (plateau, 1, 0, True)

    def test_trial_step_is_exact_on_a_cubic(self):
        def f(t):
            return (t - 0.3) ** 2 * (t + 2), 2 * (t - 0.3) * (t + 2) + (t - 0.3) ** 2

        assert abs(divergence._trial_step((0.0, *f(0.0)), (1.0, *f(1.0))) - 0.3) <= 1e-12
        assert abs(divergence._trial_step((1.0, *f(1.0)), (0.0, *f(0.0))) - 0.3) <= 1e-12

    def test_trial_step_falls_back_to_the_quadratic_then_the_midpoint(self):
        # slopes -1 at both ends: with the value -0.4 at 1 the cubic has no
        # minimum, and the quadratic through 0 with slope -1 and -0.4 has
        # one at 1 / 1.2; with -1 at 1 the data are linear and have neither
        assert abs(divergence._trial_step((0.0, 0.0, -1.0), (1.0, -0.4, -1.0)) - 1 / 1.2) <= 1e-12
        assert divergence._trial_step((0.0, 0.0, -1.0), (1.0, -1.0, -1.0)) == 0.5
        # the same brackets as the rows of one call
        rows = divergence._trial_step(np.array([[0.0, 0.0], [0.0, 0.0], [-1.0, -1.0]]),
                                      np.array([[1.0, 1.0], [-0.4, -1.0], [-1.0, -1.0]]))
        assert abs(rows[0] - 1 / 1.2) <= 1e-12 and rows[1] == 0.5

    def test_trial_step_keeps_a_tenth_of_the_bracket_from_its_ends(self):
        # a cubic minimiser at 0.99 is clipped to 0.9, whichever end is lo
        f = lambda t: ((t - 0.99) ** 2 * (t + 2), 2 * (t - 0.99) * (t + 2) + (t - 0.99) ** 2)
        assert divergence._trial_step((0.0, *f(0.0)), (1.0, *f(1.0))) == pytest.approx(0.9)
        assert divergence._trial_step((1.0, *f(1.0)), (0.0, *f(0.0))) == pytest.approx(0.9)

    def test_same_start_gives_the_same_bits(self):
        e1, e2, _ = _b4_pair(2)
        fun = _ratio_objective(e1, e2)
        x0 = np.random.default_rng(4).standard_normal((1, 8))
        start = x0.copy()
        runs = [minimize(fun, x0, 600) for _ in range(2)]
        assert np.array_equal(runs[0].x, runs[1].x) and runs[0].fun == runs[1].fun
        assert np.array_equal(x0, start)

    @pytest.mark.parametrize("d, outcomes", [(2, 3), (2, 5), (3, 4), (4, 3)])
    def test_a_row_ends_the_same_alone_or_in_a_stack(self, d, outcomes):
        e1, e2, _ = _random_pair(d, outcomes, 0, 600)
        fun = _ratio_objective(e1, e2)
        x0 = np.random.default_rng([d, outcomes, 16]).standard_normal((12, 4 * d))
        x0[5] = 0.0  # a row the objective refuses from the start
        stack = minimize(fun, x0, 600)
        assert stack.nfev > len(x0) and len(set(stack.nit)) > 2  # rows leave at different rounds
        for i in range(len(x0)):
            for rows in ([i], [i, (i + 5) % len(x0)], list(range(i, len(x0)))):
                alone = minimize(fun, x0[rows], 600)
                assert alone.x[0].tobytes() == stack.x[i].tobytes()
                assert (alone.fun[0], alone.nit[0], alone.converged[0]) == (
                    stack.fun[i], stack.nit[i], stack.converged[i])


class TestMinimizeReturnsTheValueAtItsPoint:
    """``observable_divergence`` ranks its runs by the ``fun`` that ``minimize``
    returns, so each row's value must be the objective at its returned point,
    bit for bit, however the row ended."""

    @staticmethod
    def _run(fun, x0, maxiter):
        res = minimize(fun, x0, maxiter)
        assert np.array_equal(res.fun, fun(res.x)[0])
        for i in range(len(x0)):
            assert res.fun[i] == fun(res.x[i : i + 1])[0][0]
        return res

    @pytest.mark.parametrize("d", [2, 3])
    def test_rows_that_converge_at_the_start(self, d):
        # (v, v) minimises the ratio of an observable against itself
        rng = np.random.default_rng([d, 41])
        e = random_povm(rng, d, 3)
        v = np.ascontiguousarray(random_unitary(rng, d).T)
        x0 = np.concatenate([divergence._params_from_pair(v, v), rng.standard_normal((4, 4 * d))])
        res = self._run(_ratio_objective(e, e), x0, 600)
        assert (res.nit[:d] == 0).all() and res.converged[:d].all()
        assert (res.nit[d:] > 0).all()

    @pytest.mark.parametrize("d, outcomes", [(2, 3), (3, 4)])
    def test_one_iteration(self, d, outcomes):
        e1, e2, _ = _random_pair(d, outcomes, 0, 1)
        x0 = np.random.default_rng([d, outcomes, 42]).standard_normal((8, 4 * d))
        res = self._run(_ratio_objective(e1, e2), x0, 1)
        assert (res.nit == 1).all() and not res.converged.any()

    def test_rows_whose_line_search_fails(self, monkeypatch):
        # the q8 pair's eigenvector seeds sit on a cusp of the ratio, where
        # every line search from them fails at once
        mm, xi1, xi2, _, _ = q8_program_pair()
        results = []

        def checked(fun, x0, maxiter):
            results.append((self._run(fun, x0, maxiter), maxiter))
            return results[-1][0]

        monkeypatch.setattr(divergence, "minimize", checked)
        observable_divergence(program(mm, xi1), program(mm, xi2))
        ((res, maxiter),) = results
        failed = ~res.converged & (res.nit < maxiter)
        assert failed.any() and not failed.all()

    @pytest.mark.parametrize("d", [2, 3])
    def test_infeasible_and_near_orthogonal_starts(self, d):
        rng = np.random.default_rng([d, 12])
        e1, e2 = random_povm(rng, d, 3), random_povm(rng, d, 3)
        rows = TestInfeasiblePoints._rows(rng, d)
        res = self._run(_ratio_objective(e1, e2), np.array([x for x, _ in rows]), 600)
        feasible = np.array([ok for _, ok in rows])
        assert (res.fun[~feasible] == divergence.INFEASIBLE).all()
        assert (res.fun[feasible] < divergence.INFEASIBLE).all()

    @pytest.mark.parametrize("rows", [1, 64])
    @pytest.mark.parametrize("d, outcomes", [(2, 3), (2, 5), (4, 3)])
    def test_stacks_of_one_and_many_rows(self, rows, d, outcomes):
        e1, e2, _ = _random_pair(d, outcomes, 0, 600)
        x0 = np.random.default_rng([d, outcomes, rows]).standard_normal((rows, 4 * d))
        res = self._run(_ratio_objective(e1, e2), x0, 600)
        assert res.nfev > rows


def _quadratic_stack(p, seed):
    """A convex quadratic of every row of a (k, p) stack, and its Newton
    directions: the unit step along them lands on the minimiser."""
    m = np.random.default_rng([p, seed]).standard_normal((p, p))
    a, b = m @ m.T + p * np.eye(p), np.random.default_rng([p, seed, 1]).standard_normal(p)

    def fun(x):
        return 0.5 * np.einsum("kp,kp->k", x @ a, x) - x @ b, x @ a - b

    return fun, lambda x: np.linalg.solve(a, (b - x @ a).T).T


def _same_steps(fun, x, f0, g0, d):
    """Run the line search and its oracle: every output, and every point
    each evaluated, the same bit for bit. The new search's outputs."""
    runs = []
    for search in (divergence._wolfe_steps, wolfe_steps_oracle):
        points = []

        def recorded(xt):
            points.append(xt.copy())
            return fun(xt)

        runs.append((search(recorded, x, f0, g0, d), points))
    (new, new_points), (old, old_points) = runs
    for a, b in zip(new + tuple(new_points), old + tuple(old_points), strict=True):
        assert np.array_equal(a, b)
    return new


class TestLockstepRoundAgainstOracle:
    """The line search and the correction-pair update against their index-array
    and masked forms in ``tests/oracles.py``: every output bit for bit."""

    # the scale of the Newton direction in each row: 1 takes the unit step,
    # 30 overshoots and brackets, 0.01 expands the step and -1 ascends
    @pytest.mark.parametrize(
        "scales",
        [[1.0], [1.0] * 40, [30.0], [0.01], [-1.0], [1.0, 30.0, 1.0, 0.01],
         [1.0, -1.0, 1.0], [30.0, 0.01, -1.0, 1.0, 5.0] * 8],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_wolfe_steps_on_a_quadratic(self, scales, seed):
        fun, newton = _quadratic_stack(6, seed)
        x = np.random.default_rng([seed, 2]).standard_normal((len(scales), 6))
        f0, g0 = fun(x)
        d = np.array(scales)[:, None] * newton(x)
        new = _same_steps(fun, x, f0, g0, d)
        assert np.array_equal(new[0], np.array(scales) > 0)  # an ascending row fails
        if min(scales) == max(scales) == 1.0:
            assert new[4] == len(scales)  # one trial on every row
        if max(scales) > 1.0:
            assert new[4] > len(scales)  # some row brackets

    @pytest.mark.parametrize("rows", [1, 3, 40])
    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_wolfe_steps_on_the_ratio(self, rows, scale):
        e1, e2, _ = _random_pair(3, 4, 0, 600)
        fun = _ratio_objective(e1, e2)
        x = np.random.default_rng([rows, 3]).standard_normal((rows, 12))
        f0, g0 = fun(x)
        d = -scale * g0
        d[rows // 2] *= -1  # a row with no descent direction
        _same_steps(fun, x, f0, g0, d)

    @pytest.mark.parametrize("rows", [1, 4])
    def test_wolfe_steps_on_a_plateau(self, rows):
        # f0 + c1 t slope0 rounds to f0, so only the test f >= f0 finds that
        # the flat unit step does not decrease the value
        def fun(x):
            return np.ones(len(x)), np.full(x.shape, 1e-20)

        x = np.random.default_rng(rows).standard_normal((rows, 3))
        f0, g0 = fun(x)
        ok, *_, evals = _same_steps(fun, x, f0, g0, -np.ones(x.shape))
        assert not ok.any() and evals == rows * divergence.LINE_EVALS

    def test_a_round_where_every_row_takes_the_unit_step_calls_fun_once(self):
        fun, newton = _quadratic_stack(5, 0)
        calls = []

        def counted(x):
            calls.append(len(x))
            return fun(x)

        x = np.random.default_rng(5).standard_normal((7, 5))
        ok, *_, evals = divergence._wolfe_steps(counted, x, *fun(x), newton(x))
        assert ok.all() and calls == [7] and evals == 7

    @pytest.mark.parametrize("rows", [1, 2, 25])
    def test_pair_updates_and_directions(self, rows):
        rng = np.random.default_rng([rows, 6])
        p = 8
        new, old = divergence._Pairs(rows, p), pairs_oracle(rows, p)
        # 14 pushes fill and then cycle the MEMORY slots; rows skip some updates
        for i in range(14):
            s = rng.standard_normal((rows, p))
            y = s + 0.3 * rng.standard_normal((rows, p))
            if i % 3 == 1:
                y[rng.random(rows) < 0.4] *= -1  # s.y <= 0: those rows keep their pairs
            if i == 5:
                y = -s  # no row updates
            g = rng.standard_normal((rows, p))
            assert np.array_equal(new.direction(g), old.direction(g))
            new.push(s, y)
            old.push(s, y)
            for name in ("s", "y", "rinv", "diag", "gamma"):
                assert np.array_equal(getattr(new, name), getattr(old, name)), name
        assert (new.diag != 0).all(axis=1).any()  # some row has dropped its oldest pair

    @pytest.mark.parametrize("d, outcomes", [(2, 3), (3, 4), (4, 6)])
    def test_minimize_matches_the_oracle_round(self, monkeypatch, d, outcomes):
        e1, e2, _ = _random_pair(d, outcomes, 0, 600)
        fun = _ratio_objective(e1, e2)
        x0 = np.random.default_rng([d, outcomes, 7]).standard_normal((16, 4 * d))
        x0[2] = 0.0  # a row the objective refuses
        new = minimize(fun, x0, 600)
        monkeypatch.setattr(divergence, "_wolfe_steps", wolfe_steps_oracle)
        monkeypatch.setattr(divergence, "_Pairs", type(pairs_oracle(0, 4 * d)))
        old = minimize(fun, x0, 600)
        for name in ("x", "fun", "nit", "converged", "nfev", "success"):
            assert np.array_equal(getattr(new, name), getattr(old, name)), name


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
        # the d = 4 pair drawn right after a d = 3 pair from default_rng(0), which
        # the derivative-free search left unconverged at 0.7604
        rng = np.random.default_rng(0)
        for _ in range(2):
            random_povm(rng, 3, 3)
        e1, e2 = random_povm(rng, 4, 3), random_povm(rng, 4, 3)
        est = observable_divergence(e1, e2)
        assert est.value <= 0.7556
        assert est.converged
        _assert_ratio_at_argmin(e1, e2, est)

    def test_calls_minimize_once_with_a_row_per_start(self, monkeypatch):
        e1, e2, opts = _b4_pair(0)
        calls = []
        real = divergence.minimize

        def counted(fun, x0, **kwargs):
            calls.append(len(x0))
            return real(fun, x0, **kwargs)

        monkeypatch.setattr(divergence, "minimize", counted)
        observable_divergence(e1, e2, opts)
        # one seed per top eigenvector of e1, then the random starts
        assert calls == [e1.n_outcomes + opts.restarts]

    def test_runs_are_ranked_by_the_ratio_at_their_point(self, monkeypatch):
        # the ratio at each run's point is the fun minimize returns with it
        # (TestMinimizeReturnsTheValueAtItsPoint): the runs are ranked by it,
        # and no objective is evaluated after the search
        e1, e2, opts = _b4_pair(1)
        real, ratio = divergence.minimize, divergence._ratio_gradient
        runs, after = [], []

        def recorded(fun, x0, **kwargs):
            runs.append(real(fun, x0, **kwargs))
            return runs[-1]

        def counted(x, roots):
            after.extend([len(x)] if runs else [])
            return ratio(x, roots)

        monkeypatch.setattr(divergence, "minimize", recorded)
        monkeypatch.setattr(divergence, "_ratio_gradient", counted)
        est = observable_divergence(e1, e2, opts)
        (res,) = runs
        j = int(np.argmin(res.fun))
        assert after == []
        assert np.array_equal(res.fun, ratio(res.x, _roots(e1, e2))[0])
        assert est.value == divergence._clamped(float(res.fun[j])) > 0.0
        assert est.argmin.tobytes() == divergence._pair_from_params(res.x[j]).tobytes()
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


@pytest.mark.parametrize("seed", range(20))
def test_mixed_states_do_not_beat_the_pure_pair_estimate(seed):
    # pure pairs on C^d x C^d reach every pair of mixed states on C^d through
    # their reductions, and E x 1 measures the reductions; D is attained over
    # pure pairs, so the search there finds nothing below the pure estimate
    rng = np.random.default_rng([23, seed])
    d, n = 2 + seed % 2, int(rng.integers(2, 6))
    e1, e2 = random_povm(rng, d, n), random_povm(rng, d, n)
    pure = observable_divergence(e1, e2)
    doubled = observable_divergence(ancilla_extended(e1), ancilla_extended(e2))
    assert doubled.value >= pure.value - 1e-9


PROGRAMMED_PAIRS = [("q8", q8_program_pair)] + [
    (f"wh{d}", lambda d=d: wh_program_pair(d)) for d in (2, 3, 5, 7)
]


@pytest.mark.parametrize("name, pair", PROGRAMMED_PAIRS, ids=[n for n, _ in PROGRAMMED_PAIRS])
def test_programmed_pairs_reach_the_program_fidelity(name, pair):
    # Proposition 1: every ratio of two programmed observables is at least the
    # fidelity of the two program states, so a real ratio cannot fall below it;
    # on these pairs D equals that fidelity, at the equal pair of an
    # eigenvector of the generator, so the search must also come close to it
    mm, xi1, xi2, _, _ = pair()
    e1, e2 = program(mm, xi1), program(mm, xi2)
    est = observable_divergence(e1, e2)
    f = fidelity(xi1, xi2)
    assert f - 1e-12 <= est.value <= f + 1e-9
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
        roots = _roots(random_povm(rng, d, 3), random_povm(rng, d, 3))
        rows = self._rows(rng, d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, grads = divergence._ratio_gradient(np.array([x for x, _ in rows]), roots)
        for (_, ok), value, grad in zip(rows, values, grads):
            if ok:
                assert value < divergence.INFEASIBLE and np.isfinite(grad).all()
            else:
                assert value == divergence.INFEASIBLE and not grad.any()

    def test_runs_ending_on_them_are_never_reported(self, monkeypatch):
        e1, e2, opts = _b4_pair(0)
        bad = np.array([x for x, ok in self._rows(np.random.default_rng(13), 2) if not ok])
        real = divergence.minimize
        results = []

        def from_infeasible(fun, x0, **kwargs):
            # the first rows start where the objective refuses the pair
            x0 = np.concatenate([bad, x0[len(bad) :]])
            results.append(real(fun, x0, **kwargs))
            return results[-1]

        monkeypatch.setattr(divergence, "minimize", from_infeasible)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = observable_divergence(e1, e2, opts)
        (res,) = results
        assert len(res.x) == e1.n_outcomes + opts.restarts > len(bad)
        assert np.array_equal(res.x[: len(bad)], bad)  # a zero gradient: the rows stay put
        assert (res.fun[: len(bad)] == divergence.INFEASIBLE).all()
        assert est.value == res.fun[len(bad) :].min()
        v1, v2 = est.argmin
        assert pure_fidelity(v1, v2) >= divergence.EPS_DEN
        _assert_ratio_at_argmin(e1, e2, est)

    def test_no_feasible_run_is_an_error(self, monkeypatch):
        e1, e2, opts = _b4_pair(0)
        real = divergence.minimize
        orthogonal = divergence._params_from_pair(np.array([1, 0j]), np.array([0, 1 + 0j]))
        monkeypatch.setattr(
            divergence,
            "minimize",
            lambda fun, x0, **kwargs: real(fun, np.tile(orthogonal, (len(x0), 1)), **kwargs),
        )
        with pytest.raises(ValueError, match="no feasible state pair"):
            observable_divergence(e1, e2, opts)


class TestEqualObservables:
    @pytest.mark.parametrize("d, outcomes", [(2, 3), (3, 4)])
    def test_one_at_the_first_top_eigenvector_without_a_search(self, monkeypatch, d, outcomes):
        e = random_povm(np.random.default_rng([d, outcomes, 14]), d, outcomes)
        monkeypatch.setattr(divergence, "minimize", None)  # any search would fail
        est = observable_divergence(e, Observable(e.effects.copy()), DivergenceOptions(seed=5))
        v = top_eigenvectors(e.effects)[0]
        assert est.value == 1.0
        assert (est.restarts, est.converged, est.converged_starts, est.seed) == (0, True, 0, 5)
        assert "equal observables" in est.method
        assert est.argmin[0].tobytes() == est.argmin[1].tobytes()
        for u in est.argmin:
            assert np.allclose(np.outer(u, u.conj()), np.outer(v, v.conj()), atol=1e-15)
        assert abs(estimate_recompute(e, e, est) - 1.0) <= 1e-12

    def test_nearly_equal_observables_are_searched(self, rng):
        e = random_povm(rng, 2, 3)
        effects = e.effects.copy()
        effects[0] = effects[0] * (1 - 1e-9)
        effects[1] = effects[1] + effects[0] * 1e-9 / (1 - 1e-9)
        est = observable_divergence(e, Observable(effects), DivergenceOptions(seed=5, restarts=2))
        assert "multi-start l-bfgs" in est.method
        assert 1.0 - 1e-6 <= est.value <= 1.0 + 1e-9


def _runs(monkeypatch):
    """Record the number of rows and the result of every ``minimize`` call."""
    real, runs = divergence.minimize, []

    def recorded(fun, x0, **kwargs):
        runs.append((len(x0), real(fun, x0, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(divergence, "minimize", recorded)
    return runs


def _same_estimate(a, b):
    assert (a.value, a.method, a.restarts, a.seed) == (b.value, b.method, b.restarts, b.seed)
    assert (a.converged, a.converged_starts) == (b.converged, b.converged_starts)
    assert a.argmin.tobytes() == b.argmin.tobytes()


class TestStartBlocks:
    """Starts are searched in blocks of ``START_BLOCK`` floats, in order."""

    def test_any_block_size_gives_the_same_bits(self, monkeypatch):
        e1, e2, _ = _b4_pair(3)
        opts = DivergenceOptions(seed=3, restarts=9, maxiter=600)
        reference = observable_divergence(e1, e2, opts)
        assert 0 < reference.converged_starts <= e1.n_outcomes + opts.restarts
        runs = _runs(monkeypatch)
        row = divergence._row_floats(e1.dim, e1.n_outcomes)
        for rows in (1, 2, 5):
            monkeypatch.setattr(divergence, "START_BLOCK", rows * row + row - 1)
            runs.clear()
            _same_estimate(observable_divergence(e1, e2, opts), reference)
            sizes = [n for n, _ in runs]
            assert sizes[:-1] == [rows] * (len(sizes) - 1) and sum(sizes) == 12

    def test_converged_starts_counts_the_rows_that_met_a_stop_test(self, monkeypatch):
        e1, e2, _ = _b4_pair(4)
        runs = _runs(monkeypatch)
        est = observable_divergence(e1, e2, DivergenceOptions(seed=4, restarts=20, maxiter=8))
        ((n, res),) = runs
        assert est.converged_starts == int(res.converged.sum()) < n

    def test_the_first_zero_stops_the_later_blocks(self, monkeypatch):
        # a scan that misses the zero witnesses leaves them to the search: the
        # first start that ends below ZERO_TOL wins, and the count stops there
        a, b = sigma_z_pvm(), sigma_x_pvm()
        real = divergence._row_ratio_min

        def missed(*args):
            low, col = real(*args)
            return np.maximum(low, 0.5), col

        monkeypatch.setattr(divergence, "_row_ratio_min", missed)
        runs = _runs(monkeypatch)
        opts = DivergenceOptions(seed=1, restarts=6)
        one_block = observable_divergence(a, b, opts)
        assert one_block.value == 0.0 and "multi-start l-bfgs" in one_block.method
        assert one_block.converged_starts == 1 and runs[0][1].converged.sum() > 1
        monkeypatch.setattr(divergence, "START_BLOCK", 1)
        runs.clear()
        _same_estimate(observable_divergence(a, b, opts), one_block)
        assert [n for n, _ in runs] == [1]


class TestRestartsEnvelope:
    def test_at_the_limit(self, rng):
        e1, e2 = random_povm(rng, 2, 3), random_povm(rng, 2, 3)
        est = observable_divergence(e1, e2, DivergenceOptions(restarts=MAX_RESTARTS, maxiter=2))
        assert est.restarts == MAX_RESTARTS
        assert not est.converged  # two iterations are not enough for the winning run
        assert 0.0 < est.value <= 1.0 + 1e-9

    @pytest.mark.parametrize("d", [2, 16])
    def test_memory_at_the_limit_stays_within_two_blocks(self, d):
        # a block holds about START_BLOCK floats of search state, and no array
        # grows with the number of starts beyond the eigenvector seeds
        rng = np.random.default_rng([d, 17])
        e1, e2 = random_povm(rng, d, 4), random_povm(rng, d, 4)
        opts = DivergenceOptions(restarts=MAX_RESTARTS, maxiter=2)
        tracemalloc.start()
        try:
            observable_divergence(e1, e2, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * divergence.START_BLOCK  # 4 MiB

    @pytest.mark.parametrize(
        "kwargs", [{"restarts": MAX_RESTARTS + 1}, {"restarts": -1}, {"maxiter": 0}]
    )
    def test_past_the_limit_rejected(self, rng, kwargs):
        e1, e2 = random_povm(rng, 2, 3), random_povm(rng, 2, 3)
        with pytest.raises(ValueError, match="restarts|maxiter"):
            observable_divergence(e1, e2, DivergenceOptions(**kwargs))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", True),
            ("seed", 2.0),
            ("seed", np.random.default_rng(0)),
            ("restarts", True),
            ("restarts", 2.5),
            ("maxiter", 2.5),
            ("maxiter", True),
        ],
    )
    def test_non_integer_options_refused_before_any_work(self, rng, monkeypatch, field, value):
        # a bool or a Generator seed would run and be written into the report
        # as given; a float count would run, or fail after the candidate scan
        e1, e2 = random_povm(rng, 2, 3), random_povm(rng, 2, 3)
        monkeypatch.setattr(np.linalg, "eigh", None)  # any work would fail
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            observable_divergence(e1, e2, DivergenceOptions(**{field: value}))

    def test_negative_seed_refused_before_any_work(self, rng, monkeypatch):
        e1, e2 = random_povm(rng, 2, 3), random_povm(rng, 2, 3)
        monkeypatch.setattr(np.linalg, "eigh", None)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            observable_divergence(e1, e2, DivergenceOptions(seed=-1))

    def test_numpy_integer_options_are_written_as_python_ints(self, rng):
        e1, e2 = random_povm(rng, 2, 3), random_povm(rng, 2, 3)
        opts = DivergenceOptions(seed=np.int64(3), restarts=np.int32(2), maxiter=np.int64(50))
        est = observable_divergence(e1, e2, opts)
        assert type(est.seed) is int and type(est.restarts) is int
        plain = observable_divergence(e1, e2, DivergenceOptions(seed=3, restarts=2, maxiter=50))
        assert json.dumps(estimate_to_json(est)) == json.dumps(estimate_to_json(plain))


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

    @pytest.mark.parametrize("d, outcomes", [(2, 3), (3, 5), (5, 8)])
    def test_stacked_candidates_equal_each_stack_decomposed_alone(self, d, outcomes):
        # observable_divergence takes its candidates from one eigh of both
        # stacks; numpy decomposes matrix by matrix, so they keep their bits
        rng = np.random.default_rng([d, outcomes, 18])
        e1, e2 = random_povm(rng, d, outcomes), random_povm(rng, d, outcomes)
        stacked = np.linalg.eigh(np.stack([e1.effects, e2.effects]))[1][..., -1]
        assert np.array_equal(stacked, [top_eigenvectors(e1.effects), top_eigenvectors(e2.effects)])

    def test_zero_witness_from_eigenvectors(self):
        a, b = sigma_z_pvm(), sigma_x_pvm()
        top1 = top_eigenvectors(a.effects)
        top2 = top_eigenvectors(b.effects)
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
