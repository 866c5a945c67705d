"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one pass line; a failure names the criterion that broke.
"""

import time

import numpy as np
import pytest
from numpy.random import default_rng
from oracles import dense_covariant as covariant_observable

from qmultimeter.divergence import (
    DivergenceOptions,
    bhattacharyya,
    observable_divergence,
)
from qmultimeter.groups import q8_representation, weyl_heisenberg
from qmultimeter.linalg import tensor
from qmultimeter.postprocessing import pp_fidelity
from qmultimeter.sampling import (
    random_density,
    random_postprocessing,
    random_povm,
    random_pvm,
)
from qmultimeter.verify import (
    bound_curve,
    default_random_fixture,
    phase_space_demo,
    q8_program_pair,
    quaternion_demo,
    sharpmin_bound,
    verify_b_properties,
    verify_povm_bound,
    verify_prop1,
    verify_prop3,
    wh_program_pair,
)

SQRT_HALF = 1 / np.sqrt(2)


def announce(n, label):
    print(f"\nacceptance criterion {n} ({label}): PASS")


def test_criterion_1_quaternion_pipeline():
    t0 = time.perf_counter()
    report = quaternion_demo()
    elapsed = time.perf_counter() - t0

    from qmultimeter.groups import PAULI_X, PAULI_Y, PAULI_Z
    from qmultimeter.serialize import matrix_from_json

    eye = np.eye(2)
    expected = {"i": PAULI_X, "j": PAULI_Y, "k": PAULI_Z}
    for name, pauli in expected.items():
        effects = [matrix_from_json(doc) for doc in report["pvms"][name]]
        assert np.max(np.abs(effects[0] - (eye + pauli) / 2)) <= 1e-9
        assert np.max(np.abs(effects[1] - (eye - pauli) / 2)) <= 1e-9
    for f in report["program_fidelities"].values():
        assert abs(f - SQRT_HALF) <= 1e-10
    assert elapsed < 1.0, f"quaternion pipeline took {elapsed:.2f}s"
    announce(1, "quaternion pipeline")


@pytest.mark.parametrize("d", [3, 5, 7])
def test_criterion_2_phase_space_pipeline(d):
    t0 = time.perf_counter()
    report = phase_space_demo(d)
    elapsed = time.perf_counter() - t0
    assert report["vector_count"] == d + 1
    assert report["worst_overlap_gap"] <= 1e-8
    assert report["worst_idempotency_defect"] <= 1e-8
    assert report["worst_orthogonality_defect"] <= 1e-8
    if d == 7:
        assert elapsed < 10.0, f"phase-space pipeline at d=7 took {elapsed:.2f}s"
    announce(2, f"phase-space pipeline d={d}")


@pytest.mark.parametrize("fixture", ["q8", "wh3"])
def test_criterion_3_multimeter_identity(fixture):
    from qmultimeter.groups import covariant_multimeter

    rep = q8_representation() if fixture == "q8" else weyl_heisenberg(3)
    d = rep.degree
    mm = covariant_multimeter(rep)
    total = sum(mm.pointer.effects)
    assert np.max(np.abs(total - np.eye(d * d))) <= 1e-9

    rng = default_rng(31)
    for _ in range(100):
        rho = random_density(rng, d)
        seed = random_density(rng, d)
        g = int(rng.integers(rep.group.order))
        lhs = np.trace(
            mm.pointer.effects[g] @ tensor(rho.matrix, seed.matrix.T)
        ).real
        rhs = np.trace(
            covariant_observable(rep, seed).effects[g] @ rho.matrix
        ).real
        assert abs(lhs - rhs) <= 1e-10
    announce(3, f"multimeter identity {fixture}")


def test_criterion_4_prop1_battery():
    t0 = time.perf_counter()
    total_trials = 0
    reports = []

    mm, xi1, xi2, _, _ = q8_program_pair()
    reports.append(verify_prop1(mm, xi1, xi2, trials=3400, seed=100))

    mm, xi1, xi2, _, _ = wh_program_pair(3)
    reports.append(verify_prop1(mm, xi1, xi2, trials=3300, seed=101))

    for k in range(3):
        mm, xi1, xi2, _, _ = default_random_fixture(seed=200 + k)
        reports.append(verify_prop1(mm, xi1, xi2, trials=1100, seed=102 + k))

    elapsed = time.perf_counter() - t0
    total_trials = sum(r.trials for r in reports)
    assert total_trials == 10000
    for r in reports:
        assert r.violations == 0, r.to_dict()
        assert r.worst_margin >= -1e-9
    assert elapsed < 60.0, f"prop1 battery took {elapsed:.1f}s"
    announce(4, f"prop1 battery ({total_trials} trials, {elapsed:.1f}s)")


def test_criterion_5_prop3_battery():
    reports = []

    # sharp-output configuration: the two coset kernels are orthogonal as kernels
    mm, xi1, xi2, l1, l2 = q8_program_pair()
    assert pp_fidelity(l1, l2) <= 1e-12
    reports.append(verify_prop3(mm, xi1, xi2, l1, l2, trials=3400, seed=110))

    mm, xi1, xi2, l1, l2 = wh_program_pair(3)
    reports.append(verify_prop3(mm, xi1, xi2, l1, l2, trials=3300, seed=111))

    rng = default_rng(61)
    for k in range(3):
        mm, xi1, xi2, _, _ = default_random_fixture(seed=300 + k)
        n_out = int(rng.integers(2, 5))
        l1 = random_postprocessing(rng, mm.pointer.n_outcomes, n_out)
        l2 = random_postprocessing(rng, mm.pointer.n_outcomes, n_out)
        reports.append(verify_prop3(mm, xi1, xi2, l1, l2, trials=1100, seed=112 + k))

    assert sum(r.trials for r in reports) == 10000
    for r in reports:
        assert r.violations == 0, r.to_dict()
        assert r.worst_margin >= -1e-9
    announce(5, "prop3 battery (10000 trials)")


def test_criterion_6_kernel_fidelity_vs_grid():
    from oracles import simplex_grid

    rng = default_rng(17)
    for trial in range(100):
        n_in = int(rng.integers(2, 5))
        n_out = int(rng.integers(2, 4))
        l1 = random_postprocessing(rng, n_in, n_out)
        l2 = random_postprocessing(rng, n_in, n_out)
        closed = pp_fidelity(l1, l2)
        grid = simplex_grid(n_in, 20)
        vals = np.array(
            [bhattacharyya(p @ l1.kernel, p @ l2.kernel) for p in grid]
        )
        assert closed <= vals.min() + 1e-12, f"trial {trial}: closed form above a grid value"
        assert abs(closed - vals.min()) <= 1e-3
    announce(6, "kernel fidelity closed form vs simplex grid (100 pairs)")


def test_criterion_7_divergence_estimates():
    from oracles import bloch_grid_infimum, smeared_qubit_observable

    rng = default_rng(23)

    # equality case across 20 random observables
    for k in range(20):
        e = random_povm(rng, 2, int(rng.integers(2, 5)))
        est = observable_divergence(e, e, DivergenceOptions(seed=400 + k, restarts=8))
        assert est.value >= 1 - 2e-3, f"equality estimate {k} fell to {est.value}"
        assert est.value <= 1 + 1e-9

    # distinct sharp qubit pairs: exact-zero witness
    found = 0
    while found < 10:
        a = random_pvm(rng, 2)
        b = random_pvm(rng, 2)
        if np.max(np.abs(a.effects[0] - b.effects[0])) < 1e-6:
            continue  # essentially the same measurement, skip
        est = observable_divergence(a, b, DivergenceOptions(seed=500 + found))
        assert est.value < 1e-4, f"sharp pair {found} estimate {est.value}"
        assert est.value == 0.0 and "exact-zero" in est.method
        found += 1

    # smeared pairs against the brute-force grid
    for k in range(5):
        t = [-0.6, -0.3, 0.0, 0.4, 0.7][k]
        a1 = np.array([0.0, 0.0, 1.0])
        a2 = np.array([np.sqrt(1 - t * t), 0.0, t])
        e1 = smeared_qubit_observable(a1)
        e2 = smeared_qubit_observable(a2)
        est = observable_divergence(e1, e2, DivergenceOptions(seed=600 + k))
        oracle = bloch_grid_infimum(e1, e2)
        assert abs(est.value - oracle) <= 1e-3, (
            f"smeared pair {k}: estimate {est.value} vs oracle {oracle}"
        )
    announce(7, "divergence estimates (20 equal, 10 sharp, 5 smeared)")


def test_criterion_8_bound_curve():
    t0 = time.perf_counter()
    curve = bound_curve(points=201)
    elapsed = time.perf_counter() - t0

    mid = curve.values[100]
    assert abs(mid - SQRT_HALF) <= 1e-6
    assert np.max(np.abs(curve.values - curve.values[::-1])) <= 1e-6
    upper = curve.values[100:]
    assert np.all(np.diff(upper) >= -1e-6), "bound not monotone in |t|"
    assert abs(curve.values[0] - 1.0) <= 1e-6
    assert abs(curve.values[-1] - 1.0) <= 1e-6
    assert abs(sharpmin_bound(0.0) - SQRT_HALF) <= 1e-6
    assert elapsed < 30.0, f"bound sweep took {elapsed:.1f}s"
    announce(8, f"bound curve (201 points, {elapsed:.1f}s)")


def test_criterion_9_property_suites():
    rng = default_rng(29)
    e1 = random_povm(rng, 2, 3)
    e2 = random_povm(rng, 2, 3)
    report = verify_b_properties(e1, e2, n=200, seed=71)
    assert report.violations == 0, report.fixtures
    assert report.fixtures["b1_swap_difference"] < 2e-3
    assert report.fixtures["b4_worst_difference"] < 2e-3
    assert report.fixtures["b5_worst_margin"] >= 0.0
    assert report.fixtures["b6_worst_margin"] >= 0.0

    povm_report = verify_povm_bound(dim=2, trials=500, seed=72)
    assert povm_report.violations == 0
    povm_report3 = verify_povm_bound(dim=3, trials=500, seed=73)
    assert povm_report3.violations == 0
    assert min(povm_report.worst_margin, povm_report3.worst_margin) >= -1e-9
    announce(9, "b-property suites (200 transformations each) and povm bound (1000 trials)")
