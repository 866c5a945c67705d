import json
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    einsum_margins,
    programmed_covariant,
    sharp_defects_oracle,
    sharp_projector_defects,
    sharpmin_oracle,
)

from qmultimeter import groups, quantum, verify
from qmultimeter.divergence import observable_divergence
from qmultimeter.groups import PAULI_Y, covariant_multimeter, is_prime, weyl_heisenberg
from qmultimeter.postprocessing import PostProcessing, pp_fidelity
from qmultimeter.quantum import DensityState, Observable, fidelity, outcome_distribution, program
from qmultimeter.sampling import (
    random_density,
    random_multimeter,
    random_postprocessing,
    random_povm,
    random_pure_vector,
)
from qmultimeter.verify import (
    DemoFailure,
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


class TestProp1:
    def test_equal_programs_reduce_to_povm_bound(self):
        mm, xi1, _, _, _ = q8_program_pair()
        report = verify_prop1(mm, xi1, xi1, trials=1000, seed=0)
        assert report.violations == 0
        assert abs(report.fixtures["program_fidelity"] - 1.0) < 1e-9

    def test_q8_fixture_clean(self):
        mm, xi1, xi2, _, _ = q8_program_pair()
        report = verify_prop1(mm, xi1, xi2, trials=1000, seed=0)
        assert report.violations == 0
        assert report.worst_margin >= -1e-9

    def test_random_multimeter_clean(self):
        mm, xi1, xi2, _, _ = default_random_fixture(seed=42)
        report = verify_prop1(mm, xi1, xi2, trials=1000, seed=7)
        assert report.violations == 0

    def test_seeded_reports_reproduce(self):
        mm, xi1, xi2, _, _ = q8_program_pair()
        a = verify_prop1(mm, xi1, xi2, trials=200, seed=5).to_dict()
        b = verify_prop1(mm, xi1, xi2, trials=200, seed=5).to_dict()
        a.pop("elapsed")
        b.pop("elapsed")
        assert a == b

    def test_report_shape(self):
        mm, xi1, xi2, _, _ = wh_program_pair(3)
        report = verify_prop1(mm, xi1, xi2, trials=50, seed=1)
        doc = report.to_dict()
        assert doc["check"] == "prop1"
        assert doc["trials"] == 50
        assert "program_fidelity" in doc["fixtures"]


class TestProp3:
    def test_identity_kernels_match_prop1_margins(self):
        mm, xi1, xi2, _, _ = q8_program_pair()
        n_out = mm.pointer.n_outcomes
        ident = PostProcessing(np.eye(n_out))
        r1 = verify_prop1(mm, xi1, xi2, trials=300, seed=3)
        r3 = verify_prop3(mm, xi1, xi2, ident, ident, trials=300, seed=3)
        assert r1.worst_margin == r3.worst_margin
        assert r1.violations == r3.violations


class TestProp1WithoutKernels:
    """prop1 samples the effect coordinates as they are: no kernel is built
    or read, and no n x n relabelling product runs."""

    PAIRS = {
        "q8": q8_program_pair,
        "wh7": lambda: wh_program_pair(7),
        "wh19": lambda: wh_program_pair(19),
        "random": lambda: default_random_fixture(0),
    }

    @pytest.mark.parametrize("fixture", sorted(PAIRS))
    def test_margins_equal_the_identity_kernel_path_bit_for_bit(self, fixture, monkeypatch):
        mm, xi1, xi2, _, _ = self.PAIRS[fixture]()
        e1, e2 = program(mm, xi1), program(mm, xi2)
        ident = PostProcessing(np.eye(mm.n_outcomes))
        kernel_path = verify._sampled_margins(e1, e2, 500, 11, 0.7, (ident, ident), 1.0)
        direct = verify._sampled_margins(e1, e2, 500, 11, 0.7)
        assert direct.tobytes() == kernel_path.tobytes()
        r3 = payload(verify_prop3(mm, xi1, xi2, ident, ident, trials=500, seed=11))

        def refuse(*args, **kwargs):
            raise AssertionError("prop1 built or read a kernel")

        monkeypatch.setattr(PostProcessing, "__post_init__", refuse)
        monkeypatch.setattr(verify, "pp_fidelity", refuse)
        r1 = payload(verify_prop1(mm, xi1, xi2, trials=500, seed=11))
        assert r1["worst_margin"] == r3["worst_margin"]
        assert r1["violations"] == r3["violations"]

    def test_q8_sharp_configuration(self):
        mm, xi1, xi2, l1, l2 = q8_program_pair()
        assert pp_fidelity(l1, l2) <= 1e-12  # the two coset mergings disagree row-wise
        report = verify_prop3(mm, xi1, xi2, l1, l2, trials=1000, seed=0)
        assert report.violations == 0
        assert report.fixtures["kernel_fidelity"] <= 1e-12

    def test_random_kernels_clean(self):
        mm, xi1, xi2, l1, l2 = default_random_fixture(seed=13)
        report = verify_prop3(mm, xi1, xi2, l1, l2, trials=1000, seed=2)
        assert report.violations == 0

    def test_kernel_shape_mismatch_rejected(self):
        mm, xi1, xi2, _, _ = q8_program_pair()
        bad = PostProcessing(np.eye(3))
        with pytest.raises(ValueError, match="kernel"):
            verify_prop3(mm, xi1, xi2, bad, bad, trials=10, seed=0)

    @pytest.mark.parametrize("which", ["inputs", "outputs"])
    def test_kernel_shapes_checked_before_programming(self, which, monkeypatch):
        mm, xi1, xi2, l1, _ = q8_program_pair()
        n = mm.pointer.n_outcomes
        bad = PostProcessing(np.eye(3)) if which == "inputs" else PostProcessing(np.eye(n))

        def refuse(multimeter, xi):
            raise AssertionError("programmed before the kernel shapes were checked")

        monkeypatch.setattr(verify, "program", refuse)
        with pytest.raises(ValueError, match="kernel"):
            verify_prop3(mm, xi1, xi2, l1, bad, trials=10, seed=0)


def random_device(seed):
    """A random multimeter on a qubit with a 4-dimensional probe, and an rng to
    draw probe states from."""
    rng = np.random.default_rng(seed)
    return random_multimeter(rng, 2, 4), rng


class TestBoundaryProperties:
    """Edge cases of the shared prop1/prop3 check on random devices."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_single_output_kernels(self, seed):
        # every pointer outcome relabelled to one output: both statistics are 1, so each
        # margin is 1 - |<v1|v2>| F(xi1, xi2) >= 1 - F(xi1, xi2)
        mm, rng = random_device(seed)
        xi1, xi2 = random_density(rng, mm.probe_dim), random_density(rng, mm.probe_dim)
        one = PostProcessing(np.ones((mm.n_outcomes, 1)))
        report = verify_prop3(mm, xi1, xi2, one, one, trials=200, seed=seed)
        assert report.fixtures["kernel_fidelity"] == 1.0
        assert report.violations == 0
        assert report.worst_margin >= 1 - fidelity(xi1, xi2) - 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_rank_one_probe(self, seed):
        mm, rng = random_device(seed)
        v = random_pure_vector(rng, mm.probe_dim)
        pure = DensityState.from_vector(v)
        mixed = random_density(rng, mm.probe_dim)
        l1 = random_postprocessing(rng, mm.n_outcomes, 3)
        l2 = random_postprocessing(rng, mm.n_outcomes, 3)
        r1 = verify_prop1(mm, pure, mixed, trials=200, seed=seed)
        r3 = verify_prop3(mm, pure, mixed, l1, l2, trials=200, seed=seed)
        assert r1.violations == r3.violations == 0
        # the fidelity of a pure state with any state is sqrt(<v|xi|v>)
        overlap = np.sqrt(np.vdot(v, mixed.matrix @ v).real)
        assert abs(r1.fixtures["program_fidelity"] - overlap) < 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_equal_probes(self, seed):
        # xi1 = xi2 programs one observable: the bound becomes the outcome-
        # statistics overlap of two pure states against their own overlap
        mm, rng = random_device(seed)
        xi = random_density(rng, mm.probe_dim)
        report = verify_prop1(mm, xi, xi, trials=200, seed=seed)
        assert abs(report.fixtures["program_fidelity"] - 1.0) < 1e-9
        assert report.violations == 0


def covariant7_random_probes():
    """The d = 7 phase-space device programmed by two random mixed probe states,
    with random 7-output kernels: full-rank programmed effects."""
    rng = np.random.default_rng(5)
    mm = covariant_multimeter(weyl_heisenberg(7))
    xi1 = random_density(rng, mm.probe_dim)
    xi2 = random_density(rng, mm.probe_dim)
    l1 = random_postprocessing(rng, mm.n_outcomes, 7)
    l2 = random_postprocessing(rng, mm.n_outcomes, 7)
    return mm, xi1, xi2, l1, l2


FIXTURES = {
    "q8": q8_program_pair,
    "wh3": lambda: wh_program_pair(3),
    "random": lambda: default_random_fixture(0),
    "covariant7": covariant7_random_probes,
}

# reports at seed 0 and 2000 trials, recorded before prop1 ran as prop3 with
# identity kernels; elapsed is left out
PINNED_REPORTS = {
    ("q8", "prop1"): (0.02057790176435892, {
        "program_fidelity": 0.7071067811865477, "system_dim": 2, "pointer_outcomes": 8,
        "tol_check": 1e-09,
    }),
    ("q8", "prop3"): (0.042096807239856614, {
        "program_fidelity": 0.7071067811865477, "kernel_fidelity": 0.0, "system_dim": 2,
        "kernel_outputs": 2, "tol_check": 1e-09,
    }),
    ("wh3", "prop1"): (0.1063413338649506, {
        "program_fidelity": 0.5773502691896255, "system_dim": 3, "pointer_outcomes": 9,
        "tol_check": 1e-09,
    }),
    ("wh3", "prop3"): (0.27795980131839837, {
        "program_fidelity": 0.5773502691896255, "kernel_fidelity": 0.0, "system_dim": 3,
        "kernel_outputs": 3, "tol_check": 1e-09,
    }),
    ("random", "prop1"): (0.09915470804916615, {
        "program_fidelity": 0.8417317565713951, "system_dim": 2, "pointer_outcomes": 4,
        "tol_check": 1e-09,
    }),
    ("random", "prop3"): (0.27119956414055024, {
        "program_fidelity": 0.8417317565713951, "kernel_fidelity": 0.8286169182416449,
        "system_dim": 2, "kernel_outputs": 3, "tol_check": 1e-09,
    }),
}


class TestPinnedReports:
    """Seeded reports keep their recorded values across versions."""

    @pytest.mark.parametrize("fixture,check", sorted(PINNED_REPORTS))
    def test_report_matches_recorded_values(self, fixture, check):
        mm, xi1, xi2, l1, l2 = FIXTURES[fixture]()
        if check == "prop1":
            report = verify_prop1(mm, xi1, xi2, trials=2000, seed=0)
        else:
            report = verify_prop3(mm, xi1, xi2, l1, l2, trials=2000, seed=0)
        worst, fixtures = PINNED_REPORTS[fixture, check]
        assert (report.check, report.seed, report.trials, report.violations) == (check, 0, 2000, 0)
        assert abs(report.worst_margin - worst) <= 1e-12
        assert list(report.fixtures) == list(fixtures)
        for key, value in fixtures.items():
            assert type(report.fixtures[key]) is type(value), key
            assert abs(report.fixtures[key] - value) <= 1e-12, key


class TestSampledMargins:
    """The batched Born rule against the einsum margin oracle."""

    @pytest.mark.parametrize("kernels", [False, True])
    @pytest.mark.parametrize("trials", [0, 1, 500])
    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_matches_einsum_oracle(self, fixture, trials, kernels):
        mm, xi1, xi2, l1, l2 = FIXTURES[fixture]()
        e1, e2 = program(mm, xi1), program(mm, xi2)
        if not kernels:
            # the identity relabelling (fidelity 1), against the oracle's kernel-less margins
            l1 = l2 = PostProcessing(np.eye(mm.n_outcomes))
        f_kern = pp_fidelity(l1, l2)
        got = verify._sampled_margins(e1, e2, trials, 11, 0.7, (l1, l2), f_kern)
        want = einsum_margins(e1, e2, trials, 11, 0.7, (l1, l2) if kernels else None, f_kern)
        assert got.shape == want.shape == (trials,)
        if trials:
            assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("kernels", [False, True])
    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_blocks_leave_margins_unchanged(self, fixture, kernels, monkeypatch):
        mm, xi1, xi2, l1, l2 = FIXTURES[fixture]()
        e1, e2 = program(mm, xi1), program(mm, xi2)
        if not kernels:
            l1 = l2 = PostProcessing(np.eye(mm.n_outcomes))
        whole = verify._sampled_margins(e1, e2, 500, 11, 0.7, (l1, l2), 1.0)
        # 500 rows in blocks of 37, the last one short
        width = max(e1.dim**2, e1.n_outcomes)
        monkeypatch.setattr(verify, "SAMPLE_BLOCK", 37 * width + width // 2)
        blocked = verify._sampled_margins(e1, e2, 500, 11, 0.7, (l1, l2), 1.0)
        assert np.array_equal(blocked, whole)

    def test_covariant7_effects_are_full_rank(self):
        # the mixed probe marginals give full-rank effects, unlike the sharp
        # eigenvector programs of the q8 and wh3 fixtures
        mm, xi1, xi2, _, _ = covariant7_random_probes()
        for xi in (xi1, xi2):
            assert np.linalg.eigvalsh(program(mm, xi).effects).min() > 1e-4


def unit_rows(rng, rows, d):
    v = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


BORN_POVMS = {
    "d2": lambda rng: random_povm(rng, 2, 3),
    "d3": lambda rng: random_povm(rng, 3, 4),
    "d19": lambda rng: random_povm(rng, 19, 5),
    # purely imaginary off-diagonals: only the -2 Im E_ij coordinates see them
    "sigma_y": lambda rng: Observable([(np.eye(2) + PAULI_Y) / 2, (np.eye(2) - PAULI_Y) / 2]),
}


class TestRealCoordinateBornRule:
    """The sampler's real-coordinate statistics against the complex Born rule."""

    @pytest.mark.parametrize("povm", sorted(BORN_POVMS))
    def test_statistics_match_outcome_distribution(self, povm):
        rng = np.random.default_rng(3)
        e = BORN_POVMS[povm](rng)
        assert np.max(np.abs(e.effects.imag)) > 0.1
        v = unit_rows(rng, 40, e.dim)
        q = verify._born_statistics(verify._effect_coordinates(e.effects), v)
        assert q.shape == (40, e.n_outcomes)
        for row, vec in zip(q, v):
            want = outcome_distribution(e, DensityState.from_vector(vec))
            assert np.max(np.abs(row - want)) < 1e-12

    @pytest.mark.parametrize("povm", sorted(BORN_POVMS))
    def test_kernel_on_effects_equals_kernel_on_statistics(self, povm):
        rng = np.random.default_rng(4)
        e = BORN_POVMS[povm](rng)
        kern = random_postprocessing(rng, e.n_outcomes, 3).kernel
        v = unit_rows(rng, 40, e.dim)
        coords = verify._effect_coordinates(e.effects)
        first = verify._born_statistics(kern.T @ coords, v)
        after = verify._born_statistics(coords, v) @ kern
        assert np.max(np.abs(first - after)) < 1e-12


class TestBProperties:
    def test_random_pair_battery(self, rng):
        e1 = random_povm(rng, 2, 3)
        e2 = random_povm(rng, 2, 3)
        report = verify_b_properties(e1, e2, n=20, seed=0)
        assert report.violations == 0, report.fixtures
        assert report.fixtures["b3_equal_estimate"] is None

    def test_equal_pair_hits_b3(self, rng):
        e = random_povm(rng, 2, 3)
        report = verify_b_properties(e, e, n=5, seed=1)
        assert report.violations == 0, report.fixtures
        assert report.fixtures["b3_equal_estimate"] >= 1 - 2e-3
        # an estimate of 1 is no near-violation: nothing here is within 1e-4 of failing
        assert report.worst_margin > 1e-4

    def test_sampled_pair_beating_the_estimate_is_a_violation(self, monkeypatch):
        # at this seed the smallest of the 20 sampled B2 ratios is 0.99190 and the
        # smallest B5 ratio 1.00347: an estimate of 0.999 is beaten by a sampled
        # pair by more than estimator_tol, while B5 still holds
        rng = np.random.default_rng(0)
        e1 = random_povm(rng, 2, 3)
        e2 = random_povm(rng, 2, 3)
        monkeypatch.setattr(
            verify, "observable_divergence", lambda *args: SimpleNamespace(value=0.999)
        )
        report = verify_b_properties(e1, e2, n=20, seed=0)
        assert report.fixtures["b2_min_sampled_ratio"] < 0.999 - 2e-3
        assert report.fixtures["b5_worst_margin"] >= 0.0
        assert report.violations == 1


class TestPovmBound:
    def test_random_ensemble_clean(self):
        report = verify_povm_bound(dim=2, trials=200, seed=0)
        assert report.violations == 0
        assert report.worst_margin >= -1e-9

    def test_dimension_three(self):
        report = verify_povm_bound(dim=3, trials=100, seed=1)
        assert report.violations == 0


class TestSharpminBound:
    def test_orthogonal_axes_value(self):
        assert abs(sharpmin_bound(0.0) - SQRT_HALF) < 1e-6

    @pytest.mark.parametrize("t", [1.0, -1.0])
    def test_aligned_axes_value(self, t):
        # divergent terms drop out; the remaining pair peaks at 1
        assert abs(sharpmin_bound(t) - 1.0) < 1e-6

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.8])
    def test_symmetry(self, t):
        assert abs(sharpmin_bound(t) - sharpmin_bound(-t)) < 1e-6

    def test_monotone_in_abs_t(self):
        ts = np.linspace(0.0, 1.0, 21)
        vals = [sharpmin_bound(float(t)) for t in ts]
        assert np.all(np.diff(vals) >= -1e-6)

    def test_out_of_range_rejected(self):
        for t in (1.2, -1.0001, float("nan")):
            with pytest.raises(ValueError, match="axis overlap"):
                sharpmin_bound(t)

    def test_grid_only_lower_bounds_refined(self):
        raw = sharpmin_oracle(0.3, refine=False)
        assert raw <= sharpmin_bound(0.3) + 1e-12

    def test_matches_brute_force_oracle(self):
        for t in np.linspace(-1.0, 1.0, 41):
            assert abs(sharpmin_bound(float(t)) - sharpmin_oracle(float(t))) <= 1e-9, t


class TestBoundCurve:
    def test_small_sweep(self):
        curve = bound_curve(points=21)
        assert curve.ts[0] == -1.0 and curve.ts[-1] == 1.0
        assert abs(curve.values[10] - SQRT_HALF) < 1e-6

    def test_csv_format(self):
        curve = bound_curve(points=5)
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "t,bound"
        assert len(lines) == 6
        t0 = [ln for ln in lines[1:] if ln.startswith("0,")]
        assert len(t0) == 1
        assert abs(float(t0[0].split(",")[1]) - SQRT_HALF) < 1e-6

    @pytest.mark.parametrize(
        "points,message", [(0, "at least 1"), (-1, "at least 1"), (True, "integer"), (2.5, "integer")]
    )
    def test_point_count_is_checked_before_any_work(self, points, message, monkeypatch):
        def refuse(t):
            raise AssertionError("a bound was evaluated")

        monkeypatch.setattr(verify, "sharpmin_bound", refuse)
        with pytest.raises(ValueError, match=f"points must be .*{message}"):
            bound_curve(points)

    def test_one_point_is_the_left_end(self):
        curve = bound_curve(1)
        assert curve.ts.tolist() == [-1.0] and curve.values[0] == sharpmin_bound(-1.0)


class TestDemos:
    def test_quaternion_demo_report(self):
        report = quaternion_demo()
        assert report["check"] == "quaternion_demo"
        for f in report["program_fidelities"].values():
            assert abs(f - SQRT_HALF) < 1e-10
        assert abs(report["bound_at_zero"] - SQRT_HALF) < 1e-6
        assert set(report["pvms"]) == {"i", "j", "k"}

    def test_phase_space_demo_d3(self):
        report = phase_space_demo(3)
        assert report["vector_count"] == 4
        assert report["worst_overlap_gap"] < 1e-8
        assert report["worst_idempotency_defect"] < 1e-8
        assert report["canonical_eigenvalue_missing"] == []

    def test_phase_space_demo_d2_flagged(self):
        # the closed-form coefficient ordering degenerates; diagonalization
        # still produces an unbiased set, with the fallback recorded
        report = phase_space_demo(2)
        assert report["vector_count"] == 3
        assert report["worst_overlap_gap"] < 1e-8
        assert report["canonical_eigenvalue_missing"] == ["(1,1)"]

    @pytest.mark.parametrize("demo", [lambda: phase_space_demo(7), quaternion_demo])
    def test_demos_run_no_full_check_no_dense_merge_and_no_general_eig(self, monkeypatch, demo):
        # programmed and merged effects are Gram products, certified by
        # construction; each eigenbasis comes from one Hermitian eigh
        def refuse(*args, **kwargs):
            raise AssertionError("a structured step took the general path")

        monkeypatch.setattr(Observable, "__post_init__", refuse)
        monkeypatch.setattr(np, "tensordot", refuse)
        monkeypatch.setattr(np.linalg, "eig", refuse)
        demo()

    @pytest.mark.parametrize("demo,merged", [(lambda: phase_space_demo(7), []),
                                             (quaternion_demo, [(2, 2, 2)] * 3)])
    def test_demos_build_only_the_merged_effect_stacks(self, monkeypatch, demo, merged):
        # the programmed (#G, d, d) observables are merged through their
        # factors, and their effects are never read, so never built; the
        # phase-space demo checks its merged factors and builds no effect
        stacks = []
        original = quantum.hermitianize

        def recorded(m):
            if np.ndim(m) == 3:
                stacks.append(np.shape(m))
            return original(m)

        monkeypatch.setattr(quantum, "hermitianize", recorded)
        demo()
        assert stacks == merged

    def test_phase_space_demo_memory_at_d19_is_bounded(self):
        # no d^2 x d^2 probe matrix (2.1 MB at d = 19) is built; the demo peaks
        # near 1.2 MiB, one block of two vectors' merged factors and their
        # certificate; holding all d + 1 probe matrices peaked near 47-50 MiB
        tracemalloc.start()
        try:
            report = phase_space_demo(19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["vector_count"] == 20
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("demo", [lambda: phase_space_demo(7), quaternion_demo])
    def test_every_demo_vector_comes_from_one_stacked_call(self, monkeypatch, demo):
        calls = []
        original = groups.eigenvector_program_states

        def counting(rep, generators):
            calls.append(generators)
            return original(rep, generators)

        monkeypatch.setattr(groups, "eigenvector_program_states", counting)
        demo()
        assert len(calls) == 1

    def test_demos_and_checks_build_no_probe_matrix(self, monkeypatch):
        # every probe is kept as its pair: programming and the program
        # fidelity read it, so the deferred d^2 x d^2 build never runs
        def refuse(*args):
            raise AssertionError("a d^2 x d^2 probe matrix was built")

        monkeypatch.setattr(quantum, "tensor", refuse)
        for d in (7, 19):
            assert phase_space_demo(d)["vector_count"] == d + 1
        quaternion_demo()
        mm, xi1, xi2, l1, l2 = wh_program_pair(5)
        assert verify_prop1(mm, xi1, xi2, trials=200, seed=0).violations == 0
        assert verify_prop3(mm, xi1, xi2, l1, l2, trials=200, seed=0).violations == 0
        with pytest.raises(AssertionError, match="probe matrix was built"):
            xi1.matrix

    def test_pure_states_run_no_eigh(self, rng, monkeypatch):
        # a pure state's factor is its unit column: the fidelity of two, the
        # covariant observable of one and both checks on a built pair read it
        mm, xi1, xi2, l1, l2 = wh_program_pair(5)
        a, b = (DensityState.from_vector(random_pure_vector(rng, 5)) for _ in range(2))

        def refuse(*args):
            raise AssertionError("eigh ran")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert abs(fidelity(a, b) - abs(np.vdot(a.factor, b.factor))) <= 1e-15
        assert programmed_covariant(weyl_heisenberg(5), a).n_outcomes == 25
        assert verify_prop1(mm, xi1, xi2, trials=200, seed=0).violations == 0
        assert verify_prop3(mm, xi1, xi2, l1, l2, trials=200, seed=0).violations == 0

    def test_quaternion_demo_runs_one_eigh(self, monkeypatch):
        # the stacked eigenbasis of the three generators; the program
        # fidelities of its pure vectors run none
        calls = []
        original = np.linalg.eigh

        def counted(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        quaternion_demo()
        assert len(calls) == 1

    def test_phase_space_demo_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="prime"):
            phase_space_demo(4)
        for d in (23, 29):
            with pytest.raises(ValueError, match="desk"):
                phase_space_demo(d)


class TestDemoFailures:
    """A broken identity inside a demo raises DemoFailure naming it."""

    @pytest.mark.parametrize(
        "target,fake,demo,identity",
        [
            # unmerged observables: the programmed observable keeps every group outcome
            ("post_process_observable", lambda kern, e: e, quaternion_demo,
             "coset-merged observable for <i> is the sigma_i PVM"),
            ("post_process_observable", lambda kern, e: e, lambda: phase_space_demo(3),
             "coset merging of <(0,1)> has 3 outcomes"),
            ("sharpmin_bound", lambda t: 0.9, quaternion_demo,
             "bound at orthogonal axes equals 1/sqrt(2)"),
        ],
        ids=["q8-unmerged", "phase-space-unmerged", "q8-bound"],
    )
    def test_failed_identity_is_named(self, monkeypatch, target, fake, demo, identity):
        monkeypatch.setattr(verify, target, fake)
        with pytest.raises(DemoFailure) as failure:
            demo()
        assert str(failure.value) == f"identity failed: {identity}"

    @staticmethod
    def _replace_vector(monkeypatch, index, replace):
        """Programs in which ``replace`` maps the vector of item ``index``."""
        original = verify.eigenvector_program

        def replaced(rep, gens, targets):
            for i, (psi, probe, kern, exact) in enumerate(original(rep, gens, targets)):
                yield (replace(psi) if i == index else psi), probe, kern, exact

        monkeypatch.setattr(verify, "eigenvector_program", replaced)

    @staticmethod
    def _replace_merged(monkeypatch, replace):
        """Merged observables whose Gram factors ``replace`` maps."""
        original = verify.post_process_observable

        def replaced(kern, e):
            sharp = original(kern, e)
            return SimpleNamespace(n_outcomes=sharp.n_outcomes, _factors=replace(sharp._factors))

        monkeypatch.setattr(verify, "post_process_observable", replaced)

    @staticmethod
    def _second_direction(factors):
        # one column of each merged factor turned off the common direction of
        # the others, traces kept: each effect of rank two
        bent = factors.copy()
        bent[:, :, 0] = np.roll(factors[:, :, 0], 1, axis=1)
        bent *= np.sqrt(1.0 / np.einsum("kds,kds->k", bent.conj(), bent).real)[:, None, None]
        return bent

    @staticmethod
    def _tilted(psi):
        # |<psi_i|psi_k>| moves by about 3.5e-10, the projection by 5e-10
        t = 5e-10
        return psi * np.cos(t) + np.array([0.0, np.sin(t)]) * (psi[0] / abs(psi[0]))

    @pytest.mark.parametrize(
        "case,identity",
        [
            ("phase-space-overlap", "|<psi_(0, 1)|psi_(1, 0)>| = 1/sqrt(3)"),
            ("phase-space-rank", "effects are rank one"),
            ("phase-space-idempotent", "merged effects for <(0,1)> are idempotent"),
            ("phase-space-orthogonal", "merged effects for <(0,1)> are mutually orthogonal"),
            ("q8-projection", "programming projection for <i> equals (1 + sigma_i)/2"),
            ("q8-fidelity", "program fidelity F(psi_i, psi_j) = 1/sqrt(2)"),
            ("q8-gram", "gram matrix off-diagonals share a modulus"),
        ],
    )
    def test_each_identity_raises_with_its_message(self, monkeypatch, case, identity):
        if case == "phase-space-overlap":
            # the second vector replaced by the first, the basis vector e_0
            self._replace_vector(monkeypatch, 1, lambda psi: np.eye(3)[0])
        elif case == "phase-space-rank":
            self._replace_merged(monkeypatch, self._second_direction)
        elif case == "phase-space-idempotent":
            # each effect scaled by 1.1: still rank one, and 0.11 from idempotent
            self._replace_merged(monkeypatch, lambda a: np.sqrt(1.1) * a)
        elif case == "phase-space-orthogonal":
            self._replace_merged(monkeypatch, lambda a: a[[0, 0, 2]])
        elif case == "q8-projection":
            self._replace_vector(monkeypatch, 0, lambda psi: np.eye(2)[0])
        elif case == "q8-fidelity":
            monkeypatch.setattr(verify, "fidelity", lambda a, b: 0.5)
        else:
            monkeypatch.setattr(verify, "fidelity", lambda a, b: SQRT_HALF)
            self._replace_vector(monkeypatch, 2, self._tilted)
        demo = (lambda: phase_space_demo(3)) if case.startswith("phase") else quaternion_demo
        with pytest.raises(DemoFailure) as failure:
            demo()
        assert str(failure.value) == f"identity failed: {identity}"

    def test_passing_checks_format_no_message(self, monkeypatch):
        # every call site passes one fixed template, and a passing check never
        # formats it: a template that cannot be formatted goes unnoticed
        checks = []
        original = verify._check

        def strict(condition, identity, *args):
            checks.append(identity)
            return original(condition, _Unformattable() if condition else identity, *args)

        monkeypatch.setattr(verify, "_check", strict)
        phase_space_demo(7)
        quaternion_demo()
        # d = 7: 4 checks per vector and one per pair of vectors; q8: 14
        assert len(checks) == 8 * 4 + 8 * 7 // 2 + 14
        assert len(set(checks)) == 5 + 5


class TestSharpDefects:
    """The demo's factor bounds against today's dense products of the effects."""

    @staticmethod
    def _merged(monkeypatch):
        """Every merged observable the demo checks, in order."""
        merged = []
        original = verify.post_process_observable

        def kept(kern, e):
            merged.append(original(kern, e))
            return merged[-1]

        monkeypatch.setattr(verify, "post_process_observable", kept)
        return merged

    @pytest.mark.parametrize("d", [p for p in range(2, 20) if is_prime(p)])
    def test_bounds_dominate_the_dense_oracle(self, monkeypatch, d):
        merged = self._merged(monkeypatch)
        report = phase_space_demo(d)
        worst = [0.0, 0.0]
        for sharp in merged:
            delta, idem, orth = verify._sharp_defects(sharp._factors)
            dense = sharp_projector_defects(sharp.effects)
            assert max(dense) <= 1e-8
            assert dense[0] <= idem and dense[1] <= orth
            # and each effect is within delta of its compressed column's projector
            assert delta <= 1e-12
            worst = [max(w, x) for w, x in zip(worst, dense)]
        assert len(merged) == d + 1
        assert worst[0] <= report["worst_idempotency_defect"] <= 1e-12
        assert worst[1] <= report["worst_orthogonality_defect"] <= 1e-12

    @pytest.mark.parametrize("noise", [0.0, 1e-9, 1e-6, 1e-3, 1e-1])
    @pytest.mark.parametrize("d,s", [(2, 4), (3, 3), (5, 2)])
    def test_bounds_dominate_the_dense_oracle_off_the_projectors(self, rng, d, s, noise):
        # parallel columns of orthonormal directions, then every column,
        # direction and weight moved by ``noise``: the bounds must still
        # cover the dense defects, which they no longer meet by rounding
        for _ in range(5):
            basis = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            weights = rng.normal(size=(d, s)) + 1j * rng.normal(size=(d, s))
            weights /= np.linalg.norm(weights, axis=1, keepdims=True)
            factors = basis.T[:, :, None] * weights[:, None, :]
            shape = factors.shape
            factors = factors + noise * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
            effects = factors @ factors.conj().transpose(0, 2, 1)
            delta, idem, orth = verify._sharp_defects(factors)
            idem_dense, orth_dense = sharp_projector_defects(effects)
            assert idem_dense <= idem and orth_dense <= orth
            assert np.isfinite(delta) and (noise > 0.0 or delta <= 1e-14)

    @pytest.mark.parametrize("eps", [1e-6, 1e-3, 1e-1])
    def test_a_perpendicular_column_is_bounded(self, rng, eps):
        # A_x = [q_x, eps q_(x+1)]: each compressed column is exactly the
        # unit q_x, and the effects miss idempotency and orthogonality by
        # about eps^2 through the residual alone
        d = 4
        basis = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0].T
        factors = np.stack([basis, eps * np.roll(basis, -1, axis=0)], axis=2)
        effects = factors @ factors.conj().transpose(0, 2, 1)
        delta, idem, orth = verify._sharp_defects(factors)
        idem_dense, orth_dense = sharp_projector_defects(effects)
        assert idem_dense > eps**2 / 2 and orth_dense > eps**2 / 2
        assert idem_dense <= idem and orth_dense <= orth and delta >= eps**2

    def test_a_zero_effect_fails_the_rank_check(self):
        factors = np.zeros((2, 2, 1), dtype=complex)
        factors[0, 0, 0] = 1.0
        delta, idem, orth = verify._sharp_defects(factors)
        assert not delta <= 1e-8


class TestStackedCertificate:
    """The demo certifies its vectors in stacks of ``quantum.block_items``:
    each vector gets the per-vector oracle's bounds bit for bit, and the
    checks fail in the order of the vectors."""

    @staticmethod
    def _stacks(monkeypatch):
        """Every factor stack the demo certifies, in order."""
        stacks = []
        original = verify._sharp_defects

        def kept(factors):
            stacks.append(factors)
            return original(factors)

        monkeypatch.setattr(verify, "_sharp_defects", kept)
        return stacks

    @staticmethod
    def _assert_oracle_bits(factors):
        """Each leading index of ``factors`` gets the oracle's bounds, and so
        does each (k, d, s) item on its own; NaN bounds match NaN."""
        stacked = np.stack(verify._sharp_defects(factors), axis=-1)
        for index in np.ndindex(factors.shape[:-3]):
            want = sharp_defects_oracle(factors[index])
            np.testing.assert_array_equal(stacked[index], want)
            np.testing.assert_array_equal(verify._sharp_defects(factors[index]), want)

    @pytest.mark.parametrize("d", [p for p in range(2, 20) if is_prime(p)])
    def test_each_vector_gets_the_oracle_bits(self, monkeypatch, d):
        stacks = self._stacks(monkeypatch)
        phase_space_demo(d)
        monkeypatch.undo()
        assert sum(len(factors) for factors in stacks) == d + 1
        for factors in stacks:
            self._assert_oracle_bits(factors)

    @pytest.mark.parametrize("d,s", [(2, 4), (3, 3), (5, 2)])
    def test_noisy_stacks_get_the_oracle_bits(self, rng, d, s):
        # the noisy fixtures of TestSharpDefects, five draws at each noise
        # level, as one (levels, draws, d, d, s) stack with one zero effect
        levels = [0.0, 1e-9, 1e-6, 1e-3, 1e-1]
        stack = np.empty((len(levels), 5, d, d, s), dtype=complex)
        for index in np.ndindex(stack.shape[:2]):
            basis = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            weights = rng.normal(size=(d, s)) + 1j * rng.normal(size=(d, s))
            weights /= np.linalg.norm(weights, axis=1, keepdims=True)
            factors = basis.T[:, :, None] * weights[:, None, :]
            shape = factors.shape
            noise = levels[index[0]] * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
            stack[index] = factors + noise
        stack[1, 2, 0] = 0.0
        self._assert_oracle_bits(stack)

    @pytest.mark.parametrize("d,calls", [(7, 1), (19, 10)])
    def test_one_certificate_per_block(self, monkeypatch, d, calls):
        # d = 7: all 8 vectors of 343 factor entries in one block; d = 19:
        # two vectors of 6859 entries per block
        stacks = self._stacks(monkeypatch)
        phase_space_demo(d)
        assert len(stacks) == calls
        per_block = quantum.block_items(d**3)
        sizes = [min(per_block, d + 1 - lo) for lo in range(0, d + 1, per_block)]
        assert [len(factors) for factors in stacks] == sizes
        assert all(factors.shape[1:] == (d, d, d) for factors in stacks)

    @staticmethod
    def _replace_merged(monkeypatch, index, replace):
        """Programs in which ``replace(merged, programmed)`` stands in for
        the merged observable of item ``index``."""
        original = verify.post_process_observable
        seen = []

        def replaced(kern, e):
            sharp = original(kern, e)
            seen.append(sharp)
            return replace(sharp, e) if len(seen) - 1 == index else sharp

        monkeypatch.setattr(verify, "post_process_observable", replaced)

    @staticmethod
    def _rank_two(factors):
        # each effect's first column taken from the next effect's, an
        # orthogonal direction of the same length: each effect of rank two
        bent = factors.copy()
        bent[:, :, 0] = np.roll(factors[:, :, 0], 1, axis=0)
        return bent

    @staticmethod
    def _factors(replace):
        return lambda sharp, e: SimpleNamespace(
            n_outcomes=sharp.n_outcomes, _factors=replace(sharp._factors)
        )

    @pytest.mark.parametrize("d", [3, 7, 19])
    @pytest.mark.parametrize(
        "first,second,identity",
        [
            ((1, "rank"), (2, "overlap"), "effects are rank one"),
            ((1, "idempotent"), (2, "outcomes"), "merged effects for <(1,0)> are idempotent"),
            ((1, "overlap"), (2, "rank"), "|<psi_(0, 1)|psi_(1, 0)>| = 1/sqrt({d})"),
            ((1, "overlap"), (1, "outcomes"), "|<psi_(0, 1)|psi_(1, 0)>| = 1/sqrt({d})"),
            (
                (0, "orthogonal"), (1, "outcomes"),
                "merged effects for <(0,1)> are mutually orthogonal",
            ),
        ],
    )
    def test_the_first_failure_in_vector_order_is_named(
        self, monkeypatch, d, first, second, identity
    ):
        defects = {
            "rank": self._factors(self._rank_two),
            "idempotent": self._factors(lambda a: np.sqrt(1.1) * a),
            "orthogonal": self._factors(lambda a: a[[0, 0, *range(2, len(a))]]),
            "outcomes": lambda sharp, e: e,
        }
        for index, kind in (first, second):
            if kind == "overlap":
                # the vector replaced by the first one, the basis vector e_0
                TestDemoFailures._replace_vector(monkeypatch, index, lambda psi: np.eye(d)[0])
            else:
                self._replace_merged(monkeypatch, index, defects[kind])
        with pytest.raises(DemoFailure) as failure:
            phase_space_demo(d)
        assert str(failure.value) == "identity failed: " + identity.format(d=d)


class TestProposition1IsTight:
    """The divergence estimate attains the program fidelity on the paper's
    programmed pairs (Proposition 1 with equality), read off the factors."""

    @pytest.mark.parametrize("fixture", ["q8", 2, 3, 5, 7])
    def test_estimate_equals_the_program_fidelity(self, fixture):
        mm, xi1, xi2, _, _ = q8_program_pair() if fixture == "q8" else wh_program_pair(fixture)
        f = fidelity(xi1, xi2)
        assert abs(f - abs(np.vdot(xi1._pair[1].factor, xi2._pair[1].factor))) <= 1e-15
        estimate = observable_divergence(program(mm, xi1), program(mm, xi2))
        assert f - 4 * np.spacing(f) <= estimate.value <= f + 1e-9


class _Unformattable:
    def format(self, *args):
        raise AssertionError("a passing check formatted its message")


class TestFixtures:
    def test_default_random_fixture_is_seeded(self):
        a = default_random_fixture(seed=9)
        b = default_random_fixture(seed=9)
        assert np.array_equal(a[1].matrix, b[1].matrix)
        assert np.array_equal(a[3].kernel, b[3].kernel)

    def test_wh_pair_program_fidelity_is_unbiased_overlap(self):
        mm, xi1, xi2, _, _ = wh_program_pair(3)
        report = verify_prop1(mm, xi1, xi2, trials=10, seed=0)
        # probe states eta x seed^T of unbiased seeds: fidelity follows the
        # seed overlap since the eta factor is shared
        assert abs(report.fixtures["program_fidelity"] - 1 / np.sqrt(3)) < 1e-9


def run_check(which, fixture, trials, seed):
    mm, xi1, xi2, l1, l2 = FIXTURES[fixture]()
    if which == "prop1":
        return verify_prop1(mm, xi1, xi2, trials=trials, seed=seed)
    return verify_prop3(mm, xi1, xi2, l1, l2, trials=trials, seed=seed)


def payload(report) -> dict:
    doc = report.to_dict()
    doc.pop("elapsed")
    return doc


class TestSeeds:
    """Seeds are integers: the draws are keyed, and the reports written, by value."""

    @pytest.mark.parametrize("which", ["prop1", "prop3"])
    @pytest.mark.parametrize(
        "seed,name",
        [(True, "bool"), (2.0, "float"), (np.random.default_rng(0), "Generator")],
        ids=["bool", "float", "generator"],
    )
    def test_non_integer_seed_rejected_before_any_work(self, monkeypatch, which, seed, name):
        def refuse(*args, **kwargs):
            raise AssertionError("the check started before the seed was checked")

        monkeypatch.setattr(verify, "program", refuse)
        monkeypatch.setattr(verify, "_sampled_pairs", refuse)
        with pytest.raises(ValueError, match=f"seed must be an integer, got {name}$"):
            run_check(which, "q8", 10, seed)

    @pytest.mark.parametrize("which", ["prop1", "prop3"])
    def test_numpy_integer_seed_gives_the_int_payload(self, which):
        as_int = payload(run_check(which, "q8", 300, 7))
        verify._sampled_pairs.cache_clear()
        as_numpy = payload(run_check(which, "q8", 300, np.int64(7)))
        assert type(as_numpy["seed"]) is int
        assert json.dumps(as_numpy) == json.dumps(as_int)

    @pytest.mark.parametrize("which", ["povm_bound", "b_properties"])
    @pytest.mark.parametrize(
        "seed,name",
        [(True, "bool"), (1.5, "float"), (np.random.default_rng(0), "Generator")],
        ids=["bool", "float", "generator"],
    )
    def test_battery_seed_rejected_before_any_work(self, monkeypatch, which, seed, name):
        def refuse(*args, **kwargs):
            raise AssertionError("the check started before the seed was checked")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(verify, "observable_divergence", refuse)
        with pytest.raises(ValueError, match=f"seed must be an integer, got {name}$"):
            if which == "povm_bound":
                verify_povm_bound(dim=2, trials=10, seed=seed)
            else:
                e = Observable([np.eye(2)])
                verify_b_properties(e, e, n=2, seed=seed)

    def test_numpy_integer_seed_gives_the_int_povm_bound_payload(self):
        as_int = payload(verify_povm_bound(dim=2, trials=50, seed=7))
        as_numpy = payload(verify_povm_bound(dim=2, trials=50, seed=np.int64(7)))
        assert type(as_numpy["seed"]) is int
        assert json.dumps(as_numpy) == json.dumps(as_int)


class TestTrialCounts:
    """A check that samples nothing proves nothing: every trial count is an
    integer of at least 1, refused by name before any work."""

    CHECKS = {
        "prop1": lambda n: run_check("prop1", "q8", n, 0),
        "prop3": lambda n: run_check("prop3", "q8", n, 0),
        "povm_bound": lambda n: verify_povm_bound(dim=2, trials=n, seed=0),
        "b_properties": lambda n: verify_b_properties(
            Observable([np.eye(2)]), Observable([np.eye(2)]), n=n, seed=0
        ),
    }

    @pytest.mark.parametrize("which", sorted(CHECKS))
    @pytest.mark.parametrize(
        "count,message",
        [
            (0, "must be at least 1, got 0"),
            (-3, "must be at least 1, got -3"),
            (2.5, "must be an integer, got float"),
            (True, "must be an integer, got bool"),
        ],
        ids=["zero", "negative", "float", "bool"],
    )
    def test_bad_count_rejected_before_any_work(self, monkeypatch, which, count, message):
        def refuse(*args, **kwargs):
            raise AssertionError("the check started before the trial count was checked")

        for name in ("program", "_sampled_pairs", "observable_divergence"):
            monkeypatch.setattr(verify, name, refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        name = "n" if which == "b_properties" else "trials"
        with pytest.raises(ValueError, match=f"^{name} {message}$"):
            self.CHECKS[which](count)

    @pytest.mark.parametrize("which", ["prop1", "prop3"])
    def test_numpy_integer_count_gives_the_int_payload(self, which):
        as_int = payload(run_check(which, "q8", 300, 7))
        as_numpy = payload(run_check(which, "q8", np.int64(300), 7))
        assert type(as_numpy["trials"]) is int
        assert json.dumps(as_numpy) == json.dumps(as_int)


class TestTolerances:
    """A NaN slack makes every margin comparison False, so no check could
    fail: a tolerance that is a bool, not a number or not finite is refused by
    name before any work, by the rule the CLI applies to config tolerances."""

    CHECKS = {
        "prop1": lambda tol: verify_prop1(*FIXTURES["q8"]()[:3], trials=10, seed=0, tol_check=tol),
        "prop3": lambda tol: verify_prop3(*FIXTURES["q8"](), trials=10, seed=0, tol_check=tol),
        "b_properties": lambda tol: verify_b_properties(
            Observable([np.eye(2)]), Observable([np.eye(2)]), n=2, seed=0, estimator_tol=tol
        ),
    }

    @pytest.mark.parametrize("which", sorted(CHECKS))
    @pytest.mark.parametrize(
        "tol", [float("nan"), float("inf"), -float("inf"), True, "1e-9", None, np.float32(1e-9)],
        ids=["nan", "inf", "-inf", "bool", "str", "none", "float32"],
    )
    def test_bad_tolerance_rejected_before_any_work(self, monkeypatch, which, tol):
        def refuse(*args, **kwargs):
            raise AssertionError("the check started before the tolerance was checked")

        for name in ("program", "_sampled_pairs", "observable_divergence"):
            monkeypatch.setattr(verify, name, refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        name = "estimator_tol" if which == "b_properties" else "tol_check"
        with pytest.raises(ValueError, match=f"^tolerance {name} must be a finite number"):
            self.CHECKS[which](tol)

    @pytest.mark.parametrize("which", ["prop1", "prop3"])
    def test_an_integer_or_numpy_float_tolerance_is_kept(self, which):
        for tol in (0, np.float64(1e-9)):
            assert self.CHECKS[which](tol).fixtures["tol_check"] == tol


class TestProgrammedPairCache:
    """A prop3 after a prop1 on the same device and probe state objects
    programs the pair once; the cache is keyed by identity."""

    @staticmethod
    def counted_program(monkeypatch) -> list:
        calls = []

        def counted(mm, xi):
            calls.append(xi)
            return program(mm, xi)

        monkeypatch.setattr(verify, "program", counted)
        return calls

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_prop3_after_prop1_programs_twice_and_matches_cold_prop3(self, fixture, monkeypatch):
        mm, xi1, xi2, l1, l2 = FIXTURES[fixture]()
        calls = self.counted_program(monkeypatch)
        verify_prop1(mm, xi1, xi2, trials=300, seed=4)
        hot = payload(verify_prop3(mm, xi1, xi2, l1, l2, trials=300, seed=4))
        assert calls == [xi1, xi2]
        assert verify._programmed_pair.cache_info().hits == 1
        verify._programmed_pair.cache_clear()
        verify._sampled_pairs.cache_clear()
        cold = payload(verify_prop3(mm, xi1, xi2, l1, l2, trials=300, seed=4))
        assert len(calls) == 4
        assert json.dumps(hot) == json.dumps(cold)

    def test_equal_matrix_in_another_object_misses(self, monkeypatch):
        mm, xi1, xi2, _, _ = FIXTURES["random"]()
        twin = DensityState(xi1.matrix.copy())
        calls = self.counted_program(monkeypatch)
        first = payload(verify_prop1(mm, xi1, xi2, trials=300, seed=4))
        second = payload(verify_prop1(mm, twin, xi2, trials=300, seed=4))
        assert calls == [xi1, xi2, twin, xi2]
        info = verify._programmed_pair.cache_info()
        assert (info.hits, info.misses) == (0, 2)
        assert json.dumps(first) == json.dumps(second)

    def test_cache_holds_its_key_alive(self):
        mm, xi1, xi2, _, _ = FIXTURES["random"]()
        verify_prop1(mm, xi1, xi2, trials=10, seed=4)
        ref = weakref.ref(xi1)
        del xi1
        assert ref() is not None
        verify._programmed_pair.cache_clear()
        assert ref() is None


class TestSampledPairsCache:
    """A prop3 after a prop1 with the same seed, trials and dimensions reuses
    the draws; a hit and a cold call give the same values bit for bit."""

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_prop3_after_prop1_matches_cold_prop3(self, fixture):
        mm, xi1, xi2, l1, l2 = FIXTURES[fixture]()
        verify_prop1(mm, xi1, xi2, trials=700, seed=4)
        hits = verify._sampled_pairs.cache_info().hits
        hot = payload(verify_prop3(mm, xi1, xi2, l1, l2, trials=700, seed=4))
        assert verify._sampled_pairs.cache_info().hits == hits + 1
        verify._sampled_pairs.cache_clear()
        cold = payload(verify_prop3(mm, xi1, xi2, l1, l2, trials=700, seed=4))
        assert verify._sampled_pairs.cache_info().hits == 0
        assert hot == cold

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_margins_from_hit_and_cold_call_are_byte_equal(self, fixture):
        mm, xi1, xi2, l1, l2 = FIXTURES[fixture]()
        e1, e2 = program(mm, xi1), program(mm, xi2)
        cold = verify._sampled_margins(e1, e2, 500, 11, 0.7, (l1, l2), 0.9)
        hit = verify._sampled_margins(e1, e2, 500, 11, 0.7, (l1, l2), 0.9)
        info = verify._sampled_pairs.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert hit.tobytes() == cold.tobytes()

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    @pytest.mark.parametrize("change", ["seed", "trials", "dim"])
    def test_other_seed_trials_or_dim_misses(self, fixture, change):
        d = FIXTURES[fixture]()[0].system_dim
        key = {"seed": 4, "trials": 60, "d1": d, "d2": d}
        first = verify._sampled_pairs(**key)
        if change == "dim":
            key["d1"] = key["d2"] = d + 1
        else:
            key[change] += 1
        second = verify._sampled_pairs(**key)
        info = verify._sampled_pairs.cache_info()
        assert (info.hits, info.misses) == (0, 2)
        assert all(b is not a for a, b in zip(first, second))

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_cached_arrays_are_read_only(self, fixture):
        d = FIXTURES[fixture]()[0].system_dim
        for a in verify._sampled_pairs(4, 60, d, d):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_vectors_equal_a_fresh_seeded_draw(self, fixture):
        d = FIXTURES[fixture]()[0].system_dim
        v1, v2, f_states = verify._sampled_pairs(4, 60, d, d)
        rng = np.random.default_rng(4)
        fresh = []
        for _ in range(2):
            v = rng.standard_normal((60, d)) + 1j * rng.standard_normal((60, d))
            fresh.append(v / np.linalg.norm(v, axis=1, keepdims=True))
        assert v1.tobytes() == fresh[0].tobytes()
        assert v2.tobytes() == fresh[1].tobytes()
        assert f_states.tobytes() == np.abs((fresh[0].conj() * fresh[1]).sum(axis=1)).tobytes()
