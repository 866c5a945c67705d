from types import SimpleNamespace

import numpy as np
import pytest
from oracles import einsum_margins, sharpmin_oracle

from qmultimeter import verify
from qmultimeter.divergence import DivergenceOptions
from qmultimeter.groups import PAULI_Y, covariant_multimeter, weyl_heisenberg
from qmultimeter.postprocessing import PostProcessing, pp_fidelity
from qmultimeter.quantum import DensityState, Observable, outcome_distribution, program
from qmultimeter.sampling import random_density, random_postprocessing, random_povm, rng_from
from qmultimeter.verify import (
    BoundCurve,
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
        a = verify_prop1(mm, xi1, xi2, trials=200, seed=5, keep_records=True)
        b = verify_prop1(mm, xi1, xi2, trials=200, seed=5, keep_records=True)
        assert a.worst_margin == b.worst_margin
        assert a.records == b.records

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
        ident = PostProcessing.identity(n_out)
        r1 = verify_prop1(mm, xi1, xi2, trials=300, seed=3, keep_records=True)
        r3 = verify_prop3(mm, xi1, xi2, ident, ident, trials=300, seed=3, keep_records=True)
        assert np.allclose(r1.records, r3.records, atol=1e-12)

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
        bad = PostProcessing.identity(3)
        with pytest.raises(ValueError, match="kernel"):
            verify_prop3(mm, xi1, xi2, bad, bad, trials=10, seed=0)

    @pytest.mark.parametrize("which", ["inputs", "outputs"])
    def test_kernel_shapes_checked_before_programming(self, which, monkeypatch):
        mm, xi1, xi2, l1, _ = q8_program_pair()
        n = mm.pointer.n_outcomes
        bad = PostProcessing.identity(3) if which == "inputs" else PostProcessing.identity(n)

        def refuse(multimeter, xi):
            raise AssertionError("programmed before the kernel shapes were checked")

        monkeypatch.setattr(verify, "program", refuse)
        with pytest.raises(ValueError, match="kernel"):
            verify_prop3(mm, xi1, xi2, l1, bad, trials=10, seed=0)


def covariant7_random_probes():
    """The d = 7 phase-space device programmed by two random mixed probe states,
    with random 7-output kernels: full-rank programmed effects."""
    rng = rng_from(5)
    mm = covariant_multimeter(weyl_heisenberg(7))
    xi1 = random_density(rng, mm.probe_dim)
    xi2 = random_density(rng, mm.probe_dim)
    l1 = random_postprocessing(rng, mm.n_outcomes, 7)
    l2 = random_postprocessing(rng, mm.n_outcomes, 7)
    return mm, xi1, xi2, l1, l2


FIXTURES = {
    "q8": q8_program_pair,
    "wh3": lambda: wh_program_pair(3),
    "random": default_random_fixture,
    "covariant7": covariant7_random_probes,
}


class TestSampledMargins:
    """The batched Born rule against the einsum margin oracle."""

    @pytest.mark.parametrize("kernels", [False, True])
    @pytest.mark.parametrize("trials", [0, 1, 500])
    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_matches_einsum_oracle(self, fixture, trials, kernels):
        mm, xi1, xi2, l1, l2 = FIXTURES[fixture]()
        e1, e2 = program(mm, xi1), program(mm, xi2)
        pair = (l1, l2) if kernels else None
        f_kern = pp_fidelity(l1, l2) if kernels else 1.0
        got = verify._sampled_margins(e1, e2, trials, 11, 0.7, pair, f_kern)
        want = einsum_margins(e1, e2, trials, 11, 0.7, pair, f_kern)
        assert got.shape == want.shape == (trials,)
        if trials:
            assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("kernels", [False, True])
    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_blocks_leave_margins_unchanged(self, fixture, kernels, monkeypatch):
        mm, xi1, xi2, l1, l2 = FIXTURES[fixture]()
        e1, e2 = program(mm, xi1), program(mm, xi2)
        pair = (l1, l2) if kernels else None
        whole = verify._sampled_margins(e1, e2, 500, 11, 0.7, pair)
        # 500 rows in blocks of 37, the last one short
        width = max(e1.dim**2, e1.n_outcomes)
        monkeypatch.setattr(verify, "SAMPLE_BLOCK", 37 * width + width // 2)
        assert np.array_equal(verify._sampled_margins(e1, e2, 500, 11, 0.7, pair), whole)

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
        rng = rng_from(3)
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
        rng = rng_from(4)
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
        report = verify_b_properties(
            e1,
            e2,
            n=20,
            seed=0,
            opts=DivergenceOptions(seed=0, restarts=8),
            conj_opts=DivergenceOptions(seed=0, restarts=4),
        )
        assert report.violations == 0, report.fixtures
        assert report.fixtures["b3_equal_estimate"] is None

    def test_equal_pair_hits_b3(self, rng):
        e = random_povm(rng, 2, 3)
        report = verify_b_properties(
            e,
            e,
            n=5,
            seed=1,
            opts=DivergenceOptions(seed=1, restarts=6),
            conj_opts=DivergenceOptions(seed=1, restarts=4),
        )
        assert report.violations == 0, report.fixtures
        assert report.fixtures["b3_equal_estimate"] >= 1 - 2e-3
        # an estimate of 1 is no near-violation: nothing here is within 1e-4 of failing
        assert report.worst_margin > 1e-4

    def test_sampled_pair_beating_the_estimate_is_a_violation(self, monkeypatch):
        # at this seed the smallest of the 20 sampled B2 ratios is 0.99190 and the
        # smallest B5 ratio 1.00347: an estimate of 0.999 is beaten by a sampled
        # pair by more than estimator_tol, while B5 still holds
        rng = rng_from(0)
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

    def test_curve_validation_rejects_asymmetry(self):
        ts = np.linspace(-1, 1, 5)
        vals = np.array([1.0, 0.8, SQRT_HALF, 0.8, 0.9])
        with pytest.raises(ValueError, match="symmetric"):
            BoundCurve(ts, vals)


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

    def test_phase_space_demo_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="prime"):
            phase_space_demo(4)
        for d in (23, 29):
            with pytest.raises(ValueError, match="desk"):
                phase_space_demo(d)


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
