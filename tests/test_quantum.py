import re
import tracemalloc
import warnings

import numpy as np
import oracles
import pytest
from oracles import (
    channel_output,
    eigvalsh_observable_check,
    gathered_heisenberg_program,
    heisenberg_program,
    partial_swap_channel,
    pure_fidelity,
    trivial_observable,
)

from qmultimeter import groups, quantum
from qmultimeter.groups import (
    PAULI_X,
    PAULI_Z,
    covariant_multimeter,
    covariant_program_state,
    eigenvector_program,
    q8_representation,
    weyl_heisenberg,
    wh_element_index,
)
from qmultimeter.linalg import NON_FINITE, TOL_PSD, hermitianize, tensor
from qmultimeter.quantum import (
    DensityState,
    Multimeter,
    Observable,
    QuantumChannel,
    dual_apply,
    fidelity,
    outcome_distribution,
    program,
)
from qmultimeter.sampling import (
    random_channel,
    random_density,
    random_multimeter,
    random_povm,
    random_pure_vector,
    random_unitary,
)
from qmultimeter.verify import phase_space_demo

I2 = np.eye(2, dtype=complex)


def repaired_state(rng, d: int) -> DensityState:
    """A state built from a matrix with 5e-10 of negative eigenvalue mass, which
    the constructor re-projects onto the PSD cone."""
    w = rng.dirichlet(np.ones(d))
    w[-1] = -5e-10
    u = random_unitary(rng, d)
    m = hermitianize((u * (w / w.sum())) @ u.conj().T)
    assert np.linalg.eigvalsh(m).min() < -1e-10
    return DensityState(m)


class TestDensityState:
    def test_valid_state(self):
        s = DensityState(np.diag([0.25, 0.75]))
        assert s.dim == 2
        assert abs(np.trace(s.matrix @ s.matrix).real - (0.25**2 + 0.75**2)) < 1e-12

    def test_purity_bounds(self, rng):
        for d in (2, 3, 5):
            s = random_density(rng, d)
            assert 1 / d - 1e-9 <= np.trace(s.matrix @ s.matrix).real <= 1 + 1e-9

    def test_trace_violation_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityState(np.diag([0.5, 0.6]))

    def test_tiny_negative_mass_repaired(self):
        s = DensityState(np.diag([1.0 + 5e-10, -5e-10]))
        assert np.linalg.eigvalsh(s.matrix).min() >= 0.0
        assert abs(np.trace(s.matrix) - 1.0) < 1e-14

    def test_large_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DensityState(np.diag([1.0 + 1e-5, -1e-5]))

    def test_overflowing_hermitian_part_is_rejected(self):
        # finite entries of unit trace whose Hermitian part overflows: eigh
        # returns a NaN spectrum, which no negative-mass test would catch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite spectrum"):
                DensityState(np.diag([1.5e308, -1.5e308, 1.0]))

    def test_from_vector_normalizes(self):
        s = DensityState.from_vector([2.0, 0.0])
        assert np.allclose(s.matrix, np.diag([1.0, 0.0]))

    def test_matrix_is_read_only(self, rng):
        s = random_density(rng, 3)
        with pytest.raises(ValueError, match="read-only"):
            s.matrix[0, 0] = 1.0

    def test_constructor_array_stays_writable(self):
        m = np.diag([0.25, 0.75]).astype(complex)
        s = DensityState(m)
        assert m.flags.writeable and not s.matrix.flags.writeable
        m[0, 1] = 0.0

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_validating_a_stored_matrix_again_keeps_its_bits(self, rng, d):
        # pure states carry rounding-level negative eigenvalues; a loader that
        # rebuilds a state from its matrix must get the same matrix back
        states = [DensityState.from_vector(random_pure_vector(rng, d)) for _ in range(20)]
        states.append(repaired_state(rng, d))
        negative = 0
        for s in states:
            negative += np.linalg.eigvalsh(s.matrix).min() < 0.0
            assert DensityState(s.matrix.copy()).matrix.tobytes() == s.matrix.tobytes()
        assert negative  # the rounding case is covered

    def test_from_vector_keeps_the_bits_of_an_ordinary_vector(self, rng):
        for d in (2, 3, 7):
            v = random_pure_vector(rng, d) * 3.0
            u = v / float(np.linalg.norm(v))
            assert DensityState.from_vector(v).matrix.tobytes() == np.outer(u, u.conj()).tobytes()

    def test_from_vector_rescales_an_underflowing_norm(self):
        s = DensityState.from_vector([1e-200, 0.0])
        assert np.array_equal(s.matrix, np.diag([1.0, 0.0]))

    def test_from_vector_rescales_an_overflowing_norm(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = DensityState.from_vector([1e200, 1e200])
        assert np.allclose(s.matrix, np.full((2, 2), 0.5), atol=1e-15, rtol=0.0)

    @pytest.mark.parametrize("psi", [[np.nan, 1.0], [1.0, np.inf], [1e-300, -np.inf]])
    def test_from_vector_rejects_non_finite_entries_before_dividing(self, psi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(NON_FINITE)):
                DensityState.from_vector(psi)

    @pytest.mark.parametrize("psi", [[0.0, 0.0], []])
    def test_from_vector_rejects_the_zero_vector(self, psi):
        with pytest.raises(ValueError, match="zero vector"):
            DensityState.from_vector(psi)

    def test_known_spectrum_beyond_the_clip_falls_back_to_eigh(self):
        m = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        s = DensityState._with_spectrum(m, [1.0 + 5e-10, -5e-10])
        assert s.matrix.tobytes() == DensityState(m).matrix.tobytes()
        assert not np.array_equal(s.matrix, m)  # re-projected, as eigh does
        with pytest.raises(ValueError, match="negative eigenvalue mass"):
            DensityState._with_spectrum(np.diag([1.0 + 1e-5, -1e-5]), [1.0 + 1e-5, -1e-5])

    @pytest.mark.parametrize(
        "matrix,message",
        [
            (np.diag([0.5, 0.6]), "trace"),
            (np.array([[0.5, 1e-6], [0.0, 0.5]]), "not Hermitian"),
            (np.ones((2, 3)) / 2, "not square"),
            (np.diag([np.nan, 1.0]), "non-finite"),
        ],
    )
    def test_known_spectrum_runs_the_constructor_checks(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            DensityState(matrix)
        with pytest.raises(ValueError, match=message):
            DensityState._with_spectrum(matrix, np.ones(1))

    @pytest.mark.parametrize("build", ["sampled", "from_vector", "maximally_mixed", "repaired"])
    def test_kept_spectrum_is_the_matrix_spectrum(self, rng, build):
        # covariant_program_state multiplies the spectra its factors keep
        s = {
            "sampled": lambda: random_density(rng, 4),
            "from_vector": lambda: DensityState.from_vector(random_pure_vector(rng, 4)),
            "maximally_mixed": lambda: DensityState.maximally_mixed(4),
            "repaired": lambda: repaired_state(rng, 4),
        }[build]()
        want = np.linalg.eigvalsh(s.matrix)
        assert np.allclose(np.sort(s._spectrum), want, atol=1e-14, rtol=0.0)

    def test_built_states_skip_eigh(self, rng, monkeypatch):
        eta, seed = random_density(rng, 3), random_density(rng, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("a state of known spectrum ran eigh")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        DensityState.from_vector(random_pure_vector(rng, 5))
        DensityState.maximally_mixed(5)
        covariant_program_state(eta, seed)

    @pytest.mark.parametrize("build", ["transpose", "from_vector", "maximally_mixed", "repaired"])
    def test_derived_states_are_valid(self, rng, build):
        if build == "transpose":
            # a read-only transposed view, the seed^T of the transpose convention
            s = DensityState(random_density(rng, 3).matrix.T)
        elif build == "from_vector":
            s = DensityState.from_vector(random_pure_vector(rng, 3))
        elif build == "maximally_mixed":
            s = DensityState.maximally_mixed(3)
        else:
            s = repaired_state(rng, 3)
        m = s.matrix
        assert not m.flags.writeable
        assert np.max(np.abs(m - m.conj().T)) <= 1e-15
        assert abs(np.trace(m).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(m).min() >= -1e-12


class TestObservable:
    def test_povm_invariants(self, rng):
        e = random_povm(rng, 3, 4)
        total = sum(e.effects)
        assert np.max(np.abs(total - np.eye(3))) < 1e-9
        for eff in e.effects:
            assert np.linalg.eigvalsh(eff).min() > -1e-9

    def test_completeness_violation_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            Observable([I2 / 2, I2 / 3])

    @pytest.mark.parametrize(
        "order,message",
        [
            (("skew", "negative"), "not Hermitian"),
            (("negative", "skew"), "eigenvalue"),
            (("skew", "qutrit"), "not Hermitian"),
            (("half", "qutrit", "skew"), "square"),
        ],
    )
    def test_first_failing_effect_decides_the_error(self, order, message):
        effects = {
            "half": I2 / 2,
            "skew": np.array([[0.5, 1e-6], [0.0, 0.5]]),
            "negative": np.diag([1.01, -0.01]),
            "qutrit": np.eye(3) / 2,
        }
        with pytest.raises(ValueError, match=message):
            Observable([effects[name] for name in order])

    @pytest.mark.parametrize(
        "effects", [[np.zeros((0, 0))], np.zeros((2, 0, 0)), [np.zeros((0, 0)), I2]]
    )
    def test_dimension_zero_rejected(self, effects):
        with pytest.raises(ValueError, match="^effects must be square matrices of dimension at least 1$"):
            Observable(effects)

    def test_default_labels(self):
        e = trivial_observable(2, 3)
        assert e.outcomes == ["0", "1", "2"]


NAN_DIAGONAL = np.array([[np.nan, 0], [0, 0.5]])
NAN_PAIR = np.array([[0.5, np.nan], [np.nan, 0.5]])


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Observable([NAN_DIAGONAL, I2 / 2]),
            lambda: Observable([NAN_PAIR, I2 / 2]),
            lambda: Observable(np.array([I2 / 2, NAN_PAIR])),
            lambda: Observable(np.array([I2 / 2, np.diag([0.5, np.inf])])),
            lambda: DensityState([[np.nan, 0], [0, 1]]),
            lambda: QuantumChannel([[[np.nan, 0], [0, 1]]]),
            # one unitary-shaped Kraus operator, the form of a unitary channel
            lambda: QuantumChannel([[[np.inf, 0], [0, 1]]]),
            # before the shape and Hermiticity checks of earlier effects
            lambda: Observable([np.array([[0.5, 1e-6], [0, 0.5]]), np.eye(3) / 2, NAN_DIAGONAL]),
        ],
        ids=["nan-diagonal", "nan-pair", "stack-nan-pair", "stack-inf", "state", "channel",
             "unitary", "first-check"],
    )
    def test_rejected_by_name(self, build):
        with pytest.raises(ValueError, match="non-finite entry"):
            build()

    def test_overflowing_defect_of_finite_entries_is_not_called_non_finite(self):
        skew = np.array([[0.5, 1.5e308], [-1.5e308, 0.5]])
        with pytest.raises(ValueError, match="not Hermitian: defect inf"):
            Observable(np.array([skew, I2 / 2]))


def _verdict(build):
    """"ok", or the type and message of the error ``build()`` raises."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            build()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return "ok"


def _pair_with_low_eigenvalue(rng, d, low):
    """An exactly Hermitian effect with smallest eigenvalue ``low`` and its
    complement to the identity."""
    v = random_unitary(rng, d)
    w = np.concatenate([[low], rng.uniform(0.2, 0.8, d - 1)])
    e = hermitianize((v * w) @ v.conj().T)
    return [e, np.eye(d) - e]


def _faulty(e, fault):
    """Effect ``e`` with one fault injected."""
    d = e.shape[0]
    e = e.copy()
    if fault == "skew":
        e[0, -1] += 1e-6
    elif fault == "faint skew":  # below TOL_HERM: accepted, but not exactly Hermitian
        e[0, -1] += 4e-11
    elif fault == "negative":
        e = e - (np.linalg.eigvalsh(e)[0] + 1e-3) * np.eye(d)
    elif fault == "larger":
        e = np.eye(d + 1) / 2
    elif fault == "wide":
        e = np.ones((d, d + 1)) / 2
    elif fault == "vector":
        e = np.ones(d) / d
    elif fault == "nan diagonal":
        e[0, 0] = np.nan
    elif fault == "nan pair":
        e[0, 1] = e[1, 0] = np.nan
    elif fault == "nan one side":
        e[0, 1] = np.nan
    elif fault == "inf":
        e[-1, -1] = np.inf
    elif fault == "scaled":
        e = 1.5 * e
    return e


FAULTS = (
    "skew", "faint skew", "negative", "larger", "wide", "vector",
    "nan diagonal", "nan pair", "nan one side", "inf", "scaled",
)


def _validation_battery(rng):
    """Effect lists and stacks, valid and faulty, for the reference comparison."""
    cases = [[], np.zeros((0, 2, 2)), np.ones((3, 2, 3)) / 2, np.ones((2, 2)) / 2,
             np.ones((2, 1, 2, 2)) / 2]
    for d in (2, 3, 5):
        for n in (1, 2, 4):
            cases.append(list(random_povm(rng, d, n).effects))
    for low in (-TOL_PSD * (1 - 1e-3), -TOL_PSD * (1 + 1e-3)):
        for d in (2, 4, 7):
            pair = _pair_with_low_eigenvalue(rng, d, low)
            cases += [pair, pair[::-1]]
    # finite effects whose Hermitian part (E + E^dagger)/2 would overflow
    big = 1.5e308
    cases += [
        [np.diag([big, 0.0]), np.diag([-big, 0.0]), np.eye(2)],
        [np.eye(2), np.diag([big, 0.0]), np.diag([-big, 0.0])],
        [np.array([[0.5, big], [big, 0.5]]), np.array([[0.5, -big], [-big, 0.5]])],
        [np.array([[0.5, big], [-big, 0.5]]), np.diag([0.5, -big])],
    ]
    for _ in range(240):
        d, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        effects = list(random_povm(rng, d, n).effects)
        for k in rng.choice(n, size=min(n, int(rng.integers(1, 3))), replace=False):
            effects[k] = _faulty(effects[k], FAULTS[int(rng.integers(len(FAULTS)))])
        cases.append(effects)
    # every case whose effects share one shape also goes in as one array
    for effects in list(cases):
        if isinstance(effects, list) and effects and len({e.shape for e in effects}) == 1:
            cases.append(np.array(effects))
    return cases


class TestValidationMatchesEigvalshReference:
    def test_battery_accepts_and_rejects_as_the_reference(self, rng):
        cases = _validation_battery(rng)
        verdicts = []
        for effects in cases:
            want = _verdict(lambda: eigvalsh_observable_check(effects))
            assert _verdict(lambda: Observable(effects)) == want
            verdicts.append(want if want == "ok" else want[1].split(":")[0].split(" ")[0])
        # the battery reaches every verdict: accept and each of the errors
        assert {
            "ok", "effect", "matrix", "effects", "observable", "expected", "non-finite"
        } <= set(verdicts)

    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
    @pytest.mark.parametrize("d", [2, 4, 7])
    def test_eigenvalue_at_the_tolerance_edge(self, rng, d, factor):
        pair = _pair_with_low_eigenvalue(rng, d, -TOL_PSD * factor)
        for effects in (pair, pair[::-1], np.array(pair)):
            want = _verdict(lambda: eigvalsh_observable_check(effects))
            assert want == "ok" if factor < 1 else want[1].startswith("effect has eigenvalue")
            assert _verdict(lambda: Observable(effects)) == want

    @pytest.mark.parametrize(
        "order", [("skew", "negative"), ("negative", "skew"), ("skew", "qutrit"),
                  ("half", "qutrit", "skew")]
    )
    def test_first_failing_effect_orders(self, order):
        effects = {
            "half": I2 / 2,
            "skew": np.array([[0.5, 1e-6], [0.0, 0.5]]),
            "negative": np.diag([1.01, -0.01]),
            "qutrit": np.eye(3) / 2,
        }
        chosen = [effects[name] for name in order]
        want = _verdict(lambda: eigvalsh_observable_check(chosen))
        assert want != "ok"
        assert _verdict(lambda: Observable(chosen)) == want

    def test_block_boundaries_leave_every_verdict_unchanged(self, rng, monkeypatch):
        # 8 entries: two qubit effects per block, one effect per block from d = 3
        monkeypatch.setattr(quantum, "EFFECT_BLOCK_ELEMENTS", 8)
        for effects in _validation_battery(rng):
            want = _verdict(lambda: eigvalsh_observable_check(effects))
            assert _verdict(lambda: Observable(effects)) == want

    @pytest.mark.parametrize("d,per_block", [(2, 4096), (7, 334), (128, 1), (200, 1)])
    def test_blocks_hold_a_bounded_number_of_entries(self, d, per_block):
        assert quantum._effect_block(d) == per_block

    @pytest.mark.parametrize("elements", [8, 50, 2**14])
    def test_every_eigvalsh_call_sees_at_most_one_block(self, rng, monkeypatch, elements):
        monkeypatch.setattr(quantum, "EFFECT_BLOCK_ELEMENTS", elements)
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            seen.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        cases = _validation_battery(rng)
        cases += [np.array(random_povm(rng, d, n).effects) for d, n in ((2, 40), (3, 30), (7, 9))]
        for effects in cases:
            want = _verdict(lambda: eigvalsh_observable_check(effects))
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigvalsh", spy)
                assert _verdict(lambda: Observable(effects)) == want
        assert seen
        for shape in seen:
            assert shape[0] <= quantum._effect_block(shape[-1])


class TestEffectStack:
    def test_effects_are_one_read_only_stack(self, rng):
        e = random_povm(rng, 3, 4)
        assert e.effects.shape == (4, 3, 3) and e.effects.dtype == complex
        with pytest.raises(ValueError, match="read-only"):
            e.effects[0, 0, 0] = 1.0

    def test_list_and_array_inputs_give_equal_stacks(self, rng):
        effects = list(random_povm(rng, 3, 4).effects)
        from_list = Observable(effects).effects
        from_array = Observable(np.array(effects)).effects
        assert np.array_equal(from_list, from_array)

    def test_array_input_is_kept_without_a_copy(self, rng):
        stack = np.array(random_povm(rng, 3, 4).effects)
        e = Observable(stack)
        assert np.shares_memory(e.effects, stack)
        assert stack.flags.writeable

    def test_conjugated_equals_effectwise_products(self, rng):
        e = random_povm(rng, 3, 5)
        u = random_unitary(rng, 3)
        expected = np.array([u.conj().T @ eff @ u for eff in e.effects])
        assert np.array_equal(e.conjugated(u).effects, expected)

    @pytest.mark.parametrize("kind", ["kraus", "permutation"])
    def test_dual_apply_equals_effectwise_duals(self, rng, kind):
        ch = (random_channel(rng, 4, 3) if kind == "kraus"
              else QuantumChannel([np.eye(4)[rng.permutation(4)]]))
        e = random_povm(rng, 4, 3)
        expected = np.array([hermitianize(ch.dual_matrix(eff)) for eff in e.effects])
        assert np.array_equal(dual_apply(ch, e).effects, expected)

    def test_outcome_distribution_equals_effectwise_traces(self, rng):
        e = random_povm(rng, 5, 6)
        rho = random_density(rng, 5)
        p = np.array([float(np.trace(eff @ rho.matrix).real) for eff in e.effects])
        assert np.array_equal(outcome_distribution(e, rho), np.clip(p, 0.0, None))

    def test_allclose_compares_whole_stacks(self):
        e = Observable([(I2 + PAULI_X) / 2, (I2 - PAULI_X) / 2])
        assert e.allclose(Observable(e.effects + 1e-12))
        assert not e.allclose(Observable([(I2 + PAULI_Z) / 2, (I2 - PAULI_Z) / 2]))
        assert not e.allclose(trivial_observable(2, 3))

    def test_program_memory_at_d13_is_bounded(self):
        # the closed form holds a few (169, 13, 13) stacks of 0.46 MB each and
        # peaks near 1.4 MiB; the pointer it never builds is 169 x 169 x 169 (77 MB)
        rep = weyl_heisenberg(13)
        mm = covariant_multimeter(rep)
        ((_, probe, _, _),) = eigenvector_program(
            rep, [wh_element_index(13, 1, 0)], [np.exp(2j * np.pi / 13)]
        )
        tracemalloc.start()
        try:
            e = program(mm, probe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e.n_outcomes == 169
        assert peak < 4 * 2**20


class TestOutcomeDistribution:
    def test_eigenstate_is_deterministic(self):
        pvm = Observable([(I2 + PAULI_Z) / 2, (I2 - PAULI_Z) / 2])
        p = outcome_distribution(pvm, DensityState(np.diag([1.0, 0.0])))
        assert np.allclose(p, [1.0, 0.0])

    def test_trivial_observable_uniform(self, rng):
        e = trivial_observable(3, 4)
        p = outcome_distribution(e, random_density(rng, 3))
        assert np.allclose(p, 0.25)

    def test_unbiased_basis(self):
        e = Observable([(I2 + PAULI_X) / 2, (I2 - PAULI_X) / 2])
        p = outcome_distribution(e, DensityState(np.diag([1.0, 0.0])))
        assert np.allclose(p, [0.5, 0.5])

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            outcome_distribution(trivial_observable(3), random_density(rng, 2))


class TestFidelity:
    def test_self_fidelity_is_one(self, rng):
        s = random_density(rng, 4)
        assert abs(fidelity(s, s) - 1.0) < 1e-12

    def test_orthogonal_pure_states(self):
        a = DensityState(np.diag([1.0, 0.0]))
        b = DensityState(np.diag([0.0, 1.0]))
        assert fidelity(a, b) < 1e-12

    def test_quaternion_programming_overlap(self):
        # the +x and +z projections overlap at 1/sqrt(2)
        px = DensityState((I2 + PAULI_X) / 2)
        pz = DensityState((I2 + PAULI_Z) / 2)
        assert abs(fidelity(px, pz) - 1 / np.sqrt(2)) < 1e-12

    def test_reduces_to_overlap_for_pure_states(self, rng):
        for _ in range(20):
            v1 = random_pure_vector(rng, 3)
            v2 = random_pure_vector(rng, 3)
            f = fidelity(DensityState.from_vector(v1), DensityState.from_vector(v2))
            assert abs(f - pure_fidelity(v1, v2)) < 1e-10

    def test_symmetric(self, rng):
        a, b = random_density(rng, 3), random_density(rng, 3)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-10

    def test_monotone_under_channels(self, rng):
        for _ in range(25):
            a, b = random_density(rng, 3), random_density(rng, 3)
            ch = random_channel(rng, 3, n_kraus=2)
            assert fidelity(a, b) <= fidelity(channel_output(ch, a), channel_output(ch, b)) + 1e-9

    @pytest.mark.parametrize("d", [2, 3, 49])
    def test_cached_roots_equal_the_direct_formula_bit_for_bit(self, rng, d):
        rank = max(1, d // 2)
        v = np.array([random_pure_vector(rng, d) for _ in range(rank)]).T
        states = [
            DensityState.from_vector(random_pure_vector(rng, d)),
            random_density(rng, d),
            DensityState((v * rng.dirichlet(np.ones(rank))) @ v.conj().T),
            repaired_state(rng, d),
        ]
        for a in states:
            for b in states:
                prod = quantum._state_root(a.matrix) @ quantum._state_root(b.matrix)
                direct = min(max(float(np.linalg.svd(prod, compute_uv=False).sum()), 0.0), 1.0)
                assert fidelity(a, b) == direct
                assert fidelity(a, b) == direct
        assert all(not s.root.flags.writeable for s in states)

    @pytest.mark.parametrize("d", [2, 4, 7])
    def test_root_squares_to_the_state(self, rng, d):
        for _ in range(10):
            s = random_density(rng, d)
            r = s.root
            assert np.max(np.abs(r @ r - s.matrix)) < 1e-10
            assert np.max(np.abs(r - r.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(r).min() > -1e-12

    def test_root_clips_noise_eigenvalues(self):
        # eigenvalues below 1e-12 of the largest set the numerical rank: their
        # square roots (1e-7 and a complex value here) would enter fidelity
        for noise in (1e-14, -1e-14):
            s = DensityState(np.diag([1.0 - noise, noise]))
            assert np.array_equal(s.root, np.diag([np.sqrt(1.0 - noise), 0.0]))

    def test_each_state_takes_one_eigendecomposition(self, rng, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m)
            return original(m)

        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", counted)
        # validation runs eigh, and the root is built from its eigenvectors
        a, b, c = (random_density(rng, 3) for _ in range(3))
        for x, y in ((a, b), (b, a), (a, c), (a, a), (c, b), (a, b)):
            fidelity(x, y)
        assert len(calls) == 3
        # a re-projected matrix is not the one validation decomposed, and a
        # state of known spectrum ran no eigh: each takes one at its first root
        repaired = repaired_state(rng, 3)
        pure = DensityState.from_vector(random_pure_vector(rng, 3))
        calls.clear()
        for x, y in ((repaired, pure), (pure, repaired), (repaired, a), (pure, pure)):
            fidelity(x, y)
        assert len(calls) == 2
        assert all(s._vectors is None for s in (a, b, c, repaired, pure))


class TestChannels:
    def test_identity_channel(self, rng):
        ch = QuantumChannel([np.eye(3)])
        e = random_povm(rng, 3, 2)
        d = dual_apply(ch, e)
        assert all(np.allclose(a, b) for a, b in zip(d.effects, e.effects))

    def test_unitary_channel(self, rng):
        u = random_unitary(rng, 2)
        ch = QuantumChannel([u])
        e = random_povm(rng, 2, 3)
        d = dual_apply(ch, e)
        for a, b in zip(d.effects, e.effects):
            assert np.allclose(a, u.conj().T @ b @ u, atol=1e-12)

    def test_duality_identity(self, rng):
        # tr[E(x) C(rho)] == tr[C*(E(x)) rho] across random channel/state/effect
        for _ in range(100):
            ch = random_channel(rng, 2, n_kraus=2)
            e = random_povm(rng, 2, 3)
            rho = random_density(rng, 2)
            lhs = outcome_distribution(e, channel_output(ch, rho))
            rhs = outcome_distribution(dual_apply(ch, e), rho)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_dual_is_unital(self, rng):
        ch = random_channel(rng, 3, n_kraus=3)
        assert np.allclose(ch.dual_matrix(np.eye(3)), np.eye(3), atol=1e-10)

    def test_non_trace_preserving_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            QuantumChannel([np.diag([1.0, 0.5])])


class TestPermutationChannel:
    """The partial SWAP is the channel of the dense 0/1 matrix K = eye(n)[perm];
    the covariant device's pulled-back pointer is an index transpose of it."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_partial_swap_kraus_is_the_permutation_matrix(self, d):
        n = d**3
        perm = np.empty(n, dtype=int)
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    perm[a * d * d + b * d + c] = b * d * d + a * d + c
        ch = partial_swap_channel(d)
        assert (ch.in_dim, ch.out_dim) == (n, n)
        assert len(ch.kraus) == 1
        assert np.array_equal(ch.kraus[0], np.eye(n)[perm])

    @pytest.mark.parametrize("perm", [[0, 0, 2], [1, 1, 1], [2, 0, 0]])
    def test_non_bijection_rejected(self, perm):
        with pytest.raises(ValueError, match="not trace preserving"):
            QuantumChannel([np.eye(3)[perm]])

    def test_random_permutation_matches_index_gather(self, rng):
        # K = eye(n)[perm]: K† B K = B[inv][:, inv]
        perm = rng.permutation(6)
        inv = np.argsort(perm)
        ch = QuantumChannel([np.eye(6)[perm]])
        e = random_povm(rng, 6, 3)
        for dual, eff in zip(dual_apply(ch, e).effects, e.effects, strict=True):
            np.testing.assert_array_equal(dual, eff[np.ix_(inv, inv)])

    @pytest.mark.parametrize("d", [2, 3])
    def test_gathers_equal_dense_products_exactly(self, d):
        mm = covariant_multimeter(weyl_heisenberg(d))
        k = partial_swap_channel(d).kraus[0]
        eye = np.eye(d)
        duals = mm.dual_pointer_effects()
        assert len(duals) == d * d
        for dual, z in zip(duals, mm.pointer.effects, strict=True):
            np.testing.assert_array_equal(dual, k.conj().T @ tensor(eye, z) @ k)


class TestMeasurementModels:
    def test_trivial_pointer_induces_identity(self, rng):
        mm = Multimeter(
            probe_dim=3,
            pointer=trivial_observable(3, 1),
            interaction=QuantumChannel([random_unitary(rng, 6)]),
        )
        e = program(mm, random_density(rng, 3))
        assert e.n_outcomes == 1
        assert np.allclose(e.effects[0], np.eye(2), atol=1e-10)

    def test_identity_interaction_gives_coin(self, rng):
        pointer = random_povm(rng, 3, 2)
        mm = Multimeter(probe_dim=3, pointer=pointer, interaction=QuantumChannel([np.eye(6)]))
        xi = random_density(rng, 3)
        e = program(mm, xi)
        for eff, z in zip(e.effects, pointer.effects):
            weight = np.trace(z @ xi.matrix).real
            assert np.allclose(eff, weight * np.eye(2), atol=1e-10)

    def test_schroedinger_picture_agreement(self, rng):
        # probabilities from the induced observable match evolving the state
        mm = random_multimeter(rng, system_dim=2, probe_dim=3)
        xi = random_density(rng, 3)
        e = program(mm, xi)
        # spanning family of pure states for a qubit
        basis = [np.array([1, 0]), np.array([0, 1])]
        span = basis + [
            (basis[0] + basis[1]) / np.sqrt(2),
            (basis[0] + 1j * basis[1]) / np.sqrt(2),
        ]
        w = mm.interaction.kraus[0]
        for v in span:
            rho = np.outer(v, v.conj())
            evolved = w @ tensor(rho, xi.matrix) @ w.conj().T
            for eff, z in zip(e.effects, mm.pointer.effects):
                lhs = np.trace(eff @ rho).real
                rhs = np.trace(tensor(np.eye(2), z) @ evolved).real
                assert abs(lhs - rhs) < 1e-10

    def test_program_is_affine(self, rng):
        mm = random_multimeter(rng, system_dim=2, probe_dim=3)
        xi1 = random_density(rng, 3)
        xi2 = random_density(rng, 3)
        p = 0.3
        mix = DensityState(p * xi1.matrix + (1 - p) * xi2.matrix)
        e_mix = program(mm, mix)
        e1 = program(mm, xi1)
        e2 = program(mm, xi2)
        for em, a, b in zip(e_mix.effects, e1.effects, e2.effects):
            assert np.max(np.abs(em - (p * a + (1 - p) * b))) < 1e-9

    def test_probe_dim_mismatch_rejected(self, rng):
        mm = random_multimeter(rng, system_dim=2, probe_dim=3)
        with pytest.raises(ValueError, match="probe state dim 4 != probe dim 3"):
            program(mm, random_density(rng, 4))

    def test_pointer_probe_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            Multimeter(
                probe_dim=3,
                pointer=trivial_observable(2, 1),
                interaction=QuantumChannel([np.eye(6)]),
            )


class TestProgramContraction:
    """``program`` contracts the probe state through the Kraus operators, or
    takes the closed form for a covariant device; the oracles pull every
    pointer effect back as a Heisenberg dual of the interaction."""

    @staticmethod
    def _assert_matches_oracle(mm, xi, oracle=heisenberg_program):
        programmed = program(mm, xi)
        expected = oracle(mm, xi)
        assert programmed.outcomes == expected.outcomes
        for a, b in zip(programmed.effects, expected.effects, strict=True):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_matches_oracle_on_random_multi_kraus_devices(self, rng):
        for trial in range(24):
            system_dim = int(rng.integers(1, 4))
            probe_dim = int(rng.integers(2, 5))
            mm = Multimeter(
                probe_dim=probe_dim,
                pointer=random_povm(rng, probe_dim, int(rng.integers(1, 5))),
                interaction=random_channel(rng, system_dim * probe_dim, n_kraus=1 + trial % 3),
            )
            self._assert_matches_oracle(mm, random_density(rng, probe_dim))

    @pytest.mark.parametrize("device", ["q8", 3, 5, 7, 11])
    def test_matches_oracle_on_covariant_devices(self, device, rng):
        rep = q8_representation() if device == "q8" else weyl_heisenberg(device)
        mm = covariant_multimeter(rep)
        d = rep.degree
        # the dense oracle makes two (d^3)^2 products per outcome: minutes at d=11
        oracle = gathered_heisenberg_program if device == 11 else heisenberg_program
        # a random mixed probe state, which is no product eta x seed^T, and one that is
        product = covariant_program_state(random_density(rng, d), random_density(rng, d))
        for xi in (random_density(rng, mm.probe_dim), product):
            self._assert_matches_oracle(mm, xi, oracle)

    @pytest.mark.parametrize("device", ["q8", 2, 3, 5])
    def test_kraus_contraction_of_the_swap_matches_the_closed_form(self, device, rng):
        # one device, both programming paths: a plain Multimeter with the
        # covariant pointer and the partial swap runs the Kraus einsum
        rep = q8_representation() if device == "q8" else weyl_heisenberg(device)
        mm = covariant_multimeter(rep)
        d = rep.degree
        plain = Multimeter(probe_dim=d * d, pointer=mm.pointer, interaction=partial_swap_channel(d))
        product = covariant_program_state(random_density(rng, d), random_density(rng, d))
        for xi in (random_density(rng, mm.probe_dim), product):
            kraus, closed = program(plain, xi), program(mm, xi)
            assert kraus.outcomes == closed.outcomes
            assert np.max(np.abs(kraus.effects - closed.effects)) < 1e-12

    def test_matches_oracle_on_random_permutation_devices(self, rng):
        for system_dim in (1, 2, 3):
            for probe_dim in (2, 3, 4, 5):
                n = system_dim * probe_dim
                mm = Multimeter(
                    probe_dim=probe_dim,
                    pointer=random_povm(rng, probe_dim, int(rng.integers(1, 5))),
                    interaction=QuantumChannel([np.eye(n)[rng.permutation(n)]]),
                )
                self._assert_matches_oracle(mm, random_density(rng, probe_dim))

    @pytest.mark.parametrize(
        "rows",
        [
            # (m_s(p), l_s(p)) for p = 0..3, one row per system index s
            [[(0, 0), (0, 1), (1, 0), (1, 1)],
             [(0, 2), (0, 3), (1, 2), (1, 3)],
             [(2, 0), (2, 1), (2, 2), (2, 3)]],
            [[(2, 3), (0, 1), (2, 0), (0, 2)],
             [(1, 0), (1, 1), (1, 2), (1, 3)],
             [(2, 1), (0, 3), (2, 2), (0, 0)]],
            [[(0, 0), (1, 0), (2, 0), (0, 1)],
             [(1, 1), (2, 1), (0, 2), (1, 2)],
             [(2, 2), (0, 3), (1, 3), (2, 3)]],
        ],
    )
    def test_matches_oracle_when_some_rows_share_a_selection(self, rows, rng):
        d_sys, d_probe = 3, 4
        perm = np.array([m * d_probe + l for row in rows for m, l in row])
        mm = Multimeter(
            probe_dim=d_probe,
            pointer=random_povm(rng, d_probe, 3),
            interaction=QuantumChannel([np.eye(d_sys * d_probe)[perm]]),
        )
        self._assert_matches_oracle(mm, random_density(rng, d_probe))

    def test_builds_no_heisenberg_dual(self, rng, monkeypatch):
        mm = covariant_multimeter(weyl_heisenberg(5))

        def refuse(self, b):
            raise AssertionError("programming built a dense Heisenberg dual")

        monkeypatch.setattr(QuantumChannel, "dual_matrix", refuse)
        assert program(mm, random_density(rng, mm.probe_dim)).n_outcomes == 25

    def test_builds_no_interaction(self, rng, monkeypatch):
        def refuse(d):
            raise AssertionError("programming built the interaction")

        monkeypatch.setattr(oracles, "partial_swap_channel", refuse)
        mm = covariant_multimeter(weyl_heisenberg(5))
        assert program(mm, random_density(rng, mm.probe_dim)).n_outcomes == 25
        assert mm.system_dim == 5
        assert phase_space_demo(5)["vector_count"] == 6
        with pytest.raises(AssertionError, match="interaction"):
            heisenberg_program(mm, random_density(rng, mm.probe_dim))

    def test_repr_builds_no_pointer(self, monkeypatch):
        def refuse(rep):
            raise AssertionError("the repr built the pointer")

        monkeypatch.setattr(groups, "covariant_pointer", refuse)
        mm = covariant_multimeter(weyl_heisenberg(5))
        assert repr(mm) == "CovariantMultimeter(degree=5, outcomes=25)"

    def test_builds_no_covariant_pointer(self, rng, monkeypatch):
        def refuse(rep):
            raise AssertionError("programming built the pointer")

        monkeypatch.setattr(groups, "covariant_pointer", refuse)
        mm = covariant_multimeter(weyl_heisenberg(5))
        assert program(mm, random_density(rng, mm.probe_dim)).n_outcomes == 25
        assert mm.n_outcomes == 25
        assert phase_space_demo(5)["vector_count"] == 6
        with pytest.raises(AssertionError, match="pointer"):
            mm.pointer

    def test_pointer_is_built_once(self):
        mm = covariant_multimeter(weyl_heisenberg(3))
        assert mm.pointer is mm.pointer
