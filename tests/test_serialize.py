import json

import numpy as np
import pytest

from oracles import (
    channel_from_json,
    channel_to_json,
    partial_swap_channel,
    postprocessing_from_json,
    postprocessing_to_json,
    programmed_covariant,
    state_from_json,
)

from qmultimeter.divergence import DivergenceOptions, observable_divergence
from qmultimeter.postprocessing import PostProcessing
from qmultimeter.quantum import DensityState
from qmultimeter.sampling import random_channel, random_density, random_povm
from qmultimeter.serialize import (
    estimate_to_json,
    matrix_from_json,
    matrix_to_json,
    observable_from_json,
    observable_to_json,
    state_to_json,
)


def through_json(doc):
    return json.loads(json.dumps(doc))


class TestRoundTrips:
    def test_matrix_exact(self, rng):
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        back = matrix_from_json(through_json(matrix_to_json(m)))
        assert np.array_equal(back, m)  # bit-exact through float repr

    def test_state(self, rng):
        s = random_density(rng, 3)
        back = state_from_json(through_json(state_to_json(s)))
        assert np.array_equal(back.matrix, s.matrix)

    def test_observable_with_labels(self, q8, rng):
        obs = programmed_covariant(q8, random_density(rng, 2))
        doc = through_json(observable_to_json(obs))
        back = observable_from_json(doc)
        assert back.outcomes == obs.outcomes
        for a, b in zip(back.effects, obs.effects):
            assert np.array_equal(a, b)

    def test_channel(self, rng):
        ch = random_channel(rng, 2, n_kraus=3)
        back = channel_from_json(through_json(channel_to_json(ch)))
        assert len(back.kraus) == 3
        for a, b in zip(back.kraus, ch.kraus):
            assert np.array_equal(a, b)

    def test_permutation_channel(self, rng):
        ch = partial_swap_channel(2)
        back = channel_from_json(through_json(channel_to_json(ch)))
        assert (back.in_dim, back.out_dim) == (8, 8)
        assert len(back.kraus) == 1
        assert np.array_equal(back.kraus[0], ch.kraus[0])
        rho = random_density(rng, 8).matrix
        assert np.array_equal(back.dual_matrix(rho), ch.dual_matrix(rho))

    def test_postprocessing_with_labels(self, rng):
        kern = PostProcessing(rng.dirichlet(np.ones(2), size=3), out_labels=["a", "b"])
        back = postprocessing_from_json(through_json(postprocessing_to_json(kern)))
        assert np.array_equal(back.kernel, kern.kernel)
        assert back.out_labels == ["a", "b"]

    def test_estimate_document(self, rng):
        e1 = random_povm(rng, 2, 2)
        e2 = random_povm(rng, 2, 2)
        est = observable_divergence(e1, e2, DivergenceOptions(seed=0, restarts=2))
        doc = through_json(estimate_to_json(est))
        assert set(doc) == {
            "value", "argmin", "method", "restarts", "converged", "converged_starts", "seed"
        }
        assert doc["converged_starts"] == est.converged_starts
        # each state written is the pure state of its argmin vector, bit for bit
        for state, v in zip(doc["argmin"], est.argmin, strict=True):
            matrix = state_from_json(state).matrix
            assert np.array_equal(matrix, DensityState.from_vector(v).matrix)
            assert np.allclose(matrix, np.outer(v, v.conj()), rtol=0, atol=1e-15)


class TestValidation:
    def test_kernel_loader_checks_stochasticity(self):
        doc = {"n_in": 2, "n_out": 2, "entries": [0.5, 0.4, 0.5, 0.5]}
        with pytest.raises(ValueError):
            postprocessing_from_json(doc)

    def test_kernel_loader_checks_entry_count(self):
        with pytest.raises(ValueError, match="entries"):
            postprocessing_from_json({"n_in": 2, "n_out": 2, "entries": [1.0, 0.0]})

    def test_matrix_entry_count(self):
        with pytest.raises(ValueError, match="entries"):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})

    @pytest.mark.parametrize("rows", [True, 1.0, 1.9, "1"])
    def test_matrix_header_must_be_a_json_integer(self, rows):
        # int() would read each of these as the one row of the matrix
        with pytest.raises(ValueError, match="'rows' must be a JSON integer"):
            matrix_from_json({"rows": rows, "cols": 1, "entries": [[1.0, 0.0]]})

    @pytest.mark.parametrize("entry", [[True, 0.0], [0.5, False], ["0.5", 0.0], [None, 0.0]])
    def test_matrix_entries_must_be_json_numbers(self, entry):
        # complex() would read true and false as 1 and 0
        with pytest.raises(ValueError, match="matrix entries must be JSON numbers"):
            matrix_from_json({"rows": 1, "cols": 2, "entries": [[0.5, 0.0], entry]})

    @pytest.mark.parametrize("change", ["extra key", "repeated label", "missing key"])
    def test_observable_effect_keys_must_be_the_outcome_labels(self, rng, change):
        doc = through_json(observable_to_json(random_povm(rng, 2, 2)))
        a, b = doc["outcomes"]
        if change == "extra key":
            doc["effects"]["spare"] = doc["effects"][a]
        elif change == "repeated label":
            doc["outcomes"] = [a, b, a]
        else:
            del doc["effects"][b]
        with pytest.raises(ValueError, match="outcome labels"):
            observable_from_json(doc)

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("outcomes", "01", "'outcomes' must be a JSON list"),
            ("outcomes", {"0": 0, "1": 1}, "'outcomes' must be a JSON list"),
            ("effects", ["0", "1"], "'effects' must be a JSON object"),
        ],
    )
    def test_observable_containers_must_have_their_json_type(self, rng, key, value, named):
        # each of these iterates as the labels "0" and "1" of a two-outcome file
        doc = through_json(observable_to_json(random_povm(rng, 2, 2)))
        doc[key] = value
        with pytest.raises(ValueError, match=named):
            observable_from_json(doc)

    @pytest.mark.parametrize("dim", [2.0, "2"])
    def test_observable_dim_must_be_a_json_integer(self, rng, dim):
        doc = through_json(observable_to_json(random_povm(rng, 2, 2)))
        doc["dim"] = dim
        with pytest.raises(ValueError, match="'dim' must be a JSON integer"):
            observable_from_json(doc)

    def test_state_dim_consistency(self, rng):
        doc = state_to_json(random_density(rng, 2))
        doc["dim"] = 3
        with pytest.raises(ValueError, match="dim"):
            state_from_json(doc)

    def test_observable_invariants_enforced_on_load(self):
        bad = {
            "dim": 2,
            "outcomes": ["0"],
            "effects": {"0": matrix_to_json(np.eye(2) * 0.5)},
        }
        with pytest.raises(ValueError):
            observable_from_json(bad)
