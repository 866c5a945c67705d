import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmultimeter.linalg import require_hermitian, tensor

from oracles import kron_oracle


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        out = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_matches_index_enumeration(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.allclose(tensor(a, b), kron_oracle(a, b), atol=1e-14, rtol=0)

    @pytest.mark.parametrize("shapes", [((2, 3), (4, 1)), ((1, 5), (3, 2)), ((7, 7), (7, 7))])
    def test_rectangular_equals_kron_bit_for_bit(self, rng, shapes):
        a, b = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes)
        out = tensor(a, b)
        assert out.shape == np.kron(a, b).shape
        assert out.tobytes() == np.kron(a, b).tobytes()

    @given(
        arrays(np.int64, (2, 2), elements=st.integers(-4, 4)),
        arrays(np.int64, (2, 3), elements=st.integers(-4, 4)),
        arrays(np.int64, (3, 2), elements=st.integers(-4, 4)),
    )
    def test_associative_exactly_on_integers(self, a, b, c):
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.array_equal(left, right)


class TestRequireHermitian:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
