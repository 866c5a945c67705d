import numpy as np
import pytest

from qmultimeter import verify
from qmultimeter.groups import q8_representation, weyl_heisenberg


@pytest.fixture(autouse=True)
def cold_verify_caches():
    """Each test starts with no cached draws and no cached programmed pair."""
    verify._sampled_pairs.cache_clear()
    verify._programmed_pair.cache_clear()


@pytest.fixture(scope="session")
def q8():
    return q8_representation()


@pytest.fixture(scope="session")
def wh3():
    return weyl_heisenberg(3)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
