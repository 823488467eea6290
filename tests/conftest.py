import numpy as np
import pytest

from sled_oam import AnnulusGeometry, KQuadrature, gaas_nb_junction


@pytest.fixture(scope="session")
def junction():
    return gaas_nb_junction()


@pytest.fixture(scope="session")
def geometry():
    return AnnulusGeometry.default()


@pytest.fixture(scope="session")
def fast_quad():
    """Coarse momentum grid for tests that probe structure, not precision.

    512 is the smallest power of two whose quadrature error estimate passes
    on the default junction at every detuning up to 8 gap units and every
    reduced temperature in [0.01, 0.99].
    """
    return KQuadrature(nodes=512)


@pytest.fixture()
def rng():
    return np.random.default_rng(20250810)
