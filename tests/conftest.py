import numpy as np
import pytest

from tbrevival import ChainSpec, GaussianSpec, build_gwp, revival_clock


@pytest.fixture(scope="session")
def chain500():
    return ChainSpec(n_sites=500, hopping=1.0)


@pytest.fixture(scope="session")
def clock500(chain500):
    return revival_clock(chain500)


@pytest.fixture(scope="session")
def spec50():
    return GaussianSpec.from_half_width(center=50.0, half_width=24.0)


@pytest.fixture(scope="session")
def packet50(chain500, spec50):
    return build_gwp(chain500, spec50)


def random_state(rng, n):
    state = rng.normal(size=n) + 1j * rng.normal(size=n)
    return state / np.linalg.norm(state)


def _clear_memos():
    from tbrevival import chain, propagator, revival

    for memo in (chain._sines, chain._energies, propagator.revival_clock,
                 revival.gauss_coefficients):
        memo.cache_clear()
    chain._last_spectral = (None, None)
    revival._last_packet = (None, None)


@pytest.fixture
def cold_memos():
    """A function that empties every memo of the package; they are emptied again after the test."""
    _clear_memos()
    yield _clear_memos
    _clear_memos()
