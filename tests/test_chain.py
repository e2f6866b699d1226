import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from tbrevival import (
    ChainSpec,
    autocorrelation,
    eigen_modes,
    evolve_exact,
    hamiltonian_matrix,
    inner_product,
    mode_energies,
    reflect,
    to_position,
    to_spectral,
    trace,
)

from conftest import random_state


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(n_sites=1)
    with pytest.raises(ValueError):
        ChainSpec(n_sites=10, hopping=0.0)
    with pytest.raises(ValueError):
        ChainSpec(n_sites=10, hopping=-1.0)
    with pytest.raises(ValueError, match="too large"):
        ChainSpec(n_sites=10**400)


def test_eigen_modes_small_chain():
    modes = eigen_modes(ChainSpec(n_sites=3))
    assert [m.index for m in modes] == [1, 2, 3]
    assert modes[1].wavenumber == pytest.approx(np.pi / 2)
    assert modes[1].energy == pytest.approx(0.0, abs=1e-15)
    assert modes[0].energy == pytest.approx(-np.sqrt(2.0), abs=1e-12)
    assert modes[0].parity == 1
    assert modes[1].parity == -1


def test_energies_strictly_increasing():
    e = mode_energies(ChainSpec(n_sites=57, hopping=1.7))
    assert np.all(np.diff(e) > 0)
    assert np.all(np.abs(e) < 2 * 1.7)


def test_transform_two_site_example():
    chain = ChainSpec(n_sites=2)
    coeff = to_spectral(chain, np.array([1.0, 0.0]))
    np.testing.assert_allclose(coeff, [0.7071067811865476, 0.7071067811865476], atol=1e-12)


def test_eigenvector_maps_to_unit_coefficient():
    chain = ChainSpec(n_sites=17)
    for mode in eigen_modes(chain):
        j = np.arange(1, 18)
        vec = np.sqrt(2 / 18) * np.sin(mode.wavenumber * j)
        coeff = to_spectral(chain, vec)
        expected = np.zeros(17)
        expected[mode.index - 1] = 1.0
        np.testing.assert_allclose(coeff, expected, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 17, 500])
def test_transform_unitarity_and_round_trip(n):
    chain = ChainSpec(n_sites=n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        state = random_state(rng, n)
        coeff = to_spectral(chain, state)
        assert abs(np.linalg.norm(coeff) - 1) < 1e-10
        back = to_position(chain, coeff)
        np.testing.assert_allclose(back, state, atol=1e-10)


@pytest.mark.parametrize("n", [2, 257, 3676, 4000])
def test_transform_matches_dst_oracle(n):
    # independent route: orthonormal DST-I is the same kernel; the FFT
    # lengths N+1 are 3, 258, 3677 and 4001 (the last two prime)
    chain = ChainSpec(n_sites=n)
    rng = np.random.default_rng(7)
    state = random_state(rng, n)
    ours = to_spectral(chain, state)
    reference = scipy.fft.dst(state, type=1, norm="ortho")
    np.testing.assert_allclose(ours, reference, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 10))
def test_transform_matches_dense_sine_matrix(n):
    # every basis vector, so every entry of the kernel, for both parities of N+1
    m = n + 1
    j = np.arange(1, m)
    sine = np.sqrt(2 / m) * np.sin(np.pi * np.outer(j, j) / m)
    chain = ChainSpec(n_sites=n)
    columns = np.column_stack([to_spectral(chain, unit) for unit in np.eye(n)])
    np.testing.assert_allclose(columns, sine, rtol=0, atol=1e-14)
    state = random_state(np.random.default_rng(n), n)
    np.testing.assert_allclose(to_spectral(chain, state), sine @ state, rtol=0, atol=1e-14)


def test_transform_matches_dst_oracle_on_a_long_chain():
    n = 100_000
    state = random_state(np.random.default_rng(11), n)
    ours = to_spectral(ChainSpec(n_sites=n), state)
    reference = scipy.fft.dst(state, type=1, norm="ortho")
    np.testing.assert_allclose(ours, reference, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
def test_transform_round_trip_and_norm_property(n, seed):
    chain = ChainSpec(n_sites=n)
    state = random_state(np.random.default_rng(seed), n)
    coeff = to_spectral(chain, state)
    assert abs(np.linalg.norm(coeff) - 1) < 1e-12
    np.testing.assert_allclose(to_position(chain, coeff), state, rtol=0, atol=1e-12)


def test_transform_rejects_wrong_length():
    chain = ChainSpec(n_sites=5)
    with pytest.raises(ValueError):
        to_spectral(chain, np.ones(4))
    with pytest.raises(ValueError):
        to_position(chain, np.ones(6))


@pytest.mark.parametrize("n", [2, 3, 17, 500])
def test_transform_of_a_stack_matches_row_by_row(n):
    chain = ChainSpec(n_sites=n)
    rng = np.random.default_rng(n)
    stack = np.array([random_state(rng, n) for _ in range(5)])
    rows = np.array([to_spectral(chain, state) for state in stack])
    np.testing.assert_allclose(to_spectral(chain, stack), rows, rtol=0, atol=1e-15)
    np.testing.assert_allclose(to_position(chain, rows), stack, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(reflect(chain, stack), stack[:, ::-1])


@pytest.mark.parametrize("shape", [(), (4,), (6,), (3, 4), (3, 6), (5, 3), (2, 3, 5), (1, 1, 5)])
def test_transform_rejects_every_other_shape(shape):
    with pytest.raises(ValueError, match="shape"):
        to_spectral(ChainSpec(n_sites=5), np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_state_is_rejected(bad):
    chain = ChainSpec(n_sites=16)
    state = np.zeros(16, dtype=complex)
    state[3] = 1.0
    state[7] = bad
    with pytest.raises(ValueError, match="non-finite"):
        to_spectral(chain, state)
    with pytest.raises(ValueError, match="non-finite"):
        evolve_exact(chain, state, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        autocorrelation(chain, state, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        trace(chain, state, [0.25, 0.5])


def test_zero_maps_to_zero():
    chain = ChainSpec(n_sites=9)
    np.testing.assert_array_equal(to_position(chain, np.zeros(9)), np.zeros(9))
    # every mode weighs 0, so the fidelity mode sum keeps none and returns 0
    assert autocorrelation(chain, np.zeros(9), 1.0) == 0


@pytest.mark.parametrize("n", [2, 7, 50])
def test_spectral_theorem_against_dense_hamiltonian(n):
    chain = ChainSpec(n_sites=n, hopping=1.3)
    h = hamiltonian_matrix(chain)
    j = np.arange(1, n + 1)
    for mode in eigen_modes(chain):
        vec = np.sqrt(2 / (n + 1)) * np.sin(mode.wavenumber * j)
        np.testing.assert_allclose(h @ vec, mode.energy * vec, atol=1e-9)


def test_reflect_moves_amplitudes():
    chain = ChainSpec(n_sites=3)
    np.testing.assert_array_equal(reflect(chain, np.array([1.0, 0.0, 0.0])),
                                  np.array([0.0, 0.0, 1.0]))


def test_reflect_is_involution():
    chain = ChainSpec(n_sites=23)
    state = random_state(np.random.default_rng(1), 23)
    np.testing.assert_allclose(reflect(chain, reflect(chain, state)), state, atol=0)


def test_reflect_eigenmode_parity():
    chain = ChainSpec(n_sites=17)
    j = np.arange(1, 18)
    for mode in eigen_modes(chain):
        vec = np.sqrt(2 / 18) * np.sin(mode.wavenumber * j).astype(complex)
        np.testing.assert_allclose(reflect(chain, vec), mode.parity * vec, atol=1e-10)


def test_inner_product_properties():
    rng = np.random.default_rng(3)
    a = random_state(rng, 11)
    b = random_state(rng, 11)
    assert inner_product(a, a) == pytest.approx(1.0)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))
    # conjugate-linear in the first argument
    assert inner_product(2j * a, b) == pytest.approx(-2j * inner_product(a, b))
    with pytest.raises(ValueError):
        inner_product(a, b[:5])


def test_inner_product_orthogonal_modes():
    chain = ChainSpec(n_sites=12)
    j = np.arange(1, 13)
    modes = eigen_modes(chain)
    v1 = np.sqrt(2 / 13) * np.sin(modes[0].wavenumber * j)
    v5 = np.sqrt(2 / 13) * np.sin(modes[4].wavenumber * j)
    assert abs(inner_product(v1, v5)) < 1e-12
