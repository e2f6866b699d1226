import sys
import threading

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from tbrevival import (
    ChainSpec,
    GaussianSpec,
    autocorrelation,
    build_gwp,
    eigen_modes,
    evolve_exact,
    hamiltonian_matrix,
    inner_product,
    mirror_fidelity,
    mode_energies,
    mode_parities,
    mode_wavenumbers,
    reflect,
    to_position,
    to_spectral,
    trace,
)
from tbrevival import chain as chain_module
from tbrevival.chain import _spectral

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


@pytest.mark.parametrize("hopping", [10**400, 10**5000, float("inf"), float("nan"), 1e308,
                                     1e-320, 0],
                         ids=["int-past-floats", "int-past-the-int-string-limit", "inf", "nan",
                              "band-overflows", "revival-time-overflows", "zero"])
def test_a_hopping_without_a_finite_band_and_revival_time_is_a_value_error(hopping):
    # 10**400 is an int past the float range: its product with pi overflows; 10**5000 is
    # also past the 4300 digits an int prints
    with pytest.raises(ValueError, match="finite band and revival time"):
        ChainSpec(n_sites=4000, hopping=hopping)


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


@pytest.fixture
def forward_calls(monkeypatch):
    """Every call of chain.to_spectral, recorded, with the remembered transform cleared first."""
    calls = []
    original = chain_module.to_spectral

    def counted(chain, state):
        calls.append(np.array(state))
        return original(chain, state)

    chain_module._transform.cache_clear()
    monkeypatch.setattr(chain_module, "to_spectral", counted)
    return calls


def test_one_packet_is_transformed_forward_once(forward_calls):
    chain, spec = ChainSpec(n_sites=401), GaussianSpec.from_half_width(100.0, 24.0)
    packet = build_gwp(chain, spec)
    for t in (0.0, 10.0, 250.5, -3.0, 1e4):
        evolve_exact(chain, packet, t)
    mirror_fidelity(chain, spec, 250.5)
    assert len(forward_calls) == 1


def test_remembered_transform_is_the_fresh_one_bit_for_bit(forward_calls):
    chain = ChainSpec(n_sites=211)
    stack = np.array([random_state(np.random.default_rng(s), 211) for s in range(3)])
    first, again = _spectral(chain, stack), _spectral(chain, stack.copy())
    assert again is first and len(forward_calls) == 1
    assert not again.flags.writeable
    assert again.tobytes() == to_spectral(chain, stack).tobytes()


def test_a_state_mutated_in_place_is_transformed_again(forward_calls):
    chain, t = ChainSpec(n_sites=60), 37.0
    state = random_state(np.random.default_rng(5), 60)
    before = evolve_exact(chain, state, t)
    state[::2] *= -1j
    after = evolve_exact(chain, state, t)
    phases = np.exp(-1j * mode_energies(chain) * t)
    assert after.tobytes() == to_position(chain, to_spectral(chain, state) * phases).tobytes()
    assert np.abs(after - before).max() > 0.1
    assert len(forward_calls) == 2


def test_negative_zero_is_not_served_the_positive_zero_transform(forward_calls):
    chain = ChainSpec(n_sites=8)
    positive, negative = np.ones(8, dtype=complex), np.ones(8, dtype=complex)
    negative[3] = -0.0
    positive[3] = 0.0
    _spectral(chain, positive)
    _spectral(chain, negative)
    assert [np.signbit(x[3].real) for x in forward_calls] == [False, True]


def test_public_transforms_return_fresh_writable_arrays(forward_calls):
    chain = ChainSpec(n_sites=30)
    state = random_state(np.random.default_rng(8), 30)
    remembered = _spectral(chain, state)
    for transform in (to_spectral, to_position):
        a, b = transform(chain, state), transform(chain, state)
        assert a.flags.writeable and b.flags.writeable
        assert not np.shares_memory(a, b)
        assert not np.shares_memory(a, remembered)


def test_threads_sharing_the_remembered_transform_each_get_their_own_state():
    chain = ChainSpec(n_sites=64)
    states = [random_state(np.random.default_rng(s), 64) for s in range(6)]
    expected = [to_spectral(chain, state).tobytes() for state in states]
    wrong = []

    def work(i):
        for _ in range(300):
            if _spectral(chain, states[i]).tobytes() != expected[i]:
                wrong.append(i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(states))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_remembered_mode_tables_are_read_only_and_the_public_ones_fresh(cold_memos):
    chain = ChainSpec(n_sites=50, hopping=2.5)
    sines, energies = chain_module._sines(51), chain_module._energies(chain)
    assert not sines.flags.writeable and not energies.flags.writeable
    row = np.sqrt(0.5 / 51) * np.sin(np.arange(1, 26) * (np.pi / 51))
    assert sines.tobytes() == row.tobytes()
    assert energies.tobytes() == mode_energies(chain).tobytes()
    for build in (mode_wavenumbers, mode_energies, mode_parities):
        a, b = build(chain), build(chain)
        assert a.flags.writeable and b.flags.writeable
        assert not np.shares_memory(a, b)
        assert not np.shares_memory(a, energies)


def test_evolution_is_bit_identical_with_memos_cold_and_warm(cold_memos):
    # same N, different hopping: a memo keyed without the hopping serves the wrong energies
    chains = [ChainSpec(n_sites=120, hopping=1.0), ChainSpec(n_sites=120, hopping=2.5)]
    state = random_state(np.random.default_rng(3), 120)
    times = (7.5, np.array([0.0, -2.0, 40.0]))

    def run(chain):
        return [evolve_exact(chain, state, t).tobytes() for t in times] + [
            np.complex128(autocorrelation(chain, state, 7.5)).tobytes()]

    cold = []
    for chain in chains:
        cold_memos()
        cold.append(run(chain))
    assert cold[0] != cold[1]
    for _ in range(3):
        for chain, expected in zip(chains, cold):
            assert run(chain) == expected
