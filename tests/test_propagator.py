import warnings

import numpy as np
import pytest
import scipy.linalg

from tbrevival import (
    ChainSpec,
    GaussianSpec,
    SuperpositionSpec,
    autocorrelation,
    build_gwp,
    build_superposition,
    eigen_modes,
    evolve_exact,
    evolve_quadratic,
    hamiltonian_matrix,
    inner_product,
    profile,
    reflect,
    revival_clock,
    trace,
)

from conftest import random_state


def test_revival_clock_invariant_and_scaling():
    chain = ChainSpec(n_sites=500, hopping=1.0)
    clock = revival_clock(chain)
    assert clock.level_spacing * clock.revival_time == pytest.approx(np.pi, abs=1e-12)
    assert clock.revival_time == pytest.approx(501**2 / np.pi, rel=1e-14)
    doubled = revival_clock(ChainSpec(n_sites=500, hopping=2.0))
    assert doubled.revival_time == pytest.approx(clock.revival_time / 2, rel=1e-14)


def test_evolve_zero_time_is_identity(chain500, packet50):
    np.testing.assert_allclose(evolve_exact(chain500, packet50, 0.0), packet50, atol=1e-14)
    np.testing.assert_allclose(evolve_quadratic(chain500, packet50, 0.0), packet50, atol=1e-14)


def test_single_eigenmode_is_stationary():
    chain = ChainSpec(n_sites=13)
    mode = eigen_modes(chain)[4]
    j = np.arange(1, 14)
    vec = (np.sqrt(2 / 14) * np.sin(mode.wavenumber * j)).astype(complex)
    evolved = evolve_exact(chain, vec, 37.0)
    assert abs(inner_product(vec, evolved)) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(evolved, vec * np.exp(-1j * mode.energy * 37.0), atol=1e-12)


def test_norm_conserved_at_long_times(chain500, packet50):
    evolved = evolve_exact(chain500, packet50, 1.0e6)
    assert np.linalg.norm(evolved) == pytest.approx(1.0, abs=1e-10)


def test_group_property(chain500, packet50):
    one = evolve_exact(chain500, evolve_exact(chain500, packet50, 1234.5), 777.25)
    two = evolve_exact(chain500, packet50, 2011.75)
    np.testing.assert_allclose(one, two, atol=1e-9)


def test_backward_evolution_inverts(chain500, packet50):
    roundtrip = evolve_exact(chain500, evolve_exact(chain500, packet50, 555.5), -555.5)
    np.testing.assert_allclose(roundtrip, packet50, atol=1e-10)


def test_evolution_commutes_with_reflection(chain500, packet50):
    t = 5000.0
    a = evolve_exact(chain500, reflect(chain500, packet50), t)
    b = reflect(chain500, evolve_exact(chain500, packet50, t))
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_exact_evolution_matches_expm_oracle():
    # independent route: dense matrix exponential of the tridiagonal H
    chain = ChainSpec(n_sites=40)
    h = hamiltonian_matrix(chain)
    state = random_state(np.random.default_rng(42), 40)
    t = 7.3
    reference = scipy.linalg.expm(-1j * h * t) @ state
    np.testing.assert_allclose(evolve_exact(chain, state, t), reference, atol=1e-12)


def test_mirror_revival_value(chain500, clock500, spec50, packet50):
    # exact-dynamics fidelity at the revival instant; dispersion caps it
    target = build_gwp(chain500, spec50.mirrored(chain500))
    value = abs(inner_product(target, evolve_exact(chain500, packet50, clock500.revival_time))) ** 2
    assert value == pytest.approx(0.93828, abs=1e-3)


def test_quadratic_revival_is_exact_mirror(chain500, clock500, packet50):
    evolved = evolve_quadratic(chain500, packet50, clock500.revival_time)
    overlap = abs(inner_product(reflect(chain500, packet50), evolved))
    assert overlap >= 0.999
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_quadratic_vs_exact_at_half_revival(chain500, clock500, packet50):
    t = clock500.revival_time / 2
    overlap = abs(
        inner_product(evolve_quadratic(chain500, packet50, t), evolve_exact(chain500, packet50, t))
    ) ** 2
    assert overlap >= 0.97
    assert overlap == pytest.approx(0.9742, abs=1e-3)


def test_quadratic_agreement_degrades_with_narrow_packets(chain500, clock500):
    overlaps = []
    for width in (24.0, 16.0, 8.0, 4.0):
        state = build_gwp(chain500, GaussianSpec.from_half_width(50, width))
        t = clock500.revival_time
        quad = evolve_quadratic(chain500, state, t)
        exact = evolve_exact(chain500, state, t)
        overlaps.append(abs(inner_product(quad, exact)) ** 2)
    assert all(b <= a + 1e-12 for a, b in zip(overlaps, overlaps[1:]))
    assert overlaps[0] == pytest.approx(0.93828, abs=1e-3)


@pytest.mark.parametrize("evolve", [evolve_exact, evolve_quadratic])
@pytest.mark.parametrize("instants", [[0.0, 0.2, 0.25, 1 / 3, 0.5, 1.0], [-3.5], []])
def test_instant_array_is_one_call_per_instant(chain500, clock500, packet50, evolve, instants):
    # one stacked evolution: a row per instant, each bit for bit its own call
    times = np.array(instants) * clock500.revival_time
    rows = evolve(chain500, packet50, times)
    assert rows.shape == (len(times), 500)
    for t, row in zip(times, rows):
        assert np.array_equal(row, evolve(chain500, packet50, t))


def test_profile_basics(chain500, packet50):
    indicator = np.zeros(20, dtype=complex)
    indicator[3] = 1.0
    np.testing.assert_array_equal(profile(indicator), np.abs(indicator))
    p = profile(packet50)
    assert (p**2).sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(profile(np.exp(1j * 0.7) * packet50), p, atol=1e-14)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_non_finite_time_is_rejected(t):
    chain = ChainSpec(8)
    # the time is at fault, not the state
    with pytest.raises(ValueError, match=f"time must be finite, got {t}"):
        evolve_exact(chain, np.ones(8), t)
    with pytest.raises(ValueError, match=f"time must be finite, got {t}"):
        evolve_quadratic(chain, np.ones(8), t)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_far_time_is_rejected(sign):
    # at |t| >= 2**53 t_rev one ulp of t spans a revival: no phase is left
    chain = ChainSpec(8)
    bound = 2.0**53 * revival_clock(chain).revival_time
    state = np.ones(8) / np.sqrt(8)
    for evaluate in (evolve_exact, evolve_quadratic, autocorrelation):
        with pytest.raises(ValueError, match=r"2\*\*53"):
            evaluate(chain, state, sign * bound)
        evaluate(chain, state, sign * np.nextafter(bound, 0))


BIG = 10**400  # an int that no float can hold


@pytest.mark.filterwarnings("ignore:packet at")
@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda c, s: evolve_exact(c, s, 10**20), r"2\*\*53", id="evolve-10**20"),
    pytest.param(lambda c, s: evolve_quadratic(c, s, 10**20), r"2\*\*53", id="quadratic-10**20"),
    pytest.param(lambda c, s: evolve_exact(c, s, [0.5, BIG]), "time must be finite", id="evolve"),
    pytest.param(lambda c, s: autocorrelation(c, s, BIG), "time must be finite",
                 id="autocorrelation"),
    pytest.param(lambda c, s: trace(c, s, [BIG]), "non-finite", id="trace"),
    pytest.param(lambda c, s: GaussianSpec(10.0, BIG), "alpha must be positive and finite",
                 id="alpha"),
    pytest.param(lambda c, s: GaussianSpec.from_half_width(10.0, BIG),
                 "half_width must be positive and finite", id="half-width"),
    # a center or weight past the float range is refused where an inf one is: at the build
    pytest.param(lambda c, s: build_gwp(c, GaussianSpec(BIG, 1.0)), "no finite weight",
                 id="center"),
    pytest.param(lambda c, s: build_gwp(c, GaussianSpec.from_half_width(BIG, 6.0)),
                 "no finite weight", id="half-width-center"),
    pytest.param(lambda c, s: build_superposition(c, SuperpositionSpec((BIG, 20.0), (1, 1), 1.0)),
                 "no finite weight", id="superposition-center"),
    pytest.param(lambda c, s: build_superposition(c, SuperpositionSpec.equal_weights((BIG,), 1.0)),
                 "no finite weight", id="equal-weights-center"),
    pytest.param(lambda c, s: build_superposition(c, SuperpositionSpec((10.0, 20.0), (BIG, 1),
                                                                       1.0)),
                 "not finite", id="superposition-weight"),
])
def test_a_number_that_no_float_holds_is_refused_by_its_rule(call, fragment):
    chain = ChainSpec(40)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=fragment):
            call(chain, build_gwp(chain, GaussianSpec(10.0, 0.3)))


def test_profile_stack_is_bounded_before_it_is_built():
    # 9 instants x 2**20 sites pass the 2**23 site-profile bound: ~610 MB of stack
    import tracemalloc

    chain = ChainSpec(2**20)
    state = np.zeros(chain.n_sites)
    state[0] = 1.0
    times = np.linspace(0.0, 1.0, 9) * revival_clock(chain).revival_time
    tracemalloc.start()
    try:
        for evolve in (evolve_exact, evolve_quadratic):
            with pytest.raises(ValueError, match="site-profiles"):
                evolve(chain, state, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
