import warnings

import numpy as np
import pytest

from tbrevival import (
    ChainSpec,
    GaussianSpec,
    RevivalFraction,
    SuperpositionSpec,
    build_gwp,
    build_gwp_spectral,
    build_superposition,
    effective_period,
    high_mode_weight,
    inner_product,
    packet_overlap,
    predict_state,
    reflect,
    spmc_check,
    surviving_modes,
    to_spectral,
)
from tbrevival.wavepacket import _unit


def test_width_parameterisations_are_exact_inverses():
    spec = GaussianSpec.from_half_width(center=100, half_width=24.0)
    assert spec.half_width == pytest.approx(24.0, abs=0)
    assert spec.alpha == pytest.approx(2 * np.sqrt(np.log(2)) / 24.0, abs=0)
    with pytest.raises(ValueError):
        GaussianSpec(center=10, alpha=0.0)
    with pytest.raises(ValueError):
        GaussianSpec.from_half_width(center=10, half_width=-1.0)


@pytest.mark.parametrize(
    "build, fragment",
    [
        pytest.param(lambda: GaussianSpec(10.0, np.inf), "alpha .* got inf", id="gaussian-inf"),
        pytest.param(lambda: SuperpositionSpec.equal_weights([10.0, 20.0], np.inf),
                     "alpha .* got inf", id="superposition-inf"),
        pytest.param(lambda: GaussianSpec.from_half_width(10, np.inf), "half_width .* got inf",
                     id="half-width-inf"),
        pytest.param(lambda: GaussianSpec.from_half_width(10, 5e-324),
                     "half_width .* got 5e-324", id="half-width-without-finite-alpha"),
    ],
)
def test_non_finite_widths_are_refused_by_name(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()


@pytest.mark.parametrize("coefficients", [np.zeros(50), np.ones(7), np.ones((2, 50))],
                         ids=["zeros", "short", "stack"])
def test_high_mode_weight_refuses_a_malformed_spectral_vector(coefficients):
    with pytest.raises(ValueError, match="norm|shape"):
        high_mode_weight(ChainSpec(50), coefficients)


@pytest.mark.filterwarnings("error")  # no overflow RuntimeWarning on the way
@pytest.mark.parametrize("entry", [1e200, 1e-200, -3e307j, 5e-324])
def test_unit_guard_scales_large_and_tiny_finite_entries(entry):
    vector = np.full(50, entry, dtype=complex)
    vector[7] *= 2
    unit = _unit(vector, "no weight")
    expected = np.full(50, 1.0) / np.sqrt(53)
    expected[7] *= 2
    np.testing.assert_allclose(unit, expected * (entry / abs(entry)), rtol=1e-15, atol=0)
    assert len(spmc_check(ChainSpec(50), vector).support) == 50


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("vector", [np.zeros(50), np.full(50, np.nan), np.r_[np.inf, np.ones(49)]],
                         ids=["zeros", "nan", "inf"])
def test_unit_guard_still_refuses_a_vector_without_finite_weight(vector):
    with pytest.raises(ValueError, match="^no weight$"):
        _unit(vector.astype(complex), "no weight")


def test_containment_flag():
    chain = ChainSpec(n_sites=100)
    assert GaussianSpec.from_half_width(50, 24).is_contained(chain)
    assert not GaussianSpec.from_half_width(10, 24).is_contained(chain)


def test_build_gwp_unit_norm_and_peak(chain500, spec50, packet50):
    assert np.linalg.norm(packet50) == pytest.approx(1.0, abs=1e-12)
    # peak amplitude 1/sqrt(Omega_1) for half width 24
    assert np.abs(packet50).max() == pytest.approx(0.198, abs=2e-4)


def test_build_gwp_half_maximum(chain500):
    spec = GaussianSpec.from_half_width(center=250, half_width=24.0)
    state = build_gwp(chain500, spec)
    peak_sq = np.abs(state[249]) ** 2
    assert np.abs(state[249 + 12]) ** 2 == pytest.approx(peak_sq / 2, rel=1e-12)
    assert np.abs(state[249 - 12]) ** 2 == pytest.approx(peak_sq / 2, rel=1e-12)


def test_build_gwp_delta_limit():
    chain = ChainSpec(n_sites=30)
    state = build_gwp(chain, GaussianSpec(center=7, alpha=60.0))
    expected = np.zeros(30)
    expected[6] = 1.0
    np.testing.assert_allclose(np.abs(state), expected, atol=1e-12)


def test_build_gwp_warns_when_not_contained():
    chain = ChainSpec(n_sites=60)
    with pytest.warns(UserWarning, match="not fully contained"):
        build_gwp(chain, GaussianSpec.from_half_width(center=5, half_width=24))


def test_spectral_and_position_forms_agree(chain500):
    spec = GaussianSpec.from_half_width(center=250, half_width=24.0)
    direct = to_spectral(chain500, build_gwp(chain500, spec))
    mode_form = build_gwp_spectral(chain500, spec)
    assert abs(inner_product(mode_form, direct)) ** 2 >= 0.999


def test_spectral_zeros_for_third_chain_center(chain500):
    spec = GaussianSpec.from_half_width(center=501 / 3, half_width=24.0)
    coeff = build_gwp_spectral(chain500, spec)
    n = np.arange(1, 501)
    assert np.abs(coeff[n % 3 == 0]).max() < 1e-10
    assert len(surviving_modes(coeff)) > 0
    assert np.all(surviving_modes(coeff) % 3 != 0)
    assert surviving_modes([]).tolist() == []  # an empty vector keeps no mode


def test_spectral_zeros_for_half_chain_center(chain500):
    spec = GaussianSpec.from_half_width(center=501 / 2, half_width=24.0)
    coeff = build_gwp_spectral(chain500, spec)
    n = np.arange(1, 501)
    assert np.abs(coeff[n % 2 == 0]).max() < 1e-10


def test_mirror_covariance(chain500):
    a = build_gwp(chain500, GaussianSpec.from_half_width(80.25, 17.0))
    b = build_gwp(chain500, GaussianSpec.from_half_width(501 - 80.25, 17.0))
    np.testing.assert_allclose(reflect(chain500, a), b, atol=1e-10)


def test_low_energy_support(chain500):
    for width in (24.0, 32.0):
        coeff = build_gwp_spectral(chain500, GaussianSpec.from_half_width(50, width))
        assert high_mode_weight(chain500, coeff) < 1e-6


def test_superposition_single_center_equals_gwp(chain500):
    spec = SuperpositionSpec.equal_weights([167.0], alpha=0.06)
    np.testing.assert_allclose(
        build_superposition(chain500, spec),
        build_gwp(chain500, GaussianSpec(center=167.0, alpha=0.06)),
        atol=1e-12,
    )


def test_superposition_zero_weight_drops_component(chain500):
    spec = SuperpositionSpec(centers=(100.0, 300.0), weights=(1.0, 0.0), alpha=0.06)
    np.testing.assert_allclose(
        build_superposition(chain500, spec),
        build_gwp(chain500, GaussianSpec(center=100.0, alpha=0.06)),
        atol=1e-12,
    )


def test_superposition_vanishing_levels(chain500):
    alpha = 2 * np.sqrt(np.log(2)) / 24
    spec = SuperpositionSpec.equal_weights([501 / 3, 2 * 501 / 3], alpha=alpha)
    coeff = to_spectral(chain500, build_superposition(chain500, spec))
    n = np.arange(1, 501)
    assert np.abs(coeff[n % 2 == 0]).max() < 1e-12
    assert np.abs(coeff[n % 6 == 3]).max() < 1e-12
    surv = surviving_modes(coeff)
    assert set(surv % 6) == {1, 5}


@pytest.mark.parametrize("weights", [(1e308, 1e308), (5e-324, 5e-324), (1e-320, 1e-320)],
                         ids=["huge", "least-subnormal", "subnormal"])
def test_superposition_of_huge_or_tiny_finite_weights_builds_as_unit_weights(weights):
    # the weights are scaled before the sum: no overflow in it, no product underflows
    chain = ChainSpec(40)
    built = build_superposition(chain, SuperpositionSpec((10.0, 10.0), weights, 3.0))
    unit_weights = build_superposition(chain, SuperpositionSpec((10.0, 10.0), (1, 1), 3.0))
    np.testing.assert_allclose(built, unit_weights, rtol=0, atol=1e-15)


def test_spectral_readers_take_a_strided_view_as_its_contiguous_copy(chain500):
    packet = build_gwp_spectral(chain500, GaussianSpec.from_half_width(501 / 3, 24.0))
    view = np.repeat(packet, 2)[::2]  # the same entries, every other one of a longer array
    assert not view.flags.c_contiguous and np.array_equal(view, packet)
    assert high_mode_weight(chain500, view) == high_mode_weight(chain500, packet)
    assert effective_period(chain500, view) == effective_period(chain500, packet)
    seen, expected = spmc_check(chain500, view), spmc_check(chain500, packet)
    np.testing.assert_array_equal(seen.support, expected.support)
    assert ((seen.max_relative_deviation, seen.within_tolerance, seen.parity_matched)
            == (expected.max_relative_deviation, expected.within_tolerance,
                expected.parity_matched))


def test_superposition_empty_rejected():
    with pytest.raises(ValueError):
        SuperpositionSpec(centers=(), weights=(), alpha=0.1)
    with pytest.raises(ValueError, match="same length"):
        SuperpositionSpec(centers=(10.0,), weights=(1, 1), alpha=0.1)


NAN, INF = float("nan"), float("inf")


@pytest.mark.filterwarnings("ignore:packet at")
@pytest.mark.parametrize(
    "build, fragment",
    [
        pytest.param(lambda c: build_gwp(c, GaussianSpec(center=1e4, alpha=1.0)),
                     "no finite weight on the chain", id="underflow"),
        pytest.param(lambda c: build_gwp_spectral(c, GaussianSpec(center=NAN, alpha=0.2)),
                     "no finite spectral weight", id="spectral-nan-center"),
        pytest.param(lambda c: build_superposition(
                         c, SuperpositionSpec(centers=(20.0, 20.0), weights=(1, -1), alpha=0.2)),
                     "cancel exactly or are not finite", id="cancelling"),
        pytest.param(lambda c: build_superposition(
                         c, SuperpositionSpec(centers=(10.0, 30.0), weights=(1, NAN), alpha=0.2)),
                     "cancel exactly or are not finite", id="nan-weight"),
        pytest.param(lambda c: predict_state(c, GaussianSpec(center=NAN, alpha=0.2),
                                             RevivalFraction(1, 2)),
                     "no finite spectral weight", id="predict-nan-center"),
        # sin(inf) and inf * 0 on the way to these refusals
        pytest.param(lambda c: predict_state(c, GaussianSpec(center=INF, alpha=0.2),
                                             RevivalFraction(1, 2)),
                     "no finite spectral weight", id="predict-inf-center"),
        pytest.param(lambda c: build_superposition(
                         c, SuperpositionSpec(centers=(10.0, 30.0), weights=(1, INF), alpha=0.2)),
                     "cancel exactly or are not finite", id="inf-weight"),
    ],
)
def test_builders_refuse_a_state_without_finite_weight(build, fragment):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=fragment):
            build(ChainSpec(n_sites=40))


@pytest.mark.filterwarnings("ignore:packet at")
@pytest.mark.parametrize("spec", [
    pytest.param(GaussianSpec(center=1e308, alpha=0.1), id="far-center"),  # (j - center)^2 overflows
    pytest.param(GaussianSpec(center=20.0, alpha=1e200), id="huge-alpha"),  # alpha^2 = inf, inf * 0
])
def test_build_gwp_refuses_an_overflowing_exponent_without_a_runtime_warning(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="no finite weight on the chain"):
            build_gwp(ChainSpec(n_sites=120), spec)


def test_packet_overlap_basics(chain500):
    a = GaussianSpec.from_half_width(100, 24.0)
    assert packet_overlap(chain500, a, a) == pytest.approx(1.0, abs=1e-12)
    far = GaussianSpec.from_half_width(400, 24.0)
    assert packet_overlap(chain500, a, far) < 1e-6
    assert packet_overlap(chain500, a, far) == pytest.approx(
        packet_overlap(chain500, far, a), abs=1e-15
    )
    with pytest.raises(ValueError):
        packet_overlap(chain500, a, GaussianSpec.from_half_width(100, 12.0))


@pytest.mark.parametrize("separation", [6, 12, 24, 36])
def test_packet_overlap_matches_continuum(chain500, separation):
    # oracle: continuum Gaussian overlap integral exp(-alpha^2 d^2 / 4)
    alpha = 2 * np.sqrt(np.log(2)) / 24
    a = GaussianSpec(center=200.0, alpha=alpha)
    b = GaussianSpec(center=200.0 + separation, alpha=alpha)
    expected = np.exp(-(alpha**2) * separation**2 / 4)
    assert packet_overlap(chain500, a, b) == pytest.approx(expected, abs=1e-3)


def test_packet_overlap_at_one_half_width(chain500):
    # separation equal to the half width gives exp(-ln 2) = 1/2
    alpha = 2 * np.sqrt(np.log(2)) / 24
    a = GaussianSpec(center=200.0, alpha=alpha)
    b = GaussianSpec(center=224.0, alpha=alpha)
    assert packet_overlap(chain500, a, b) == pytest.approx(0.5, abs=1e-3)
