import numpy as np
import pytest

from tbrevival import (
    ChainSpec,
    GaussianSpec,
    RevivalFraction,
    build_gwp,
    build_gwp_spectral,
    build_superposition,
    SuperpositionSpec,
    effective_period,
    evolve_exact,
    evolve_quadratic,
    fold_center,
    fourier_period,
    fractional_fidelity,
    gauss_coefficients,
    inner_product,
    is_commensurate,
    predict_state,
    reflect,
    spmc_check,
    to_spectral,
)
from tbrevival.harness import revival_fraction

ALPHA24 = 2 * np.sqrt(np.log(2)) / 24


def test_revival_fraction_validation():
    with pytest.raises(ValueError):
        RevivalFraction(2, 4)
    with pytest.raises(ValueError):
        RevivalFraction(1, 0)
    with pytest.raises(ValueError):
        RevivalFraction(-1, 3)
    for p, q in [(1.5, 2), (float("inf"), 1), (1, float("inf")), (float("-inf"), 1),
                 (float("nan"), 1)]:
        with pytest.raises(ValueError, match="must be integers"):
            RevivalFraction(p, q)
    frac = RevivalFraction.from_float(0.25)
    assert (frac.numerator, frac.denominator) == (1, 4)
    assert RevivalFraction(0, 1).value == 0.0


def test_revival_fraction_applies_the_instant_rule_in_integers():
    # 10**400 / 1 is past the float range: p < 2**53 q is checked on the integers
    chain = ChainSpec(n_sites=40)
    spec = GaussianSpec.from_half_width(center=10.0, half_width=6.0)
    calls = [
        lambda: RevivalFraction(10**400, 1),
        lambda: RevivalFraction(10**400, 1).time(chain),
        lambda: fractional_fidelity(chain, spec, RevivalFraction(10**400, 1)),
        lambda: RevivalFraction(2**53, 1),
        lambda: RevivalFraction(2**53 * 3 + 1, 3),
        lambda: RevivalFraction.from_float(1e300),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"2\*\*53 t_rev"):
            call()
    assert RevivalFraction(2**53 * 3 - 1, 3).numerator == 2**53 * 3 - 1


def test_fourier_period_rule():
    assert fourier_period(1) == 2
    assert fourier_period(2) == 2
    assert fourier_period(3) == 6
    assert fourier_period(4) == 4
    with pytest.raises(ValueError):
        fourier_period(0)


def test_gauss_table_is_bounded_before_it_is_built():
    # q = 10**9 asks for a 2e9-entry table: 16 GB of int64 indices before any complex one
    import tracemalloc

    chain = ChainSpec(n_sites=500)
    spec = GaussianSpec.from_half_width(center=50.0, half_width=24.0)
    calls = [
        lambda: gauss_coefficients(RevivalFraction(1, 10**9)),
        lambda: predict_state(chain, spec, RevivalFraction(1, 10**9)),
        lambda: revival_fraction("1/1000000000"),
        lambda: revival_fraction("1/131073"),  # odd q: 2q = 2**18 + 2 entries
    ]
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(ValueError, match="Gauss table"):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the config and CLI reader accepts the largest table gauss_coefficients builds
    assert gauss_coefficients(revival_fraction("1/262144")).period == 2**18


def test_gauss_coefficients_half_revival_closed_form():
    coeffs = gauss_coefficients(RevivalFraction(1, 2))
    np.testing.assert_allclose(coeffs.values, [(1 - 1j) / 2, (1 + 1j) / 2], atol=1e-14)


def test_gauss_coefficients_quarter_revival_interference_weights():
    b = gauss_coefficients(RevivalFraction(1, 4)).values
    assert abs(b[0] - b[1]) ** 2 == pytest.approx((2 - np.sqrt(2)) / 4, abs=1e-12)
    assert abs(b[1] - b[2]) ** 2 == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-12)


def test_gauss_coefficient_identities_all_small_denominators():
    import cmath
    from math import gcd

    # q <= 40 and p <= 6q cover the labels of a six-revival grid (fig2a)
    for q in range(1, 41):
        for p in range(1, 6 * q + 1):
            if gcd(p, q) != 1:
                continue
            coeffs = gauss_coefficients(RevivalFraction(p, q))
            l, b = coeffs.period, coeffs.values
            assert l == fourier_period(q)
            # b_{l/2} = (1/l) sum_n exp(i pi (n q - p n^2)/q), residues in integers
            exact = sum(
                cmath.exp(1j * np.pi * ((n * q - p * n * n) % (2 * q)) / q) for n in range(l)
            ) / l
            assert abs(coeffs.mirror - exact) < 1e-12, f"{p}/{q}"
            # closed form of the mirror weight: 1/sqrt(q) for odd p, 0 for even p
            assert abs(abs(coeffs.mirror) - (p % 2) / np.sqrt(q)) < 1e-12, f"{p}/{q}"
            probs = np.abs(b) ** 2
            nonzero = probs > 1e-13
            assert nonzero.sum() == q
            np.testing.assert_allclose(probs[nonzero], 1.0 / q, atol=1e-12)
            np.testing.assert_allclose(probs[~nonzero], 0.0, atol=1e-12)
            for r in range(1, l // 2):
                assert abs(b[r] - b[l - r]) < 1e-12


def test_gauss_coefficients_window_shift_invariance():
    # summand is l-periodic, so any summation window gives the same b_r
    frac = RevivalFraction(3, 7)
    l = fourier_period(7)
    n = np.arange(5, 5 + l)
    r = np.arange(l)[:, None]
    shifted = np.exp(1j * (2 * np.pi * n * r / l - np.pi * 3 * n * n / 7)).mean(axis=1)
    np.testing.assert_allclose(shifted, gauss_coefficients(frac).values, atol=1e-12)


def test_mirror_coefficient_vanishes_for_even_numerator_odd_denominator():
    assert abs(gauss_coefficients(RevivalFraction(2, 3)).mirror) < 1e-13
    assert abs(gauss_coefficients(RevivalFraction(2, 5)).mirror) < 1e-13
    assert abs(gauss_coefficients(RevivalFraction(1, 3)).mirror) > 0.1


def test_fold_center_rules():
    chain = ChainSpec(n_sites=500)
    assert fold_center(chain, 200.0) == (200.0, 1.0, False)
    center, sign, refl = fold_center(chain, -50.5)
    assert center == pytest.approx(50.5) and sign == -1.0 and refl is True
    center, sign, refl = fold_center(chain, 551.0)  # beyond N+1
    assert center == pytest.approx(2 * 501 - 551.0) and sign == -1.0 and refl is True
    center, sign, refl = fold_center(chain, 1002.0 + 30.0)  # full period away
    assert center == pytest.approx(30.0) and sign == 1.0 and refl is False
    assert fold_center(chain, 0.0) == (0.0, 1.0, False)  # node, clone vanishes


def test_predict_full_revival_is_mirror(chain500, spec50, packet50):
    pred = predict_state(chain500, spec50, RevivalFraction(1, 1))
    merged = pred.merged()
    assert len(merged) == 1
    assert merged[0][0] == pytest.approx(451.0)
    assert abs(merged[0][1]) == pytest.approx(1.0, abs=1e-12)
    overlap = abs(inner_product(reflect(chain500, packet50), pred.state))
    assert overlap == pytest.approx(1.0, abs=1e-6)


def test_predict_half_revival_two_clones(chain500, spec50, packet50):
    pred = predict_state(chain500, spec50, RevivalFraction(1, 2))
    merged = pred.merged()
    assert [round(c, 6) for c, _ in merged] == [50.0, 451.0]
    for _, weight in merged:
        assert abs(weight) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(inner_product(packet50, pred.state)) ** 2 == pytest.approx(0.5, abs=1e-6)
    mirror = build_gwp(chain500, spec50.mirrored(chain500))
    assert abs(inner_product(mirror, pred.state)) ** 2 == pytest.approx(0.5, abs=1e-6)


def test_predict_fifth_revival_five_clones(chain500, spec50):
    pred = predict_state(chain500, spec50, RevivalFraction(1, 5))
    merged = pred.merged()
    assert len(merged) == 5
    np.testing.assert_allclose(
        [c for c, _ in merged], [50.2, 150.2, 250.6, 350.6, 451.0], atol=1e-9
    )
    for _, weight in merged:
        assert abs(weight) ** 2 == pytest.approx(0.2, abs=1e-12)
    # clone peak height: initial peak divided by sqrt(q)
    assert np.abs(pred.state).max() == pytest.approx(0.0885, abs=2e-4)


def test_predict_quarter_revival_at_quarter_chain(chain500):
    # folded clones coincide pairwise; the mirror site carries the larger weight
    spec = GaussianSpec(center=501 / 4, alpha=ALPHA24)
    pred = predict_state(chain500, spec, RevivalFraction(1, 4))
    merged = dict((round(c, 6), w) for c, w in pred.merged())
    assert set(merged) == {125.25, 375.75}
    assert abs(merged[125.25]) ** 2 == pytest.approx((2 - np.sqrt(2)) / 4, abs=1e-12)
    assert abs(merged[375.75]) ** 2 == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-12)


def test_predict_third_revival_at_third_chain_single_clone(chain500):
    spec = GaussianSpec(center=501 / 3, alpha=ALPHA24)
    pred = predict_state(chain500, spec, RevivalFraction(1, 3))
    merged = pred.merged()
    assert len(merged) == 1
    assert merged[0][0] == pytest.approx(2 * 501 / 3)
    assert abs(merged[0][1]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("q", [1, 2, 4, 5, 6, 7, 12])
def test_prediction_equals_quadratic_evolution(chain500, q):
    # the clone sum resums the quadratic phases exactly, for p < q and p > q alike
    from tbrevival import to_position

    numerators = {1: (1, 2), 2: (1, 5), 4: (3, 7), 5: (1, 2), 6: (1, 11), 7: (2, 15), 12: (5, 13)}
    for center in (50.0, 501 / 4, 501 / 6):
        spec = GaussianSpec.from_half_width(center=center, half_width=24.0)
        state0 = to_position(chain500, build_gwp_spectral(chain500, spec))
        for p in numerators[q]:
            frac = RevivalFraction(p, q)
            pred = predict_state(chain500, spec, frac)
            quad = evolve_quadratic(chain500, state0, frac.time(chain500))
            assert abs(inner_product(quad, pred.state)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.filterwarnings("ignore:packet has")  # wide packets on a short chain
def test_prediction_has_exactly_q_clones():
    # exactly q of the l Gauss coefficients b_r are nonzero, one clone each
    chain = ChainSpec(n_sites=40)
    for center in (7.0, 41 / 4, 41 / 6, 41 / 3):
        spec = GaussianSpec.from_half_width(center=center, half_width=4.0)
        for q in range(1, 30):
            for p in range(6 * q + 1):
                if np.gcd(p, q) == 1:
                    pred = predict_state(chain, spec, RevivalFraction(p, q))
                    assert len(pred.entries) == q, (center, p, q)


def test_prediction_warns_on_high_mode_weight(chain500):
    # a two-site-wide packet puts far more than 1e-6 of its weight above n = (N+1)/4
    spec = GaussianSpec.from_half_width(center=250.0, half_width=2.0)
    with pytest.warns(UserWarning, match="outside the low-energy quarter"):
        predict_state(chain500, spec, RevivalFraction(1, 2))


def test_prediction_has_unit_norm(chain500, spec50):
    pred = predict_state(chain500, spec50, RevivalFraction(2, 7))
    assert np.linalg.norm(pred.state) == pytest.approx(1.0, abs=1e-10)


def test_prediction_oracle_against_exact_dynamics(chain500, clock500):
    # central check: clone forecast vs brute-force evolution
    for center in (50.0, 125.0, 250.0):
        spec = GaussianSpec(center=center, alpha=ALPHA24)
        initial = build_gwp(chain500, spec)
        for p, q in ((1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 4)):
            frac = RevivalFraction(p, q)
            evolved = evolve_exact(chain500, initial, frac.time(chain500))
            pred = predict_state(chain500, spec, frac)
            overlap = abs(inner_product(evolved, pred.state)) ** 2
            assert overlap >= 0.95, (center, f"{p}/{q}", overlap)


def test_predicted_profile_maxima_match_clone_amplitudes(chain500, spec50):
    expected = {(1, 5): 0.0885, (1, 4): 0.0989, (1, 3): 0.1142, (1, 2): 0.1399, (1, 1): 0.1978}
    for (p, q), peak in expected.items():
        pred = predict_state(chain500, spec50, RevivalFraction(p, q))
        assert np.abs(pred.state).max() == pytest.approx(peak, abs=5e-4)


def test_spmc_check_low_energy_packet(chain500, spec50):
    report = spmc_check(chain500, spec50, tolerance=1e-2)
    assert report.within_tolerance
    assert report.max_relative_deviation == pytest.approx(0.0047, abs=5e-4)
    assert report.parity_matched
    assert report.support.min() >= 1


def test_spmc_check_band_center_state_fails(chain500):
    # synthetic spectral state centered mid-band, where the cosine is not quadratic
    n = np.arange(1, 501)
    coeff = np.exp(-(((n - 250) / 10.0) ** 2)).astype(complex)
    coeff /= np.linalg.norm(coeff)
    report = spmc_check(chain500, coeff, tolerance=1e-2)
    assert not report.within_tolerance
    assert report.max_relative_deviation > 0.1


def test_effective_period_special_centers(chain500, clock500):
    cases = [
        (GaussianSpec(center=501 / 3, alpha=ALPHA24), 3),
        (GaussianSpec(center=501 / 2, alpha=ALPHA24), 8),
        (GaussianSpec(center=501 / 6, alpha=ALPHA24), 1),
    ]
    for spec, expected in cases:
        coeff = build_gwp_spectral(chain500, spec)
        multiplier, t_eff = effective_period(chain500, coeff)
        assert multiplier == expected
        assert t_eff == pytest.approx(clock500.revival_time / expected, rel=1e-12)


def test_effective_period_superposition(chain500, clock500):
    spec = SuperpositionSpec.equal_weights([501 / 3, 2 * 501 / 3], alpha=ALPHA24)
    coeff = to_spectral(chain500, build_superposition(chain500, spec))
    multiplier, t_eff = effective_period(chain500, coeff)
    assert multiplier == 24
    assert t_eff == pytest.approx(clock500.revival_time / 24, rel=1e-12)


@pytest.mark.parametrize("check", [spmc_check, effective_period])
@pytest.mark.parametrize(
    "coefficients, fragment",
    [(np.zeros(50), "zero or non-finite norm"), (np.ones(7), r"shape \(7,\)")],
    ids=["zeros", "short"],
)
def test_spectral_checks_refuse_a_malformed_vector(check, coefficients, fragment):
    with pytest.raises(ValueError, match=fragment):
        check(ChainSpec(50), coefficients)


def test_effective_period_needs_two_levels(chain500):
    lone = np.zeros(500, dtype=complex)
    lone[4] = 1.0
    with pytest.raises(ValueError):
        effective_period(chain500, lone)


def test_shortened_period_is_a_true_period(chain500, clock500):
    # peak fidelity near t_rev/3 matches the peak near t_rev for the
    # third-chain packet (both are mirror revivals of the same packet)
    spec = GaussianSpec(center=501 / 3, alpha=ALPHA24)
    initial = build_gwp(chain500, spec)
    target = build_gwp(chain500, spec.mirrored(chain500))

    def peak_near(t0):
        ts = np.linspace(0.99 * t0, 1.01 * t0, 400)
        vals = [
            abs(inner_product(target, evolve_exact(chain500, initial, t))) ** 2 for t in ts
        ]
        return max(vals)

    p_short = peak_near(clock500.revival_time / 3)
    p_full = peak_near(clock500.revival_time)
    assert abs(p_short - p_full) <= 0.02


def test_corrected_half_chain_recurrence(chain500, clock500):
    # the half-chain packet (all surviving parities equal) recurs at
    # 2 pi / (8 dE) = t_rev/4, twice the naive pi/(8 dE)
    spec = GaussianSpec(center=501 / 2, alpha=ALPHA24)
    state = build_gwp(chain500, spec)
    t4 = abs(inner_product(state, evolve_exact(chain500, state, clock500.revival_time / 4))) ** 2
    t8 = abs(inner_product(state, evolve_exact(chain500, state, clock500.revival_time / 8))) ** 2
    assert t4 >= 0.98
    assert t8 < 0.01


def test_is_commensurate_cases(chain500):
    assert is_commensurate(chain500, 501 / 2, 5)
    assert is_commensurate(chain500, 501 / 2, 12)
    assert is_commensurate(chain500, 501 / 6, 12)
    assert not is_commensurate(chain500, 501 / 5, 7)
    assert not is_commensurate(chain500, 501 / 6, 4)
    with pytest.raises(ValueError):
        is_commensurate(chain500, 100.0, 0)


def test_open_question_center_convention(chain500, clock500):
    # both readings of a "third of the chain" center, checked against the
    # shortened-period revival; the (N+1)/3 choice has exact spectral zeros
    # and reproduces the clean revival slightly better
    results = {}
    for label, center in (("plus-one", 501 / 3), ("literal", 500 / 3)):
        spec = GaussianSpec(center=center, alpha=ALPHA24)
        initial = build_gwp(chain500, spec)
        target = build_gwp(chain500, spec.mirrored(chain500))
        t = clock500.revival_time / 3
        results[label] = abs(inner_product(target, evolve_exact(chain500, initial, t))) ** 2
    assert results["plus-one"] == pytest.approx(0.98687, abs=1e-3)
    assert results["plus-one"] >= results["literal"]
