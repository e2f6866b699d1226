import numpy as np
import pytest
import scipy.fft
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from tbrevival import (
    ChainSpec,
    GaussCoefficients,
    GaussianSpec,
    NoMirrorCloneError,
    RevivalFraction,
    SuperpositionSpec,
    TraceOptions,
    autocorrelation,
    build_gwp,
    build_superposition,
    eigen_modes,
    evolve_quadratic,
    find_peaks,
    fractional_fidelity,
    gauss_coefficients,
    inner_product,
    mirror_fidelity,
    revival_clock,
    trace,
)
from tbrevival.fidelity import _farey, _labels, _overlaps

ALPHA24 = 2 * np.sqrt(np.log(2)) / 24


def test_autocorrelation_at_zero(chain500, packet50):
    assert autocorrelation(chain500, packet50, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_autocorrelation_eigenmode_modulus_one():
    chain = ChainSpec(n_sites=11)
    mode = eigen_modes(chain)[2]
    j = np.arange(1, 12)
    vec = (np.sqrt(2 / 12) * np.sin(mode.wavenumber * j)).astype(complex)
    for t in (3.0, 171.5, 4096.0):
        assert abs(autocorrelation(chain, vec, t)) == pytest.approx(1.0, abs=1e-12)


def test_autocorrelation_half_revival_weight(chain500, clock500, packet50):
    # a weight-1/2 clone sits at the initial position at half the revival time
    value = abs(autocorrelation(chain500, packet50, clock500.revival_time / 2)) ** 2
    assert value == pytest.approx(0.5, abs=0.02)


def test_autocorrelation_half_revival_with_overlapping_mirror(chain500, clock500):
    # center adjacent to its own mirror: the two clones coincide and the
    # autocorrelation climbs to (1 + f^2)/2 instead of 1/2
    state = build_gwp(chain500, GaussianSpec(center=250.0, alpha=ALPHA24))
    value = abs(autocorrelation(chain500, state, clock500.revival_time / 2)) ** 2
    assert value == pytest.approx(0.973, abs=5e-3)


def test_mirror_fidelity_modulus_bounded(chain500, spec50):
    for t in (0.0, 1000.0, 50000.0):
        assert abs(mirror_fidelity(chain500, spec50, t)) <= 1 + 1e-9


def test_mirror_fidelity_center_symmetry(chain500, clock500):
    a = GaussianSpec(center=50.0, alpha=ALPHA24)
    b = GaussianSpec(center=451.0, alpha=ALPHA24)
    for t in (clock500.revival_time / 3, clock500.revival_time):
        assert abs(mirror_fidelity(chain500, a, t)) == pytest.approx(
            abs(mirror_fidelity(chain500, b, t)), abs=1e-9
        )


def test_mirror_fidelity_third_chain_value(chain500, clock500):
    spec = GaussianSpec(center=501 / 3, alpha=ALPHA24)
    value = abs(mirror_fidelity(chain500, spec, clock500.revival_time / 3)) ** 2
    assert value == pytest.approx(0.98687, abs=1e-3)


def test_third_chain_quadratic_phase(chain500, clock500):
    # under quadratic phases the shortened revival carries phase exp(-i pi/3)
    spec = GaussianSpec(center=501 / 3, alpha=ALPHA24)
    initial = build_gwp(chain500, spec)
    target = build_gwp(chain500, spec.mirrored(chain500))
    evolved = evolve_quadratic(chain500, initial, clock500.revival_time / 3)
    phase = inner_product(target, evolved)
    assert phase == pytest.approx(np.exp(-1j * np.pi / 3), abs=1e-9)


def test_fractional_fidelity_full_revival_equals_mirror(chain500, clock500, spec50):
    frac = RevivalFraction(1, 1)
    assert fractional_fidelity(chain500, spec50, frac) == pytest.approx(
        abs(mirror_fidelity(chain500, spec50, clock500.revival_time)), abs=1e-12
    )


def test_fractional_fidelity_no_mirror_clone(chain500, spec50):
    with pytest.raises(NoMirrorCloneError):
        fractional_fidelity(chain500, spec50, RevivalFraction(2, 3))


def test_fractional_fidelity_dominates_mirror_fidelity(chain500, clock500, spec50):
    for p, q in ((1, 2), (1, 3), (1, 5), (3, 4)):
        frac = RevivalFraction(p, q)
        f = abs(mirror_fidelity(chain500, spec50, frac.time(chain500)))
        assert fractional_fidelity(chain500, spec50, frac) >= f - 1e-12


def test_fractional_fidelity_flags_clone_pileup(chain500):
    # commensurate center: a folded clone lands on the mirror site and the
    # single-coefficient normalisation overshoots 1
    spec = GaussianSpec(center=501 / 10, alpha=ALPHA24)
    with pytest.warns(UserWarning, match="exceeds 1"):
        value = fractional_fidelity(chain500, spec, RevivalFraction(1, 10))
    assert value**2 == pytest.approx(3.897, abs=0.01)


def test_trace_single_point_matches_scalar_ops(chain500, clock500, spec50, packet50):
    result = trace(chain500, packet50, [Fraction(1, 2)])
    t = clock500.revival_time / 2
    assert result.abs_f_sq[0] == pytest.approx(
        abs(mirror_fidelity(chain500, spec50, t)) ** 2, abs=1e-12
    )
    assert result.abs_a_sq[0] == pytest.approx(
        abs(autocorrelation(chain500, packet50, t)) ** 2, abs=1e-12
    )
    assert result.abs_ff_sq[0] == pytest.approx(
        fractional_fidelity(chain500, spec50, RevivalFraction(1, 2)) ** 2, abs=1e-12
    )


def test_trace_validates_grid(chain500, packet50):
    with pytest.raises(ValueError):
        trace(chain500, packet50, [])
    with pytest.raises(ValueError):
        trace(chain500, packet50, [0.2, 0.2, 0.3])
    with pytest.raises(ValueError):
        trace(chain500, packet50, [0.3, 0.1])
    with pytest.raises(ValueError, match="non-finite"):
        trace(chain500, packet50, [0.0, float("inf")])
    with pytest.raises(ValueError, match=r"2\*\*53"):
        trace(chain500, packet50, [1e19, 2e19])
    with pytest.raises(ValueError, match=r"2\*\*53"):
        trace(chain500, packet50, [0.5, 2.0**53])
    with pytest.raises(ValueError, match=r"2\*\*53"):  # finite, though g * t_rev is not
        trace(chain500, packet50, [1e306])


def test_trace_no_mirror_clone_is_nan(chain500, packet50):
    result = trace(chain500, packet50, [Fraction(0, 1), Fraction(2, 3)])
    assert np.isnan(result.abs_ff_sq).all()
    assert result.abs_a_sq[0] == pytest.approx(1.0, abs=1e-12)


def test_trace_bounds_and_determinism(chain500, packet50):
    grid = np.linspace(0.0, 1.0, 101)
    one = trace(chain500, packet50, grid)
    two = trace(chain500, packet50, grid)
    np.testing.assert_array_equal(one.abs_f_sq, two.abs_f_sq)
    np.testing.assert_array_equal(one.abs_a_sq, two.abs_a_sq)
    assert np.all((one.abs_f_sq >= 0) & (one.abs_f_sq <= 1 + 1e-9))
    assert np.all((one.abs_a_sq >= 0) & (one.abs_a_sq <= 1 + 1e-9))


def test_trace_profiles_and_runtime(chain500, packet50):
    # A trace carries no profiles; harness.run_scenario writes them, and the
    # norm of the evolved state they come from is checked by
    # test_propagator.py::test_norm_conserved_at_long_times.
    import time

    start = time.time()
    trace(chain500, packet50, np.linspace(0.0, 1.0, 2000))
    elapsed = time.time() - start
    assert elapsed < 60.0


def test_trace_memory_is_bounded():
    # no T x N phase table: at N = 4000 a 2001-point grid would need 128 MB
    import tracemalloc

    chain = ChainSpec(n_sites=4000)
    packet = build_gwp(chain, GaussianSpec(center=400.0, alpha=ALPHA24))
    tracemalloc.start()
    try:
        result = trace(chain, packet, np.linspace(0.0, 0.5, 2001), TraceOptions(max_denominator=8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.times) == 2001
    assert peak < 64 * 2**20


def test_trace_work_is_bounded_before_any_phase_table():
    # a one-site-wide packet keeps all 2**16 modes: 2**16 + 1 points are over 2**32
    import tracemalloc

    chain = ChainSpec(n_sites=2**16)
    packet = build_gwp(chain, GaussianSpec.from_half_width(center=100.0, half_width=1.0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="65537 points x 65536 kept modes x 1 states"):
            trace(chain, packet, np.linspace(0.0, 1.0, 2**16 + 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # a stack counts its states: half the points for each of two states are over it too
    with pytest.raises(ValueError, match="2 states"):
        _overlaps(chain, np.array([packet, packet]), np.linspace(0.0, 1.0, 2**15 + 1))


def _full_mode_sum(chain, state, times):
    # every one of the N modes, weights from scipy's orthonormal DST-I
    c = scipy.fft.dst(state, type=1, norm="ortho")
    w = np.abs(c) ** 2
    n = np.arange(1, chain.n_sites + 1)
    energies = -2.0 * np.cos(n * np.pi / (chain.n_sites + 1))
    phases = np.exp(-1j * np.outer(times, energies))
    return phases @ w, phases @ (np.where(n % 2 == 1, 1, -1) * w)


@pytest.mark.parametrize("case", ["contained4000", "edge500"])
def test_trace_matches_sum_over_all_modes(case, chain500, packet50):
    if case == "contained4000":
        chain = ChainSpec(n_sites=4000)
        packet = build_gwp(chain, GaussianSpec.from_half_width(center=800.0, half_width=24.0))
    else:
        chain, packet = chain500, packet50
    w = np.abs(scipy.fft.dst(packet, type=1, norm="ortho")) ** 2
    above = int((w > np.finfo(float).eps * w.sum() / chain.n_sites).sum())
    # the contained packet leaves most modes below rounding, the edge one none
    if case == "contained4000":
        assert above < chain.n_sites // 4
    else:
        assert above == chain.n_sites
    grid = np.concatenate((np.linspace(0.75, 0.85, 25), np.linspace(5.45, 5.55, 25)))
    result = trace(chain, packet, grid, TraceOptions(max_denominator=8))
    a, f = _full_mode_sum(chain, packet, grid * revival_clock(chain).revival_time)
    np.testing.assert_allclose(result.abs_f_sq, np.abs(f) ** 2, rtol=0, atol=1e-14)
    np.testing.assert_allclose(result.abs_a_sq, np.abs(a) ** 2, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "case, lo, hi", [("edge500", 5.45, 5.55), ("contained4000", 0.75, 0.85)]
)
def test_uniform_trace_matches_sum_over_all_modes(case, lo, hi, chain500, packet50):
    # a uniform grid goes through the anchor x step tables
    if case == "contained4000":
        chain = ChainSpec(n_sites=4000)
        packet = build_gwp(chain, GaussianSpec.from_half_width(center=800.0, half_width=24.0))
    else:
        chain, packet = chain500, packet50
    grid = np.linspace(lo, hi, 401)
    result = trace(chain, packet, grid, TraceOptions(max_denominator=8))
    a, f = _full_mode_sum(chain, packet, grid * revival_clock(chain).revival_time)
    np.testing.assert_allclose(result.abs_f_sq, np.abs(f) ** 2, rtol=0, atol=1e-10)
    np.testing.assert_allclose(result.abs_a_sq, np.abs(a) ** 2, rtol=0, atol=1e-10)


def test_step_table_matches_sum_over_all_modes(chain500, packet50):
    # 142 steps per anchor; at these early times float-time rounding is ~1e-13,
    # so a step or contraction error well below the 1e-10 tolerances shows
    grid = np.linspace(0.0, 0.05, 20001)
    result = trace(chain500, packet50, grid, TraceOptions(max_denominator=8))
    times = grid * revival_clock(chain500).revival_time
    for chunk in np.array_split(np.arange(len(grid)), 10):
        a, f = _full_mode_sum(chain500, packet50, times[chunk])
        np.testing.assert_allclose(result.abs_f_sq[chunk], np.abs(f) ** 2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.abs_a_sq[chunk], np.abs(a) ** 2, rtol=0, atol=1e-12)


def test_trace_memory_is_bounded_in_chain_length():
    # fig2a geometry at N = 1e5: an edge packet keeps every mode
    import tracemalloc

    chain = ChainSpec(n_sites=100_000)
    packet = build_gwp(chain, GaussianSpec.from_half_width(center=10_000.0, half_width=4800.0))
    tracemalloc.start()
    try:
        result = trace(chain, packet, np.linspace(0.0, 1.0, 101))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(result.abs_f_sq))
    assert peak < 64 * 2**20


def _limit_denominator(grid, cap):
    labels = [
        (g if isinstance(g, Fraction) else Fraction(float(g))).limit_denominator(cap)
        for g in grid
    ]
    return [fr.numerator for fr in labels], [fr.denominator for fr in labels]


def _bulk_labels(grid, cap):
    p, q = _labels(grid, np.array([float(g) for g in grid]), cap)
    return p.tolist(), q.tolist()


LABEL_GRIDS = {
    "fig2a": [Fraction(k, 1000) for k in range(6001)],
    "k/2000": [Fraction(k, 2000) for k in range(2001)],
    "k/840": [Fraction(k, 840) for k in range(841)],
    "linspace": np.linspace(0.0, 6.0, 20001),
    "random": np.sort(np.random.default_rng(7).uniform(0.0, 10.0, 20000)),
    # the long-chain benchmark windows of seeds 1-5: 1/2, 3/4, 2/3 +- 0.05
    **{
        f"window{p}/{q}": np.linspace(p / q - 0.05, p / q + 0.05, 8001)
        for p, q in ((1, 2), (3, 4), (2, 3))
    },
}


@pytest.mark.parametrize("name", LABEL_GRIDS)
def test_bulk_labels_equal_limit_denominator(name):
    grid = LABEL_GRIDS[name]
    assert _bulk_labels(grid, 128) == _limit_denominator(grid, 128)


def test_labels_beyond_the_farey_table_use_limit_denominator():
    grid = np.linspace(0.0, 2.0, 41)
    assert _bulk_labels(grid, 5000) == _limit_denominator(grid, 5000)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=1, max_size=40, unique=True
        ).map(sorted),
        st.lists(
            st.fractions(-10, 10, max_denominator=60), min_size=1, max_size=40, unique=True
        ).map(sorted),
    ),
    st.integers(1, 200),
)
def test_property_bulk_labels_equal_limit_denominator(grid, cap):
    assert _bulk_labels(grid, cap) == _limit_denominator(grid, cap)


@st.composite
def farey_midpoints(draw):
    # a/b < c/d with bc - ad = 1 and b + d > cap are neighbours in F_cap
    cap = draw(st.integers(1, 200))
    grid = set()
    for _ in range(draw(st.integers(1, 10))):
        b = draw(st.integers(1, cap))
        d = draw(st.integers(cap + 1 - b, cap).filter(lambda d: np.gcd(b, d) == 1))
        a = -pow(d, -1, b) % b
        c = (1 + a * d) // b
        grid.add(draw(st.integers(-10, 9)) + (Fraction(a, b) + Fraction(c, d)) / 2)
    return cap, sorted(grid)


@settings(max_examples=60, deadline=None)
@given(farey_midpoints())
def test_property_labels_break_ties_like_limit_denominator(case):
    cap, grid = case
    assert _bulk_labels(grid, cap) == _limit_denominator(grid, cap)


def test_farey_table_is_built_once_per_cap_and_read_only():
    tables = _farey(128)
    assert _farey(128) is tables
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
    grid = LABEL_GRIDS["k/2000"]
    first = _bulk_labels(grid, 128)
    p, q = _labels(grid, np.array([float(g) for g in grid]), 128)
    p[:], q[:] = -1, -1  # labels are the caller's own arrays
    assert _bulk_labels(grid, 128) == first


def test_overlaps_of_a_stack_match_each_state(chain500):
    # a contained packet keeps a low-k band, an edge packet every mode; the
    # stack keeps their union, within each state's eps * sum(w) bound
    states = np.array([
        build_gwp(chain500, GaussianSpec.from_half_width(center=c, half_width=w))
        for c, w in ((250.0, 24.0), (50.0, 4.0), (3.0, 8.0))
    ])
    for times in (np.array([0.37e5]), np.linspace(0.0, 2e5, 101)):
        stacked = _overlaps(chain500, states, times)
        assert stacked.shape == (2, len(states), len(times))
        for i, state in enumerate(states):
            np.testing.assert_allclose(stacked[:, i], _overlaps(chain500, state, times),
                                       rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="one state"):
        autocorrelation(chain500, states, 1.0)
    with pytest.raises(ValueError, match="one state"):
        trace(chain500, states, [0.5])


def test_trace_rejects_cap_below_one(chain500, packet50):
    with pytest.raises(ValueError, match="max_denominator"):
        trace(chain500, packet50, [0.5], TraceOptions(max_denominator=0))


def test_trace_expands_no_gauss_sums(monkeypatch, chain500, packet50):
    # the mirror weight is 1/sqrt(q) for odd p and 0 for even p, so the
    # trace needs no Gauss expansion; counting constructions of the result
    # type catches gauss_coefficients whichever way it is imported
    constructed = []
    init = GaussCoefficients.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(args or kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GaussCoefficients, "__init__", counting_init)
    grid = [Fraction(k, 1000) for k in range(6001)]  # fig2a: labels with p up to 6q
    result = trace(chain500, packet50, grid, TraceOptions(max_denominator=128))
    assert len(constructed) == 0
    monkeypatch.undo()

    # each point still gets its own label's mirror weight from the full expansion
    labels = [g.limit_denominator(128) for g in grid]
    mirror = np.array([
        abs(gauss_coefficients(RevivalFraction(fr.numerator, fr.denominator)).mirror)
        for fr in labels
    ])
    defined = mirror >= 1e-12
    np.testing.assert_array_equal(np.isnan(result.abs_ff_sq), ~defined)
    np.testing.assert_allclose(
        result.abs_ff_sq[defined], result.abs_f_sq[defined] / mirror[defined] ** 2,
        rtol=1e-12, atol=0,
    )


def test_find_peaks_monotone_is_empty():
    t = np.linspace(0, 1, 50)
    assert find_peaks(t, t**2, min_height=0.0, min_separation=0.01) == []


def test_find_peaks_reports_earlier_of_equal_maxima():
    t = np.arange(7, dtype=float)
    v = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    peaks = find_peaks(t, v, min_height=0.5, min_separation=2.0)
    assert peaks == [(1.0, 1.0)]


@pytest.mark.parametrize("n_times, n_values", [(5, 7), (7, 5)])
def test_find_peaks_refuses_times_and_values_of_different_lengths(n_times, n_values):
    with pytest.raises(ValueError, match=f"{n_times} times but {n_values} values"):
        find_peaks(np.arange(n_times, dtype=float), np.ones(n_values), min_height=0.0,
                   min_separation=0.1)


def test_find_peaks_separation_and_height():
    t = np.arange(9, dtype=float)
    v = np.array([0, 0.6, 0, 0.9, 0, 0.3, 0, 0.8, 0], dtype=float)
    peaks = find_peaks(t, v, min_height=0.5, min_separation=3.0)
    assert peaks == [(3.0, 0.9), (7.0, 0.8)]


def test_superposition_first_strong_peak_at_twelfth(chain500, clock500):
    # survivors n = +-1 mod 6 all share parity +1, so the first strong
    # recurrence sits at 2 pi/(24 dE) = t_rev/12
    spec = SuperpositionSpec.equal_weights([501 / 3, 2 * 501 / 3], alpha=ALPHA24)
    state = build_superposition(chain500, spec)
    grid = [Fraction(k, 2400) for k in range(0, 601)]
    result = trace(chain500, state, grid)
    peaks = find_peaks(result.times, result.abs_a_sq, min_height=0.5, min_separation=0.01)
    assert peaks, "no strong recurrence found"
    assert peaks[0][0] == pytest.approx(1 / 12, rel=0.02)
    assert peaks[0][1] >= 0.99
    # and nothing at the naive half period: k = 100 -> t = 1/24
    assert result.abs_a_sq[100] < 0.05
