"""Scalar revival diagnostics and fidelity traces over time grids.

The three diagnostics: autocorrelation A(t) = <initial|evolved(t)>, mirror
fidelity F(t) = <mirrored initial|evolved(t)>, and fractional fidelity
|F_f| = |F| / |b_{l/2}|, which rescales F by the Gauss-sum weight of the
mirror-image clone at t = (p/q) t_rev.  That weight has the closed form
|b_{l/2}| = 1/sqrt(q) for odd p and 0 for even p, so no Gauss sum is
expanded here.  A faithful partial clone scores 1 only where no folded
clone also lands on the mirror site.  Where folded clones pile up there
(commensurate centers) the predicted mirror amplitude differs from
|b_{l/2}| and the value misses 1 in either direction; at even p it is
undefined even when a folded clone sits at the mirror.

Fidelities are complex for programmatic phase checks; traces record the
squared magnitudes that get plotted.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chain import ChainSpec, mode_energies, mode_parities, to_spectral
from .propagator import _check_instants, _instant_times
from .revival import RevivalFraction
from .wavepacket import GaussianSpec, build_gwp

__all__ = [
    "NoMirrorCloneError",
    "autocorrelation",
    "mirror_fidelity",
    "fractional_fidelity",
    "TraceOptions",
    "FidelityTrace",
    "trace",
    "find_peaks",
]


class NoMirrorCloneError(ValueError):
    """p is even at t = (p/q) t_rev, so b_{l/2} = 0: no clone sits at the mirror position."""


# Complex entries per phase table of _overlaps, and per candidate table of
# _labels: bounds their memory whatever the chain length and grid size.
_BLOCK = 2**18
# Modes with w_n <= _CUT * sum(w) / N are left out of _overlaps' sum.
_CUT = np.finfo(float).eps
# Points x kept modes x states per _overlaps call: ~20 s at ~4.7 ns per point-mode.
_MAX_TRACE_WORK = 2**32


def _overlaps(chain: ChainSpec, initial: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Rows A(t) and F(t): sum_n w_n exp(-i E_n t), w_n = |c_n|^2 and (-1)^(n+1) |c_n|^2.

    Reflection multiplies mode n by its parity (-1)^(n+1), so with S_odd and
    S_even the sums over odd and even n, A = S_odd + S_even and
    F = S_odd - S_even.  The sums run over the K modes with
    w_n > eps * sum(w) / N only.  The N or fewer modes left out weigh at most
    eps * sum(w) in all, so A and F move by at most that at every t.  A
    packet that touches the chain edge keeps every mode; a contained one
    keeps its low-k band.

    ``initial`` is one state, giving shape (2, T), or an (M, N) stack of
    them, giving (2, M, T).  A stack keeps the union of the modes its states
    keep, so each state's bound above still holds.

    A uniform grid t_k = t_0 + k Delta (every point within 4 eps max|t| of
    it) is split as k = aB + b, with stride B about sqrt(T):
    exp(-i E t_k) = exp(-i E t_aB) exp(-i E Delta)^b.  The anchor table holds
    direct exponentials at the grid's own times t[::B]; the B x K step table
    is the cumulative product of one row exp(-i E Delta), whose relative
    error grows as about b eps.  A trace costs (T/B) K exponentials, B K
    multiplies and T K multiply-adds per state, the last as K-long dot
    products of an anchor row with a step row.  Any other grid takes B = 1:
    the grid's own phases against a step table of ones.  No anchor table and
    no state's step table exceeds _BLOCK entries, and a call of over
    _MAX_TRACE_WORK points x kept modes x states is refused before any
    table is built.  No matrix product (gemm) is used: at these sizes it
    wakes BLAS threads that cost more CPU time than they save wall time.
    """
    _check_instants(chain, times)
    spectral = to_spectral(chain, initial)
    w = np.abs(spectral.reshape(-1, chain.n_sites)) ** 2
    kept = np.any(w > _CUT * w.sum(axis=1, keepdims=True) / chain.n_sites, axis=0)
    odd = kept & (mode_parities(chain) > 0)
    order = np.concatenate((np.flatnonzero(odd), np.flatnonzero(kept & ~odd)))
    split = np.count_nonzero(odd)
    w, energies = w[:, order], mode_energies(chain)[order]
    states, modes = w.shape
    count = len(times)
    if count * modes * states > _MAX_TRACE_WORK:
        raise ValueError(f"{count} points x {modes} kept modes x {states} states exceed the "
                         f"bound of {_MAX_TRACE_WORK} point-modes")

    delta = (times[-1] - times[0]) / max(count - 1, 1)
    drift = np.abs(times - (times[0] + delta * np.arange(count)))
    uniform = np.all(drift <= 4 * np.finfo(float).eps * np.abs(times).max())
    anchors_per_table = max(1, _BLOCK // max(modes, 1))
    stride = min(int(np.ceil(np.sqrt(count))), anchors_per_table) if uniform else 1
    step_phases = np.ones((stride, modes), dtype=complex)
    if stride > 1:
        step_phases[1:] = np.exp(-1j * delta * energies)
        np.cumprod(step_phases, axis=0, out=step_phases)
    steps = (w[:, None, :] * step_phases).reshape(states * stride, modes)
    anchors = times[::stride]
    out = np.empty((2, states, len(anchors) * stride), dtype=complex)
    for s in range(0, len(anchors), anchors_per_table):
        phases = np.exp(-1j * np.outer(anchors[s : s + anchors_per_table], energies))
        odd_sum, even_sum = (
            np.matmul(phases[:, None, None, part], steps[None, :, part, None])
            .reshape(len(phases), states, stride).transpose(1, 0, 2).reshape(states, -1)
            for part in (np.s_[:split], np.s_[split:])
        )
        end = s * stride + odd_sum.shape[1]
        out[:, :, s * stride : end] = odd_sum + even_sum, odd_sum - even_sum
    return out[..., :count] if spectral.ndim == 2 else out[:, 0, :count]


def _one_state(initial) -> np.ndarray:
    if np.ndim(initial) != 1:
        raise ValueError(f"expected one state, got an array of shape {np.shape(initial)}")
    return initial


def autocorrelation(chain: ChainSpec, initial: np.ndarray, t: float) -> complex:
    """A(t) = <initial|exp(-iHt)|initial>."""
    return complex(_overlaps(chain, _one_state(initial), np.array([t]))[0, 0])


def mirror_fidelity(chain: ChainSpec, spec: GaussianSpec, t: float) -> complex:
    """F(t): overlap of the evolved packet with a fresh packet at the mirror site."""
    return complex(_overlaps(chain, build_gwp(chain, spec), np.array([t]))[1, 0])


def fractional_fidelity(chain: ChainSpec, spec: GaussianSpec, fraction: RevivalFraction) -> float:
    """|F(tau)| / |b_{l/2}| = |F(tau)| sqrt(q) at tau = (p/q) t_rev.

    Raises :class:`NoMirrorCloneError` when p is even, where b_{l/2} = 0 (no
    mirror clone is predicted at this fraction).  Values above 1 + 1e-6 are
    reported with a warning: they flag instants where folded clones pile
    onto the mirror position and the single-coefficient normalisation
    underestimates the predicted amplitude there.
    """
    return _fractional(fraction, abs(mirror_fidelity(chain, spec, fraction.time(chain))))


def _fractional(fraction: RevivalFraction, abs_f):
    """|F_f| = |F| sqrt(q) of one |F(tau)| or an array of them; see fractional_fidelity."""
    p, q = fraction.numerator, fraction.denominator
    if p % 2 == 0:
        raise NoMirrorCloneError(f"no mirror clone at fraction {fraction}")
    value = abs_f * np.sqrt(q)
    values = np.atleast_1d(value)
    for over in values[values > 1 + 1e-6]:
        warnings.warn(
            f"fractional fidelity {over:.4f} exceeds 1 at {fraction}: "
            "clone coincidence at the mirror position",
            stacklevel=3,
        )
    return value


@dataclass(frozen=True)
class TraceOptions:
    """Trace knob: the denominator cap of the rational labels behind ``abs_ff_sq``."""

    max_denominator: int = 128


@dataclass(frozen=True)
class FidelityTrace:
    """Sampled |F|^2, |F_f|^2, |A|^2 over a grid of times in units of t_rev.

    ``abs_ff_sq`` is NaN where no mirror clone exists for the grid point's
    rational label p/q, i.e. where p is even (including t = 0).  A trace
    holds no profiles: ``harness.run_scenario`` writes them from ``profiles_at``.
    """

    times: np.ndarray
    abs_f_sq: np.ndarray
    abs_ff_sq: np.ndarray
    abs_a_sq: np.ndarray


@functools.lru_cache(maxsize=8)
def _farey(cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numerators, denominators and neighbour midpoints of F_cap in [0, 1], read-only."""
    p, q = np.meshgrid(np.arange(cap + 1), np.arange(1, cap + 1))
    keep = (p <= q) & (np.gcd(p, q) == 1)
    p, q = p[keep], q[keep]
    order = np.argsort(p / q)
    p, q = p[order], q[order]
    mids = (p[:-1] / q[:-1] + p[1:] / q[1:]) / 2
    for table in (p, q, mids):
        table.flags.writeable = False  # shared by every later call with this cap
    return p, q, mids


def _labels(grid, times: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of each point's closest rational with denominator <= cap.

    Equal to ``Fraction.limit_denominator(cap)`` of each grid entry (a float
    entry is first read as its exact binary value).  The fractional part of
    each point is looked up among the midpoints of neighbouring terms of the
    Farey sequence F_cap, built once per cap.  Points within 1e-9 (plus half
    a float spacing) of a midpoint, and every point when F_cap's candidate
    table would exceed _BLOCK entries, are labelled by ``limit_denominator``
    itself, so ties resolve as it resolves them.
    """
    whole = np.floor(times)
    if cap * (cap + 1) <= _BLOCK:
        p, q, mids = _farey(cap)
        rest = times - whole
        at = np.searchsorted(mids, rest)
        near = np.abs(mids[np.clip((at - 1, at), 0, len(mids) - 1)] - rest).min(axis=0)
        # a Fraction entry may sit up to half a spacing from its float
        exact = np.flatnonzero(near <= 1e-9 + np.spacing(np.abs(times)))
        p, q = whole.astype(np.int64) * q[at] + p[at], q[at]
    else:
        exact = range(len(times))
        p, q = np.empty((2, len(times)), dtype=np.int64)
    for i in exact:
        g = grid[i]
        label = (g if isinstance(g, Fraction) else Fraction(float(g))).limit_denominator(cap)
        p[i], q[i] = label.numerator, label.denominator
    return p, q


def trace(
    chain: ChainSpec,
    initial: np.ndarray,
    grid,
    options: TraceOptions | None = None,
) -> FidelityTrace:
    """Evaluate the diagnostics on a strictly increasing grid of t/t_rev.

    Grid entries may be floats or :class:`fractions.Fraction`; a grid object
    may also supply its float times through ``__array__`` and an exact
    ``Fraction`` per index (``harness.DenominatorGrid``).  For the
    fractional-fidelity normalisation every entry is labelled by its
    closest rational within ``options.max_denominator`` (at least 1), the
    whole grid at once from the Farey sequence; fractions that already
    reduce below the cap pass through exactly.  A label p/q with odd p gives
    |F_f|^2 = q |F|^2; even p gives NaN.  A uniform grid is summed as anchor
    x step phase tables (see ``_overlaps``); values agree with the pointwise
    sum to about 1e-10 at 6 t_rev and do not depend on evaluation order.
    """
    options = options or TraceOptions()
    if len(grid) == 0:
        raise ValueError("time grid is empty")
    if options.max_denominator < 1:
        raise ValueError(f"max_denominator must be at least 1, got {options.max_denominator!r}")
    times = np.array(grid, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"time grid has shape {times.shape}, expected a sequence of times")
    if not np.all(np.isfinite(times)):
        raise ValueError("time grid has non-finite entries")
    if len(times) > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("time grid must be strictly increasing")

    # the instant rule rejects |g| >= 2**53 first, where _labels' int64 numerators overflow
    a_vals, f_vals = _overlaps(chain, _one_state(initial), _instant_times(times, chain))
    p, q = _labels(grid, times, options.max_denominator)
    abs_f_sq = np.abs(f_vals) ** 2
    return FidelityTrace(
        times=times,
        abs_f_sq=abs_f_sq,
        abs_ff_sq=np.where(p % 2 == 1, abs_f_sq * q, np.nan),
        abs_a_sq=np.abs(a_vals) ** 2,
    )


def find_peaks(
    times: np.ndarray,
    values: np.ndarray,
    min_height: float,
    min_separation: float,
) -> list[tuple[float, float]]:
    """Local maxima at least ``min_height`` tall and ``min_separation`` apart.

    Higher peaks win inside a separation window; exact ties go to the
    earlier time.  Returns (time, value) pairs sorted by time.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) != len(values):
        raise ValueError(f"{len(times)} times but {len(values)} values")
    candidates = [
        i
        for i in range(1, len(values) - 1)
        if values[i] >= values[i - 1] and values[i] >= values[i + 1] and values[i] >= min_height
    ]
    accepted: list[int] = []
    for i in sorted(candidates, key=lambda i: (-values[i], times[i])):
        if all(abs(times[i] - times[j]) >= min_separation for j in accepted):
            accepted.append(i)
    return [(float(times[i]), float(values[i])) for i in sorted(accepted, key=lambda i: times[i])]
