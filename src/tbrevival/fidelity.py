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

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chain import ChainSpec, mode_energies, mode_parities, to_spectral
from .propagator import evolve_exact, revival_clock
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


# Time points per block of _overlaps; bounds its phase table at _TIME_BLOCK x kept modes.
_TIME_BLOCK = 128
# Modes with w_n <= _CUT * sum(w) / N are left out of _overlaps' sum.
_CUT = np.finfo(float).eps


def _overlaps(chain: ChainSpec, initial: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Rows A(t) and F(t): sum_n w_n exp(-i E_n t), w_n = |c_n|^2 and (-1)^(n+1) |c_n|^2.

    Reflection multiplies mode n by its parity (-1)^(n+1), hence the mirror
    weights.  The sum runs over the modes with w_n > eps * sum(w) / N only.
    The N or fewer modes left out weigh at most eps * sum(w) in all, so A
    and F move by at most that at every t.  A packet that touches the chain
    edge keeps every mode; a contained one keeps its low-k band.
    Unoptimised einsum stays off BLAS, whose second thread costs CPU time
    here and saves no wall time.
    """
    w = np.abs(to_spectral(chain, initial)) ** 2
    kept = w > _CUT * w.sum() / chain.n_sites
    w = w[kept]
    weights = np.stack((w, mode_parities(chain)[kept] * w))
    energies = mode_energies(chain)[kept]
    out = np.empty((2, len(times)), dtype=complex)
    for s in range(0, len(times), _TIME_BLOCK):
        phases = np.exp(-1j * np.outer(times[s : s + _TIME_BLOCK], energies))
        out[:, s : s + _TIME_BLOCK] = np.einsum("tn,wn->wt", phases, weights, optimize=False)
    return out


def autocorrelation(chain: ChainSpec, initial: np.ndarray, t: float) -> complex:
    """A(t) = <initial|exp(-iHt)|initial>."""
    return complex(_overlaps(chain, initial, np.array([t]))[0, 0])


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
    p, q = fraction.numerator, fraction.denominator
    if p % 2 == 0:
        raise NoMirrorCloneError(f"no mirror clone at fraction {fraction}")
    value = abs(mirror_fidelity(chain, spec, fraction.time(chain))) * np.sqrt(q)
    if value > 1 + 1e-6:
        warnings.warn(
            f"fractional fidelity {value:.4f} exceeds 1 at {fraction}: "
            "clone coincidence at the mirror position",
            stacklevel=2,
        )
    return value


@dataclass(frozen=True)
class TraceOptions:
    """Trace knobs: rational labelling cap and optional profile snapshots."""

    max_denominator: int = 128
    profile_times: tuple[float, ...] = ()


@dataclass(frozen=True)
class FidelityTrace:
    """Sampled |F|^2, |F_f|^2, |A|^2 over a grid of times in units of t_rev.

    ``abs_ff_sq`` is NaN where no mirror clone exists for the grid point's
    rational label p/q, i.e. where p is even (including t = 0).
    """

    times: np.ndarray
    abs_f_sq: np.ndarray
    abs_ff_sq: np.ndarray
    abs_a_sq: np.ndarray
    profiles: dict = field(default_factory=dict)


def trace(
    chain: ChainSpec,
    initial: np.ndarray,
    grid,
    options: TraceOptions | None = None,
) -> FidelityTrace:
    """Evaluate the diagnostics on a strictly increasing grid of t/t_rev.

    Grid entries may be floats or :class:`fractions.Fraction`.  For the
    fractional-fidelity normalisation every entry is labelled by its
    closest rational within ``options.max_denominator``; fractions that
    already reduce below the cap pass through exactly.  A label p/q with odd
    p gives |F_f|^2 = q |F|^2; even p gives NaN.  Points are independent,
    so results do not depend on evaluation order.
    """
    options = options or TraceOptions()
    if len(grid) == 0:
        raise ValueError("time grid is empty")
    times = np.array([float(g) for g in grid], dtype=float)
    if len(times) > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("time grid must be strictly increasing")

    t_rev = revival_clock(chain).revival_time
    a_vals, f_vals = _overlaps(chain, initial, times * t_rev)

    labels = [
        (g if isinstance(g, Fraction) else Fraction(float(g))).limit_denominator(
            options.max_denominator
        )
        for g in grid
    ]
    p, q = np.array([(fr.numerator, fr.denominator) for fr in labels]).T
    abs_f_sq = np.abs(f_vals) ** 2

    profiles = {}
    for pt in options.profile_times:
        profiles[float(pt)] = np.abs(evolve_exact(chain, initial, float(pt) * t_rev))

    return FidelityTrace(
        times=times,
        abs_f_sq=abs_f_sq,
        abs_ff_sq=np.where(p % 2 == 1, abs_f_sq * q, np.nan),
        abs_a_sq=np.abs(a_vals) ** 2,
        profiles=profiles,
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
