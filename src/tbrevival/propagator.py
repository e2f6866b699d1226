"""Time evolution under the chain Hamiltonian and revival bookkeeping.

Evolution is spectral: transform to the mode basis, multiply phases
exp(-i e_n t), transform back.  This is exact to machine precision and
costs one O(N log N) sine transform each way; the forward one is reused
while the same state is evolved again (``chain._spectral``), and the
energies and the revival clock while the chain stays the same.

For a low-energy packet the offset-removed spectrum is nearly quadratic,

    -2J cos k_n + 2J = J k_n^2 + O(k^4) = n^2 dE,   dE = J pi^2/(N+1)^2,

so dE is the common divisor of all low-lying level spacings.  At
t_rev = pi/dE every quadratic phase is exp(-i n^2 pi) = (-1)^n, which is
the mirror parity pattern up to a global sign: the packet reassembles at
the mirrored position.  Mirror revivals therefore recur at odd multiples
of t_rev and the packet returns to its own position at even multiples.

The instant rule: an instant g in units of t_rev is finite with |g| < 2**53
(past it one ulp of g spans a revival), checked on g before it becomes the
time g t_rev, which must then be a finite float, or on t / t_rev where a
time is given.  A stacked evolution of more than 2**23 site-profiles
(instants x sites) is refused before it is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, _energies, _spectral, to_position

__all__ = [
    "RevivalClock",
    "revival_clock",
    "quadratic_energies",
    "evolve_exact",
    "evolve_quadratic",
    "profile",
]

# A stacked evolution holds ~65 B per site per instant, so ~550 MB at this size.
_MAX_SITE_PROFILES = 2**23


@dataclass(frozen=True)
class RevivalClock:
    """Quadratic level spacing dE and the mirror-revival time pi/dE."""

    level_spacing: float
    revival_time: float


@functools.lru_cache(maxsize=1)  # kept for the last chain: a RevivalClock is immutable
def revival_clock(chain: ChainSpec) -> RevivalClock:
    spacing = chain.hopping * np.pi**2 / (chain.n_sites + 1) ** 2
    return RevivalClock(level_spacing=spacing, revival_time=np.pi / spacing)


def quadratic_energies(chain: ChainSpec) -> np.ndarray:
    """Small-k approximate energies n^2 dE (constant -2J offset dropped)."""
    n = np.arange(1, chain.n_sites + 1)
    return n**2 * revival_clock(chain).level_spacing


def _instant_times(g, chain: ChainSpec | None = None):
    """g * t_rev after the instant rule on g itself (see above); without a chain, g as it is."""
    revivals = float(np.abs(g).max(initial=0.0))
    if not np.isfinite(revivals):  # nan if any instant is nan; no instants give 0
        raise ValueError(f"time must be finite, got {revivals}")
    if revivals >= 2**53:
        raise ValueError(f"time {revivals:g} t_rev is not below 2**53 t_rev")
    if chain is None:
        return g
    t_rev = revival_clock(chain).revival_time
    if revivals * t_rev == np.inf:  # Python floats: overflows to inf, with no warning
        raise ValueError(f"time {revivals:g} t_rev is not a finite float at t_rev = {t_rev:g}")
    return g * t_rev


def _floats(values) -> np.ndarray:
    """``values`` as a new float array, with inf for an int past the float range (never a time)."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        return np.full(np.shape(values), np.inf)


def _check_instants(chain: ChainSpec, times) -> np.ndarray:
    """The instant rule on times t, applied to |t| / t_rev; the times as a float array."""
    times = _floats(times)
    _instant_times(np.abs(times).max(initial=0.0) / revival_clock(chain).revival_time)
    return times


def _evolve(chain: ChainSpec, state: np.ndarray, t, energies) -> np.ndarray:
    t = _check_instants(chain, t)
    if np.size(t) * chain.n_sites > _MAX_SITE_PROFILES:
        raise ValueError(f"{np.size(t)} instants x {chain.n_sites} sites exceed the bound of "
                         f"{_MAX_SITE_PROFILES} site-profiles")
    return to_position(chain, _spectral(chain, state)
                       * np.exp(energies(chain) * (-1j * np.expand_dims(t, -1))))


def evolve_exact(chain: ChainSpec, state: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """exp(-iHt) applied to a position state; negative t evolves backward.

    A 1-D array of T instants gives (T, N), one row per instant: one stacked evolution.
    """
    return _evolve(chain, state, t, _energies)


def evolve_quadratic(chain: ChainSpec, state: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """Evolution with the quadratic spectrum n^2 dE, at one instant or an array of them.

    The constant -2J piece of the expansion is a global phase and is
    dropped; magnitudes are unaffected and the phase conventions of the
    analytic revival formulas are defined with it removed.
    """
    return _evolve(chain, state, t, quadratic_energies)


def profile(state: np.ndarray) -> np.ndarray:
    """Entrywise modulus |<j|state>|; invariant under global phase."""
    return np.abs(np.asarray(state, dtype=complex))
