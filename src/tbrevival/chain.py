"""Eigenstructure of the open uniform-hopping chain.

The chain has ``n_sites`` sites labelled j = 1..N and a single hopping
amplitude J > 0 between nearest neighbours, H = -J sum_j (|j><j+1| + h.c.)
with open ends.  Its eigenmodes are the standing waves

    <j|mode n> = sqrt(2/(N+1)) sin(k_n j),   k_n = n pi/(N+1),  n = 1..N,

with energies -2J cos(k_n).  Units are hbar = 1, so time is measured in
1/J.

States are plain complex vectors.  A position state stores the amplitude
on site j at array index j-1; a spectral state stores the coefficient of
mode n at index n-1.  The sine transform that maps between the two is
real, symmetric and orthogonal, so one function performs both directions.
It is the orthonormal DST-I, evaluated in O(N log N) through one complex
FFT of length N+1 of an auxiliary array, not of the length-2(N+1) odd
extension (Makhoul, IEEE TASSP 28, 27 (1980); Numerical Recipes, section
12.3, ``sinft``); no N x N matrix is formed.  The transform and
``reflect`` also take an (M, N) stack of states, one per row.

The public functions return fresh, writable arrays on every call.  Three
private ``lru_cache``s keep one read-only entry each: ``_sines`` the sine
row of every transform of one length (4 B per site), ``_energies`` the mode
energies of one ``ChainSpec`` (8 B per site), and ``_transform`` one forward
transform (32 B per site), keyed by a copy of the input's bytes, as an
array is neither hashable nor immutable: a caller that evolves one state to
several instants, or evolves it and then traces it, transforms it once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainSpec",
    "EigenMode",
    "eigen_modes",
    "mode_wavenumbers",
    "mode_energies",
    "mode_parities",
    "hamiltonian_matrix",
    "to_spectral",
    "to_position",
    "reflect",
    "inner_product",
]

# A trace plus one profile peaks at ~265 B per site (44 B of it the memos), so ~1.1 GB here.
_MAX_SITES = 2**22


@dataclass(frozen=True)
class ChainSpec:
    """Open chain with ``n_sites`` sites and hopping integral ``hopping``."""

    n_sites: int
    hopping: float = 1.0

    def __post_init__(self) -> None:
        n, j = self.n_sites, self.hopping
        if n > _MAX_SITES:
            raise ValueError(f"n_sites is too large: the limit is {_MAX_SITES} sites")
        if not n >= 2 or int(n) != n:
            raise ValueError(f"n_sites {n!r} is not an integer >= 2")
        # the band edge 2J and the revival time (N+1)^2/(pi J) must be finite floats:
        # 2J is below 2**1024 just when J is below 2**1023, an int J too
        if not (0 < j < 2.0**1023 and (n + 1) ** 2 / (math.pi * j) < math.inf):
            raise ValueError(f"hopping {j!r} is not positive with a finite band and revival time")
        object.__setattr__(self, "n_sites", int(n))
        object.__setattr__(self, "hopping", float(j))


@dataclass(frozen=True)
class EigenMode:
    """One standing-wave mode: 1-based index, wavenumber, energy, mirror parity."""

    index: int
    wavenumber: float
    energy: float
    parity: int


def mode_wavenumbers(chain: ChainSpec) -> np.ndarray:
    """k_n = n pi/(N+1) for n = 1..N."""
    n = np.arange(1, chain.n_sites + 1)
    return n * np.pi / (chain.n_sites + 1)


def mode_energies(chain: ChainSpec) -> np.ndarray:
    """Energies -2J cos(k_n), strictly increasing in n."""
    return -2.0 * chain.hopping * np.cos(mode_wavenumbers(chain))


@functools.lru_cache(maxsize=1)
def _energies(chain: ChainSpec) -> np.ndarray:
    """:func:`mode_energies`, read-only, kept for the last chain asked for."""
    energies = mode_energies(chain)
    energies.flags.writeable = False
    return energies


def mode_parities(chain: ChainSpec) -> np.ndarray:
    """Mirror eigenvalues (-1)^(n+1): mode n maps to itself times this under j -> N+1-j."""
    n = np.arange(1, chain.n_sites + 1)
    return np.where(n % 2 == 1, 1, -1)


def eigen_modes(chain: ChainSpec) -> list[EigenMode]:
    k = mode_wavenumbers(chain)
    e = mode_energies(chain)
    p = mode_parities(chain)
    return [
        EigenMode(index=n + 1, wavenumber=float(k[n]), energy=float(e[n]), parity=int(p[n]))
        for n in range(chain.n_sites)
    ]


def hamiltonian_matrix(chain: ChainSpec) -> np.ndarray:
    """Dense tridiagonal Hamiltonian, mainly for cross-checks against the spectral path."""
    h = np.zeros((chain.n_sites, chain.n_sites))
    off = -chain.hopping * np.ones(chain.n_sites - 1)
    h[np.arange(chain.n_sites - 1), np.arange(1, chain.n_sites)] = off
    h[np.arange(1, chain.n_sites), np.arange(chain.n_sites - 1)] = off
    return h


def _as_state(chain: ChainSpec, state: np.ndarray, stack: bool = True) -> np.ndarray:
    arr = np.asarray(state, dtype=complex)
    if arr.ndim not in ((1, 2) if stack else (1,)) or arr.shape[-1] != chain.n_sites:
        n = chain.n_sites
        expected = f"({n},) or (M, {n})" if stack else f"({n},)"
        raise ValueError(f"state has shape {arr.shape}, expected {expected} for this chain")
    if not np.isfinite(arr).all():
        raise ValueError("state has non-finite (nan or inf) entries")
    return arr


@functools.lru_cache(maxsize=1)
def _sines(m: int) -> np.ndarray:
    """sqrt(0.5/m) sin(pi j/m) for j = 1..m//2, read-only, kept for the last length m = N+1."""
    row = np.sqrt(0.5 / m) * np.sin(np.arange(1, m // 2 + 1) * (np.pi / m))
    row.flags.writeable = False
    return row


def to_spectral(chain: ChainSpec, state: np.ndarray) -> np.ndarray:
    """Expand a position state over the standing-wave modes.

    coefficient_n = sqrt(2/(N+1)) sum_j sin(k_n j) amplitude_j.  The kernel
    is self-inverse (it is also :func:`to_position`), so norms are preserved
    up to rounding.  With M = N+1 and x_0 = x_M = 0, the auxiliary array
    y_j = sin(pi j/M)(x_j + x_{M-j}) + (x_j - x_{M-j})/2, j = 0..M-1, has the
    length-M FFT Y with X_{2k} = (i/2)(Y_k - Y_{-k}) and
    X_{2k+1} - X_{2k-1} = (Y_k + Y_{-k})/2, where X_{-1} = -X_1, so the odd
    coefficients are a running sum (Numerical Recipes, ``sinft``).  Every step
    is complex-linear, so complex states take the same path as real ones.
    An (M, N) stack of states is transformed row by row in one pass.
    """
    x = _as_state(chain, state)
    n = chain.n_sites
    m, c = n + 1, (n + 1) // 2
    # y_j and y_{M-j} (j = 1..c; j = c is the middle site when N is odd) share
    # sin(pi j/M), x_j + x_{M-j} and x_j - x_{M-j}.  Folded into them: the
    # normalisation sqrt(2/M), the factors 1/2, and the i of the even modes
    # on the antisymmetric part, whose transform is odd in k and so drops
    # out of Y_k + Y_{-k}.
    lo, hi = x[..., :c], x[..., ::-1][..., :c]
    sym = _sines(m) * (lo + hi)
    anti = (0.5j * np.sqrt(0.5 / m)) * (lo - hi)
    y = np.zeros(x.shape[:-1] + (m,), dtype=complex)
    np.add(sym, anti, out=y[..., 1 : c + 1])
    np.subtract(sym, anti, out=y[..., : m - c - 1 : -1])
    y = np.fft.fft(y)
    out = np.empty(x.shape, dtype=complex)
    np.subtract(y[..., 1 : n // 2 + 1], y[..., : n - n // 2 : -1], out=out[..., 1::2])  # X_{2k}
    out[..., 0] = y[..., 0]
    np.add(y[..., 1:c], y[..., : m - c : -1], out=out[..., 2::2])
    np.cumsum(out[..., 0::2], axis=-1, out=out[..., 0::2])  # X_{2k+1}
    return out


to_position = to_spectral

def _spectral(chain: ChainSpec, state: np.ndarray) -> np.ndarray:
    """:func:`to_spectral` of ``state``, read-only, reused while the same input is asked for.

    The output is reused only for an input of the same shape whose bytes are
    all equal (-0.0 is not 0.0), however it was mutated or rebuilt in between.
    """
    x = _as_state(chain, state)
    return _transform(chain, x.shape, x.tobytes())


@functools.lru_cache(maxsize=1)
def _transform(chain: ChainSpec, shape: tuple, data: bytes) -> np.ndarray:
    out = to_spectral(chain, np.frombuffer(data, dtype=complex).reshape(shape))
    out.flags.writeable = False
    return out


def reflect(chain: ChainSpec, state: np.ndarray) -> np.ndarray:
    """Mirror a position state about the chain centre: site j -> N+1-j."""
    return _as_state(chain, state)[..., ::-1].copy()


def inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))
