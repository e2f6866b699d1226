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
It is the orthonormal DST-I, evaluated as an O(N log N) FFT of the odd
extension of length 2(N+1) (Makhoul, IEEE TASSP 28, 27 (1980)); nothing
is cached and no N x N matrix is formed.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class ChainSpec:
    """Open chain with ``n_sites`` sites and hopping integral ``hopping``."""

    n_sites: int
    hopping: float = 1.0

    def __post_init__(self) -> None:
        if int(self.n_sites) != self.n_sites or self.n_sites < 2:
            raise ValueError(f"n_sites must be an integer >= 2, got {self.n_sites!r}")
        if not self.hopping > 0:
            raise ValueError(f"hopping must be positive, got {self.hopping!r}")
        object.__setattr__(self, "n_sites", int(self.n_sites))
        object.__setattr__(self, "hopping", float(self.hopping))


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


def _as_state(chain: ChainSpec, state: np.ndarray) -> np.ndarray:
    arr = np.asarray(state, dtype=complex)
    if arr.ndim != 1 or arr.shape[0] != chain.n_sites:
        raise ValueError(
            f"state has shape {arr.shape}, expected ({chain.n_sites},) for this chain"
        )
    if not np.isfinite(arr).all():
        raise ValueError("state has non-finite (nan or inf) entries")
    return arr


def to_spectral(chain: ChainSpec, state: np.ndarray) -> np.ndarray:
    """Expand a position state over the standing-wave modes.

    coefficient_n = sqrt(2/(N+1)) sum_j sin(k_n j) amplitude_j.  The kernel
    is self-inverse (it is also :func:`to_position`), so norms are preserved
    up to rounding.  Entry n of the FFT of the odd extension [0, x, 0, -x
    reversed] is -2i sum_j sin(k_n j) x_j.
    """
    x = _as_state(chain, state)
    odd = np.concatenate(([0], x, [0], -x[::-1]))
    return np.fft.fft(odd)[1 : chain.n_sites + 1] * (1j / np.sqrt(2.0 * (chain.n_sites + 1)))


to_position = to_spectral


def reflect(chain: ChainSpec, state: np.ndarray) -> np.ndarray:
    """Mirror a position state about the chain centre: site j -> N+1-j."""
    return _as_state(chain, state)[::-1].copy()


def inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))
