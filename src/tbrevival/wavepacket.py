"""Gaussian wave packets and their superpositions.

A packet is parameterised either by the momentum-space width ``alpha`` or
by the real-space half width ``half_width`` (full width at half maximum of
the site probability), related exactly by

    half_width = 2 sqrt(ln 2) / alpha.

Site amplitudes follow exp(-alpha^2 (j - center)^2 / 2); normalisation is
by the actual discrete norm, so builders always return unit vectors.
Non-integer centers are allowed and evaluated directly.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, _as_state, _shown, mode_wavenumbers

__all__ = [
    "GaussianSpec",
    "SuperpositionSpec",
    "SURVIVOR_TOLERANCE",
    "build_gwp",
    "build_gwp_spectral",
    "build_superposition",
    "packet_overlap",
    "surviving_modes",
    "high_mode_weight",
]

# Relative cutoff below which a spectral coefficient counts as an exact
# symmetry zero rather than a small Gaussian tail.
SURVIVOR_TOLERANCE = 1e-8

_WIDTH_FACTOR = 2.0 * np.sqrt(np.log(2.0))
_CANCELLED = "superposition components cancel exactly or are not finite"


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha <= sys.float_info.max:  # an int past the float range too
        raise ValueError(f"alpha must be positive and finite, got {_shown(alpha)}")


def _or_inf(value):
    """``value``, or inf for an int past the float range, which a packet refuses as it does inf."""
    return np.inf if isinstance(value, int) and abs(value) > sys.float_info.max else value


@dataclass(frozen=True)
class GaussianSpec:
    """Packet centre (site units, may be fractional) and width parameter alpha."""

    center: float
    alpha: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        object.__setattr__(self, "center", _or_inf(self.center))

    @classmethod
    def from_half_width(cls, center: float, half_width: float) -> "GaussianSpec":
        if (not 0 < half_width <= sys.float_info.max
                or float(_WIDTH_FACTOR) / float(half_width) == np.inf):
            raise ValueError(f"half_width must be positive and finite, and give a finite alpha; "
                             f"got {_shown(half_width)}")
        return cls(center=float(_or_inf(center)), alpha=_WIDTH_FACTOR / half_width)

    @property
    def half_width(self) -> float:
        return _WIDTH_FACTOR / self.alpha

    def is_contained(self, chain: ChainSpec) -> bool:
        """True when the packet sits inside the chain with half a width to spare."""
        half = self.half_width / 2.0
        return 1.0 + half < self.center < chain.n_sites - half

    def mirrored(self, chain: ChainSpec) -> "GaussianSpec":
        return GaussianSpec(center=chain.n_sites + 1 - self.center, alpha=self.alpha)


@dataclass(frozen=True)
class SuperpositionSpec:
    """Weighted Gaussian components sharing one alpha; weights need not be normalised."""

    centers: tuple[float, ...]
    weights: tuple[complex, ...]
    alpha: float

    def __post_init__(self) -> None:
        if len(self.centers) == 0:
            raise ValueError("superposition needs at least one center")
        if len(self.weights) != len(self.centers):
            raise ValueError("weights and centers must have the same length")
        _check_alpha(self.alpha)
        object.__setattr__(self, "weights", tuple(map(_or_inf, self.weights)))

    @classmethod
    def equal_weights(cls, centers, alpha: float) -> "SuperpositionSpec":
        cs = tuple(float(_or_inf(c)) for c in centers)
        return cls(centers=cs, weights=(1.0 + 0.0j,) * len(cs), alpha=float(alpha))


def _warn_if_not_contained(chain: ChainSpec, spec: GaussianSpec, stacklevel: int = 3) -> None:
    if not spec.is_contained(chain):
        warnings.warn(
            f"packet at {spec.center} with half width {spec.half_width:.3g} "
            f"is not fully contained in a chain of {chain.n_sites} sites",
            stacklevel=stacklevel,
        )


def _scaled(vector, message: str) -> np.ndarray:
    """``vector`` times 2**-e, e the binary exponent of its largest real or imaginary part, as in
    Blue's norm (ACM TOMS 4, 15 (1978)): exact but for entries 2**-1022 below that part, which it
    brings into [0.5, 1). ``ValueError(message)`` when no entry is nonzero or one is not finite."""
    parts = np.ascontiguousarray(vector, dtype=complex).view(float)  # real, imag, real, ...
    peak = max(parts.max(), -parts.min())  # nan in both when there is one
    if not 0 < peak < np.inf:
        raise ValueError(message)
    return np.ldexp(parts, -np.frexp(peak)[1]).view(complex)  # 2**1073 is not a float


def _unit(vector: np.ndarray, message: str) -> np.ndarray:
    """``vector`` at unit norm: one exact :func:`_scaled`, one norm, one product by its inverse."""
    vector = _scaled(vector, message)
    return vector * (1.0 / np.linalg.norm(vector))  # numpy's complex / real, but for -0.0 signs


def _unit_coefficients(chain: ChainSpec, coefficients) -> np.ndarray:
    """One spectral state of ``chain`` at unit norm; any other shape, or no weight, is refused."""
    return _unit(_as_state(chain, coefficients, stack=False),
                 "spectral coefficients have zero or non-finite norm")


def build_gwp(chain: ChainSpec, spec: GaussianSpec) -> np.ndarray:
    """Normalised Gaussian packet in position space."""
    _warn_if_not_contained(chain, spec)
    j = np.arange(1, chain.n_sites + 1, dtype=float)
    # numpy's power overflows to inf where a Python float's would raise; an
    # exponent that overflows (or is inf * 0) gives no finite weight, which _unit refuses
    with np.errstate(over="ignore", invalid="ignore"):
        amps = np.exp(-np.float64(spec.alpha) ** 2 * (j - spec.center) ** 2 / 2.0).astype(complex)
    return _unit(amps, f"packet at {spec.center} with alpha {spec.alpha:.3g} "
                       "has no finite weight on the chain")


def build_gwp_spectral(chain: ChainSpec, spec: GaussianSpec) -> np.ndarray:
    """The same packet built directly from its mode expansion.

    coefficient_n is proportional to sin(k_n center) exp(-k_n^2 / 2 alpha^2);
    centers commensurate with the chain produce exact zeros here (e.g. every
    third mode for center (N+1)/3), which is what shortens revival periods.
    """
    _warn_if_not_contained(chain, spec)
    return _gwp_spectral(chain, spec)


def _gwp_spectral(chain: ChainSpec, spec: GaussianSpec) -> np.ndarray:
    """:func:`build_gwp_spectral` without its containment warning."""
    k = mode_wavenumbers(chain)
    with np.errstate(invalid="ignore"):  # sin(inf) of an inf center, which _unit refuses
        coeff = (np.sin(k * spec.center) * np.exp(-(k**2) / (2.0 * spec.alpha**2))).astype(complex)
    return _unit(coeff, f"packet at center {spec.center} has no finite spectral weight")


def build_superposition(chain: ChainSpec, spec: SuperpositionSpec) -> np.ndarray:
    """Weighted sum of Gaussian packets at unit norm; any finite weights not all zero build.

    The weights are scaled exactly by :func:`_scaled` before the sum, and the true
    norm of the sum renormalises it: overlap makes prefactors like 1/sqrt(2) approximate.
    """
    weights = _scaled(spec.weights, _CANCELLED)
    state = sum(weight * build_gwp(chain, GaussianSpec(center=center, alpha=spec.alpha))
                for center, weight in zip(spec.centers, weights))
    return _unit(state, _CANCELLED)


def packet_overlap(chain: ChainSpec, spec_a: GaussianSpec, spec_b: GaussianSpec) -> float:
    """Real overlap of two equal-width packets; close to exp(-alpha^2 d^2/4) at separation d."""
    if not np.isclose(spec_a.alpha, spec_b.alpha, rtol=0, atol=1e-12):
        raise ValueError("packet_overlap requires equal alpha")
    a = build_gwp(chain, spec_a)
    b = build_gwp(chain, spec_b)
    return float(np.real(np.vdot(a, b)))


def surviving_modes(coefficients: np.ndarray) -> np.ndarray:
    """1-based indices of modes whose coefficient exceeds SURVIVOR_TOLERANCE * max|coefficient|."""
    mags = np.abs(np.asarray(coefficients))
    if mags.size == 0:
        return np.zeros(0, dtype=int)
    return np.where(mags > SURVIVOR_TOLERANCE * mags.max())[0] + 1


def high_mode_weight(chain: ChainSpec, coefficients: np.ndarray) -> float:
    """Fraction of spectral weight above the lowest quarter of the band (n > (N+1)/4)."""
    mags = np.abs(_unit_coefficients(chain, coefficients)) ** 2
    cut = (chain.n_sites + 1) / 4.0
    n = np.arange(1, chain.n_sites + 1)
    return float(mags[n > cut].sum())
