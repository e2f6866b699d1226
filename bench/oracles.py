"""Independent reference computations for the output checks.

The states and fidelities are recomputed with scipy's DST-I and explicit
phases exp(-i E_n t), and the mirror-clone labels with a direct O(l) Gauss
sum in exact integer arithmetic, so no check reuses the program's
transform, overlap or labelling code.  Only the program's revival time is
reused to turn t/t_rev into t: at t ~ 1e7 a one-ulp difference in t_rev
already moves the phases by more than the 1e-10 tolerance.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.fft import dst

WIDTH_FACTOR = 2.0 * np.sqrt(np.log(2.0))  # alpha = WIDTH_FACTOR / half_width


def gaussian(sites: int, center: float, half_width: float) -> np.ndarray:
    j = np.arange(1, sites + 1, dtype=float)
    alpha = WIDTH_FACTOR / half_width
    amps = np.exp(-(alpha**2) * (j - center) ** 2 / 2.0)
    return amps / np.linalg.norm(amps)


def superposition(sites: int, centers, half_width: float) -> np.ndarray:
    state = sum(gaussian(sites, c, half_width) for c in centers)
    return state / np.linalg.norm(state)


def sine_transform(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I, its own inverse."""
    return dst(x, type=1, norm="ortho")


def energies(sites: int) -> np.ndarray:
    n = np.arange(1, sites + 1)
    return -2.0 * np.cos(n * np.pi / (sites + 1))


class Dynamics:
    """Spectral data of one initial state on a unit-hopping chain."""

    def __init__(self, state: np.ndarray):
        self.sites = len(state)
        self.energies = energies(self.sites)
        self.coeff = sine_transform(state)
        self.coeff_mirror = sine_transform(state[::-1])

    def evolve(self, t: float) -> np.ndarray:
        return sine_transform(self.coeff * np.exp(-1j * self.energies * t))

    def mirror_and_auto(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """|F(t)|^2 and |A(t)|^2 at each time, one row of phases at a time."""
        f_sq = np.empty(len(times))
        a_sq = np.empty(len(times))
        w_mirror = np.conj(self.coeff_mirror) * self.coeff
        w_auto = np.abs(self.coeff) ** 2
        for i, t in enumerate(times):
            phase = np.exp(-1j * self.energies * t)
            f_sq[i] = abs(np.sum(phase * w_mirror)) ** 2
            a_sq[i] = abs(np.sum(phase * w_auto)) ** 2
        return f_sq, a_sq


def label(value, cap: int) -> tuple[int, int]:
    """(p, q) of the closest rational to ``value`` with denominator <= cap."""
    fr = value if isinstance(value, Fraction) else Fraction(float(value))
    fr = fr.limit_denominator(cap)
    return fr.numerator, fr.denominator


def mirror_gauss_sum(p: int, q: int) -> complex:
    """b_{l/2} = (1/l) sum_{n<l} (-1)^n exp(-i pi (p n^2 mod 2q)/q), l = 2q (q odd) or q."""
    l = 2 * q if q % 2 else q
    n = np.arange(l)
    residues = np.array([(p * k * k) % (2 * q) for k in range(l)], dtype=float)
    return complex(np.mean(np.where(n % 2 == 0, 1.0, -1.0) * np.exp(-1j * np.pi * residues / q)))
