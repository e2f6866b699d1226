"""Closed-form fractional-revival predictions.

At t = (p/q) t_rev with p, q coprime, the quadratic phase exp(-i p n^2 pi/q)
is periodic in n with period l = 2q (q odd) or q (q even), so it has a
finite Fourier expansion

    exp(-i p n^2 pi/q) = sum_{r=0}^{l-1} b_r exp(-i 2 pi n r / l),

whose coefficients b_r are quadratic Gauss sums.  Each Fourier component
translates the packet by 2(N+1)r/l sites, so the evolved state is a
superposition of clones of the initial packet,

    sum_{r=0}^{l-1} b_r psi(c + 2(N+1)r/l),

where psi(x) denotes the packet whose mode coefficients are
sin(k x) exp(-k^2/2 alpha^2).  Exactly q of the b_r are nonzero and each
carries probability 1/q; for odd q the coefficients of one parity of r
vanish identically.

A clone center outside [1, N] is equivalent to a folded one: the sine
basis is the odd extension of period 2(N+1), so sin(k x) = -sin(k(-x)) and
sin(k x) = -sin(k(2(N+1)-x)).  Clones are therefore reflected back into
the chain with a sign flip per reflection (method of images); a center
landing exactly on 0 or N+1 is a node and the clone vanishes.  The
``entries`` of ``predict_state`` carry this fold: folding pairs r with
l - r (b_r = b_{l-r}) and sends r = l/2 to the mirror site with a minus
sign, so the clone sum takes the folded form

    b_0 psi(c) - b_{l/2} psi(N+1-c)
        + sum_{r=1}^{l/2-1} b_r [psi(c + 2(N+1)r/l) + psi(c - 2(N+1)r/l)].

Folded clones that coincide superpose coherently, which is how strong
partial revivals (e.g. weight (2+sqrt 2)/4 at the mirror for
quarter-period revivals of a quarter-chain packet) arise.

``predict_state`` does not sum the clones for its state: the Fourier
expansion above is exact, so the clone sum is the packet's mode
coefficients times exp(-i p n^2 pi/q), which it builds from the integer
phase p n^2 mod 2q in O(N) for any q.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
import warnings

import numpy as np

from .chain import ChainSpec, mode_energies, mode_parities, reflect, to_position, to_spectral
from .propagator import _instant_times, quadratic_energies, revival_clock
from .wavepacket import (
    GaussianSpec, _gwp_spectral, _unit_coefficients, _warn_if_not_contained,
    build_gwp_spectral, high_mode_weight, surviving_modes,
)

__all__ = [
    "RevivalFraction",
    "GaussCoefficients",
    "CloneEntry",
    "SubPacketPrediction",
    "SpmcReport",
    "fourier_period",
    "gauss_coefficients",
    "fold_center",
    "predict_state",
    "spmc_check",
    "effective_period",
    "is_commensurate",
]

_MERGE_TOL = 1e-6  # sites: closer clones are one sub-packet, this close to an end a node
_SUPPORT_WEIGHT = 1 - 1e-6  # a packet's support: the fewest modes carrying this weight


@dataclass(frozen=True)
class RevivalFraction:
    """Reduced fraction p/q of the revival time; the instant rule holds, as p < 2**53 q."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        p, q = self.numerator, self.denominator
        try:
            whole = int(p) == p and int(q) == q
        except (OverflowError, ValueError):  # an infinite or nan part
            whole = False
        if not whole:
            raise ValueError(f"fraction parts must be integers, got {p!r}/{q!r}")
        if q < 1 or p < 0:
            raise ValueError(f"need numerator >= 0 and denominator >= 1, got {p}/{q}")
        p, q = int(p), int(q)
        if p >= 2**53 * q:  # in integers: p/q itself may be past the float range
            raise ValueError("fraction p/q is not below 2**53 t_rev")
        if gcd(p, q) != 1:
            raise ValueError(f"{p}/{q} is not reduced")
        object.__setattr__(self, "numerator", p)
        object.__setattr__(self, "denominator", q)

    @classmethod
    def from_float(cls, value: float, max_denominator: int = 128) -> "RevivalFraction":
        fr = Fraction(value).limit_denominator(max_denominator)
        return cls(fr.numerator, fr.denominator)

    @property
    def value(self) -> float:
        return self.numerator / self.denominator

    def time(self, chain: ChainSpec) -> float:
        return _instant_times(self.value, chain)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def fourier_period(q: int) -> int:
    """Period l of exp(-i p n^2 pi/q) in n: 2q for odd q, q for even q; a ValueError past 2**18."""
    if q < 1:
        raise ValueError(f"denominator must be >= 1, got {q}")
    l = 2 * q if q % 2 else q
    if l > 2**18:  # l is the length of p/q's Gauss table
        raise ValueError("the Gauss table of this denominator would exceed 2**18 entries")
    return l


@dataclass(frozen=True)
class GaussCoefficients:
    """Gauss-sum clone weights b_0..b_{l-1} for one revival fraction."""

    period: int
    values: np.ndarray = field(repr=False)

    @property
    def mirror(self) -> complex:
        """Coefficient b_{l/2} of the mirror-image clone."""
        return complex(self.values[self.period // 2])


@functools.lru_cache(maxsize=8)  # 8 tables of at most 2**18 entries: 32 MiB at most
def gauss_coefficients(fraction: RevivalFraction) -> GaussCoefficients:
    """b_r = (1/l) sum_n exp(i(2 pi n r/l - p n^2 pi/q)).

    The summand is l-periodic in n, so the window origin is immaterial, and
    depends on p only mod 2q; the residue (n^2 mod 2q) p mod 2q is taken in
    integers, which keeps the inverse DFT exact.  Satisfies b_r = b_{l-r} and
    |b_r|^2 in {0, 1/q}; the mirror weight |b_{l/2}| is 1/sqrt(q) for odd p
    and 0 for even p.  A table past 2**18 entries is refused before it is built.

    Each table is built once and shared: the tables of the last 8 fractions
    asked for are kept, and their ``values`` are read-only.
    """
    l = fourier_period(fraction.denominator)
    values = np.fft.ifft(_quadratic_phases(fraction, np.arange(l, dtype=np.int64)))
    values.flags.writeable = False
    return GaussCoefficients(period=l, values=values)


def _quadratic_phases(fraction: RevivalFraction, n: np.ndarray) -> np.ndarray:
    """exp(-i pi p n^2/q) at int64 ``n``, looked up at r = (p mod 2q)(n^2 mod 2q) mod 2q."""
    p, q = fraction.numerator, fraction.denominator
    residue = (p % (2 * q)) * (n * n % (2 * q)) % (2 * q)
    return np.exp(-1j * np.pi * np.arange(2 * q) / q)[residue]


def fold_center(chain: ChainSpec, center: float) -> tuple[float, float, bool]:
    """Fold a clone center into [0, N+1] on the odd-extended lattice.

    Returns (folded_center, sign, reflected): the odd 2(N+1)-periodic
    extension maps x -> x mod 2(N+1) freely, and x -> 2(N+1)-x with a sign
    flip, which also mirrors the clone.
    """
    L = chain.n_sites + 1
    y = float(center) % (2 * L)
    if y > L:
        return 2 * L - y, -1.0, True
    return y, 1.0, False


@dataclass(frozen=True)
class CloneEntry:
    """One clone of the sub-packet sum after folding into the chain."""

    center: float
    weight: complex  # b_r times the fold sign


@dataclass(frozen=True)
class SubPacketPrediction:
    """Predicted state at t = (p/q) t_rev and its clone decomposition."""

    chain: ChainSpec
    spec: GaussianSpec
    fraction: RevivalFraction
    entries: tuple[CloneEntry, ...]
    state: np.ndarray = field(repr=False)

    def merged(self) -> list[tuple[float, complex]]:
        """Coincident clones combined into physical sub-packets.

        Entries at node positions (center within 1e-6 of 0 or N+1) vanish
        identically and are dropped, as are groups whose weights cancel.
        Sorted by center.
        """
        L = self.chain.n_sites + 1
        groups: list[tuple[float, complex]] = []
        for e in sorted(self.entries, key=lambda e: e.center):
            if e.center < _MERGE_TOL or abs(e.center - L) < _MERGE_TOL:
                continue
            if groups and abs(e.center - groups[-1][0]) < _MERGE_TOL:
                groups[-1] = (groups[-1][0], groups[-1][1] + e.weight)
            else:
                groups.append((e.center, e.weight))
        return [(c, w) for c, w in groups if abs(w) > 1e-9]


@functools.lru_cache(maxsize=1)
def _packet(chain: ChainSpec, spec: GaussianSpec) -> tuple[np.ndarray, float]:
    """The packet's mode coefficients, read-only, and their high-mode weight."""
    packet = _gwp_spectral(chain, spec)
    packet.flags.writeable = False
    return packet, high_mode_weight(chain, packet)


def predict_state(
    chain: ChainSpec, spec: GaussianSpec, fraction: RevivalFraction
) -> SubPacketPrediction:
    """The clone superposition for t = (p/q) t_rev, and its folded clones.

    The state is the packet's mode coefficients (``build_gwp_spectral``)
    times the quadratic phases exp(-i pi r_n/q), with the integer residue
    r_n = (p mod 2q)(n^2 mod 2q) mod 2q looked up in a 2q-entry table.
    That is the quadratic-spectrum evolution of the packet, and also the
    sum of the clones that ``entries`` lists (centers folded into the chain,
    Gauss-sum weights with their fold signs); comparing the state against
    the exact propagator measures only the quartic dispersion error.

    The Gauss table (see :func:`gauss_coefficients`) and the packet's mode
    coefficients with their high-mode weight are shared and read-only, each
    from an ``lru_cache``: the packet's keeps the last (chain, spec).  The
    containment and high-mode warnings are given on every call, outside it.
    """
    coeffs = gauss_coefficients(fraction)
    l, b = coeffs.period, coeffs.values
    L = chain.n_sites + 1

    _warn_if_not_contained(chain, spec, stacklevel=2)  # from here, as build_gwp_spectral would
    packet, tail = _packet(chain, spec)
    if tail > 1e-6:
        warnings.warn(
            f"packet has {tail:.2e} of its weight outside the low-energy "
            "quarter of the band; clone predictions degrade",
            stacklevel=2,
        )

    entries = []
    for r in range(l):
        if abs(b[r]) < 1e-10:  # a Gauss-sum zero: no clone
            continue
        center, sign, _ = fold_center(chain, spec.center + 2.0 * L * r / l)
        entries.append(CloneEntry(center=center, weight=sign * complex(b[r])))

    phases = _quadratic_phases(fraction, np.arange(1, chain.n_sites + 1, dtype=np.int64))
    return SubPacketPrediction(chain=chain, spec=spec, fraction=fraction,
                               entries=tuple(entries), state=to_position(chain, packet * phases))


@dataclass(frozen=True)
class SpmcReport:
    """Spectrum/parity matching over a packet's spectral support."""

    support: np.ndarray = field(repr=False)
    max_relative_deviation: float
    within_tolerance: bool
    parity_matched: bool


def spmc_check(
    chain: ChainSpec,
    packet,
    tolerance: float = 1e-2,
) -> SpmcReport:
    """Check that offset-removed energies are n^2 dE and parities alternate.

    ``packet`` is a :class:`GaussianSpec` or a spectral coefficient vector.
    The support is the smallest set of modes carrying 1 - 1e-6 of the
    probability; over it the exact energies +2J are compared with the
    quadratic ladder, and reflection is checked to multiply each supported
    coefficient by its mirror parity (-1)^(n+1).
    """
    if isinstance(packet, GaussianSpec):
        coeff = build_gwp_spectral(chain, packet)
    else:
        coeff = _unit_coefficients(chain, packet)
    weights = np.abs(coeff) ** 2
    order = np.argsort(weights)[::-1]
    cut = int(np.searchsorted(np.cumsum(weights[order]), _SUPPORT_WEIGHT)) + 1
    support = np.sort(order[:cut]) + 1  # 1-based mode indices

    exact = mode_energies(chain)[support - 1] + 2.0 * chain.hopping
    quad = quadratic_energies(chain)[support - 1]
    max_rel = float(np.max(np.abs(exact - quad) / quad))

    supported = np.zeros(chain.n_sites, dtype=complex)
    supported[support - 1] = coeff[support - 1]
    mirrored = to_spectral(chain, reflect(chain, to_position(chain, supported)))
    deviation = np.max(np.abs(mirrored - mode_parities(chain) * supported))
    parity_ok = bool(deviation <= 1e-10 * np.max(np.abs(supported)))

    return SpmcReport(
        support=support,
        max_relative_deviation=max_rel,
        within_tolerance=max_rel <= tolerance,
        parity_matched=parity_ok,
    )


def effective_period(chain: ChainSpec, coefficients: np.ndarray) -> tuple[int, float]:
    """Spacing multiplier g and the period t_rev / g for a spectral state.

    Symmetry zeros in the expansion thin out the quadratic ladder n^2 dE;
    the gcd g of all surviving differences n_i^2 - n_j^2 rescales the
    clock.  Returns (g, t_rev / g).

    At t_rev / g the survivors' relative phases are (-1)^((n^2 - n_0^2)/g),
    so t_rev / g is the shortened revival period only when these signs
    follow the mirror parities (-1)^(n+1), as for the center (N+1)/3.
    When all survivors share one mirror parity they need not: for the
    center (N+1)/2 the survivors are the odd modes, (n^2 - 1)/8 runs
    0, 1, 3, 6, 10, ..., and the first recurrence is 2 t_rev / g, where
    every relative phase is 1.
    """
    surv = surviving_modes(_unit_coefficients(chain, coefficients))
    if len(surv) < 2:
        raise ValueError("need at least two surviving levels to define a period")
    base = int(surv[0]) ** 2
    g = 0
    for n in surv[1:]:
        g = gcd(g, int(n) ** 2 - base)
    return g, revival_clock(chain).revival_time / g


def is_commensurate(chain: ChainSpec, center: float, period: int) -> bool:
    """True when (N+1-2*center) * period is an integer multiple of 2(N+1).

    Commensurate centers make all folded clones land exactly on top of
    each other or exactly apart, keeping the revived sub-packets cleanly
    separated.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    L = chain.n_sites + 1
    v = (L - 2.0 * center) * period / (2.0 * L)
    return bool(abs(v - round(v)) <= 1e-9 * max(1.0, abs(v)))
