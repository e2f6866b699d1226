"""Scenario configuration, reproduction presets, sweeps and CSV output.

Config files are flat key/value text with sections::

    [chain]
    sites = 500            # integer >= 2
    hopping = 1.0          # optional, > 0, default 1.0
    [initial]
    kind = gaussian        # or: superposition
    center = N/3           # gaussian: one center
    centers = N/3, 2N/3    # superposition: comma list
    weights = 1, 1         # optional, same length as centers
    half_width = 24        # > 0; or: alpha = 0.0578 (> 0)
    convention = plus-one  # how to read aN/m centers; or: literal
    [time]
    start = 0.0            # units of the revival time
    stop = 1.0             # after start
    points = 2000          # uniform inclusive grid, or:
    denominator = 840      # exact grid at k/denominator
    [metrics]
    fraction_cap = 128     # rational labelling cap for fractional fidelity
    profiles_at = 0.25, 1  # optional profile snapshots (units of t_rev), one stacked evolution;
                           # one that breaks the instant rule, or more than 2**23 / sites
                           # of them, fails the run (exit 1), not the parse
    [output]
    prefix = run
    [sweep]                # only for a sweep
    variable = half_width  # or: sites, center
    values = 8, 12, 16     # each read as the swept key itself is read
    metric = fractional_fidelity  # or: mirror_fidelity (both need a gaussian); autocorrelation
    fraction = 1/2         # instant p/q of t_rev, q >= 1, p >= 0; the instant rule holds

The instant rule: an instant g in units of t_rev is finite with |g| < 2**53,
and it is checked before it becomes the time g t_rev.

Lines starting with '#' and blank lines are ignored; inline '# ...'
comments are stripped.  Unknown sections or keys, duplicate keys and text
that does not convert to its key's type are errors carrying the 1-based line
number.  Every value rule, on one value or between keys, belongs to the class
(``_SCENARIO_RULES``, ``_SWEEP_RULES``) and is checked at construction, for a
parsed scenario as for one built directly; from a config, a broken rule is an
error on the line of the key it blames (0 when it blames none).

Center expressions: a plain number, ``aN/m`` (e.g. ``N/3``, ``2N/3``) or
``a(N+1)/m``.  Under the default ``plus-one`` convention ``aN/m`` resolves
to a(N+1)/m, which is the choice that produces exact symmetry zeros in the
mode expansion; ``literal`` divides N itself.

A ``denominator`` grid is held as integers, the numerators k0..k1 over d
(:class:`DenominatorGrid`): its times are one vectorised division and
only the points the labeller sends to ``limit_denominator`` become
``Fraction``s.  A sweep builds one state per value and evaluates all the
values that share a chain (every value of a ``half_width`` or ``center``
sweep; each value of a ``sites`` sweep) as one (M, N) stack, in one call
of the spectral kernel ``fidelity._overlaps``.

CSV schemas (12 significant digits, LF endings; each file is one %-format,
written once the whole scenario is evaluated, so a failed run writes none):
  trace:   t_over_trev, abs_F_sq, abs_Ff_sq, abs_A_sq
  profile: site, abs_amp
  sweep:   variable, value, metric
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys
from dataclasses import MISSING, dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .chain import ChainSpec
from .fidelity import FidelityTrace, TraceOptions, _fractional, _overlaps, trace
from .propagator import _instant_times, evolve_exact
from .revival import RevivalFraction, fourier_period
from .wavepacket import GaussianSpec, SuperpositionSpec, build_gwp, build_superposition

__all__ = [
    "ConfigError",
    "Scenario",
    "DenominatorGrid",
    "SweepSpec",
    "SweepResult",
    "BudgetReport",
    "parse_config",
    "resolve_center",
    "run_scenario",
    "run_sweep",
    "estimate_budget",
    "reproduce",
    "PRESET_FIGURES",
]

HBAR_MEV_MS = 6.582119569e-10  # hbar, meV * ms

# Rule-of-thumb revival period for coupled-quantum-dot arrays: 1.6e-11 ms
# per site^2 at 10 meV hopping.  Kept verbatim because downstream size
# budgets quote it; the hbar-exact value (N+1)^2 HBAR/(pi J) is reported
# alongside and differs by roughly 30%.
QUOTED_REVIVAL_MS_PER_SITE_SQ = 1.6e-11
QUOTED_REVIVAL_HOPPING_MEV = 10.0

# A run peaks at ~320 B of traced memory per grid point, so ~330 MB at this size.
_MAX_GRID_POINTS = 2**20


class ConfigError(ValueError):
    """Config problem with a 1-based line number (0 = whole file)."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True)
class DenominatorGrid:
    """The exact time grid k/d for k in ``numerators``, in units of t_rev.

    A sequence whose i-th entry is ``Fraction(numerators[i], denominator)``.
    As an array it is ``numerators / denominator`` in one vectorised
    division, bitwise equal to converting each entry with ``float`` (IEEE
    division is correctly rounded) while k and d stay below 2**53.
    """

    numerators: range
    denominator: int

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.numerators[i], self.denominator)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        r = self.numerators
        return (np.arange(r.start, r.stop, r.step) / self.denominator).astype(dtype, copy=False)


@dataclass(frozen=True)
class Scenario:
    """A run description (centers still symbolic, see resolve_center).

    Its field defaults are a config's.  Built directly, by ``replace()`` or
    parsed, a scenario keeps every value rule (``_SCENARIO_RULES``): each
    value on its own, the rules that tie fields together, and the grid's size
    and bounds; or it is a ``ValueError`` at once, whose message names the
    config key.
    """

    sites: int
    hopping: float = 1.0
    kind: str = "gaussian"
    center_exprs: tuple[str, ...] = ()
    weights: tuple[float, ...] | None = None
    half_width: float | None = None
    alpha: float | None = None
    convention: str = "plus-one"
    time_start: float | None = None
    time_stop: float | None = None
    time_points: int | None = None
    time_denominator: int | None = None
    fraction_cap: int = TraceOptions.max_denominator
    profiles_at: tuple[float, ...] = ()
    prefix: str = "run"

    def __post_init__(self) -> None:
        _check(_SCENARIO_RULES, self)

    def chain(self) -> ChainSpec:
        return ChainSpec(n_sites=self.sites, hopping=self.hopping)

    def packet_alpha(self) -> float:
        if self.alpha is not None:
            return self.alpha
        return GaussianSpec.from_half_width(0.0, self.half_width).alpha

    def centers(self) -> tuple[float, ...]:
        return tuple(resolve_center(e, self.sites, self.convention) for e in self.center_exprs)

    def initial_state(self) -> np.ndarray:
        if self.kind == "gaussian":
            return build_gwp(self.chain(), self.gaussian_spec())
        centers = self.centers()
        weights = tuple(complex(w) for w in self.weights or (1.0,) * len(centers))
        spec = SuperpositionSpec(centers=centers, weights=weights, alpha=self.packet_alpha())
        return build_superposition(self.chain(), spec)

    def gaussian_spec(self) -> GaussianSpec:
        if self.kind != "gaussian":
            raise ValueError("this operation needs a single-packet (gaussian) initial, "
                             f"not a {self.kind}")
        return GaussianSpec(center=self.centers()[0], alpha=self.packet_alpha())

    def grid(self):
        """Time grid in t_rev units: a :class:`DenominatorGrid` when a denominator is set.

        None without a ``time_start``.  Its bounds were checked, from its ends
        alone, when the scenario was built.
        """
        start, stop, d = self.time_start, self.time_stop, self.time_denominator
        if start is None:
            return None
        if d:
            return DenominatorGrid(range(round(start * d), round(stop * d) + 1), d)
        return np.linspace(start, stop, self.time_points)


def _grid_refusal(s: Scenario) -> str | None:
    """A grid past its bounds, read from its ends: none of it is built."""
    start, stop, d = s.time_start, s.time_stop, s.time_denominator
    try:
        k0, k1 = (round(start * d), round(stop * d)) if d else (0, s.time_points - 1)
    except OverflowError:  # an end k/d beyond the float range
        k0, k1 = 0, math.inf
    if k1 - k0 >= _MAX_GRID_POINTS or max(abs(k0), abs(k1), abs(start), abs(stop)) >= 2**53:
        return (f"time grid has over {_MAX_GRID_POINTS} points, or an end at |t| >= 2**53 "
                "(|k| >= 2**53 for t = k/d)")
    return None


class _Broken(ValueError):
    """A broken rule; ``field`` is the field whose config key it blames, or None."""

    def __init__(self, field: str | None, message: str):
        self.field = field
        super().__init__(message)


def _check(rules, obj) -> None:
    """Raise :class:`_Broken` for the first of ``rules`` that ``obj`` breaks."""
    for field, refusal in rules:
        message = refusal(obj)
        if message:
            raise _Broken(field, message)


# What a value must be: a test of the value and of the object that holds it,
# and the words that end "<key> <value> is not ...", formatted with the object.
_FINITE = (lambda v, _: abs(v) <= sys.float_info.max, "finite")  # also for an int or complex
_RATIONAL = (lambda v, _: isinstance(v, (int, Fraction)), "a fraction p/q")
_POSITIVE = (lambda v, _: v > 0, "positive")
_COUNT = (lambda v, _: v >= 1, "a positive integer")
_AFTER_START = (lambda v, s: s.time_start is None or s.time_start < v,
                "after start {0.time_start!r}")


def _one_of(options: tuple[str, ...]):
    return (lambda v, _: v in options), f"one of {', '.join(options)}"


def _each(field: str, *musts, build=lambda v, obj: None):
    """The rule-table row for each value of ``field``: its entries, or itself unless None.

    A value's refusal names its config key (the field without ``time_``) and
    every one of ``musts`` it breaks; if none, ``build(value, obj)`` may still
    refuse it with its own ``ValueError``.
    """
    name = field.removeprefix("time_")

    def refusal(obj):
        value = getattr(obj, field)
        for v in value if isinstance(value, (tuple, list)) else () if value is None else (value,):
            missed = [what.format(obj) for test, what in musts if not test(v, obj)]
            if missed:
                return f"{name} {v!r} is not {' and not '.join(missed)}"
            try:
                build(v, obj)
            except ValueError as exc:
                return str(exc)
    return field, refusal


_KINDS = ("gaussian", "superposition")
_CONVENTIONS = ("plus-one", "literal")
_SWEEP_VARIABLES = ("half_width", "sites", "center")
_SWEEP_METRICS = ("fractional_fidelity", "mirror_fidelity", "autocorrelation")

# Every rule a Scenario keeps, in the order they are checked: the field whose
# config key a refusal blames (None blames none), and a test that gives the
# refusal's message, or a false value while the rule holds.  Each value is
# checked on its own first, so a config with two faults reports its bad value
# before a broken rule between fields.  No test builds a grid or a state:
# they run for every scenario built, replace()d or parsed.
_SCENARIO_RULES = (
    _each("sites", build=lambda n, _: ChainSpec(n)),
    _each("hopping", _FINITE, build=lambda j, s: ChainSpec(s.sites, j)),
    _each("kind", _one_of(_KINDS)),
    _each("convention", _one_of(_CONVENTIONS)),
    _each("center_exprs", build=lambda e, s: resolve_center(e, s.sites, s.convention)),
    _each("weights", _FINITE),
    _each("half_width", _FINITE, _POSITIVE, build=lambda w, _: GaussianSpec.from_half_width(0, w)),
    _each("alpha", _FINITE, _POSITIVE),
    _each("time_start", _FINITE),
    _each("time_stop", _AFTER_START, _FINITE),
    _each("time_points", _COUNT),
    _each("time_denominator", _COUNT),
    _each("fraction_cap", _COUNT),
    _each("profiles_at", _FINITE),
    ("center_exprs", lambda s: s.kind == "gaussian" and len(s.center_exprs) != 1
     and f"gaussian initial needs one center, got center_exprs {s.center_exprs!r}"),
    ("weights", lambda s: s.weights is not None and len(s.weights) != len(s.center_exprs)
     and "weights must match the number of centers"),
    (None, lambda s: (s.half_width is None) == (s.alpha is None)
     and "initial needs exactly one of half_width or alpha"),
    (None, lambda s: (s.time_start is None) != (s.time_stop is None)
     and "time needs both start and stop"),
    (None, lambda s: s.time_start is not None and s.time_points is None
     and s.time_denominator is None and "time needs points or denominator"),
    (None, lambda s: s.time_points is not None and s.time_denominator is not None
     and "time takes points or denominator, not both"),
    ("center_exprs", lambda s: not s.center_exprs and "centers is empty"),
    ("time_denominator", lambda s: s.time_start is not None and s.time_denominator
     and _grid_refusal(s)),
    ("time_points", lambda s: s.time_start is not None and not s.time_denominator
     and _grid_refusal(s)),
)


_CENTER_RE = re.compile(r"^(\d*)N/(\d+)$")
_CENTER_PLUS_RE = re.compile(r"^(\d*)\(N\+1\)/(\d+)$")


def resolve_center(expr: str, sites: int, convention: str = "plus-one") -> float:
    """Resolve a center expression to a site coordinate for a given chain size."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention {convention!r} is not one of {', '.join(_CONVENTIONS)}")
    text = expr.replace(" ", "")
    m = _CENTER_PLUS_RE.match(text) or _CENTER_RE.match(text)
    if m:
        a, divisor = int(m.group(1) or 1), int(m.group(2))
        if divisor == 0:
            raise ValueError(f"center {expr!r} divides by zero")
        plus_one = m.re is _CENTER_PLUS_RE or convention == "plus-one"
        try:
            return a * (sites + 1 if plus_one else sites) / divisor
        except OverflowError:  # a * N / m past the float range
            raise ValueError(f"center {expr!r} is not finite") from None
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"cannot parse center expression {expr!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"center {expr!r} is not finite")
    return value


def _parse_entries(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    entries: dict[str, dict[str, tuple[str, int]]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(lineno, f"unknown section [{section}]")
            entries.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(lineno, f"expected key = value, got {line!r}")
        if section is None:
            raise ConfigError(lineno, "key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if (section, key) not in _KEYS:
            raise ConfigError(lineno, f"unknown key {key!r} in section [{section}]")
        if key in entries[section]:
            raise ConfigError(lineno, f"duplicate key {key!r} in section [{section}]")
        entries[section][key] = (value, lineno)
    return entries


def _list(convert):
    return lambda value: tuple(convert(v.strip()) for v in value.split(",") if v.strip())


def _fraction(text: str) -> Fraction:
    """Read ``p/q`` or a decimal; a decimal's exponent is bounded before Fraction builds 10**|e|."""
    # past |e| = len(text) + 16, which any 19-digit e is, a nonzero decimal is below 10**-6 or
    # at least 10**16, so its q is past the Gauss table's bound or its p/q past 2**53
    m = re.fullmatch(r"\s*[-+]?([\d_]*(?:\.[\d_]*)?)[eE]([-+]?)([\d_]+)\s*", text, re.ASCII)
    if m and int(m[3].replace("_", "").lstrip("0")[:19] or 0) > len(text) + 16:
        if set(m[1]) & set("123456789"):
            raise ValueError(f"{text!r} is below 10**-6: its Gauss table would exceed 2**18 entries"
                             if m[2] == "-" else f"{text!r} is not below 2**53 t_rev")
        if "0" in m[1]:  # a zero, whatever its exponent; with no digit, Fraction refuses it
            text = text[:m.start(3)] + "0"
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} is not a fraction p/q with q > 0") from None


def revival_fraction(text: str) -> RevivalFraction:
    """Read ``p/q`` (or a decimal) as a revival fraction; a bad one is a ``ValueError``."""
    return _revival_fraction(_fraction(text))


def _revival_fraction(value: Fraction) -> RevivalFraction:
    fourier_period(value.denominator)  # refuses a q whose Gauss table would be too large
    return RevivalFraction(value.numerator, value.denominator)  # the instant rule, in integers


# The field each config key gives, and how its text converts: to a type and
# no further, since every value rule is its class's.  A gaussian's
# center_exprs is read from ``center`` and any other's from ``centers``, and
# a sweep's values as its variable reads them (parse_sweep).
_KEYS = {
    ("chain", "sites"): ("sites", int),
    ("chain", "hopping"): ("hopping", float),
    ("initial", "kind"): ("kind", str.lower),
    ("initial", "center"): ("center_exprs", lambda v: (v,)),
    ("initial", "centers"): ("center_exprs", _list(str)),
    ("initial", "weights"): ("weights", _list(float)),
    ("initial", "half_width"): ("half_width", float),
    ("initial", "alpha"): ("alpha", float),
    ("initial", "convention"): ("convention", str.lower),
    ("time", "start"): ("time_start", float),
    ("time", "stop"): ("time_stop", float),
    ("time", "points"): ("time_points", int),
    ("time", "denominator"): ("time_denominator", int),
    ("metrics", "fraction_cap"): ("fraction_cap", int),
    ("metrics", "profiles_at"): ("profiles_at", _list(float)),
    ("output", "prefix"): ("prefix", str),
    ("sweep", "variable"): ("variable", str.lower),
    ("sweep", "values"): ("values", _list(float)),
    ("sweep", "metric"): ("metric", str.lower),
    ("sweep", "fraction"): ("fraction", _fraction),
}
_SECTIONS = {section for section, _ in _KEYS}


def parse_config(text: str) -> Scenario:
    """Parse config text into a :class:`Scenario`; see the module docstring for the grammar."""
    return _scenario(_parse_entries(text))


def _scenario(entries) -> Scenario:
    kind = entries.get("initial", {}).get("kind", (Scenario.kind,))[0].lower()
    unread = ("initial", "centers" if kind == "gaussian" else "center")
    return _built(entries, Scenario, {k: v for k, v in _KEYS.items() if k != unread})


def _built(entries, cls, keys: dict, **given):
    """``cls`` from ``given`` and its fields' keys in ``entries``; each fault is a ConfigError.

    Text that does not convert, a missing required key and a broken rule are
    each reported on the line of the key at fault (0 when there is none).
    """
    required = {f.name: f.default is MISSING for f in fields(cls)}  # for each field of cls
    lines = {}
    for (section, key), (field, convert) in keys.items():
        if field in required and key in entries.get(section, {}):
            text, lines[field] = entries[section][key]
            try:
                given[field] = convert(text)
            except ValueError as exc:
                raise ConfigError(lines[field], f"bad value for {key!r}: {exc}") from None
        elif required.get(field) and field not in given:
            raise ConfigError(0, f"missing required key {key!r} in section [{section}]")
    try:
        return cls(**given)
    except _Broken as exc:
        raise ConfigError(lines.get(exc.field, 0), str(exc)) from None


def _parse_gaussian(text: str) -> Scenario:
    """:func:`parse_config` for one packet: a superposition is refused on its ``kind`` line."""
    entries = _parse_entries(text)
    scenario = _scenario(entries)
    if scenario.kind != "gaussian":  # only a kind line makes a superposition
        raise ConfigError(entries["initial"]["kind"][1], "this operation needs a single-packet "
                          f"(gaussian) initial, not a {scenario.kind}")
    return scenario


@dataclass(frozen=True)
class SweepSpec:
    """One-variable sweep of a scalar metric evaluated at a fixed fraction of t_rev.

    Built directly, by ``replace()`` or parsed, it keeps every value rule (``_SWEEP_RULES``)
    or is a ``ValueError`` at once: a known variable and metric, each value as its
    variable's own key reads it (its swept scenario must build), a fidelity metric only on
    a gaussian base, and a ``fraction``, a ``Fraction``, that :func:`revival_fraction` accepts.
    """

    base: Scenario
    variable: str                      # half_width | sites | center
    values: tuple[float, ...]
    metric: str = "fractional_fidelity"  # or mirror_fidelity | autocorrelation
    fraction: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        _check(_SWEEP_RULES, self)


def _swept(spec: SweepSpec, value: float) -> Scenario:
    if spec.variable == "half_width":
        return replace(spec.base, half_width=value, alpha=None)
    if spec.variable == "sites":
        return replace(spec.base, sites=value)
    return replace(spec.base, center_exprs=(repr(value),))


# SweepSpec's rules, laid out as _SCENARIO_RULES are.
_SWEEP_RULES = (
    _each("variable", _one_of(_SWEEP_VARIABLES)),
    _each("metric", _one_of(_SWEEP_METRICS)),
    _each("values", build=lambda v, w: _swept(w, v)),
    _each("fraction", _RATIONAL, build=lambda f, _: _revival_fraction(f)),
    ("values", lambda w: not w.values and "sweep needs at least one value"),
    ("metric", lambda w: w.metric != "autocorrelation" and w.base.kind != "gaussian"
     and f"metric {w.metric} needs a single-packet (gaussian) initial, not a {w.base.kind}"),
)


def parse_sweep(text: str) -> SweepSpec:
    """Parse a config that also carries a [sweep] section."""
    entries = _parse_entries(text)
    base = _scenario(entries)
    if "sweep" not in entries:
        raise ConfigError(0, "missing [sweep] section")
    variable = entries["sweep"].get("variable", ("",))[0].lower()
    read = {"sites": int, "center": lambda v: resolve_center(v, base.sites, base.convention)}
    values = ("values", _list(read.get(variable, float)))
    return _built(entries, SweepSpec, {**_KEYS, ("sweep", "values"): values}, base=base)


def _write_csv(path: Path, header: str, row_format: str, rows: int, values) -> Path:
    # one %-format of the flat values for the whole file; "%.12g" writes
    # nan, inf and -0 as Python's str-format does
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write((row_format * rows) % tuple(values))
    return path


def write_trace_csv(path: Path, result: FidelityTrace) -> Path:
    table = np.column_stack((result.times, result.abs_f_sq, result.abs_ff_sq, result.abs_a_sq))
    return _write_csv(path, "t_over_trev,abs_F_sq,abs_Ff_sq,abs_A_sq",
                      "%.12g,%.12g,%.12g,%.12g\n", len(table), table.ravel().tolist())


def write_profile_csv(path: Path, amplitudes: np.ndarray) -> Path:
    n = len(amplitudes)
    values = [0] * (2 * n)
    values[0::2], values[1::2] = range(1, n + 1), np.abs(amplitudes).tolist()
    return _write_csv(path, "site,abs_amp", "%d,%.12g\n", n, values)


def run_scenario(scenario: Scenario, out_dir) -> list[Path]:
    """Run a scenario and emit its trace/profile CSVs.

    Nothing is written until the whole scenario is evaluated: every
    ``profiles_at`` instant in one stacked evolution, then the trace, so a
    bad instant or an over-bound profile stack is refused before any trace
    work and leaves no file behind.  The trace is written first.  Output
    rows follow the grid order, and re-running an identical scenario
    reproduces identical files.
    """
    chain, state, grid = scenario.chain(), scenario.initial_state(), scenario.grid()
    instants = np.array(scenario.profiles_at, dtype=float)
    profiles = evolve_exact(chain, state, _instant_times(instants, chain)) if len(instants) else ()
    files = [] if grid is None else [
        ("trace", write_trace_csv, trace(chain, state, grid, TraceOptions(scenario.fraction_cap)))]
    files += [(f"profile_t{pt:.12g}", write_profile_csv, amplitudes)
              for pt, amplitudes in zip(instants.tolist(), profiles)]
    return [write(Path(out_dir, f"{scenario.prefix}_{name}.csv"), data)
            for name, write, data in files]


@dataclass(frozen=True)
class SweepResult:
    variable: str
    metric: str
    rows: tuple[tuple[float, float], ...]
    non_decreasing: bool
    path: Path | None = None


def _sweep_chain(spec: SweepSpec, scenarios: list[Scenario]) -> np.ndarray:
    """The metric of scenarios that share one chain, from one stacked kernel call."""
    chain = scenarios[0].chain()
    fraction = _revival_fraction(spec.fraction)
    states = np.array([scenario.initial_state() for scenario in scenarios])
    a_vals, f_vals = _overlaps(chain, states, np.array([fraction.time(chain)]))[..., 0]
    if spec.metric == "autocorrelation":
        return np.abs(a_vals) ** 2
    if spec.metric == "mirror_fidelity":
        return np.abs(f_vals) ** 2
    return _fractional(fraction, np.abs(f_vals)) ** 2


def run_sweep(spec: SweepSpec, out_dir=None) -> SweepResult:
    """Evaluate the metric at each sweep value; one CSV row per value.

    Consecutive values on the same chain (every value of a ``half_width`` or
    ``center`` sweep) are evaluated together, as one stacked call of the
    spectral kernel.
    """
    scenarios = [_swept(spec, v) for v in spec.values]
    metrics = [
        float(m)
        for _, group in itertools.groupby(scenarios, key=Scenario.chain)
        for m in _sweep_chain(spec, list(group))
    ]
    rows = tuple(zip(map(float, spec.values), metrics))
    non_decreasing = all(b >= a - 1e-12 for a, b in zip(metrics, metrics[1:]))
    path = None if out_dir is None else _write_csv(
        Path(out_dir) / f"{spec.base.prefix}_sweep.csv", "variable,value,metric",
        "%s,%.12g,%.12g\n", len(rows), [x for v, m in rows for x in (spec.variable, v, m)])
    return SweepResult(variable=spec.variable, metric=spec.metric, rows=rows,
                       non_decreasing=non_decreasing, path=path)


@dataclass(frozen=True)
class BudgetReport:
    """Revival-period vs decoherence-time arithmetic for a physical chain."""

    n_sites: int
    hopping_mev: float
    decoherence_ms: float | None
    n_revivals: float | None
    revival_ms_quoted: float
    revival_ms_physical: float
    revivals_within_decoherence: float | None
    max_sites_for_revivals: float | None

    def lines(self) -> list[str]:
        out = [
            f"sites                      : {self.n_sites}",
            f"hopping                    : {self.hopping_mev:g} meV",
            f"revival period (rule of thumb {QUOTED_REVIVAL_MS_PER_SITE_SQ:g} ms x N^2"
            f" at {QUOTED_REVIVAL_HOPPING_MEV:g} meV): {self.revival_ms_quoted:.6g} ms",
            f"revival period (hbar (N+1)^2/(pi J))     : {self.revival_ms_physical:.6g} ms",
        ]
        if self.decoherence_ms is not None:
            out.append(f"decoherence time           : {self.decoherence_ms:g} ms")
            out.append(f"revivals inside decoherence: {self.revivals_within_decoherence:.6g}")
        if self.max_sites_for_revivals is not None:
            out.append(f"max sites for {self.n_revivals:g} revivals: "
                       f"{self.max_sites_for_revivals:.6g}")
        return out


def estimate_budget(n_sites: int, hopping_mev: float, decoherence_ms: float | None = None,
                    n_revivals: float | None = None) -> BudgetReport:
    """Revival-period estimates in ms plus the feasible chain size for n revivals.

    Two revival-period conventions are reported side by side: the quoted
    rule-of-thumb coefficient (scaled to the requested hopping) and the
    hbar-exact (N+1)^2/(pi J).  The max-size formula follows the quoted
    coefficient; at 1 ms decoherence and 10 meV it reduces to
    2.5e5/sqrt(n) exactly.
    """
    if not 2 <= n_sites < math.inf or int(n_sites) != n_sites:
        raise ValueError(f"sites {n_sites!r} is not an integer >= 2")
    for name, value in (("hopping", hopping_mev), ("decoherence", decoherence_ms),
                        ("revivals", n_revivals)):
        if value is not None and not 0 < value < math.inf:
            raise ValueError(f"{name} {value!r} is not finite and positive")
    scale = QUOTED_REVIVAL_HOPPING_MEV / hopping_mev
    try:
        quoted = QUOTED_REVIVAL_MS_PER_SITE_SQ * n_sites**2 * scale
        physical = HBAR_MEV_MS * (n_sites + 1) ** 2 / (np.pi * hopping_mev)
        revivals = None if decoherence_ms is None else decoherence_ms / quoted
        max_sites = None if n_revivals is None else float(np.sqrt(
            (decoherence_ms or 1.0) / (QUOTED_REVIVAL_MS_PER_SITE_SQ * scale * n_revivals)))
        numbers = [x for x in (quoted, physical, revivals, max_sites) if x is not None]
    except (OverflowError, ZeroDivisionError):
        numbers = [math.inf]
    if not np.isfinite(numbers).all():
        raise ValueError("the budget for these inputs is out of the float range")
    return BudgetReport(
        n_sites=n_sites, hopping_mev=hopping_mev, decoherence_ms=decoherence_ms,
        n_revivals=n_revivals, revival_ms_quoted=quoted, revival_ms_physical=physical,
        revivals_within_decoherence=revivals, max_sites_for_revivals=max_sites,
    )


_preset_scenario = functools.partial(Scenario, sites=500, half_width=24.0)
_preset_trace = functools.partial(_preset_scenario, time_start=0.0, time_stop=1.0)

PRESET_FIGURES = {
    "fig2a": _preset_trace(center_exprs=("50",), time_stop=6.0, time_denominator=1000,
                           prefix="fig2a"),
    "fig2b": _preset_trace(center_exprs=("50",), time_denominator=2000, prefix="fig2b"),
    "fig3": _preset_scenario(
        center_exprs=("50",), profiles_at=(0.0, 0.2, 0.25, 1 / 3, 0.5, 1.0), prefix="fig3",
    ),
    "fig4a": _preset_trace(center_exprs=("N/3",), time_denominator=2000, prefix="fig4a"),
    "fig4b": _preset_trace(kind="superposition", center_exprs=("N/3", "2N/3"), time_stop=0.25,
                           time_denominator=2400, prefix="fig4b"),
    "fig5a": _preset_trace(center_exprs=("N/4",), time_denominator=2000, prefix="fig5a"),
    "fig5b": _preset_scenario(center_exprs=("N/4",), profiles_at=(0.25,), prefix="fig5b"),
    "fig6a": _preset_trace(center_exprs=("N/6",), time_denominator=840, prefix="fig6a"),
    "fig6b": _preset_trace(center_exprs=("N/10",), time_denominator=840, prefix="fig6b"),
}

# fig7: |F_f|^2 at t_rev/2 against the packet width, one sweep per chain size.
_PRESET_SWEEPS = {
    "fig7": tuple(
        SweepSpec(
            base=_preset_scenario(sites=sites, center_exprs=("50",), prefix=f"fig7_sites{sites}"),
            variable="half_width",
            values=tuple(float(w) for w in range(4, 29, 2)),
        )
        for sites in (300, 400, 500, 600, 700)
    ),
}


def reproduce(figure_id: str, out_dir) -> list[Path]:
    """Run one figure preset end to end; returns the files written."""
    if figure_id in PRESET_FIGURES:
        return run_scenario(PRESET_FIGURES[figure_id], out_dir)
    if figure_id in _PRESET_SWEEPS:
        return [run_sweep(spec, out_dir).path for spec in _PRESET_SWEEPS[figure_id]]
    raise ValueError(
        f"unknown figure id {figure_id!r}; known: {sorted([*PRESET_FIGURES, *_PRESET_SWEEPS])}"
    )
