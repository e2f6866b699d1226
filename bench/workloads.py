"""Set-up, timed work and output checks of each workload, for one pass.

``make`` does the set-up (configs parsed, initial states built) and
returns an object whose ``run`` is the timed region and whose ``check``
compares the outputs with the independent oracles in ``oracles.py`` after
timing has stopped.  ``run`` also times each operation into ``op_s``.  One operation is one preset (paper-presets), one
trace (long-chain-trace) or one (N, fraction) clone check (chain-scan);
``check`` returns {operation: error message or None}.

The program is always reached through module attributes at call time, so
the span recorder sees every call it wraps.
"""

from __future__ import annotations

import csv
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from tbrevival import chain as tb_chain
from tbrevival import cli as tb_cli
from tbrevival import fidelity as tb_fidelity
from tbrevival import harness as tb_harness
from tbrevival import propagator as tb_propagator
from tbrevival import revival as tb_revival

TRACE_HEADER = "t_over_trev,abs_F_sq,abs_Ff_sq,abs_A_sq"
PROFILE_HEADER = "site,abs_amp"
SWEEP_HEADER = "variable,value,metric"

TOL_STATE = 1e-10  # |F|^2, |A|^2, amplitudes, norms, fidelities
TOL_LABEL = 1e-12  # |b_{l/2}| of each grid label
CLONE_OVERLAP = 0.95  # |<exact|predicted>|^2, as in the test suite
SAMPLED_ROWS = 64

# The paper's figures at N = 500, half width 24, label cap 128, written out
# here independently of the program's own preset table.
PAPER_SITES, PAPER_HALF_WIDTH, PAPER_CAP = 500, 24.0, 128
_L = PAPER_SITES + 1
PAPER_TRACES = {  # id: (centers, start, stop, denominator)
    "fig2b": ((50.0,), 0, 1, 2000),
    "fig4a": ((_L / 3,), 0, 1, 2000),
    "fig4b": ((_L / 3, 2 * _L / 3), 0, Fraction(1, 4), 2400),
    "fig5a": ((_L / 4,), 0, 1, 2000),
    "fig6a": ((_L / 6,), 0, 1, 840),
    "fig6b": ((_L / 10,), 0, 1, 840),
}
PAPER_PROFILES = {  # id: (center, times in t_rev)
    "fig3": (50.0, (0.0, 0.2, 0.25, 1 / 3, 0.5, 1.0)),
    "fig5b": (_L / 4, (0.25,)),
}
FIG7_SIZES = (300, 400, 500, 600, 700)
FIG7_WIDTHS = tuple(float(w) for w in range(4, 29, 2))


class CheckFailed(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _revival_time(sites: int) -> float:
    return tb_propagator.revival_clock(tb_chain.ChainSpec(n_sites=sites)).revival_time


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _read_numeric(path: Path, header: str) -> np.ndarray:
    _require(path.is_file(), f"{path.name} missing")
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    _require(first == header, f"{path.name}: header {first!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _sample(rng, rows: int, always=()) -> np.ndarray:
    picks = rng.choice(rows, size=min(SAMPLED_ROWS, rows), replace=False)
    return np.unique(np.concatenate([picks, [0, rows - 1], list(always)]).astype(int))


def check_trace_csv(path: Path, state: np.ndarray, grid, cap: int, rng, always=()) -> None:
    """Row count, grid column, sampled |F|^2 and |A|^2, and every sampled label."""
    oracles = _oracles()
    data = _read_numeric(path, TRACE_HEADER)
    _require(data.shape == (len(grid), 4), f"{path.name}: shape {data.shape}, want ({len(grid)}, 4)")
    times = np.array([float(g) for g in grid])
    _require(np.all(np.abs(data[:, 0] - times) <= 1e-11 * np.maximum(1.0, np.abs(times))),
             f"{path.name}: time column differs from the grid")
    rows = _sample(rng, len(grid), always)
    t_rev = _revival_time(len(state))
    f_sq, a_sq = oracles.Dynamics(state).mirror_and_auto(times[rows] * t_rev)
    # kind -> (tolerance, errors over the sampled rows); inf marks a wrong nan.
    # The CSV's 12 significant digits cannot resolve a label to 1e-12, so
    # label values are taken from the program's Gauss-sum function.
    errors = {"|F|^2": (TOL_STATE, []), "|A|^2": (TOL_STATE, []),
              "|Ff|^2 * |b|^2": (TOL_STATE, []), "label |b|": (TOL_LABEL, [])}
    for i, f_ref, a_ref in zip(rows, f_sq, a_sq):
        _, f, ff, a = data[i]
        errors["|F|^2"][1].append(abs(f - f_ref))
        errors["|A|^2"][1].append(abs(a - a_ref))
        p, q = oracles.label(grid[i], cap)
        b = abs(oracles.mirror_gauss_sum(p, q))
        b_program = abs(tb_revival.gauss_coefficients(tb_revival.RevivalFraction(p, q)).mirror)
        errors["label |b|"][1].append(abs(b_program - b))
        if b < 1e-12 or np.isnan(ff):  # nan exactly where no mirror clone exists
            errors["|Ff|^2 * |b|^2"][1].append(0.0 if b < 1e-12 and np.isnan(ff) else np.inf)
        else:
            errors["|Ff|^2 * |b|^2"][1].append(abs(ff - f_ref / b**2) * b**2)
    bad = [f"{sum(e > tol for e in errs)} of {len(errs)} sampled {kind} off by up to "
           f"{max(errs):.2e} (tolerance {tol:.0e})"
           for kind, (tol, errs) in errors.items() if errs and max(errs) > tol]
    _require(not bad, f"{path.name}: " + "; ".join(bad))


def check_profile_csv(path: Path, state: np.ndarray, t_over_trev: float) -> None:
    oracles = _oracles()
    data = _read_numeric(path, PROFILE_HEADER)
    n = len(state)
    _require(data.shape == (n, 2), f"{path.name}: shape {data.shape}, want ({n}, 2)")
    _require(np.array_equal(data[:, 0], np.arange(1, n + 1)), f"{path.name}: site column")
    ref = np.abs(oracles.Dynamics(state).evolve(t_over_trev * _revival_time(n)))
    err = float(np.max(np.abs(data[:, 1] - ref)))
    _require(err <= TOL_STATE, f"{path.name}: amplitude error {err:.3e}")
    drift = abs(float(np.sum(data[:, 1] ** 2)) - 1.0)
    _require(drift <= TOL_STATE, f"{path.name}: norm drift {drift:.3e}")


def _oracles():
    # scipy is imported only when checks start, after timing has stopped.
    import oracles

    return oracles


class PaperPresets:
    def __init__(self, inputs: dict, out: Path):
        self.presets = inputs["presets"]
        self.out = out
        self.errors: dict[str, str | None] = {}
        self.op_s: dict[str, float] = {}

    def run(self) -> None:
        for fig in self.presets:
            start = time.perf_counter()
            try:
                code = tb_cli.main(["reproduce", fig, "--out", str(self.out)])
                self.errors[fig] = None if code == 0 else f"exit code {code}"
            except Exception as exc:  # a raising operation is a failed operation
                self.errors[fig] = f"raised {exc!r}"
            self.op_s[fig] = time.perf_counter() - start

    def check(self, rng) -> dict:
        results = {}
        for fig in self.presets:
            error = self.errors.get(fig, "not run")
            if error is None:
                try:
                    self._check(fig, rng)
                except CheckFailed as exc:
                    error = str(exc)
            results[fig] = error
        return results

    def _check(self, fig: str, rng) -> None:
        oracles = _oracles()
        if fig in PAPER_TRACES:
            centers, start, stop, d = PAPER_TRACES[fig]
            state = oracles.superposition(PAPER_SITES, centers, PAPER_HALF_WIDTH)
            grid = [Fraction(k, d) for k in range(round(start * d), round(stop * d) + 1)]
            check_trace_csv(self.out / f"{fig}_trace.csv", state, grid, PAPER_CAP, rng)
        elif fig in PAPER_PROFILES:
            center, times = PAPER_PROFILES[fig]
            state = oracles.gaussian(PAPER_SITES, center, PAPER_HALF_WIDTH)
            for t in times:
                check_profile_csv(self.out / f"{fig}_profile_t{_fmt(t)}.csv", state, t)
        elif fig == "fig7":
            for sites in FIG7_SIZES:
                self._check_sweep(self.out / f"fig7_sites{sites}_sweep.csv", sites)
        else:
            raise CheckFailed(f"no check defined for {fig}")

    def _check_sweep(self, path: Path, sites: int) -> None:
        oracles = _oracles()
        _require(path.is_file(), f"{path.name} missing")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        _require(",".join(rows[0]) == SWEEP_HEADER, f"{path.name}: header {rows[0]!r}")
        _require(len(rows) == 1 + len(FIG7_WIDTHS), f"{path.name}: {len(rows) - 1} rows")
        b = abs(oracles.mirror_gauss_sum(1, 2))
        t = 0.5 * _revival_time(sites)
        for (variable, value, metric), width in zip(rows[1:], FIG7_WIDTHS):
            _require(variable == "half_width" and float(value) == width,
                     f"{path.name}: row {variable},{value}, want half_width,{width:g}")
            state = oracles.gaussian(sites, 50.0, width)
            mirror = oracles.gaussian(sites, sites + 1 - 50.0, width)
            ref = abs(np.vdot(mirror, oracles.Dynamics(state).evolve(t))) ** 2 / b**2
            _require(abs(float(metric) - ref) <= TOL_STATE,
                     f"{path.name} width {width:g}: {metric} vs {ref!r}")


class LongChainTrace:
    def __init__(self, inputs: dict, out: Path):
        self.inputs = inputs
        self.out = out
        self.scenario = tb_harness.parse_config(inputs["config"])
        self.initial = self.scenario.initial_state()
        self.error: str | None = "not run"
        self.op_s: dict[str, float] = {}

    def run(self) -> None:
        start = time.perf_counter()
        try:
            tb_harness.run_scenario(self.scenario, self.out)
            self.error = None
        except Exception as exc:  # a raising operation is a failed operation
            self.error = f"raised {exc!r}"
        self.op_s["trace"] = time.perf_counter() - start

    def check(self, rng) -> dict:
        error = self.error
        if error is None:
            try:
                self._check(rng)
            except CheckFailed as exc:
                error = str(exc)
        return {"trace": error}

    def _check(self, rng) -> None:
        oracles = _oracles()
        sc = self.scenario
        state = oracles.gaussian(sc.sites, self.inputs["center"], sc.half_width)
        drift = abs(float(np.linalg.norm(self.initial)) - 1.0)
        _require(drift <= TOL_STATE, f"initial state norm drift {drift:.3e}")
        grid = np.linspace(sc.time_start, sc.time_stop, sc.time_points)
        center_row = int(np.argmin(np.abs(grid - self.inputs["revival"])))
        check_trace_csv(self.out / f"{sc.prefix}_trace.csv", state, grid, sc.fraction_cap, rng,
                        always=(center_row,))
        for t in sc.profiles_at:
            check_profile_csv(self.out / f"{sc.prefix}_profile_t{_fmt(t)}.csv", state, t)


class ChainScan:
    def __init__(self, inputs: dict, out: Path):
        self.fractions = [tb_revival.RevivalFraction(p, q) for p, q in inputs["fractions"]]
        self.cases = []
        for case in inputs["cases"]:
            scenario = tb_harness.parse_config(case["config"])
            self.cases.append((case, scenario.chain(), scenario.gaussian_spec(),
                               scenario.initial_state()))
        self.results: dict[tuple[int, str], object] = {}
        self.op_s: dict[str, float] = {}

    def run(self) -> None:
        half = tb_revival.RevivalFraction(1, 2)
        for case, chain, spec, initial in self.cases:
            for fraction in self.fractions:
                start = time.perf_counter()
                try:
                    predicted = tb_revival.predict_state(chain, spec, fraction).state
                    evolved = tb_propagator.evolve_exact(chain, initial, fraction.time(chain))
                    overlap = abs(tb_chain.inner_product(evolved, predicted)) ** 2
                    ff = (tb_fidelity.fractional_fidelity(chain, spec, fraction)
                          if fraction == half else None)
                    result = (predicted, evolved, overlap, ff)
                except Exception as exc:  # a raising operation is a failed operation
                    result = f"raised {exc!r}"
                self.results[(chain.n_sites, str(fraction))] = result
                self.op_s[f"N={chain.n_sites} {fraction}"] = time.perf_counter() - start

    def check(self, rng) -> dict:
        oracles = _oracles()
        out = {}
        for case, chain, spec, initial in self.cases:
            n = chain.n_sites
            state = oracles.gaussian(n, case["center"], case["half_width"])
            dynamics = oracles.Dynamics(state)
            for fraction in self.fractions:
                op = f"N={n} {fraction}"
                result = self.results.get((n, str(fraction)), "not run")
                if isinstance(result, str):
                    out[op] = result
                    continue
                try:
                    self._check(result, dynamics, case, fraction, _revival_time(n))
                    out[op] = None
                except CheckFailed as exc:
                    out[op] = str(exc)
        return out

    @staticmethod
    def _check(result, dynamics, case, fraction, t_rev) -> None:
        oracles = _oracles()
        predicted, evolved, overlap, ff = result
        for name, vec in (("predicted", predicted), ("evolved", evolved)):
            drift = abs(float(np.linalg.norm(vec)) - 1.0)
            _require(drift <= TOL_STATE, f"{name} norm drift {drift:.3e}")
        ref = dynamics.evolve(fraction.numerator / fraction.denominator * t_rev)
        err = float(np.max(np.abs(evolved - ref)))
        _require(err <= TOL_STATE, f"evolved state differs from the DST oracle by {err:.3e}")
        overlap_ref = abs(np.vdot(ref, predicted)) ** 2
        _require(overlap_ref >= CLONE_OVERLAP,
                 f"clone/exact overlap {overlap_ref:.4f} < {CLONE_OVERLAP}")
        _require(abs(overlap - overlap_ref) <= TOL_STATE,
                 f"overlap {overlap!r} vs {overlap_ref!r} from the DST oracle")
        if ff is not None:
            n = dynamics.sites
            mirror = oracles.gaussian(n, n + 1 - case["center"], case["half_width"])
            b = abs(oracles.mirror_gauss_sum(fraction.numerator, fraction.denominator))
            ff_ref = abs(np.vdot(mirror, ref)) / b
            _require(abs(ff - ff_ref) <= TOL_STATE, f"fractional fidelity {ff!r} vs {ff_ref!r}")


WORKLOADS = {
    "paper-presets": PaperPresets,
    "long-chain-trace": LongChainTrace,
    "chain-scan": ChainScan,
}


def make(inputs: dict, out: Path):
    """Set up one pass of the workload named in ``inputs``."""
    return WORKLOADS[inputs["workload"]](inputs, out)
