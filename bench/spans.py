"""Span recorder that traces calls into tbrevival from outside the package.

``Recorder.install`` replaces each traced public function in every
``tbrevival`` namespace that bound it with a wrapper that records a span
(layer, start, end, parent span, info).  Spans stay in memory and are
written out once, when the traced pass ends.  ``layer_metrics`` turns them
into the per-layer table; a layer's self time is its span time minus the
time of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


def _fraction_key(args, kwargs, result):
    fraction = args[0] if args else kwargs["fraction"]
    return [fraction.numerator, fraction.denominator]


def _sites(args, kwargs, result):
    chain = args[0] if args else kwargs["chain"]
    return chain.n_sites


def _clones(args, kwargs, result):
    return len(result.entries)


def _trace_size(args, kwargs, result):
    return [len(result.times), _sites(args, kwargs, result)]


# layer -> (functions as "module.name", info recorded per call)
LAYERS = {
    "revival.gauss": (("revival.gauss_coefficients",), _fraction_key),
    "revival.predict": (("revival.predict_state",), _clones),
    "fidelity.trace": (("fidelity.trace",), _trace_size),
    "fidelity.scalar": (
        ("fidelity.autocorrelation", "fidelity.mirror_fidelity", "fidelity.fractional_fidelity"),
        None,
    ),
    "chain.transform": (("chain.to_spectral", "chain.to_position"), _sites),
    "propagator.evolve": (("propagator.evolve_exact", "propagator.evolve_quadratic"), None),
    "wavepacket.build": (
        ("wavepacket.build_gwp", "wavepacket.build_gwp_spectral", "wavepacket.build_superposition"),
        None,
    ),
    # Sweep CSVs go through the private writer only, so it is traced too;
    # nested calls of one layer count as one call.
    "harness.csv": (
        ("harness.write_trace_csv", "harness.write_profile_csv", "harness._write_csv"),
        None,
    ),
    "harness.parse": (("harness.parse_config", "harness.parse_sweep"), None),
    "cli.main": (("cli.main",), None),
}

# Spans the benchmark opens itself around its set-up and its timed region.
SETUP, RUN = "bench.setup", "bench.run"


class Recorder:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self.spans: list[list] = []  # [layer id, start, end, parent index, info]
        self.missing: list[str] = []
        self.active = True
        self._stack: list[int] = []

    def _layer_id(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def _open(self, layer: int) -> list:
        span = [layer, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, name: str):
        """A span the benchmark opens around its own code."""
        span = self._open(self._layer_id(name))
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, layer: int, fn, info):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            span = recorder._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(span)
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "tbrevival") -> None:
        """Wrap every traced function wherever a loaded ``package`` module bound it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for layer_name, (functions, info) in LAYERS.items():
            layer = self._layer_id(layer_name)
            for qualified in functions:
                module_name, attr = qualified.rsplit(".", 1)
                original = getattr(importlib.import_module(f"{package}.{module_name}"), attr, None)
                if not callable(original):
                    self.missing.append(qualified)
                    continue
                traced = self._wrap(layer, original, info)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"layers": self.layers, "spans": self.spans, "missing": self.missing}, fh)


def _per_layer(spans, layers):
    """Self time, outermost-call count and info list per layer name."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "infos": []})
    for i, (layer, start, end, parent, info) in enumerate(spans):
        entry = stats[layers[layer]]
        entry["self_s"] += (end - start) - child_time[i]
        if parent < 0 or spans[parent][0] != layer:
            entry["calls"] += 1
        entry["infos"].append((info, (end - start) - child_time[i]))
    return stats


def layer_metrics(dump: dict, csv_rows: int, csv_bytes: int) -> dict:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    stats = _per_layer(dump["spans"], dump["layers"])

    def get(layer):
        return stats.get(layer, {"self_s": 0.0, "calls": 0, "infos": []})

    out = {}

    gauss = get("revival.gauss")
    distinct = len({tuple(info) for info, _ in gauss["infos"]})
    out["revival.gauss.calls"] = (gauss["calls"], "count")
    out["revival.gauss.self_s"] = (gauss["self_s"], "s")
    out["revival.gauss.distinct"] = (distinct, "count")
    out["revival.gauss.reuse"] = (1 - distinct / gauss["calls"] if gauss["calls"] else 0.0, "ratio")

    predict = get("revival.predict")
    out["revival.predict.calls"] = (predict["calls"], "count")
    out["revival.predict.self_s"] = (predict["self_s"], "s")
    out["revival.predict.clones"] = (sum(info for info, _ in predict["infos"]), "count")

    tr = get("fidelity.trace")
    points = sum(info[0] for info, _ in tr["infos"])
    out["fidelity.trace.calls"] = (tr["calls"], "count")
    out["fidelity.trace.points"] = (points, "count")
    out["fidelity.trace.phase_evals"] = (sum(p * n for (p, n), _ in tr["infos"]), "count")
    out["fidelity.trace.self_s"] = (tr["self_s"], "s")
    out["fidelity.trace.points_per_s"] = (points / tr["self_s"] if tr["self_s"] > 0 else 0.0, "1/s")

    scalar = get("fidelity.scalar")
    out["fidelity.scalar.calls"] = (scalar["calls"], "count")
    out["fidelity.scalar.self_s"] = (scalar["self_s"], "s")

    transform = get("chain.transform")
    seen, cold = set(), 0.0
    for sites, self_s in transform["infos"]:  # spans are in start order
        if sites not in seen:
            seen.add(sites)
            cold += self_s
    out["chain.transform.calls"] = (transform["calls"], "count")
    out["chain.transform.self_s"] = (transform["self_s"], "s")
    out["chain.transform.cold_s"] = (cold, "s")
    out["chain.transform.distinct_n"] = (len(seen), "count")

    for layer in ("propagator.evolve", "wavepacket.build"):
        out[f"{layer}.calls"] = (get(layer)["calls"], "count")
        out[f"{layer}.self_s"] = (get(layer)["self_s"], "s")

    csv = get("harness.csv")
    out["harness.csv.calls"] = (csv["calls"], "count")
    out["harness.csv.self_s"] = (csv["self_s"], "s")
    out["harness.csv.rows"] = (csv_rows, "count")
    out["harness.csv.bytes"] = (csv_bytes, "B")

    out["harness.parse.self_s"] = (get("harness.parse")["self_s"], "s")
    out["cli.main.self_s"] = (get("cli.main")["self_s"], "s")
    # Time inside the timed region that no traced function accounts for.
    out["trace.unaccounted_s"] = (get(RUN)["self_s"], "s")
    return out
