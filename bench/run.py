"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then starts fresh
processes one after another (``one_pass.py``): a few set-up probes, then
timed passes with tracing off, at least three and then more until ``S``
seconds have passed, and with ``--trace 1`` one more pass under the span
recorder.
Caches start cold in every pass, as they do for a CLI user.  The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
of the traced pass for ``--trace 1``.  The line before it records the
environment; the full record, with every pass, is written to
``.bench_out/``.  Runs from the root of a source checkout and reads and
writes only inside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, computed_working_set, generate
from spans import layer_metrics

ROOT = Path(__file__).resolve().parent.parent
PASS = Path(__file__).resolve().parent / "one_pass.py"
SETUP_PROBES = 5
# A single slow pass (up to 5x on the baseline host) must not be the only one.
MIN_PASSES = 3
DEADLINE_S = 170.0  # the run must end within 180 s


class BenchError(Exception):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _l3_bytes() -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except OSError:
            return None
    return None


def _machine() -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
    }


class Runner:
    def __init__(self, work: Path, inputs_path: Path, seed: int, deadline: float):
        self.work = work
        self.inputs_path = inputs_path
        self.seed = seed
        self.deadline = deadline
        self.count = 0

    def spawn(self, *flags: str, keep: bool = False) -> tuple[dict, Path]:
        """Run one pass process; returns its result and output directory."""
        self.count += 1
        out = self.work / f"pass{self.count}"
        out.mkdir()
        spawned = _now()
        cmd = [sys.executable, str(PASS), "--inputs", str(self.inputs_path), "--out", str(out),
               "--spawned", repr(spawned), "--check-seed", str(self.seed), str(self.count), *flags]
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass {self.count} did not finish before the deadline") from None
        if done.returncode != 0:
            raise BenchError(f"pass {self.count} exited with code {done.returncode}")
        result = json.loads((out / "result.json").read_text())
        result["process_s"] = _now() - spawned
        if not keep:
            shutil.rmtree(out)
        return result, out


def _csv_totals(out: Path) -> tuple[int, int]:
    rows = size = 0
    for path in out.glob("*.csv"):
        data = path.read_bytes()
        size += len(data)
        rows += max(data.count(b"\n") - 1, 0)
    return rows, size


def measure(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    inputs = generate(workload, seed)
    start = _now()
    work = ROOT / ".bench_run" / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs_path = work / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        runner = Runner(work, inputs_path, seed, start + DEADLINE_S)

        probes = [runner.spawn("--setup-only", *(["--env"] if i == 0 else []))[0]
                  for i in range(SETUP_PROBES)]
        passes = []
        loop_start = _now()
        while len(passes) < MIN_PASSES or _now() - loop_start < seconds:
            passes.append(runner.spawn()[0])
        traced_pass = spans = csv_totals = None
        if traced:
            traced_pass, out = runner.spawn("--trace", keep=True)
            spans = json.loads((out / "spans.json").read_text())
            csv_totals = _csv_totals(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = passes + ([traced_pass] if traced_pass else [])
    ops = [(i, op, error) for i, p in enumerate(timed) for op, error in p["ops"].items()]
    failures = [f"pass {i + 1} {op}: {error}" for i, op, error in ops if error is not None]
    attempted, failed = len(ops), len(failures)

    # Times are best-of-k over the passes, since interference only ever adds
    # time.  wall_s takes the best time of each operation separately, which
    # also filters slow bursts shorter than a pass (pass times varied by 20%
    # within a run on the baseline host).
    if traced:
        metrics = layer_metrics(spans, *csv_totals)
        best_pass = min(p["wall_s"] for p in passes)
        metrics["trace.overhead_s"] = (traced_pass["wall_s"] - best_pass, "s")
        metrics["error_rate"] = (failed / attempted, "ratio")
    else:
        wall_s = sum(min(p["op_s"][op] for p in passes) for op in passes[0]["op_s"])
        metrics = {
            "wall_s": (wall_s, "s"),
            "cpu_s": (min(p["cpu_s"] for p in passes), "s"),
            "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in passes), "MiB"),
            "setup_s": (statistics.median([p["setup_s"] for p in probes + passes]), "s"),
        }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "env": {**_machine(), **probes[0]["env"]},
        "working_set": computed_working_set(inputs),
        "inputs": {k: v for k, v in inputs.items() if k not in ("config", "cases")}
        | ({"sites": [c["sites"] for c in inputs["cases"]]} if "cases" in inputs else {}),
        "passes": passes,
        "setup_probes_s": [p["setup_s"] for p in probes],
        "traced_pass": traced_pass,
        "unwrapped": spans["missing"] if spans else [],
        "failures": failures,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "tbrevival" / "__init__.py").is_file():
        print(f"error: no tbrevival sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for failure in record["failures"][:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"env": record["env"], "working_set": record["working_set"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
