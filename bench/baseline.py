"""Run every workload on several seeds and summarise the results.

    python3 bench/baseline.py --seeds 1-10 --seconds 35 --out bench/results/baseline.json

Runs ``run.py`` once per (workload, seed) with tracing off, then once per
workload with tracing on (first seed), one process at a time.  For each
end-to-end metric it records every value, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(q3 - q1) / median; for the traced run it records the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from inputs import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(workload: str, seeds: list[int], seconds: int) -> dict:
    runs, env = [], None
    for seed in seeds:
        env, result = _run(workload, seed, seconds, 0)
        runs.append(result)
        print(workload, seed, json.dumps(result), file=sys.stderr)
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median, "values": values}
    _, traced = _run(workload, seeds[0], seconds, 1)
    return {
        "seeds": seeds,
        "env": env,
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "end_to_end": metrics,
        "traced": {"seed": seeds[0], "attempted": traced["attempted"], "failed": traced["failed"],
                   "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    record = {"seconds": args.seconds,
              "workloads": {w: summarise(w, seeds, args.seconds) for w in args.workloads}}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
