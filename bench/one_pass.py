"""One pass of a workload in a fresh process: set-up, timed region, checks.

Started by ``run.py``; writes its measurements and check results to
``<out>/result.json``.  ``--spawned`` is the parent's CLOCK_MONOTONIC
reading just before it started this process, so set-up time includes
interpreter start.  With ``--trace`` the span recorder is installed before
set-up and its spans are written to ``<out>/spans.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import platform
import resource
import sys
import time
from pathlib import Path

from spans import RUN, SETUP, Recorder

ROOT = Path(__file__).resolve().parent.parent


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas() -> dict:
    """The OpenBLAS loaded by numpy, its build string and thread count."""
    import numpy as np

    info = {"numpy": np.__version__, "library": None, "config": None, "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                info.update(library=Path(path).name, config=config().decode(), threads=threads())
                return info
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--check-seed", type=int, nargs=2, required=True,
                        help="seed and pass number for the rows the checks sample")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--env", action="store_true")
    args = parser.parse_args()
    out = Path(args.out)

    sys.path.insert(0, str(ROOT / "src"))
    import tbrevival
    import tbrevival.cli  # noqa: F401  (loaded so that the recorder can wrap cli.main)

    if not Path(tbrevival.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported tbrevival from {tbrevival.__file__}, not from this checkout")

    recorder = None
    if args.trace:
        recorder = Recorder()
        recorder.install()

    def region(name):
        return recorder.region(name) if recorder else contextlib.nullcontext()

    import workloads

    inputs = json.loads(Path(args.inputs).read_text())
    with region(SETUP):
        work = workloads.make(inputs, out)
    result = {"setup_s": _now() - args.spawned}

    if not args.setup_only:
        usage0, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        with region(RUN):
            work.run()
        end, usage1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            wall_s=end - start,
            cpu_s=(usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
            peak_rss_mib=usage1.ru_maxrss / 1024,
            op_s=work.op_s,
        )
        if recorder:
            recorder.active = False
            recorder.dump(out / "spans.json")
        import numpy as np

        result["ops"] = work.check(np.random.default_rng(args.check_seed))

    if args.env:
        result["env"] = {"python": platform.python_version(), "blas": _blas()}
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
