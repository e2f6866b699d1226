"""Seeded input generation for the benchmark workloads.

Every input the program sees is made here from the workload seed, with
fixed counts and fixed ranges, so one seed always gives the same inputs
and different seeds give the same amount of work.  The program receives
only the generated config texts and specs.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("paper-presets", "long-chain-trace", "chain-scan")

# The paper's figure set; the seed does not change it.  fig2a is left out:
# its grid runs to t = 6 t_rev, and beyond about 1.1 t_rev the program's
# Gauss labels are wrong (finite |F_f|^2 of 7e10 to 4e23 where no mirror
# clone exists, so nan is due), which fails the output checks on every run.
PRESET_IDS = ("fig2b", "fig3", "fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b", "fig7")

LONG_CHAIN_SITES = 4000
LONG_CHAIN_POINTS = 8001
LONG_CHAIN_HALF_WINDOW = 0.05  # units of t_rev, on each side of the revival
# The window is centred on a fractional revival drawn from these.  All lie
# inside the first revival period, where the program labels every grid
# point correctly; around later revivals (p > q) its labels fail the checks.
LONG_CHAIN_REVIVALS = ((1, 5), (1, 4), (1, 3), (2, 5), (1, 2), (3, 5), (2, 3), (3, 4), (4, 5))
LONG_CHAIN_CENTER = (0.05, 0.25)  # packet center range, as a share of N + 1
LONG_CHAIN_HALF_WIDTH = 24.0

SCAN_SIZES = 12
SCAN_RANGE = (500, 4000)
SCAN_JITTER = 20  # sites
SCAN_FRACTIONS = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 7))
SCAN_CENTER_JITTER = 2.0  # sites around (N + 1)/10


def _config(sites: int, center: float, half_width: float, extra: str = "") -> str:
    return (
        f"[chain]\nsites = {sites}\n"
        f"[initial]\nkind = gaussian\ncenter = {center!r}\nhalf_width = {half_width!r}\n"
        + extra
    )


def generate(workload: str, seed: int) -> dict:
    """Inputs for one run of ``workload``; a pure function of (workload, seed)."""
    rng = np.random.default_rng(seed)
    if workload == "paper-presets":
        return {"workload": workload, "seed_used": False, "presets": list(PRESET_IDS)}

    if workload == "long-chain-trace":
        p, q = LONG_CHAIN_REVIVALS[int(rng.integers(len(LONG_CHAIN_REVIVALS)))]
        revival = p / q
        center = float(rng.uniform(*LONG_CHAIN_CENTER)) * (LONG_CHAIN_SITES + 1)
        start = revival - LONG_CHAIN_HALF_WINDOW
        stop = revival + LONG_CHAIN_HALF_WINDOW
        extra = (
            f"[time]\nstart = {start!r}\nstop = {stop!r}\npoints = {LONG_CHAIN_POINTS}\n"
            f"[metrics]\nprofiles_at = {revival!r}\n"
            "[output]\nprefix = longchain\n"
        )
        return {
            "workload": workload,
            "seed_used": True,
            "revival": revival,
            "center": center,
            "config": _config(LONG_CHAIN_SITES, center, LONG_CHAIN_HALF_WIDTH, extra),
        }

    if workload == "chain-scan":
        # One size within SCAN_JITTER of each of SCAN_SIZES evenly spaced
        # points.  A wider draw would let the largest sine matrix cross the
        # 105 MiB L3 on some seeds and not others, and the cost with it.
        points = np.linspace(SCAN_RANGE[0] + SCAN_JITTER, SCAN_RANGE[1] - SCAN_JITTER, SCAN_SIZES)
        jitter = rng.uniform(-SCAN_JITTER, SCAN_JITTER, size=SCAN_SIZES)
        sizes = [int(n) for n in (points + jitter).round()]
        cases = []
        for n in sizes:
            center = (n + 1) / 10 + float(rng.uniform(-SCAN_CENTER_JITTER, SCAN_CENTER_JITTER))
            half_width = 24.0 * n / 500
            cases.append({
                "sites": n,
                "center": center,
                "half_width": half_width,
                "config": _config(n, center, half_width),
            })
        return {
            "workload": workload,
            "seed_used": True,
            "fractions": [list(f) for f in SCAN_FRACTIONS],
            "cases": cases,
        }

    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def computed_working_set(inputs: dict) -> dict:
    """Largest dense arrays the current algorithms build, from sizes alone (not measured)."""
    complex_bytes, real_bytes = 16, 8
    if inputs["workload"] == "paper-presets":
        points = 2000 + 1  # fig2b, the longest preset grid
        return {
            "label": "computed",
            "phase_matrix_bytes": points * 500 * complex_bytes,
            "sine_matrix_bytes": 500 * 500 * real_bytes,
        }
    if inputs["workload"] == "long-chain-trace":
        n = LONG_CHAIN_SITES
        return {
            "label": "computed",
            "phase_matrix_bytes": LONG_CHAIN_POINTS * n * complex_bytes,
            "sine_matrix_bytes": n * n * real_bytes,
        }
    sizes = [c["sites"] for c in inputs["cases"]]
    return {
        "label": "computed",
        "largest_sine_matrix_bytes": max(sizes) ** 2 * real_bytes,
        "all_sine_matrices_bytes": sum(n * n for n in sizes) * real_bytes,
    }
