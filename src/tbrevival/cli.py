"""Command-line front end.

Subcommands: evolve, trace, predict, sweep, budget, reproduce.  Config
files use the grammar documented in :mod:`tbrevival.harness`.  ``--threads``
and ``--seed`` are accepted for interface stability: evaluation is
vectorised in-process and nothing is randomised, so both are no-ops and
outputs are deterministic regardless.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .fidelity import _overlaps
from .harness import (
    ConfigError,
    estimate_budget,
    parse_config,
    parse_sweep,
    reproduce,
    revival_fraction,
    run_scenario,
    run_sweep,
    write_profile_csv,
)
from .propagator import _instant_times, evolve_exact
from .revival import predict_state


def _fraction(text: str):
    try:  # revival_fraction as an argument type, with its own message
        return revival_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache  # built on the first call, then reused: parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out", default=".", help="output directory (default: cwd)")
    outputs.add_argument("--threads", type=int, default=1,
                         help="accepted for compatibility; evaluation is vectorised")
    outputs.add_argument("--seed", type=int, default=None,
                         help="accepted for compatibility; nothing is randomised")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="scenario config file")
    runs = [config, outputs]

    parser = argparse.ArgumentParser(prog="tbrevival", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("evolve", parents=runs,
                       help="evolve the initial state to one instant, emit profile")
    p.add_argument("--time", type=float, required=True, help="instant in units of t_rev")
    sub.add_parser("trace", parents=runs, help="fidelity trace over the configured time grid")
    p = sub.add_parser("predict", parents=runs,
                       help="analytic sub-packets at p/q of t_rev, of a packet or superposition")
    p.add_argument("--fraction", type=_fraction, required=True,
                   help="revival fraction, e.g. 1/3")
    sub.add_parser("sweep", parents=runs, help="run the [sweep] section of the config")

    p = sub.add_parser("budget", help="revival-period vs decoherence budget arithmetic")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--hopping-mev", type=float, required=True)
    p.add_argument("--decoherence-ms", type=float, default=None)
    p.add_argument("--revivals", type=float, default=None)

    p = sub.add_parser("reproduce", parents=[outputs],
                       help="run a stored figure preset end to end")
    p.add_argument("figure", help="figure id, e.g. fig2a ... fig7")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = Path(args.config).read_text() if "config" in args else None
        if args.command == "evolve":
            scenario = parse_config(config)
            chain, state = scenario.chain(), scenario.initial_state()
            t = _instant_times(args.time, chain)
            evolved = evolve_exact(chain, state, t)
            a, f = _overlaps(chain, state, np.array([t]))[:, 0]
            path = write_profile_csv(
                Path(args.out) / f"{scenario.prefix}_evolved_t{args.time:g}.csv", evolved
            )
            print(f"wrote {path}")
            print(f"t/t_rev = {args.time:g}  |F|^2 = {abs(f)**2:.6f}  |A|^2 = {abs(a)**2:.6f}  "
                  f"norm = {np.linalg.norm(evolved):.12f}")

        elif args.command == "trace":
            for path in run_scenario(parse_config(config), args.out):
                print(f"wrote {path}")

        elif args.command == "predict":
            scenario, fraction = parse_config(config), args.fraction
            prediction = predict_state(scenario.chain(), scenario._packet_spec(), fraction)
            centers = scenario.centers()
            print(f"sub-packets at t = {fraction} of t_rev (center{'s' * (len(centers) > 1)} "
                  f"{', '.join(f'{c:g}' for c in centers)}):")
            print("  center      weight_re      weight_im      probability")
            for center, weight in prediction.merged():
                print(f"  {center:9.3f}  {weight.real:+.10f}  {weight.imag:+.10f}  "
                      f"{abs(weight)**2:.10f}")
            path = write_profile_csv(
                Path(args.out)
                / f"{scenario.prefix}_predicted_p{fraction.numerator}q{fraction.denominator}.csv",
                prediction.state,
            )
            print(f"wrote {path}")

        elif args.command == "sweep":
            spec = parse_sweep(config)
            result = run_sweep(spec, args.out)
            for value, metric in result.rows:
                print(f"{result.variable} = {value:g}  {result.metric} = {metric:.6f}")
            print(f"non-decreasing: {result.non_decreasing}")
            print(f"wrote {result.path}")

        elif args.command == "budget":
            report = estimate_budget(
                args.sites, args.hopping_mev, args.decoherence_ms, args.revivals
            )
            for line in report.lines():
                print(line)

        elif args.command == "reproduce":
            for path in reproduce(args.figure, args.out):
                print(f"wrote {path}")

    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
