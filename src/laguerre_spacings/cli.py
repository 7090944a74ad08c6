"""Command-line surface: zeros, spacings, bounds, verification, and sweeps."""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import bessel, bounds, report
from .errors import ConvergenceError, DomainError, ParameterError, RefinementError
from .laguerre import LaguerreParams
from .solver import zeros

# argparse reads a token starting with '-' as an option unless it matches the
# parser's negative-number pattern, which on Python 3.11 has no exponent form.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _params(args) -> LaguerreParams:
    return LaguerreParams(n=args.n, alpha=args.alpha)


def _print_flag(params: LaguerreParams) -> None:
    if params.near_degenerate_weight:
        print("note: alpha + 1 < 1e-6; bounds are tiny but well-defined")


def cmd_zeros(args) -> int:
    params = _params(args)
    zs = zeros(params)
    if args.json:
        payload = {
            "n": params.n,
            "alpha": params.alpha,
            "method": "eigen+newton",
            "near_degenerate_weight": params.near_degenerate_weight,
            "zeros": [float(z) for z in zs.zeros],
            "residuals": [float(r) for r in zs.residuals],
        }
        print(json.dumps(payload, indent=2))
        return 0
    _print_flag(params)
    print(f"zeros of L_{params.n}^({params.alpha}), ascending:")
    print(f"{'index':>5}  {'zero':>24}  {'residual (ulp-eq)':>18}")
    for i, (z, r) in enumerate(zip(zs.zeros, zs.residuals), start=1):
        print(f"{i:>5}  {z:>24.17g}  {r:>18.3g}")
    return 0


def cmd_spacings(args) -> int:
    params = _params(args)
    _print_flag(params)
    table = report.spacing_rows(zeros(params))
    print(f"{'i':>4}  {'spacing':>24}  {'uniform_bound':>24}  {'ratio':>12}")
    for i, (s, r) in enumerate(zip(table.spacing.tolist(), table.ratio.tolist()), start=1):
        print(f"{i:>4}  {s:>24.17g}  {table.uniform_bound:>24.17g}  {r:>12.6g}")
    return 0


def cmd_bounds(args) -> int:
    params = _params(args)
    _print_flag(params)
    bs = bounds.bound_set(params, C=args.C)
    edge = bounds.edge_params(params)
    print(f"U = {edge.U:.17g}   V = {edge.V:.17g}")
    print(f"window (V^2, U^2) = ({edge.V2:.17g}, {edge.U2:.17g})")
    print(f"sharpened window = [{bs.krasikov_min_lower:.17g}, {bs.krasikov_max_upper:.17g}]")
    print(f"delta max = {bs.delta_max:.17g} at x* = {bs.x_star:.17g}")
    if bs.uniform_lower is None:
        for name in ("uniform spacing lower bound", "large-alpha bound"):
            print(f"{name}: not applicable (n = 1 has no spacings)")
        return 0
    print(f"uniform spacing lower bound = {bs.uniform_lower:.17g}")
    if bs.range_lower is not None:
        print(f"large-alpha bound (C = {bs.range_constant:.6g}): {bs.range_lower:.17g}")
        print(f"  sharper proof constant: {bs.proof_range_lower:.17g}")
    else:
        print("large-alpha bound: not applicable (needs alpha >= n/C)")
    return 0


def cmd_verify(args) -> int:
    params = _params(args)
    _print_flag(params)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    bad = set(checks) - report.ASSERTED_CHECKS
    if bad or not checks:
        print(f"unknown checks: {sorted(bad)}" if bad else "no checks given", file=sys.stderr)
        return 2
    pair = report.check_pair(params, checks)
    for check in checks:  # in the user's order, repeats included
        verdict = "FAIL" if check in pair.failed else "PASS"
        if check == "bethe":
            print(f"bethe: max residual {pair.max_bethe_residual:.3g} "
                  f"({verdict} at {report.BETHE_RESIDUAL_TOL:g})")
        elif check == "krasikov":
            lo, hi = pair.krasikov_window
            print(f"krasikov: window [{lo:.6g}, {hi:.6g}] ({verdict})")
        elif pair.min_ratio is not None:
            print(f"bounds: min spacing/bound ratio {pair.min_ratio:.6g} ({verdict})")
        else:
            print("bounds: no spacings for n = 1 (skipped)")
    return 1 if pair.failed else 0


def cmd_sweep(args) -> int:
    config = report.parse_sweep_config(args.config)
    summary = report.run_sweep(config)
    print(f"wrote {len(summary['pairs'])} pair CSVs and summary.json "
          f"to {config.output_dir}")
    if summary["failures"]:
        for failure in summary["failures"]:
            print(f"FAIL n={failure['n']} alpha={failure['alpha']} "
                  f"[{failure['check']}]: {failure['detail']}", file=sys.stderr)
        return 1
    return 0


def cmd_figure1(args) -> int:
    written = report.figure1(args.out)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def cmd_bessel_probe(args) -> int:
    probe = bessel.limit_probe(args.alpha, args.k, args.ngrid)  # refuses before any output
    table = bessel.bessel_zero_table(args.alpha, args.k + 1)  # k + 1 <= MAX_RANK, as checked
    print(f"zeros of J_{args.alpha}: " + ", ".join(f"{z:.12g}" for z in table.zeros))
    facts = bessel.gap_facts(table)
    print(f"gap band [pi, 2pi] holds: {facts.all_gaps_in_band}; "
          f"pair sums >= 1+alpha: {facts.all_sums_ok}")
    print(f"squared-zero difference: {probe.target:.12g}; "
          f"scaled-spacing limit: {probe.asymptotic_limit:.12g}")
    print(f"{'n':>6} {'scaled spacing':>18} {'deviation':>12}")
    for n, s, d in zip(probe.n_grid, probe.scaled_spacings, probe.deviations):
        print(f"{n:>6} {s:>18.12g} {d:>12.3g}")
    return 0


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laguerre-spacings",
        description="Zeros, spacing bounds and identity checks for L_n^(alpha)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair(p):
        p.add_argument("--n", type=int, required=True, help="polynomial degree")
        p.add_argument("--alpha", type=float, required=True, help="exponent > -1")

    # As with int and float, a malformed value is a usage error (exit 2) naming the type.
    def auto_or_number(text):
        return text if text == "auto" else float(text)

    def integer_list(text):
        return [int(p) for p in text.split(",") if p.strip()]

    p = sub.add_parser("zeros", help="compute all zeros with residual diagnostics")
    add_pair(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    p = sub.add_parser("spacings", help="consecutive-zero gaps vs the uniform bound")
    add_pair(p)

    p = sub.add_parser("bounds", help="edge quantities and every closed-form bound")
    add_pair(p)
    p.add_argument("--C", type=auto_or_number, default="auto",
                   help="constant for the large-alpha bound, or 'auto' for n/alpha")

    p = sub.add_parser("verify", help="run checks for one (n, alpha)")
    add_pair(p)
    p.add_argument("--checks", default="bethe,bounds,krasikov",
                   help="comma-separated subset of bethe,bounds,krasikov")

    p = sub.add_parser("sweep", help="run a grid described by a config file")
    p.add_argument("--config", required=True, help="flat key/value config file")

    p = sub.add_parser("figure1", help="emit the default 4x4 grid CSVs + plot script")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("bessel-probe",
                       help="Bessel zeros, gap facts, and the scaled-spacing limit")
    p.add_argument("--alpha", type=float, required=True, help="exponent in (-1, 1]")
    p.add_argument("--k", type=int, required=True, help="spacing rank at the clustered end")
    p.add_argument("--ngrid", type=integer_list, required=True,
                   help="comma-separated degrees")

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit status, and a package error propagates."""
    args = build_parser().parse_args(argv)
    # Looked up per call, so a cmd_* rebound on this module (a tracer's wrapper) is what runs.
    return globals()["cmd_" + args.command.replace("-", "_")](args)


def console_main(argv=None) -> int:
    """main for the console script: a refused input (ParameterError, DomainError)
    exits 2, the status of a usage error, and a solve that failed its own checks
    (ConvergenceError, RefinementError) exits 3, each with one stderr line naming
    the error type and no traceback; 1 stays a failed check's status."""
    try:
        return main(argv)
    except (ParameterError, DomainError, ConvergenceError, RefinementError) as exc:
        print(f"laguerre-spacings: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParameterError, DomainError)) else 3


if __name__ == "__main__":
    sys.exit(console_main())
