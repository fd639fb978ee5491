"""Batch verification command line.

Subcommands
-----------
verify     run a named check suite and emit a certification report
surface    generate the 21-cubic invariant ideal at a parameter point
grassmann  test a plane against the alternating net

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage error.
Reports are byte-identical for a fixed (version, seed, configuration):
timings are suppressed (reported as 0) unless --timing is given, which is
therefore excluded from certification runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .checks import (
    SUITES,
    RunConfig,
    coeff_domain,
    coeff_name,
    degree_budget,
    report_json_bytes,
    report_to_text,
    run_suite,
)


def _rationals(s: str, count: int, words: str) -> tuple:
    """The `count` comma-separated rationals of s; a usage error names the
    first part that is not one."""
    parts = [p.strip() for p in s.split(",")]
    if len(parts) != count:
        raise argparse.ArgumentTypeError(f"expected {words} comma-separated rationals")
    out = []
    for p in parts:
        try:
            out.append(Fraction(p))
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"{p!r} is not a rational number") from None
    return tuple(out)


def _parse_t(s: str):
    return _rationals(s, 4, "four")


def _parse_raw(s: str):
    return _rationals(s, 21, "21")


def _parse_coeff(s: str) -> str:
    """The canonical spelling of a --coeff value (fp:031 is fp:31), so one
    field gives one report."""
    try:
        return coeff_name(coeff_domain(s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_budget(s: str) -> int:
    try:
        budget = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{s!r} is not an integer") from None
    try:
        return degree_budget(budget)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_common(p):
    p.add_argument("--seed", type=int, default=42, help="seed for all sampled data")
    p.add_argument(
        "--coeff",
        type=_parse_coeff,
        default="fp:31",
        help="coefficient field for resolutions: q or fp:<p> (default fp:31)",
    )
    p.add_argument(
        "--budget-degree",
        type=_parse_budget,
        default=8,
        help="resolution degree budget, >= 0; resolutions run through degree max(budget, 9) (default 8)",
    )
    p.add_argument("--quiet", action="store_true", help="suppress the text projection")


def build_parser():
    ap = argparse.ArgumentParser(prog="heis7", description=__doc__.split("\n")[0])
    ap.add_argument("--version", action="version", version=f"heis7 {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=[*SUITES, "all"])
    v.add_argument("--t", type=_parse_t, default=None, help="extra parameter point")
    v.add_argument("--json", dest="json_path", help="write the JSON report here")
    v.add_argument(
        "--timing",
        action="store_true",
        help="record wall-clock milliseconds (breaks byte-reproducibility)",
    )
    _add_common(v)

    s = sub.add_parser("surface", help="emit the invariant cubic system at t")
    s.add_argument("--t", type=_parse_t, required=True)
    s.add_argument("--betti", action="store_true", help="also compute the resolution")
    s.add_argument("--out", help="write the JSON description here")
    _add_common(s)

    g = sub.add_parser("grassmann", help="net membership of a plane")
    g.add_argument("--t", type=_parse_t, help="use the parametrized plane at t")
    g.add_argument(
        "--equational", action="store_true", help="use the built-in equational point"
    )
    g.add_argument(
        "--raw",
        type=_parse_raw,
        help="21 comma-separated rationals, row-major 3x7 coordinate matrix",
    )
    _add_common(g)
    return ap


def cmd_verify(args) -> int:
    try:
        config = RunConfig(args.seed, args.coeff, args.budget_degree, args.timing, extra_t=args.t)
        report = run_suite(args.suite, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = report_json_bytes(report)
    if args.json_path:
        with open(args.json_path, "wb") as fh:
            fh.write(payload)
    if not args.quiet:
        print(report_to_text(report))
    return 0 if report["summary"]["fail"] == 0 else 1


def cmd_surface(args) -> int:
    from .moduli import surface_ideal
    from .resolution import free_resolution

    config = RunConfig(seed=args.seed, coeff=args.coeff, budget_degree=args.budget_degree)
    try:
        S = surface_ideal(args.t)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if S.degenerate:
        print(
            f"error: parameter {tuple(str(x) for x in args.t)} is degenerate "
            "(the cubic system has dimension < 21)",
            file=sys.stderr,
        )
        return 1
    # a bad prime (SurfaceIdeal.bad_prime) moves to the next good one
    dom = S.coefficient_domain(config.resolution_domain())
    ideal = S.ideal(dom)
    payload = S.to_json()
    payload["hilbert_function"] = ideal.hilbert().hf_range(0, 5)
    # provenance block: which certification checks the emitted system passed
    from .moduli import grass_membership, psi

    member, _ = grass_membership(psi(args.t))
    payload["provenance"] = {
        "independent_cubics": not S.degenerate,
        "hilbert_function_seven_k_squared": payload["hilbert_function"]
        == [1, 7, 28, 63, 112, 175],
        "net_membership": member,
        "coeff": coeff_name(dom),
        "tool_version": __version__,
    }
    if args.betti:
        bt = free_resolution(ideal, degree_cap=config.resolution_degree_cap())
        payload["betti"] = bt.to_json()
        payload["betti_complete"] = bt.complete
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(data)
    if not args.quiet:
        print(f"t = ({':'.join(str(x) for x in S.t)})")
        print(f"hilbert function (degrees 0..5): {payload['hilbert_function']}")
        if args.betti:
            from .resolution import BettiTable

            bt_obj = BettiTable({(e['i'], e['j']): e['beta'] for e in payload['betti']})
            print("betti table (rows are degree minus step):")
            print(bt_obj.render())
        for line in payload["generators"]:
            print(" ", line)
    return 0


def cmd_grassmann(args) -> int:
    from .moduli import GrassPoint, equational_point, grass_membership, psi

    if args.equational:
        point = equational_point()
        label = "equational point"
    elif args.raw:
        point = GrassPoint([list(args.raw[k : k + 7]) for k in (0, 7, 14)])
        label = "raw plane"
    elif args.t is not None:
        try:
            point = psi(args.t)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        label = f"parametrized plane at ({':'.join(str(x) for x in args.t)})"
    else:
        print("error: need one of --t, --equational, --raw", file=sys.stderr)
        return 2
    if point.rank() != 3:
        print(f"error: {label} is rank-deficient", file=sys.stderr)
        return 2
    ok, values = grass_membership(point)
    if not args.quiet:
        print(f"{label}: {'member' if ok else 'NOT a member'}")
        print("contractions:", ", ".join(str(v) for v in values))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "surface":
        return cmd_surface(args)
    if args.command == "grassmann":
        return cmd_grassmann(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
