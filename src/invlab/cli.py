"""Command-line front end: distance queries, geodesics, sweeps, kernels, verification.

Exit codes: 0 on success, 1 on a validation error (bad literal, unknown
domain, point outside the domain; the diagnostic names the offending flag),
2 when the verification suite fails.  Identical argv and seed (42 unless
``--seed`` says otherwise) produce byte-identical output files: all randomness
is counter-based and keyed by the seed, CSV floats carry 17 significant
digits, and verify runs its suites one after another in registry order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bergman as bergman_lab
from . import distances, geodesics, localization, metrics, parsing, sampling, verify
from .geometry import (
    DimensionMismatchError,
    Domain,
    HalfDiscScaled,
    MembershipError,
    UnsupportedDomainError,
    dimension,
    member_coords,
)


class FlagError(ValueError):
    """Validation failure attributed to a specific flag."""

    def __init__(self, flag: str, message: str):
        super().__init__(f"{flag}: {message}")
        self.flag = flag


def _parse_with(flag: str, parser, text: str):
    try:
        return parser(text)
    except ValueError as exc:
        raise FlagError(flag, str(exc))


def _member_point(flag: str, domain: Domain, text: str) -> np.ndarray:
    pt = _parse_with(flag, parsing.parse_point, text)
    try:
        return member_coords(domain, pt)
    except DimensionMismatchError as exc:
        raise FlagError(flag, str(exc))
    except MembershipError:
        raise FlagError(flag, f"point {text} lies outside the domain")


def _write_text(path: str, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_distance(args) -> int:
    domain = _parse_with("--domain", parsing.parse_domain, args.domain)
    z = _member_point("--z", domain, args.z)
    w = _member_point("--w", domain, args.w)
    fn = {
        "k": distances.kobayashi_distance,
        "c": distances.caratheodory_distance,
    }[args.which]
    try:
        value = fn(domain, z, w)
    except UnsupportedDomainError as exc:
        raise FlagError("--domain", str(exc))
    _write_text(args.out, parsing.format_float(value.value) + "\n")
    return 0


def cmd_gap(args) -> int:
    domain = _parse_with("--r", HalfDiscScaled, args.r)
    z = _member_point("--z", domain, args.z)[0]
    w = _member_point("--w", domain, args.w)[0]
    g = distances.localization_gap(z, w, args.r)
    row = (z, w, g.k_local, g.k_global, g.term_boundary, g.term_separation, g.gap, g.residual)
    _write_text(args.out, "z,w,k_loc,k_glob,t1,t2,gap,residual\n" + parsing.csv_line(*row))
    return 0


def _geodesic_oracle(domain: Domain, metric: str):
    """Distance oracle matching the chosen metric, or None when unavailable."""
    if metric == "kobayashi":
        return distances.distance_batch(domain)
    scale = domain.bergman_over_kobayashi
    if scale is None:
        return None
    if metric == "nbergman":
        scale = 1.0
    base = distances.distance_batch(domain)
    return lambda Z, W: scale * base(Z, W)


def cmd_geodesic(args) -> int:
    domain = _parse_with("--domain", parsing.parse_domain, args.domain)
    z = _member_point("--z", domain, args.z)
    w = _member_point("--w", domain, args.w)
    try:
        density = {
            "kobayashi": metrics.kobayashi_density,
            "bergman": metrics.bergman_density,
            "nbergman": metrics.normalized_bergman_density,
        }[args.metric](domain)
    except UnsupportedDomainError as exc:
        # the Kobayashi density is the default, so when it is missing the domain is at fault
        raise FlagError("--domain" if args.metric == "kobayashi" else "--metric", str(exc))
    # --nodes must make a config on its own before --levels is checked against it
    for flag, levels in (("--nodes", 0), ("--levels", args.levels)):
        try:
            solver = geodesics.SolverConfig(node_count=args.nodes, refinement_levels=levels)
        except ValueError as exc:
            raise FlagError(flag, str(exc))
    curve, length = geodesics.minimize_curve(density, z, w, solver)
    oracle = _geodesic_oracle(domain, args.metric)
    epsilon = (
        geodesics.epsilon_certificate(curve, density, oracle).epsilon
        if oracle is not None
        else None
    )
    nodes = [
        [coord for c in row for coord in (c.real, c.imag)] for row in curve.nodes
    ]
    payload = {"nodes": nodes, "length": length, "epsilon": epsilon}
    _write_text(args.out, json.dumps(payload) + "\n")
    return 0


def cmd_bergman(args) -> int:
    domain = _parse_with("--domain", parsing.parse_domain, args.domain)
    z = _member_point("--z", domain, args.z)
    N = args.truncation
    try:
        kr = bergman_lab.bergman_kernel_diag(domain, z, N)
    except UnsupportedDomainError as exc:
        raise FlagError("--domain", str(exc))
    except ValueError as exc:
        raise FlagError("--truncation", str(exc))
    beta = beta_tilde = None
    if args.X is not None:
        X = _parse_with("--X", parsing.parse_point, args.X)
        if len(X) != dimension(domain):
            raise FlagError("--X", "vector dimension does not match the domain")
        try:
            beta = bergman_lab.bergman_metric_numeric(domain, z, X, N)
        except MembershipError as exc:  # a stencil point z +- hX, z +- ihX leaves the domain
            raise FlagError("--z", str(exc))
        except ValueError as exc:  # a Hessian the truncated series leaves nonpositive
            raise FlagError("--truncation", str(exc))
        beta_tilde = beta / math.sqrt(dimension(domain) + 1)
    payload = {
        "kernel": kr.kernel_diag,
        "K_D": kr.kernel_sqrt,
        "beta": beta,
        "beta_tilde": beta_tilde,
        "tail": kr.tail_estimate,
    }
    _write_text(args.out, json.dumps(payload) + "\n")
    return 0


def _sweep_rows(family: str, region: float, samples: int, seed: int):
    if family == "imaginary-axis":
        if not (0.0 < region < 1.0):
            raise FlagError("--region", "imaginary-axis sweeps need region in (0, 1)")
        ts = np.geomspace(region * 1e-3, region, samples)
        z, w = 1j * ts, 0.5j * ts
        rhs = localization.two_term_gap_bound(z, w)
    elif family == "random-cap":
        if not (0.0 < region < 1.0):
            raise FlagError("--region", "random-cap sweeps need region in (0, 1)")
        z, w = sampling.halfdisc_pairs(seed, samples, region)
        ts = np.abs(z - w)
        rhs = localization.planar_gap_bound(1.0, z, w, z.imag, w.imag)
    elif family == "normal":
        if not (0.0 < region <= 1.0):
            raise FlagError("--region", "normal sweeps need region in (0, 1]")
        ts = region * 2.0 ** -(np.arange(samples) + 6.0)
        z, w = 2j * ts, 1j * ts
        rhs = localization.two_term_gap_bound(z, w)
    else:
        raise FlagError("--family", f"unknown family {family!r}")
    # every accepted region puts the points inside the half-disc; only the
    # bound can underflow, on the smallest points of a long or tiny sweep
    if not np.all(rhs > 0.0):
        raise FlagError(
            "--samples", "the bound underflows to zero; use fewer samples or a larger region"
        )
    tb, tsep = distances.gap_terms_batch(z, w)
    gap = tb + tsep
    columns = (ts, z, w, gap, rhs, gap / rhs)
    return list(zip(*(c.tolist() for c in columns)))


def cmd_sweep(args) -> int:
    if args.samples < 2:
        raise FlagError("--samples", "need at least two samples")
    rows = _sweep_rows(args.family, args.region, args.samples, args.seed)
    _write_text(args.out, "t,z,w,gap,rhs,ratio\n" + "".join(parsing.csv_line(*r) for r in rows))
    return 0


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    report, ok = verify.run_verify(names, args.seed)
    for name, entry in report.items():
        summary = " ".join(
            f"{k}={parsing.format_float(v)}" for k, v in entry["measured"].items()
        )
        print(f"{'PASS' if entry['pass'] else 'FAIL'} {name} {summary}")
    with open(args.out or "report.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invlab",
        description="invariant-metric laboratory on model complex domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("distance", help="closed-form distance between two points")
    d.add_argument("--domain", required=True)
    d.add_argument("--z", required=True)
    d.add_argument("--w", required=True)
    d.add_argument("--which", choices=["k", "c"], default="k")
    d.add_argument("--out", default=None)

    g = sub.add_parser("gap", help="half-disc localization gap decomposition")
    g.add_argument("--z", required=True)
    g.add_argument("--w", required=True)
    g.add_argument("--r", type=float, default=1.0)
    g.add_argument("--out", default=None)

    geo = sub.add_parser("geodesic", help="variational geodesic between two points")
    geo.add_argument("--domain", required=True)
    geo.add_argument("--z", required=True)
    geo.add_argument("--w", required=True)
    geo.add_argument("--nodes", type=int, default=geodesics.SolverConfig.node_count)
    geo.add_argument("--levels", type=int, default=geodesics.SolverConfig.refinement_levels)
    geo.add_argument(
        "--metric", choices=["kobayashi", "bergman", "nbergman"], default="kobayashi"
    )
    geo.add_argument("--out", default=None)

    b = sub.add_parser("bergman", help="numeric kernel and metric via moments")
    b.add_argument("--domain", required=True)
    b.add_argument("--z", required=True)
    b.add_argument("--X", default=None)
    b.add_argument("--truncation", type=int, default=50)
    b.add_argument("--out", default=None)

    s = sub.add_parser("sweep", help="gap-versus-bound sweep tables")
    s.add_argument(
        "--family", choices=["imaginary-axis", "random-cap", "normal"], required=True
    )
    s.add_argument("--region", type=float, required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--out", default=None)

    v = sub.add_parser("verify", help="run the verification suites")
    v.add_argument("--suite", choices=["all", *verify.SUITES], default="all")
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--out", default=None)

    return parser


COMMANDS = {
    "distance": cmd_distance,
    "gap": cmd_gap,
    "geodesic": cmd_geodesic,
    "bergman": cmd_bergman,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


POINT_FLAGS = ("--z", "--w", "--X")


def _attach_point_values(argv: list[str]) -> list[str]:
    """Join each point flag to its value, so argparse cannot mistake a literal
    such as -0.1+0.01i for a flag."""
    out, tokens = [], iter(argv)
    for tok in tokens:
        out.append(f"{tok}={next(tokens, '')}" if tok in POINT_FLAGS else tok)
    return out


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_point_values(argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        # samplers key Philox, whose keys lie in [0, 2**128), with the seed plus at most 101
        if not 0 <= getattr(args, "seed", 0) < 2**64:
            raise FlagError("--seed", "must lie in [0, 2**64)")
        return COMMANDS[args.command](args)
    except ValueError as exc:  # FlagError and every invlab error
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
