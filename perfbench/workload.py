"""One workload in one fresh process; ``run.py`` starts it and reads its last line.

Untraced (``--trace 0``): set up, run whole rounds of the workload's own
group until ``--seconds`` have passed, with rounds of the group it carries
and of the small fixed probes of the other groups in between, then check
every output and print the end-to-end metrics.
With ``--setup-only`` the process stops once set-up is done and reports only
its set-up time.

Traced (``--trace 1``): run a fixed number of the workload's rounds with
spans, as many further rounds untraced to measure the tracing overhead, and a
traced census of the other groups (the carried group runs its own traced
rounds instead); print the per-layer metrics and write the spans to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import groups
from groups import (
    PROBE_SEED,
    SCALAR_KINDS,
    BergmanGroup,
    ClosedFormGroup,
    GeodesicGroup,
    median,
)
from tracing import DENSITY, ORACLE, Recorder

WORKLOADS = ("geodesics", "closed-forms", "bergman-sweep")
TRACE_ROUNDS = {"geodesics": 1, "closed-forms": 20, "bergman-sweep": 3}


def own_group(workload: str, seed: int):
    if workload == "geodesics":
        return GeodesicGroup(seed)
    if workload == "closed-forms":
        return ClosedFormGroup(seed)
    return BergmanGroup(seed)


# The closed-form workload also carries the Bergman sweep at full size, one
# round (~0.4 s) whenever this many seconds have passed since the last, about
# half of the window, so that the benchmark gates two workloads with runs long
# enough for the geodesic rate and still has one where `bergman` does much of
# the work.  At 1 s between rounds the Bergman floors rested on ~30 rounds a
# run, too few: `cold_table_ms` spread 0.28 over ten runs.
CARRIED = {"closed-forms": "bergman-sweep"}
CARRIED_EVERY_S = 0.4


def side_group(workload: str, other: str, seed: int, trace: bool):
    """(group, seconds between rounds or traced rounds) for another group in a run."""
    if CARRIED.get(workload) == other:
        return own_group(other, seed), (TRACE_ROUNDS[other] if trace else CARRIED_EVERY_S)
    return (census if trace else probe)(other)


def probe(workload: str):
    """(group, seconds between rounds): the small fixed load that gives a workload
    another group's end-to-end metrics.  Its rounds are spread over the whole
    measured window, so the machine's drifting speed weighs on them as on the
    workload's own calls."""
    if workload == "geodesics":
        # a diameter of the disc: the cheapest honest solve, so that it can repeat often
        probe_pair = {"bergman-disc": (-0.3 + 0j, 0.3 + 0j)}
        return GeodesicGroup(PROBE_SEED, families=("bergman-disc",), edge_t=(), base=probe_pair), 0.5
    if workload == "closed-forms":
        return ClosedFormGroup(PROBE_SEED, pairs=256, evals=512, scalars=4, rows=8, arc=False), 0.5
    return BergmanGroup(PROBE_SEED, polydiscs=1, ellipsoids=0, kernels=30, metrics_per=4, fixed=False), 0.5


def census(workload: str):
    """(group, rounds): enough of another group that every per-layer metric gets a value."""
    if workload == "geodesics":
        return GeodesicGroup(PROBE_SEED, edge_t=(1e-3,)), 1
    if workload == "closed-forms":
        return ClosedFormGroup(PROBE_SEED, pairs=256, evals=512, scalars=4, rows=8, arc=False), 5
    return BergmanGroup(PROBE_SEED, polydiscs=1, ellipsoids=1, kernels=10, metrics_per=2), 1


# ==========================================================================
# metrics from recorded durations
# ==========================================================================

class View:
    """Durations and item counts merged over groups, one entry per distinct piece of work.

    Calls filed with the same key do work of the same cost on fresh inputs
    (each place in the closed-form round, each read of a Bergman shape); of
    those only the fastest counts.
    The machine's speed drifts by some ten per cent over seconds, and the
    floor of many repeats spread over the window does not.  Calls without a
    key (the geodesic solves, repeated too few times for a floor) count as
    measured.
    """

    def __init__(self, groups_):
        self.durations, self.items = {}, {}
        for g in groups_:
            for name, rows in g.rec.fastest().items():
                self.durations[name] = [dt for dt, _ in rows]
                self.items[name] = sum(items for _, items in rows)


def _names(rec, *prefixes):
    return [n for n in rec.durations if n.startswith(prefixes)]


def _rate(rec, names) -> float:
    items = sum(rec.items[n] for n in names)
    time_s = sum(math.fsum(rec.durations[n]) for n in names)
    return items / time_s


def _median_of(rec, names, scale) -> float:
    return scale * median([d for n in names for d in rec.durations[n]])


def end_to_end(rec) -> dict[str, float]:
    """Every end-to-end metric except set-up time and memory."""
    solves = _names(rec, "geodesics.minimize_curve:", "geodesics.epsilon_certificate:")
    sweep = _names(rec, "localization.row:") + [
        "sampling.halfdisc_pairs",
        "localization.sharpness_sweep",
        "localization.fit_exponent",
    ]
    rows = sum(rec.items[n] for n in _names(rec, "localization.row:", "localization.sharpness_sweep"))
    return {
        "geodesic_solves_per_s": sum(rec.items[n] for n in solves)
        / sum(math.fsum(rec.durations[n]) for n in solves),
        "distance_pairs_per_s": _rate(rec, _names(rec, "distances.batch:", "distances.gap_pairs")),
        "density_evals_per_s": _rate(rec, _names(rec, "metrics.evaluate_batch:")),
        "scalar_query_us": _median_of(rec, [n for n in SCALAR_KINDS], 1e6),
        "sweep_rows_per_s": rows / sum(math.fsum(rec.durations[n]) for n in sweep),
        "cold_table_ms": _median_of(rec, _names(rec, "bergman.moment_table:"), 1e3),
        "kernel_evals_per_s": _rate(rec, ["bergman.kernel_diag"]),
        "bergman_metric_ms": _median_of(rec, _names(rec, "bergman.metric_numeric:"), 1e3),
    }


FAMILIES = groups.GEODESIC_FAMILIES
DENSITY_KINDS = groups.DENSITY_KINDS
DISTANCE_KINDS = tuple(groups.CATALOG)
TABLE_KINDS = ("disc", "ball2", "polydisc2", "ellipsoid")

def per_layer(rec, spans_rec, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics from a merged view and the geodesic group's spans."""
    out = {}
    for f in FAMILIES:
        out[f"geodesics.solve_s.{f}"] = median(rec.durations["geodesics.minimize_curve:" + f])
    spans, self_time = spans_rec.self_times()
    names = np.array(spans_rec.names + [""])  # the last entry keeps an empty list indexable
    span_names = names[spans["name"]]
    solve = np.char.startswith(span_names, "geodesics.minimize_curve:")
    cert = np.char.startswith(span_names, "geodesics.epsilon_certificate:")
    density = span_names == DENSITY
    oracle = span_names == ORACLE
    under_solve = density & (spans["parent"] >= 0) & solve[np.maximum(spans["parent"], 0)]
    out["geodesics.self_s"] = float(self_time[solve | cert].sum())
    out["geodesics.certificate_ms"] = _median_of(rec, _names(rec, "geodesics.epsilon_certificate:"), 1e3)
    out["geodesics.finsler_length_us"] = _median_of(rec, ["geodesics.finsler_length"], 1e6)
    out["metrics.density_calls_per_solve"] = float(under_solve.sum() / solve.sum())
    out["metrics.rows_per_density_call"] = float(spans["items"][under_solve].sum() / under_solve.sum())
    duration = spans["end"] - spans["start"]
    out["metrics.density_self_s"] = float(duration[density].sum())
    for f in ("halfplane", "halfdisc", "ball2"):
        out[f"metrics.solver_batch_us.{f}"] = _median_of(rec, ["metrics.solver_batch:" + f], 1e6)
    for k in DENSITY_KINDS:
        out[f"metrics.density_evals_per_s.{k}"] = _rate(rec, ["metrics.evaluate_batch:" + k])
    out["conformal.apply_us"] = _median_of(rec, ["conformal.apply"], 1e6)
    out["conformal.invert_by_newton_us"] = _median_of(rec, ["conformal.invert_by_newton"], 1e6)
    for k in DISTANCE_KINDS:
        out[f"distances.pairs_per_s.{k}"] = _rate(rec, ["distances.batch:" + k])
    out["distances.gap_pairs_per_s"] = _rate(rec, ["distances.gap_pairs"])
    out["distances.kobayashi_distance_us"] = _median_of(rec, ["distances.kobayashi_distance"], 1e6)
    out["distances.localization_gap_us"] = _median_of(rec, ["distances.localization_gap"], 1e6)
    out["distances.oracle_self_s"] = float(duration[oracle].sum())
    out["geometry.contains_us"] = _median_of(rec, ["geometry.contains"], 1e6)
    out["geometry.boundary_distance_us"] = _median_of(rec, ["geometry.boundary_distance"], 1e6)
    out["geometry.contains_batch_points_per_s"] = _rate(rec, ["geometry.contains_batch:pullback"])
    out["geometry.ellipsoid_boundary_distance_ms"] = _median_of(
        rec, ["geometry.boundary_distance:ellipsoid"], 1e3
    )
    out["localization.bound_eval_us"] = _median_of(rec, ["localization.bound_eval"], 1e6)
    out["localization.sharpness_sweep_rows_per_s"] = _rate(rec, ["localization.sharpness_sweep"])
    out["localization.fit_exponent_us"] = _median_of(rec, ["localization.fit_exponent"], 1e6)
    out["sampling.points_per_s"] = _rate(rec, ["sampling.halfdisc_pairs"])
    tables = _names(rec, "bergman.moment_table")
    for k in TABLE_KINDS:
        ref = "_ref" if k in ("disc", "ball2") else ""  # built once, in round 0
        out[f"bergman.moment_table_ms.{k}"] = _median_of(rec, [f"bergman.moment_table{ref}:{k}"], 1e3)
        out[f"bergman.metric_numeric_ms.{k}"] = _median_of(rec, [f"bergman.metric_numeric{ref}:{k}"], 1e3)
    out["bergman.moments_per_table"] = sum(rec.items[n] for n in tables) / sum(
        len(rec.durations[n]) for n in tables
    )
    out["bergman.kernel_diag_us"] = _median_of(rec, ["bergman.kernel_diag"], 1e6)
    out["trace.overhead_pct"] = overhead_pct
    return out


def overhead_pct(traced: dict, plain: dict) -> float:
    """Extra time of the traced pass over the untraced one, per name weighted
    by the traced pass's counts; both sides as ``Recorder.fastest`` gives them."""
    extra = base = 0.0
    for n, rows in traced.items():
        if plain.get(n):
            t_mean = math.fsum(dt for dt, _ in rows) / len(rows)
            p_mean = math.fsum(dt for dt, _ in plain[n]) / len(plain[n])
            extra += (t_mean - p_mean) * len(rows)
            base += p_mean * len(rows)
    return 100.0 * extra / base


def run_rounds(group, rounds: int) -> int:
    """The group's next `rounds` rounds."""
    return sum(group.round(group.rounds_done) for _ in range(rounds))


def measure(own, probes, seconds: float) -> int:
    """Whole rounds of the own group until `seconds` have passed, with a round
    of each probe whenever its interval has elapsed at one of the own group's
    ticks (after each solve, domain or round)."""
    due = [0.0] * len(probes)

    def tick():
        now = time.perf_counter()
        for i, (g, interval) in enumerate(probes):
            if now >= due[i]:
                g.round(g.rounds_done)
                due[i] = now + interval

    own.tick = tick
    ops, t0 = 0, time.perf_counter()
    while True:
        ops += own.round(own.rounds_done)
        if time.perf_counter() - t0 >= seconds:
            break
    own.tick = groups._no_tick
    for g, _ in probes:  # at least three samples of every probe call
        while g.rounds_done < 3:
            g.round(g.rounds_done)
    return ops


def checks(own, others) -> tuple[list[str], int]:
    """Problems found in every group's outputs, and the own group's failed operations."""
    import controls
    import reference

    problems = [f"reference: {p}" for p in reference.self_check()]
    problems += controls.run_controls()
    found, failed = own.check()
    problems += found
    for g in others:
        found, _ = g.check()  # another group's operations are not counted, nor its failures
        problems += found
    return problems, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    others = [w for w in WORKLOADS if w != args.workload]
    own = own_group(args.workload, args.seed)
    side = [side_group(args.workload, w, args.seed, bool(args.trace)) for w in others]
    scratch = Recorder(trace=False)
    own.warm_up(scratch)
    for g, _ in side:
        g.warm_up(scratch)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if not args.trace:
        own.attach(Recorder(trace=False))
        for g, _ in side:
            g.attach(Recorder(trace=False))
        attempted = measure(own, side, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = end_to_end(View([own] + [g for g, _ in side]))
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb
    else:
        rounds = TRACE_ROUNDS[args.workload]
        own.attach(Recorder(trace=True))
        attempted = run_rounds(own, rounds)
        # as many further rounds untraced: the same work on fresh inputs
        traced_rec, plain_rec = own.rec, Recorder(trace=False)
        own.attach(plain_rec)
        attempted += run_rounds(own, rounds)
        overhead = overhead_pct(traced_rec.fastest(), plain_rec.fastest())
        own.attach(traced_rec)
        for g, n in side:
            if n:
                g.attach(Recorder(trace=True))
                run_rounds(g, n)
        traced = [own] + [g for g, n in side if n]
        spans_rec = next(g.rec for g in traced if g.name == "geodesics")
        values = per_layer(View(traced), spans_rec, overhead)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for g in traced:
            g.rec.write(str(out_dir / f"spans-{args.workload}-seed{args.seed}-{g.name}.npz"))

    t_checks = time.monotonic()
    problems, failed = checks(own, [g for g, _ in side])
    check_s = time.monotonic() - t_checks
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "attempted": attempted,
                "failed": failed,
                "correct": not problems,
                "problems": problems[:20],
                "problem_count": len(problems),
                "check_s": check_s,
                "values": values,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
