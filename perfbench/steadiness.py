"""Steadiness of the benchmark: two interleaved sets of runs per workload.

    python3 perfbench/steadiness.py --runs 5 [--workloads geodesics ...] [--seconds 25]

For each workload, run i of set A (seed 1000 + i) and run i of set B
(seed 2000 + i) alternate, one process at a time, A first on even i and B
first on odd i.  For every end-to-end metric it prints each set's median,
how far set B's median moved from set A's, and the quartile spread
(``statistics.quantiles(values, n=4)``) over all runs of both sets as a
share of their median; it flags a move beyond the bound and a spread above
a third of the bound, and prints "NOT steady" and exits 1 if any metric is
flagged.  Set-up time's spread is printed and not flagged: it is gated only by
the move of its median, since a set-up of a fraction of a second follows the
machine's speed from one minute to the next, which repeating set-up within a
run cannot average out.  It also checks that the
share of failed operations is the same in every run.  The full table, with
each set's quartiles and values, goes to
``.bench_results/steadiness-<unix time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, ok = {}, True
    for workload in args.workloads:
        runs = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                seed = (1000 if s == "A" else 2000) + i
                t0 = time.monotonic()
                res = one_run(workload, seed, args.seconds)
                res["wall_s"] = time.monotonic() - t0
                res["seed"] = seed
                runs[s].append(res)
                print(f"{workload} set {s} seed {seed}: {res['wall_s']:.1f} s, "
                      f"correct={res['correct']} failed {res['failed']}/{res['attempted']}",
                      file=sys.stderr, flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for s in runs for r in runs[s]}
        entry = {"failed_shares": sorted(str(f) for f in shares), "metrics": {},
                 "all_correct": all(r["correct"] for s in runs for r in runs[s]),
                 "max_wall_s": max(r["wall_s"] for s in runs for r in runs[s])}
        ok &= len(shares) == 1 and entry["all_correct"]
        print(f"\n{workload}: failed share {entry['failed_shares']}, "
              f"all correct {entry['all_correct']}, longest run {entry['max_wall_s']:.1f} s")
        print(f"  {'metric':24s} {'median A':>12s} {'median B':>12s} {'B vs A':>8s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            a = summary([r["metrics"][name]["value"] for r in runs["A"]])
            b = summary([r["metrics"][name]["value"] for r in runs["B"]])
            both = summary(a["values"] + b["values"])
            move = b["median"] / a["median"] - 1
            flags = []
            if name != "setup_s" and both["spread"] > bound / 3:
                flags.append("SPREAD")
            if abs(move) > bound:
                flags.append("MOVED")
            ok &= not flags
            entry["metrics"][name] = {"A": a, "B": b, "all": both, "move": move, "bound": bound, "flags": flags}
            print(f"  {name:24s} {a['median']:12.6g} {b['median']:12.6g} {move:+8.4f} "
                  f"{both['spread']:8.4f} {bound:6.2f} {' '.join(flags)}")
        report[workload] = entry
    out = ROOT / ".bench_results" / f"steadiness-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\n{'steady' if ok else 'NOT steady'}; table in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
