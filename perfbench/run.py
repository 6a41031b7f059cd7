"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload geodesics --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the directory holding ``src/invlab``).
The workload runs in a fresh single-threaded child process (BLAS and
OpenMP pools pinned to one thread) with ``src`` on its path.  Untraced runs
start the child's set-up several more times on their own, half before the
workload and half after it, and report the median set-up time.  The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

with every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).  A stamped copy of the result, with the versions and the
source size it was measured on, goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # set-up time is the median of this many fresh processes
CHILD_TIMEOUT_S = 170
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "INVLAB_THREADS": "1",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(ROOT / ".bench_results"),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned)],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stamp(args, result: dict) -> dict:
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("geodesics", "closed-forms", "bergman-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "invlab" / "__init__.py").is_file():
        print(f"error: no invlab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [run_child(args, True, deadline)["setup_s"] for _ in range(extra // 2)]
        result = run_child(args, False, deadline)
        setups += [run_child(args, True, deadline)["setup_s"] for _ in range(extra - extra // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    values = result["values"]
    if not args.trace:
        setups.append(result["setup_s"])
        values["setup_s"] = statistics.median(setups)
    for p in result["problems"]:
        print("problem:", p, file=sys.stderr)
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "stamp": stamp(args, result),
        "problem_count": result["problem_count"],
        "problems": result["problems"],
        "check_s": result["check_s"],
        **final,
    }
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"stamp": record["stamp"]}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
