"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All headline suites run once through a session fixture with seed 42 and their
wall-clock times are recorded; the per-criterion tests assert the suite
verdicts, the pinned sub-tolerances, and the stated runtime allowances.
"""

import json
import time
from pathlib import Path

import pytest

from invlab import cli, verify

SEED = 42
# the seed-42 report as committed; a change that moves a measured value
# rewrites this file, so its diff names each value that moved
GOLDEN_REPORT = Path(__file__).resolve().parents[1] / "out" / "verify_seed42.json"
RUNTIME_LIMITS = {
    "gap_decomposition": 2.0,
    "gap_asymptotics": 1.0,
    "planar_bound_shape": 2.0,
    "term_necessity": 1.0,
    "geodesic_solver": 15.0,
    "excursion": 5.0,
    "bergman_oracle": 5.0,
    "ordering_axioms": 2.0,
    "weight_bounds": 1.0,
    "exponent_fits": 1.0,
}


@pytest.fixture(scope="session")
def report():
    results, times = {}, {}
    for name, fn in verify.SUITES.items():
        start = time.perf_counter()
        results[name] = fn(SEED)
        times[name] = time.perf_counter() - start
    return results, times


def _check(report, name):
    results, times = report
    entry = results[name]
    verdict = "PASS" if entry["pass"] and times[name] <= RUNTIME_LIMITS[name] else "FAIL"
    measured = " ".join(f"{k}={v:.3g}" for k, v in entry["measured"].items())
    print(f"{verdict} {name} [{times[name]:.2f}s] {measured}")
    assert entry["pass"], f"{name} failed: {entry['measured']}"
    assert times[name] <= RUNTIME_LIMITS[name], f"{name} exceeded its runtime allowance"
    return entry


def test_criterion_01_gap_decomposition(report):
    entry = _check(report, "gap_decomposition")
    assert entry["measured"]["max_residual"] <= 1e-10
    assert entry["measured"]["spot_max_error"] <= 1e-12


def test_criterion_02_asymptotics(report):
    entry = _check(report, "gap_asymptotics")
    assert entry["measured"]["max_boundary_ratio_error"] <= 0.01
    assert entry["measured"]["max_separation_ratio_error"] <= 0.01


def test_criterion_03_planar_bound_shape(report):
    entry = _check(report, "planar_bound_shape")
    assert entry["measured"]["max_shape_ratio"] <= 2.0
    assert entry["measured"]["axis_max_ratio_error"] <= 0.02


def test_criterion_04_term_necessity(report):
    entry = _check(report, "term_necessity")
    assert entry["measured"]["min_ratio_without_boundary_term"] > 10.0
    assert entry["measured"]["min_ratio_without_separation_term"] > 10.0


def test_criterion_05_geodesic_solver(report):
    entry = _check(report, "geodesic_solver")
    assert entry["measured"]["max_relative_error"] <= 1e-4
    assert entry["measured"]["max_epsilon"] <= 1e-3
    assert entry["measured"]["chord_epsilon"] > 5.0


def test_criterion_06_excursion(report):
    entry = _check(report, "excursion")
    assert entry["measured"]["max_excursion_ratio"] <= 2.0


def test_criterion_07_bergman_oracle(report):
    entry = _check(report, "bergman_oracle")
    assert entry["measured"]["max_kernel_error"] <= 1e-8
    assert entry["measured"]["max_beta_error"] <= 1e-4
    assert entry["measured"]["max_closed_ratio_error"] <= 1e-12
    assert entry["measured"]["max_numeric_ratio_error"] <= 1e-3


def test_criterion_08_ordering_axioms(report):
    entry = _check(report, "ordering_axioms")
    assert entry["measured"]["max_symmetry_error"] <= 1e-12
    assert entry["measured"]["max_triangle_slack"] <= 1e-12
    assert entry["measured"]["max_ordering_error"] <= 1e-12
    assert entry["measured"]["min_monotonicity_gap"] >= -1e-12


def test_criterion_09_weight_bounds(report):
    entry = _check(report, "weight_bounds")
    assert entry["measured"]["max_integral_error"] <= 1e-8
    assert entry["measured"]["max_bound_error"] <= 1e-12
    assert entry["measured"]["admissibility_ok"] == 1.0


def test_criterion_10_exponent_fits(report):
    entry = _check(report, "exponent_fits")
    assert abs(entry["measured"]["dyadic_slope"] - 2.0) <= 0.05
    assert entry["measured"]["exact_square_error"] <= 1e-12
    assert entry["measured"]["exact_constant_error"] <= 1e-12


def test_criterion_11_reproducibility(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    start = time.perf_counter()
    code1 = cli.run_command(
        ["verify", "--suite", "all", "--seed", "42", "--out", str(first)]
    )
    code2 = cli.run_command(
        ["verify", "--suite", "all", "--seed", "42", "--out", str(second)]
    )
    elapsed = time.perf_counter() - start
    assert code1 == 0 and code2 == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == GOLDEN_REPORT.read_bytes()
    payload = json.loads(first.read_text())
    assert set(payload) == set(verify.SUITES)
    assert all(entry["pass"] for entry in payload.values())
    verdict = "PASS" if elapsed / 2 <= 60.0 else "FAIL"
    print(f"{verdict} reproducibility [two full runs in {elapsed:.1f}s]")
    assert elapsed / 2 <= 60.0
