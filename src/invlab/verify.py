"""Named verification suites with pinned tolerances.

Each suite returns ``{"pass": bool, "measured": {...}, "tolerance": float}``;
``run_verify`` runs a selection one suite after another in registry order,
so the emitted report is byte-identical across runs with the same seed.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import bergman, distances, geodesics, localization, metrics, sampling
from .geometry import Ball, HalfDiscScaled, HalfPlane, Polydisc, UnitDisc

TOLERANCES = {
    "gap_decomposition": 1e-10,
    "gap_asymptotics": 0.01,
    "planar_bound_shape": 2.0,
    "term_necessity": 10.0,
    "geodesic_solver": 1e-4,
    "excursion": 2.0,
    "bergman_oracle": 1e-4,
    "ordering_axioms": 1e-12,
    "weight_bounds": 1e-12,
    "exponent_fits": 0.05,
}


def _result(passed: bool, measured: dict, tolerance: float) -> dict:
    return {
        "pass": bool(passed),
        "measured": {k: float(v) for k, v in measured.items()},
        "tolerance": float(tolerance),
    }


def suite_gap_decomposition(seed: int) -> dict:
    """Term sum against distance difference on 10^4 pairs, plus the rational spot pair."""
    tol = TOLERANCES["gap_decomposition"]
    z, w = sampling.halfdisc_pairs(seed, 10_000, 0.9)
    tb, ts = distances.gap_terms_batch(z, w)
    k_loc = distances.halfdisc_distance_batch(z, w)
    k_glob = distances.halfplane_distance_batch(z, w)
    residual = np.abs((tb + ts) - (k_loc - k_glob))
    spot = distances.localization_gap(0.5j, 0.25j)
    spot_errors = (
        abs(spot.gap - 0.5 * math.log(1.25)),
        abs(spot.term_boundary - math.log(15.0 / 14.0)),
        abs(spot.term_separation - 0.5 * math.log(49.0 / 45.0)),
    )
    measured = {
        "max_residual": float(np.max(residual)),
        "spot_max_error": max(spot_errors),
    }
    passed = measured["max_residual"] <= tol and measured["spot_max_error"] <= 1e-12
    return _result(passed, measured, tol)


def suite_gap_asymptotics(seed: int) -> dict:
    """Both gap terms within 1% of their leading forms for points of size <= 1e-3."""
    tol = TOLERANCES["gap_asymptotics"]
    z, w = sampling.halfdisc_pairs(seed, 1_000, 1e-3)
    tb, ts = distances.gap_terms_batch(z, w)
    lead_b = distances.gap_term_boundary_leading(z, w)
    lead_s = distances.gap_term_separation_leading(z, w)
    measured = {
        "max_boundary_ratio_error": float(np.max(np.abs(tb / lead_b - 1.0))),
        "max_separation_ratio_error": float(np.max(np.abs(ts / lead_s - 1.0))),
    }
    passed = max(measured.values()) <= tol
    return _result(passed, measured, tol)


def suite_planar_bound_shape(seed: int) -> dict:
    """Gap under twice the planar shape on a small cap; the two-term shape sharp on the axis."""
    tol = TOLERANCES["planar_bound_shape"]
    z, w = sampling.halfdisc_pairs(seed, 10_000, 0.05)
    tb, ts = distances.gap_terms_batch(z, w)
    gap = tb + ts
    shape = localization.planar_gap_bound(1.0, z, w, z.imag, w.imag)
    ratios = np.where(shape > 0, gap / np.where(shape > 0, shape, 1.0), 0.0)
    axis_errors = [
        abs(r.ratio - 1.0)
        for r in localization.sharpness_sweep(np.geomspace(1e-4, 1e-3, 7))
        if r.family == "balanced"
    ]
    measured = {
        "max_shape_ratio": float(np.max(ratios)),
        "axis_max_ratio_error": float(max(axis_errors)),
    }
    passed = measured["max_shape_ratio"] <= tol and measured["axis_max_ratio_error"] <= 0.02
    return _result(passed, measured, tol)


def suite_term_necessity(seed: int) -> dict:
    """Dropping either additive term of the gap shape loses a factor > 10."""
    tol = TOLERANCES["term_necessity"]
    rows = localization.sharpness_sweep(np.geomspace(1e-3, 0.04, 8))
    drop_boundary = [r.ratio for r in rows if r.family == "drop-boundary"]
    drop_separation = [r.ratio for r in rows if r.family == "drop-separation"]
    measured = {
        "min_ratio_without_boundary_term": float(min(drop_boundary)),
        "min_ratio_without_separation_term": float(min(drop_separation)),
    }
    passed = min(measured.values()) > tol
    return _result(passed, measured, tol)


def _solver_cases(seed: int):
    disc_pts = sampling.disc_points(seed, 20, 0.7)
    half_pts = sampling.halfplane_points(seed + 1, 20, (-0.5, 0.5), (0.2, 1.5))
    cases = []
    for j in range(10):
        cases.append((UnitDisc(), disc_pts[2 * j], disc_pts[2 * j + 1]))
        cases.append((HalfPlane(), half_pts[2 * j], half_pts[2 * j + 1]))
    return cases


def suite_geodesic_solver(seed: int) -> dict:
    """Solver hits closed forms to 1e-4 relative; certificates behave both ways."""
    tol = TOLERANCES["geodesic_solver"]
    config = geodesics.SolverConfig()
    max_rel, max_eps = 0.0, 0.0
    for domain, z, w in _solver_cases(seed):
        density = metrics.kobayashi_density(domain)
        curve, length = geodesics.minimize_curve(density, z, w, config)
        exact = distances.kobayashi_distance(domain, z, w).value
        max_rel = max(max_rel, abs(length - exact) / exact)
        cert = geodesics.epsilon_certificate(
            curve, density, distances.distance_batch(domain)
        )
        max_eps = max(max_eps, cert.epsilon)
    z0, w0 = -0.1 + 0.01j, 0.1 + 0.01j
    t = np.linspace(0.0, 1.0, 65)
    chord = geodesics.Polyline(HalfPlane(), ((1 - t) * z0 + t * w0)[:, None])
    chord_eps = geodesics.epsilon_certificate(
        chord, metrics.kobayashi_density(HalfPlane()), distances.distance_batch(HalfPlane())
    ).epsilon
    measured = {
        "max_relative_error": max_rel,
        "max_epsilon": max_eps,
        "chord_epsilon": chord_eps,
    }
    passed = max_rel <= tol and max_eps <= 1e-3 and chord_eps > 5.0
    return _result(passed, measured, tol)


def suite_excursion(seed: int) -> dict:
    """Optimized curves between -t+it^2 and t+it^2 stay within 2 |z-w|^(1/2) of z."""
    tol = TOLERANCES["excursion"]
    density = metrics.kobayashi_density(HalfPlane())
    # the ratio bound needs no high-accuracy lengths; a reduced iteration
    # budget keeps the whole sweep inside its runtime allowance
    config = geodesics.SolverConfig(max_iterations=600)
    worst = 0.0
    for t in np.geomspace(1e-3, 0.1, 9):
        z = -t + 1j * t * t
        w = t + 1j * t * t
        curve, _ = geodesics.minimize_curve(density, z, w, config)
        ratio = geodesics.excursion_radius(curve, z) / math.sqrt(abs(z - w))
        worst = max(worst, ratio)
    measured = {"max_excursion_ratio": worst}
    return _result(worst <= tol, measured, tol)


def suite_bergman_oracle(seed: int) -> dict:
    """Moment kernel and Hessian metric against the closed forms."""
    tol = TOLERANCES["bergman_oracle"]
    disc = UnitDisc()
    kernel_err = 0.0
    for z in (0.0, 0.5):
        got = bergman.bergman_kernel_diag(disc, z, 50).kernel_diag
        exact = 1.0 / (math.pi * (1.0 - abs(z) ** 2) ** 2)
        kernel_err = max(kernel_err, abs(got - exact))
    beta_cases = [
        (disc, 0.0, 1.0, 50, math.sqrt(2.0)),
        (disc, 0.5, 1.0, 50, math.sqrt(2.0) / 0.75),
        (Ball(2), (0.0, 0.0), (1.0, 0.0), 20, math.sqrt(3.0)),
        (Polydisc((1.0, 1.0)), (0.5, 0.0), (1.0, 0.0), 50, math.sqrt(2.0) / 0.75),
    ]
    beta_err = 0.0
    for domain, z, X, N, exact in beta_cases:
        got = bergman.bergman_metric_numeric(domain, z, X, N)
        beta_err = max(beta_err, abs(got - exact))
    closed_ratio_err = 0.0
    normalized = metrics.normalized_bergman_density(disc)
    pts = sampling.disc_points(seed, 50, 0.9)
    for z in pts:
        ratio = normalized.evaluate(z, 1.0) / metrics.kobayashi_royden_density(disc, z, 1.0)
        closed_ratio_err = max(closed_ratio_err, abs(ratio - 1.0))
    normalized = metrics.normalized_bergman_density(Ball(2))
    ball_pts = sampling.ball_points(seed + 1, 50, 2, 0.9)
    for z in ball_pts:
        X = (0.3 + 0.1j, -0.7)
        ratio = normalized.evaluate(z, X) / metrics.kobayashi_royden_density(Ball(2), z, X)
        closed_ratio_err = max(closed_ratio_err, abs(ratio - 1.0))
    numeric_ratio_err = 0.0
    for z in (0.0, 0.3, 0.5 + 0.2j, 0.7, 0.49 - 0.49j):
        got = bergman.bergman_metric_numeric(disc, z, 1.0, 50) / math.sqrt(2.0)
        kappa = metrics.kobayashi_royden_density(disc, z, 1.0)
        numeric_ratio_err = max(numeric_ratio_err, abs(got / kappa - 1.0))
    for z, X in (((0.0, 0.0), (1.0, 0.0)), ((0.3, 0.1 - 0.2j), (0.5, 0.2j))):
        got = bergman.bergman_metric_numeric(Ball(2), z, X, 20) / math.sqrt(3.0)
        kappa = metrics.kobayashi_royden_density(Ball(2), z, X)
        numeric_ratio_err = max(numeric_ratio_err, abs(got / kappa - 1.0))
    measured = {
        "max_kernel_error": kernel_err,
        "max_beta_error": beta_err,
        "max_closed_ratio_error": closed_ratio_err,
        "max_numeric_ratio_error": numeric_ratio_err,
    }
    passed = (
        kernel_err <= 1e-8
        and beta_err <= tol
        and closed_ratio_err <= 1e-12
        and numeric_ratio_err <= 1e-3
    )
    return _result(passed, measured, tol)


def suite_ordering_axioms(seed: int) -> dict:
    """Distance ordering, symmetry, triangle inequality, and cap monotonicity."""
    tol = TOLERANCES["ordering_axioms"]
    domains = [
        UnitDisc(),
        HalfPlane(),
        HalfDiscScaled(1.0),
        Ball(2),
        Polydisc((1.0, 1.0)),
    ]
    sym_err, tri_slack, order_err = 0.0, -math.inf, 0.0
    for j, domain in enumerate(domains):
        pts = sampling.domain_points(seed + 17 * j, 3_000, domain)
        z, v, w = pts[0::3], pts[1::3], pts[2::3]
        dist = distances.distance_batch(domain)
        kzw, kwz = dist(z, w), dist(w, z)
        sym_err = max(sym_err, float(np.max(np.abs(kzw - kwz))))
        tri_slack = max(tri_slack, float(np.max(kzw - dist(z, v) - dist(v, w))))
        for i in range(0, 1000, 200):
            k = distances.kobayashi_distance(domain, z[i], w[i]).value
            c = distances.caratheodory_distance(domain, z[i], w[i]).value
            order_err = max(order_err, abs(c - k))
    min_gap = math.inf
    for radius in (1.0, 0.25):
        zz, ww = sampling.halfdisc_pairs(seed + 101, 2_000, 0.95 * radius)
        gap = distances.halfdisc_distance_batch(
            zz, ww, radius
        ) - distances.halfplane_distance_batch(zz, ww)
        min_gap = min(min_gap, float(np.min(gap)))
    measured = {
        "max_symmetry_error": sym_err,
        "max_triangle_slack": tri_slack,
        "max_ordering_error": order_err,
        "min_monotonicity_gap": min_gap,
    }
    passed = (
        sym_err <= tol
        and tri_slack <= tol
        and order_err <= tol
        and min_gap >= -tol
    )
    return _result(passed, measured, tol)


def suite_weight_bounds(seed: int) -> dict:
    """Weight integrals, the admissibility checker, and the frozen bound examples."""
    tol = TOLERANCES["weight_bounds"]
    rng = sampling.generator(seed)
    integral_err = 0.0
    for _ in range(1_000):
        c = 0.1 + 9.9 * rng.random()
        alpha = 0.05 + 0.95 * rng.random()
        T = 10.0 ** (-6.0 * rng.random())
        closed = localization.weight_integral(localization.power_weight(c, alpha), T)
        quadrature = localization.weight_integral(lambda x: c * x**alpha, T)
        integral_err = max(integral_err, abs(quadrature - closed) / closed)
    ok_weights = (
        not localization.check_admissible(localization.power_weight(1.0, 0.5))
        and not localization.check_admissible(localization.linear_weight(2.3))
    )
    square_violations = localization.check_admissible(lambda x: x**2)
    const_violations = localization.check_admissible(lambda x: 1.0)
    rejects = (
        localization.VIOLATION_RATIO_NOT_DECREASING in square_violations
        and localization.VIOLATION_NOT_UNBOUNDED in const_violations
    )
    bound_err = max(
        abs(
            localization.integrated_weight_bound(
                localization.power_weight(1.0, 0.5), 0.0, 1e-4
            )
            - 0.2
        ),
        abs(
            localization.ratio_weight_bound(
                localization.linear_weight(1.0), 0.0, 0.04, 0.01
            )
            - 1.21
        ),
        abs(localization.refined_excursion_bound(0.0, 0.01, 0.04, 0.04, 1.0, 1) - 0.02),
        abs(
            localization.planar_gap_bound(1.0, 0.5j, 0.25j, 0.5, 0.25)
            - 0.25 * (0.25 + math.sqrt(0.125))
        ),
        abs(
            localization.near_boundary_upper_bound(0.5j, 0.25j, 0.5, 0.25, 2.0)
            - math.log(1.0 + 0.5 / math.sqrt(0.125))
        ),
        abs(
            localization.near_boundary_lower_bound(0.5j, 0.25j, 0.5, 1.0, 1)
            - math.log(1.0 + 0.25 / math.sqrt(0.5))
        ),
    )
    report = localization.empirical_constant(
        [(0.5j, 0.25j)],
        lambda z, w: distances.localization_gap(z, w).gap,
        lambda z, w: localization.planar_gap_bound(1.0, z, w, z.imag, w.imag),
    )
    expected_ratio = (0.5 * math.log(1.25)) / (0.25 * (0.25 + math.sqrt(0.125)))
    bound_err = max(bound_err, abs(report.max_ratio - expected_ratio))
    measured = {
        "max_integral_error": integral_err,
        "max_bound_error": bound_err,
        "admissibility_ok": 1.0 if (ok_weights and rejects) else 0.0,
    }
    passed = integral_err <= 1e-8 and bound_err <= tol and ok_weights and rejects
    return _result(passed, measured, tol)


def suite_exponent_fits(seed: int) -> dict:
    """Scaling exponents: the dyadic axis family fits slope 2; exact data is exact."""
    tol = TOLERANCES["exponent_fits"]
    h = 2.0 ** -np.arange(6, 15)
    tb, ts = distances.gap_terms_batch(2j * h, 1j * h)
    dyadic_slope = localization.fit_exponent(list(zip(h, tb + ts)))
    h = np.geomspace(1e-3, 1.0, 12)
    exact_sq = localization.fit_exponent(list(zip(h, h**2)))
    exact_const = localization.fit_exponent([(x, 3.7) for x in h])
    measured = {
        "dyadic_slope": dyadic_slope,
        "exact_square_error": abs(exact_sq - 2.0),
        "exact_constant_error": abs(exact_const),
    }
    passed = (
        abs(dyadic_slope - 2.0) <= tol
        and measured["exact_square_error"] <= 1e-12
        and measured["exact_constant_error"] <= 1e-12
    )
    return _result(passed, measured, tol)


SUITES: dict[str, Callable[[int], dict]] = {
    "gap_decomposition": suite_gap_decomposition,
    "gap_asymptotics": suite_gap_asymptotics,
    "planar_bound_shape": suite_planar_bound_shape,
    "term_necessity": suite_term_necessity,
    "geodesic_solver": suite_geodesic_solver,
    "excursion": suite_excursion,
    "bergman_oracle": suite_bergman_oracle,
    "ordering_axioms": suite_ordering_axioms,
    "weight_bounds": suite_weight_bounds,
    "exponent_fits": suite_exponent_fits,
}


def run_verify(names: list[str], seed: int) -> tuple[dict, bool]:
    """Run the named suites in registry order."""
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    report = {n: fn(seed) for n, fn in SUITES.items() if n in names}
    return report, all(r["pass"] for r in report.values())
