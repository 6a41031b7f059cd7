import math
from dataclasses import replace

import numpy as np
import pytest

from invlab import conformal, geodesics
from invlab.distances import distance_batch, kobayashi_distance
from invlab.geodesics import (
    EpsilonCertificate,
    Polyline,
    SolverConfig,
    epsilon_certificate,
    excursion_radius,
    finsler_length,
    minimize_curve,
)
from invlab.geometry import (
    Ball,
    HalfDiscScaled,
    HalfPlane,
    MembershipError,
    Product,
    UnitDisc,
    as_coords,
)
from invlab.metrics import FinslerDensity, custom_density, kobayashi_density, pullback

DISC = kobayashi_density(UnitDisc())
HP = kobayashi_density(HalfPlane())


def chord(domain, z, w, count=65):
    t = np.linspace(0.0, 1.0, count)
    return Polyline(domain, ((1 - t) * z + t * w)[:, None])


def test_finsler_length_examples():
    c = chord(UnitDisc(), 0.0, 0.5)
    assert finsler_length(DISC, c) == pytest.approx(math.atanh(0.5), abs=1e-8)

    v = chord(HalfPlane(), 1j, 2j)
    assert finsler_length(HP, v) == pytest.approx(0.5 * math.log(2.0), abs=1e-8)

    degenerate = Polyline(UnitDisc(), np.array([[0.2 + 0.1j], [0.2 + 0.1j]]))
    assert finsler_length(DISC, degenerate) == 0.0


def test_minimize_disc_center_pair():
    curve, length = minimize_curve(DISC, -0.5, 0.5)
    exact = 2 * math.atanh(0.5)
    assert abs(length - exact) / exact <= 1e-4
    # by symmetry the geodesic is the real segment
    assert float(np.max(np.abs(curve.nodes.imag))) <= 1e-6


def test_minimize_halfplane_near_boundary_pair():
    z, w = -0.1 + 0.01j, 0.1 + 0.01j
    exact = kobayashi_distance(HalfPlane(), z, w).value
    assert exact == pytest.approx(2.99822295, abs=1e-6)
    curve, length = minimize_curve(HP, z, w)
    assert abs(length - exact) / exact <= 1e-3


def test_minimize_halfdisc_pair():
    hd = kobayashi_density(HalfDiscScaled(1.0))
    curve, length = minimize_curve(hd, 0.5j, 0.25j)
    exact = 0.5 * math.log(2.5)
    assert abs(length - exact) / exact <= 1e-4


def test_descent_never_worse_than_chord():
    for z, w in [(-0.5, 0.5), (0.3 + 0.4j, -0.2 - 0.5j)]:
        _, length = minimize_curve(DISC, z, w)
        assert length <= finsler_length(DISC, chord(UnitDisc(), z, w)) + 1e-12


def test_no_curve_beats_the_infimum():
    for z, w in [(-0.5, 0.5), (0.6j, 0.65), (0.3 + 0.4j, -0.2 - 0.5j)]:
        exact = kobayashi_distance(UnitDisc(), z, w).value
        _, length = minimize_curve(DISC, z, w)
        assert length >= exact - 1e-6


def test_node_doubling_converged():
    z, w = 0.3 + 0.4j, -0.2 - 0.5j
    _, l65 = minimize_curve(DISC, z, w, SolverConfig(node_count=65))
    _, l129 = minimize_curve(DISC, z, w, SolverConfig(node_count=129))
    assert abs(l129 - l65) / l65 <= 1e-5


def test_epsilon_certificate_examples():
    curve, _ = minimize_curve(DISC, -0.5, 0.5)
    cert = epsilon_certificate(curve, DISC, distance_batch(UnitDisc()))
    assert cert.epsilon <= 1e-4

    z, w = -0.1 + 0.01j, 0.1 + 0.01j
    straight = chord(HalfPlane(), z, w)
    assert finsler_length(HP, straight) == pytest.approx(10.0, abs=1e-9)
    cert = epsilon_certificate(straight, HP, distance_batch(HalfPlane()))
    assert cert.epsilon > 5.0
    assert cert.worst_pair == (0, 64)

    point = Polyline(UnitDisc(), np.array([[0.1j], [0.1j]]))
    cert = epsilon_certificate(point, DISC, distance_batch(UnitDisc()))
    assert cert.epsilon == 0.0


def test_epsilon_certificate_flags_bad_oracle():
    curve, _ = minimize_curve(DISC, -0.5, 0.5)
    bad = lambda Z, W: distance_batch(UnitDisc())(Z, W) + 1.0
    with pytest.raises(ValueError):
        epsilon_certificate(curve, DISC, bad)


def test_excursion_radius():
    z, w = -0.1 + 0.01j, 0.1 + 0.01j
    straight = chord(HalfPlane(), z, w)
    assert excursion_radius(straight, z) == pytest.approx(abs(z - w), abs=1e-15)

    curve, _ = minimize_curve(HP, z, w)
    # the far endpoint is the farthest node of the optimized arc
    assert excursion_radius(curve, z) == pytest.approx(0.2, abs=1e-6)
    # and the arc's apex sits at height sqrt(0.1^2 + 0.01^2)
    apex = curve.nodes[np.argmax(curve.nodes[:, 0].imag), 0]
    assert abs(apex) == pytest.approx(math.hypot(0.1, 0.01), abs=1e-3)
    assert abs(z - apex) == pytest.approx(0.1345, abs=2e-3)

    point = Polyline(HalfPlane(), np.array([[1j], [1j]]))
    assert excursion_radius(point, 1j) == 0.0


def test_excursion_family_ratio():
    config = SolverConfig(max_iterations=400)
    for t in (1e-3, 1e-2, 1e-1):
        z, w = -t + 1j * t * t, t + 1j * t * t
        curve, _ = minimize_curve(HP, z, w, config)
        assert excursion_radius(curve, z) / math.sqrt(abs(z - w)) <= 2.0


def test_polyline_validation():
    with pytest.raises(MembershipError):
        Polyline(UnitDisc(), np.array([[0.0], [1.5]]))
    with pytest.raises(ValueError):
        Polyline(UnitDisc(), np.array([[0.0]]))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(node_count=10)  # not 2^k + 1
    with pytest.raises(ValueError):
        SolverConfig(convergence_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(node_count=5, refinement_levels=4)
        minimize_curve(DISC, -0.5, 0.5, SolverConfig(node_count=5, refinement_levels=4))


def test_refinement_too_deep():
    with pytest.raises(ValueError):
        minimize_curve(DISC, -0.5, 0.5, SolverConfig(node_count=5, refinement_levels=4))


def test_certificate_invariant():
    with pytest.raises(ValueError):
        EpsilonCertificate(-1e-6, (0, 1))


# --------------------------------------------------------------------------
# batched descent against the per-shift reference
# --------------------------------------------------------------------------

def _reference_segment_lengths(density, a, b):
    """Gauss two-point segment lengths with one density call per Gauss point."""
    d = b - a
    v1 = density.evaluate_batch(a + geodesics.GAUSS_LO * d, d)
    v2 = density.evaluate_batch(a + geodesics.GAUSS_HI * d, d)
    lengths = 0.5 * (v1 + v2)
    zero = np.all(d == 0, axis=1)
    if np.any(zero):
        lengths = np.where(zero, 0.0, lengths)
    return lengths


def _reference_descend(density, nodes, config):
    """The descent with its gradient taken one shift at a time (8n segment sets)."""
    k, n = nodes.shape
    if k <= 2:
        return nodes, geodesics._curve_length(density, nodes)
    h = config.finite_difference_step
    nodes = geodesics._redistribute(density, nodes)
    length = geodesics._curve_length(density, nodes)
    seg = np.abs(np.diff(nodes, axis=0)).sum(axis=1)
    step = 0.1 * float(np.mean(seg)) + 1e-300
    window_mark = length
    for it in range(config.max_iterations):
        a, mid, b = nodes[:-2], nodes[1:-1], nodes[2:]
        grad = np.zeros_like(mid)
        for j in range(n):
            shift = np.zeros(n, dtype=complex)
            for unit in (1.0, 1j):
                shift[:] = 0
                shift[j] = unit * h
                plus = _reference_segment_lengths(
                    density, a, mid + shift
                ) + _reference_segment_lengths(density, mid + shift, b)
                minus = _reference_segment_lengths(
                    density, a, mid - shift
                ) + _reference_segment_lengths(density, mid - shift, b)
                grad[:, j] += unit * ((plus - minus) / (2.0 * h))
        gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
        if gnorm == 0.0 or not math.isfinite(gnorm):
            break
        candidate = nodes.copy()
        candidate[1:-1] = mid - (step / gnorm) * grad
        candidate = geodesics._redistribute(density, candidate)
        cand_length = geodesics._curve_length(density, candidate)
        if cand_length < length:
            nodes, length = candidate, cand_length
            step *= 1.25
        else:
            step *= 0.5
            if step < 1e-16:
                break
        if (it + 1) % 50 == 0:
            if window_mark - length < config.convergence_tol * max(length, 1e-30):
                break
            window_mark = length
    return nodes, length


def _halfplane_row(zc, Xc):
    return abs(Xc[0]) / (2.0 * zc[0].imag) if zc[0].imag > 0.0 else math.inf


BATCH_CASES = [
    (DISC, 0.3 + 0.4j, -0.2 - 0.5j),
    (HP, -0.1 + 0.01j, 0.1 + 0.01j),
    (kobayashi_density(HalfDiscScaled(1.0)), 0.5j, 0.2 + 0.25j),
    (kobayashi_density(Ball(2)), (0.3, 0.1j), (-0.2 + 0.1j, 0.4)),
    (kobayashi_density(Product((UnitDisc(), HalfPlane()))), (0.1, 1j), (0.3j, 0.5 + 2j)),
    (pullback(conformal.HalfDiscToHalfPlane(), HP), 0.5j, -0.3 + 0.2j),
    (custom_density(_halfplane_row, HalfPlane()), -0.3 + 0.4j, 0.2 + 1.2j),
]


@pytest.mark.parametrize(
    "density, z, w",
    BATCH_CASES,
    ids=["disc", "halfplane", "halfdisc", "ball2", "product", "pullback", "custom"],
)
def test_batched_descent_bit_identical_to_per_shift(monkeypatch, density, z, w):
    config = SolverConfig(node_count=17, refinement_levels=2, max_iterations=12)
    curve, length = minimize_curve(density, z, w, config)
    with monkeypatch.context() as patch:
        patch.setattr(geodesics, "_segment_lengths", _reference_segment_lengths)
        patch.setattr(geodesics, "_descend", _reference_descend)
        ref_curve, ref_length = minimize_curve(density, z, w, config)
    assert np.array_equal(curve.nodes, ref_curve.nodes)
    assert length == ref_length
    # descent moved the curve, so accepted steps are compared too
    start, _ = minimize_curve(density, z, w, replace(config, max_iterations=0))
    assert not np.array_equal(curve.nodes, start.nodes)


@pytest.mark.parametrize(
    "domain, z, w",
    [(UnitDisc(), 0.3 + 0.4j, -0.2 - 0.5j), (Ball(2), (0.3, 0.1j), (-0.2 + 0.1j, 0.4))],
    ids=["disc", "ball2"],
)
def test_descent_makes_three_density_calls_per_iteration(domain, z, w):
    plain = kobayashi_density(domain)
    rows = []

    def counting(Z, X):
        rows.append(len(Z))
        return plain.core(Z, X)

    density = FinslerDensity("counting", domain, counting)
    k, iterations = 17, 7
    t = np.linspace(0.0, 1.0, k)[:, None]
    nodes = (1 - t) * as_coords(z) + t * as_coords(w)
    geodesics._descend(density, nodes, SolverConfig(max_iterations=iterations))
    n = nodes.shape[1]
    # resampling and length up front, then gradient, resampling and length per iteration
    assert len(rows) <= 2 + 3 * iterations
    assert max(rows) == 16 * n * (k - 2)  # 4n shifted copies, 2 segments, 2 Gauss points


def test_zero_curve_on_ball_has_zero_length():
    ball = kobayashi_density(Ball(2))
    z = (0.3 + 0.1j, -0.2j)
    curve, length = minimize_curve(ball, z, z, SolverConfig(node_count=9, refinement_levels=1))
    assert length == 0.0
    assert finsler_length(ball, curve) == 0.0
