import math
from dataclasses import replace

import numpy as np
import pytest

from invlab import conformal, geodesics
from invlab.distances import distance_batch, kobayashi_distance
from invlab.geodesics import (
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
from invlab.metrics import FinslerDensity, kobayashi_density, pullback

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
    for off in (1.0, 1e-3):
        bad = lambda Z, W: distance_batch(UnitDisc())(Z, W) + off
        with pytest.raises(ValueError):
            epsilon_certificate(curve, DISC, bad)


@pytest.mark.parametrize("levels", [0, 1])
def test_epsilon_certificate_accepts_an_exact_oracle_on_three_nodes(levels):
    # on three nodes every two-point sub-curve length falls short of the exact
    # distance, by at least 4.5e-4, more than the fixed slack; halving the
    # segments shows that the oracle is right
    config = SolverConfig(node_count=3, refinement_levels=levels)
    curve, _ = minimize_curve(DISC, -0.5, 0.5, config)
    cert = epsilon_certificate(curve, DISC, distance_batch(UnitDisc()))
    assert cert.epsilon == 0.0
    for off in (1.0, 1e-3):
        bad = lambda Z, W: distance_batch(UnitDisc())(Z, W) + off
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


@pytest.mark.parametrize("t", [1e-3, 1e-2])
def test_boundary_hugging_pair_does_not_stall(t):
    z, w = -t + 1j * t * t, t + 1j * t * t
    curve, length = minimize_curve(HP, z, w)
    exact = kobayashi_distance(HalfPlane(), z, w).value
    assert abs(length - exact) / exact <= 1e-3
    assert epsilon_certificate(curve, HP, distance_batch(HalfPlane())).epsilon <= 5e-3
    # the geodesic is the half circle through z and w centred on the real axis
    top = float(np.max(curve.nodes[:, 0].imag))
    assert top == pytest.approx(math.hypot(t, t * t), rel=1e-2)


def test_polyline_validation():
    with pytest.raises(MembershipError):
        Polyline(UnitDisc(), np.array([[0.0], [1.5]]))
    with pytest.raises(ValueError):
        Polyline(UnitDisc(), np.array([[0.0]]))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(node_count=10)  # not 2^k + 1
    with pytest.raises(ValueError):
        SolverConfig(node_count=5, refinement_levels=4)
        minimize_curve(DISC, -0.5, 0.5, SolverConfig(node_count=5, refinement_levels=4))


def test_refinement_too_deep():
    with pytest.raises(ValueError):
        minimize_curve(DISC, -0.5, 0.5, SolverConfig(node_count=5, refinement_levels=4))


# --------------------------------------------------------------------------
# batched descent against the per-shift reference
# --------------------------------------------------------------------------

def _reference_segment_lengths(density, a, b):
    """Gauss two-point segment lengths with one density call per Gauss point."""
    d = b - a
    v1 = density.evaluate_batch(a + (0.5 - 0.5 / math.sqrt(3.0)) * d, d)
    v2 = density.evaluate_batch(a + (0.5 + 0.5 / math.sqrt(3.0)) * d, d)
    lengths = 0.5 * (v1 + v2)
    zero = np.all(d == 0, axis=1)
    if np.any(zero):
        lengths = np.where(zero, 0.0, lengths)
    return lengths


def _reference_node_density(nodes, seg):
    """(k - 2, 1) column of seg / |d| averaged over each interior node's two segments."""
    rho = np.empty((len(seg) - 1, 1))
    for i in range(len(seg) - 1):
        ratios = []
        for s in (i, i + 1):
            norm = math.sqrt(sum(c.real**2 + c.imag**2 for c in nodes[s + 1] - nodes[s]))
            ratios.append(seg[s] / norm if norm > 0 else math.nan)
        value = 0.5 * (ratios[0] + ratios[1])
        rho[i, 0] = value if value > 0 else math.inf
    return rho


def _reference_redistribute(density, nodes):
    """Resampling at uniform metric arclength as first written: np.linspace and per-column np.interp."""
    seg = _reference_segment_lengths(density, nodes[:-1], nodes[1:])
    total = float(np.sum(seg))
    if total == 0.0 or not math.isfinite(total):
        return nodes
    s = np.concatenate([[0.0], np.cumsum(seg)])
    target = np.linspace(0.0, total, nodes.shape[0])
    out = np.empty_like(nodes)
    for j in range(nodes.shape[1]):
        out[:, j] = np.interp(target, s, nodes[:, j].real) + 1j * np.interp(
            target, s, nodes[:, j].imag
        )
    out[0], out[-1] = nodes[0], nodes[-1]
    return out


def _reference_descend(density, nodes, config):
    """The descent with its gradient taken one shift at a time (8n segment sets), every iteration."""
    k, n = nodes.shape
    if k <= 2:
        return nodes, float(np.sum(_reference_segment_lengths(density, nodes[:-1], nodes[1:])))
    h = geodesics.FINITE_DIFFERENCE_STEP
    nodes = _reference_redistribute(density, nodes)
    seg = _reference_segment_lengths(density, nodes[:-1], nodes[1:])
    length = float(np.sum(seg))
    rho = _reference_node_density(nodes, seg)
    step = 0.1 * length / (k - 1)
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
        scaled = grad / rho
        gnorm = float(np.max(np.linalg.norm(scaled, axis=1)))
        if gnorm == 0.0 or not math.isfinite(gnorm):
            break
        candidate = nodes.copy()
        candidate[1:-1] = mid - (step / gnorm) * (scaled / rho)
        candidate = _reference_redistribute(density, candidate)
        cand_seg = _reference_segment_lengths(density, candidate[:-1], candidate[1:])
        cand_length = float(np.sum(cand_seg))
        if cand_length < length:
            nodes, length = candidate, cand_length
            rho = _reference_node_density(nodes, cand_seg)
            step *= 1.25
        else:
            step *= 0.5
            if step < 1e-16 * length:
                break
        if (it + 1) % 50 == 0:
            if window_mark - length < geodesics.CONVERGENCE_TOL * max(length, 1e-30):
                break
            window_mark = length
    return nodes, length


def _halfplane_rows(Z, X):
    """The half-plane density one row at a time, as a density core written
    without array arithmetic would give it."""
    return np.array(
        [abs(x[0]) / (2.0 * z[0].imag) if z[0].imag > 0.0 else math.inf for z, x in zip(Z, X)]
    )


BATCH_CASES = [
    (DISC, 0.3 + 0.4j, -0.2 - 0.5j),
    (HP, -0.1 + 0.01j, 0.1 + 0.01j),
    (kobayashi_density(HalfDiscScaled(1.0)), 0.5j, 0.2 + 0.25j),
    (kobayashi_density(Ball(2)), (0.3, 0.1j), (-0.2 + 0.1j, 0.4)),
    (kobayashi_density(Product((UnitDisc(), HalfPlane()))), (0.1, 1j), (0.3j, 0.5 + 2j)),
    (pullback(conformal.HalfDiscToHalfPlane(), HP), 0.5j, -0.3 + 0.2j),
    (FinslerDensity("custom", HalfPlane(), _halfplane_rows), -0.3 + 0.4j, 0.2 + 1.2j),
    (HP, -1e-3 + 1e-6j, 1e-3 + 1e-6j),  # hugs the boundary; rejects steps
]


@pytest.mark.parametrize(
    "density, z, w",
    BATCH_CASES,
    ids=["disc", "halfplane", "halfdisc", "ball2", "product", "pullback", "custom", "edge"],
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
    [
        (UnitDisc(), 0.3 + 0.4j, -0.2 - 0.5j),
        (Ball(2), (0.3, 0.1j), (-0.2 + 0.1j, 0.4)),
        (HalfPlane(), -1e-3 + 1e-6j, 1e-3 + 1e-6j),
    ],
    ids=["disc", "ball2", "edge"],
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
    gradient_rows = 16 * n * (k - 2)  # 4n shifted copies, 2 segments, 2 Gauss points
    gradients = rows.count(gradient_rows)
    # resampling and length up front, then resampling and length per iteration,
    # plus the gradient at the start and after each accepted step
    assert len(rows) <= 2 + 3 * iterations
    assert max(rows) == gradient_rows
    assert len(rows) == 2 + 2 * iterations + gradients
    # every one of these pairs rejects a step within 7 iterations, and a
    # rejected step reuses the gradient
    assert 1 <= gradients < iterations


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_curve_on_ball_has_zero_length():
    ball = kobayashi_density(Ball(2))
    z = (0.3 + 0.1j, -0.2j)
    curve, length = minimize_curve(ball, z, z, SolverConfig(node_count=9, refinement_levels=1))
    assert length == 0.0
    assert finsler_length(ball, curve) == 0.0


@pytest.mark.parametrize("count", [2, 3, 9, 65])
def test_dyadic_pairs_are_one_cached_read_only_array(count):
    expected, offset = [], 1
    while offset <= count - 1:
        expected += [[i, i + offset] for i in range(count - offset)]
        offset *= 2
    pairs = geodesics._dyadic_pairs(count)
    assert pairs.tolist() == expected and pairs.shape == (len(expected), 2)
    assert geodesics._dyadic_pairs(count) is pairs
    with pytest.raises(ValueError):
        pairs[0, 0] = 1
