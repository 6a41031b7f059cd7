"""Variational geodesics: minimize integrated Finsler length over polylines.

A curve is a polyline with fixed endpoints; its length is the sum over
segments of two-point Gauss quadrature of density(point; segment direction).
``minimize_curve`` starts from the straight chord at a coarse node count,
runs damped finite-difference gradient descent on the interior nodes, and
dyadically refines (midpoint insertion) until the requested node count is
reached.  The descent is preconditioned by the metric: each node's gradient
is scaled by 1/rho^2, rho being the density at the node read off the curve's
own segment lengths, and the step is measured in metric units, so nodes near
the boundary, where rho is large, move as far in the metric as nodes far from
it.  Descent never accepts a worse curve, so the result cannot exceed the
chord length; and no curve can undercut the true distance by more than the
quadrature error.  Each descent iteration takes its whole finite-difference
gradient in one batched density call; cores work row by row, so batching
changes no value.

The quality of a curve is certified after the fact: the deficit
(sub-curve length) - (distance between its endpoints), maximized over a
dyadic family of index pairs, bounds how far the curve is from realizing
distances between its own points.  For a true geodesic the certificate is at
quadrature-error level; for a bad curve (a straight chord hugging the
boundary, say) it is large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    Domain,
    MembershipError,
    PointLike,
    as_coords,
    contains_batch,
)
from .metrics import FinslerDensity

GAUSS_LO = 0.5 - 0.5 / math.sqrt(3.0)
GAUSS_HI = 0.5 + 0.5 / math.sqrt(3.0)


@dataclass(frozen=True)
class Polyline:
    """An ordered chain of points of C^n, all inside the given domain.

    Membership is checked at the nodes and at segment midpoints; for the
    convex catalog this guarantees whole segments stay inside.
    """

    domain: Domain
    nodes: np.ndarray  # (k, n) complex, k >= 2

    def __post_init__(self):
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=complex))
        if nodes.shape[0] < 2:
            raise ValueError("a polyline needs at least two nodes")
        object.__setattr__(self, "nodes", nodes)
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        if not (
            contains_batch(self.domain, nodes).all()
            and contains_batch(self.domain, mids).all()
        ):
            raise MembershipError("polyline leaves the domain")

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True)
class SolverConfig:
    node_count: int = 65
    max_iterations: int = 3000
    convergence_tol: float = 1e-9
    refinement_levels: int = 3
    finite_difference_step: float = 1e-7

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError("node_count must be >= 2")
        if (self.node_count - 1) & (self.node_count - 2) != 0:
            # power of two plus one, so dyadic refinement lands exactly on it
            raise ValueError("node_count must be a power of two plus one")
        if min(self.max_iterations, self.refinement_levels) < 0:
            raise ValueError("iteration counts must be nonnegative")
        if self.convergence_tol <= 0 or self.finite_difference_step <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class EpsilonCertificate:
    """Worst deficit of sub-curve length over oracle distance, with its witness."""

    epsilon: float
    worst_pair: tuple[int, int]

    def __post_init__(self):
        if self.epsilon < -1e-12:
            raise ValueError(
                "certificate is negative beyond tolerance; the distance oracle "
                "returned more than a sub-curve length"
            )


def _segment_lengths(density: FinslerDensity, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gauss two-point lengths of segments a[i] -> b[i], (m, n) inputs, in one density call."""
    d = b - a
    m = len(d)
    gauss = np.concatenate([a + GAUSS_LO * d, a + GAUSS_HI * d])
    v = density.evaluate_batch(gauss, np.concatenate([d, d]))
    # a zero segment contributes nothing even where the density is infinite
    lengths = 0.5 * (v[:m] + v[m:])
    zero = np.all(d == 0, axis=1)
    if np.any(zero):
        lengths = np.where(zero, 0.0, lengths)
    return lengths


def finsler_length(density: FinslerDensity, curve: Polyline) -> float:
    """Total quadrature length of the polyline under the density."""
    return float(np.sum(_segment_lengths(density, curve.nodes[:-1], curve.nodes[1:])))


def _curve_length(density: FinslerDensity, nodes: np.ndarray) -> float:
    return float(np.sum(_segment_lengths(density, nodes[:-1], nodes[1:])))


def _redistribute(density: FinslerDensity, nodes: np.ndarray) -> np.ndarray:
    """Resample the polyline at uniform metric arclength (endpoints fixed).

    Left free, the nodes drift into configurations whose two-point quadrature
    underestimates the true length (the integrand's spikes fall between Gauss
    points near the boundary), and descent happily exploits that.  Resampling
    by metric length keeps the density roughly constant across each segment,
    which is exactly when the quadrature is faithful.  Resampled points lie on
    the original polyline, hence inside a convex domain.
    """
    seg = _segment_lengths(density, nodes[:-1], nodes[1:])
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


def _node_density(nodes: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Density at each interior node along the curve, seg / |d| averaged over its two segments.

    Returns a (k - 2, 1) column.  A node whose value is not a positive finite
    number (a zero-length segment, an infinite density) gets +inf, so the
    metric step leaves it in place."""
    d = np.diff(nodes, axis=0)
    norm = np.sqrt((d.real**2 + d.imag**2).sum(axis=1))
    ratio = np.divide(seg, norm, out=np.full_like(seg, np.nan), where=norm > 0)
    rho = 0.5 * (ratio[:-1] + ratio[1:])
    return np.where(rho > 0, rho, np.inf)[:, None]


def _descend(
    density: FinslerDensity,
    nodes: np.ndarray,
    config: SolverConfig,
) -> tuple[np.ndarray, float]:
    """Metric-preconditioned gradient descent on interior nodes; proposals are resampled first.

    Node i moves along its gradient scaled by 1/rho_i^2, rho_i being the
    density at the node as the accepted curve's own segment lengths give it
    (a natural-gradient step), and ``step`` bounds the largest metric
    displacement rho_i |displacement_i|.  Near the boundary rho varies by
    orders of magnitude along the curve, so one Euclidean step would be too
    large at the ends or too small at the top.  An iteration makes 3 density
    calls: the whole central-difference gradient, the resampling and the
    proposal's segment lengths, which an accepted proposal carries forward."""
    k, n = nodes.shape
    if k <= 2:
        return nodes, _curve_length(density, nodes)
    h = config.finite_difference_step
    # interior nodes shifted by +-h and +-ih per coordinate, in the gradient's order
    units = [(j, unit) for j in range(n) for unit in (1.0, 1j)]
    shifts = np.array([unit * h * np.eye(n)[j] for j, unit in units])[:, None, :]
    left = np.tile(np.arange(k - 2), 2 * len(units))  # left neighbour of each shifted row
    rows = len(left)
    nodes = _redistribute(density, nodes)
    seg = _segment_lengths(density, nodes[:-1], nodes[1:])
    length = float(np.sum(seg))
    rho = _node_density(nodes, seg)
    step = 0.1 * length / (k - 1)
    window_mark = length
    for it in range(config.max_iterations):
        mid = nodes[1:-1]
        shifted = np.concatenate([mid + shifts, mid - shifts]).reshape(rows, n)
        ends = np.concatenate([nodes[left], shifted, nodes[left + 2]])
        both = _segment_lengths(density, ends[: 2 * rows], ends[rows:])
        sums = (both[:rows] + both[rows:]).reshape(2, len(units), k - 2)
        grad = np.zeros_like(mid)
        for s, (j, unit) in enumerate(units):
            grad[:, j] += unit * ((sums[0, s] - sums[1, s]) / (2.0 * h))
        # rho_i |displacement_i| = step * |grad_i / rho_i| / gnorm
        scaled = grad / rho
        gnorm = float(np.max(np.linalg.norm(scaled, axis=1)))
        if gnorm == 0.0 or not math.isfinite(gnorm):
            break
        candidate = nodes.copy()
        candidate[1:-1] = mid - (step / gnorm) * (scaled / rho)
        candidate = _redistribute(density, candidate)
        cand_seg = _segment_lengths(density, candidate[:-1], candidate[1:])
        cand_length = float(np.sum(cand_seg))
        if cand_length < length:
            nodes, length = candidate, cand_length
            rho = _node_density(nodes, cand_seg)
            step *= 1.25
        else:
            step *= 0.5
            if step < 1e-16 * length:
                break
        if (it + 1) % 50 == 0:
            if window_mark - length < config.convergence_tol * max(length, 1e-30):
                break
            window_mark = length
    return nodes, length


def _refine(nodes: np.ndarray) -> np.ndarray:
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    out = np.empty((2 * nodes.shape[0] - 1, nodes.shape[1]), dtype=complex)
    out[0::2] = nodes
    out[1::2] = mids
    return out


def minimize_curve(
    density: FinslerDensity,
    z: PointLike,
    w: PointLike,
    config: SolverConfig = SolverConfig(),
) -> tuple[Polyline, float]:
    """Near-minimal polyline from z to w and its length.

    Starts from the straight chord at the coarse level
    (node_count - 1) / 2^refinement_levels + 1 and alternates descent with
    dyadic refinement; deterministic for a fixed config.
    """
    if density.domain is None:
        raise ValueError("minimize_curve needs a density with a domain")
    za, wa = as_coords(z), as_coords(w)
    coarse = (config.node_count - 1) >> config.refinement_levels
    if coarse < 1:
        raise ValueError("refinement_levels too deep for this node_count")
    t = np.linspace(0.0, 1.0, coarse + 1)[:, None]
    nodes = (1 - t) * za[None, :] + t * wa[None, :]
    if not contains_batch(density.domain, nodes).all():
        raise MembershipError(
            "straight chord exits the domain; no repair is implemented "
            "for non-convex members"
        )
    tf = np.linspace(0.0, 1.0, config.node_count)[:, None]
    chord = (1 - tf) * za[None, :] + tf * wa[None, :]
    chord_length = _curve_length(density, chord)
    nodes, length = _descend(density, nodes, config)
    for _ in range(config.refinement_levels):
        nodes = _refine(nodes)
        nodes, length = _descend(density, nodes, config)
    if length > chord_length:
        # resampling can nudge the quadrature of an already-optimal chord
        # upward by its own error; never return worse than the plain chord
        nodes, length = chord, chord_length
    curve = Polyline(density.domain, nodes)
    return curve, length


def _dyadic_pairs(count: int):
    """Index pairs (i, i + 2^j): O(count log count) of them, spanning all scales."""
    offset = 1
    while offset <= count - 1:
        for i in range(0, count - offset):
            yield i, i + offset
        offset *= 2


def epsilon_certificate(
    curve: Polyline,
    density: FinslerDensity,
    distance_oracle: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> EpsilonCertificate:
    """Max deficit of sub-curve length over oracle distance on dyadic index pairs.

    The oracle maps batches of endpoints, shape (m, n) twice, to distances
    (m,).  For a curve within eps of minimal, every deficit is <= eps, so the
    certificate bounds the curve's global quality.
    """
    nodes = curve.nodes
    k = nodes.shape[0]
    seg = _segment_lengths(density, nodes[:-1], nodes[1:])
    cumulative = np.concatenate([[0.0], np.cumsum(seg)])
    pairs = np.array(list(_dyadic_pairs(k)), dtype=int)
    if pairs.size == 0:
        return EpsilonCertificate(0.0, (0, 0))
    sub_lengths = cumulative[pairs[:, 1]] - cumulative[pairs[:, 0]]
    dists = np.asarray(distance_oracle(nodes[pairs[:, 0]], nodes[pairs[:, 1]]))
    deficits = sub_lengths - dists
    worst = int(np.argmax(deficits))
    raw = float(deficits[worst])
    if raw < -1e-6 * (1.0 + float(cumulative[-1])):
        # quadrature can undercut a distance by its own error, never by this much
        raise ValueError(
            "distance oracle exceeds sub-curve lengths; the oracle is inconsistent "
            "with the density"
        )
    return EpsilonCertificate(
        max(raw, 0.0), (int(pairs[worst, 0]), int(pairs[worst, 1]))
    )


def excursion_radius(curve: Polyline, z: PointLike) -> float:
    """Largest Euclidean distance from any node of the curve to z."""
    zc = as_coords(z)
    return float(np.max(np.linalg.norm(curve.nodes - zc[None, :], axis=1)))
