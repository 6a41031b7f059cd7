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
quadrature error.  An iteration makes 3 density calls after an accepted step
and 2 after a rejected one (the batched finite-difference gradient is retaken
only once the nodes move); cores work row by row, so batching changes no value.

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
from functools import lru_cache
from typing import Callable

import numpy as np

from .geometry import (
    Domain,
    MembershipError,
    PointLike,
    _across,
    _norm,
    as_coords,
    contains_batch,
)
from .metrics import FinslerDensity

GAUSS = 0.5 + np.array([-0.5, 0.5]) / math.sqrt(3.0)  # two-point Gauss nodes on [0, 1]
CONVERGENCE_TOL = 1e-9  # relative length drop over 50 iterations below which descent stops
FINITE_DIFFERENCE_STEP = 1e-7  # central-difference step of the node gradient


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


@dataclass(frozen=True)
class SolverConfig:
    node_count: int = 65
    max_iterations: int = 3000
    refinement_levels: int = 3

    def __post_init__(self):
        counts = (self.node_count, self.max_iterations, self.refinement_levels)
        if not all(isinstance(n, int) for n in counts):
            raise ValueError("node and iteration counts must be integers")
        if self.node_count < 2:
            raise ValueError("node_count must be >= 2")
        if (self.node_count - 1) & (self.node_count - 2) != 0:
            # power of two plus one, so dyadic refinement lands exactly on it
            raise ValueError("node_count must be a power of two plus one")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        # the coarsest level keeps both ends: (node_count - 1) / 2^levels >= 1
        deepest = (self.node_count - 1).bit_length() - 1
        if not 0 <= self.refinement_levels <= deepest:
            raise ValueError(
                f"refinement_levels must lie in [0, {deepest}] for {self.node_count} nodes"
            )


@dataclass(frozen=True)
class EpsilonCertificate:
    """Worst deficit of sub-curve length over oracle distance, with its witness."""

    epsilon: float
    worst_pair: tuple[int, int]


def _segment_lengths(density: FinslerDensity, a, b, d=None) -> np.ndarray:
    """Gauss two-point lengths of segments a[i] -> b[i] = a[i] + d[i], in one density call."""
    d = b - a if d is None else d
    m, n = d.shape
    gauss = (a + GAUSS[:, None, None] * d).reshape(2 * m, n)
    v = density.core(gauss, np.concatenate([d, d]))
    lengths = 0.5 * (v[:m] + v[m:])
    if not d.all():
        # a zero segment contributes nothing even where the density is infinite
        lengths = np.where(_across(np.logical_and, d == 0), 0.0, lengths)
    return lengths


def _curve_length(density: FinslerDensity, nodes: np.ndarray) -> float:
    return float(_segment_lengths(density, nodes[:-1], nodes[1:]).sum())


def finsler_length(density: FinslerDensity, curve: Polyline) -> float:
    """Total quadrature length of the polyline under the density."""
    return _curve_length(density, curve.nodes)


def _redistribute(density: FinslerDensity, nodes: np.ndarray, ramp: np.ndarray) -> np.ndarray:
    """Resample the polyline at uniform metric arclength (endpoints fixed).

    Left free, the nodes drift into configurations whose two-point quadrature
    underestimates the true length (the integrand's spikes fall between Gauss
    points near the boundary), and descent happily exploits that.  Resampling
    by metric length keeps the density roughly constant across each segment,
    which is exactly when the quadrature is faithful.  Resampled points lie on
    the original polyline, hence inside a convex domain.
    """
    seg = _segment_lengths(density, nodes[:-1], nodes[1:])
    total = float(seg.sum())
    if total == 0.0 or not math.isfinite(total):
        return nodes
    s = np.zeros(len(ramp))
    np.cumsum(seg, out=s[1:])
    # np.linspace(0, total, k) bit for bit, bar the last entry: out[-1] is the endpoint
    target = ramp * (total / (len(ramp) - 1))
    out = np.empty_like(nodes)
    for j in range(nodes.shape[1]):
        out[:, j] = np.interp(target, s, nodes[:, j].real) + 1j * np.interp(
            target, s, nodes[:, j].imag
        )
    out[0], out[-1] = nodes[0], nodes[-1]
    return out


def _node_density(d: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Density at each interior node along the curve, seg / |d| averaged over its two segments.

    ``d`` holds the segment differences.  Returns a (k - 2, 1) column.  A node
    whose value is not a positive finite number (a zero-length segment, an
    infinite density) gets +inf, so the metric step leaves it in place."""
    norm = _norm(d)
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
    large at the ends or too small at the top.  A proposal costs 2 density
    calls, its resampling and its segment lengths (kept if it is accepted);
    the batched central-difference gradient is a third, taken only when the
    nodes have moved."""
    k, n = nodes.shape
    if k <= 2:
        return nodes, _curve_length(density, nodes)
    h = FINITE_DIFFERENCE_STEP
    # interior nodes shifted by +-h and +-ih per coordinate, in the gradient's order
    units = [(j, unit) for j in range(n) for unit in (1.0, 1j)]
    shifts = np.array([unit * h * np.eye(n)[j] for j, unit in units])[:, None, :]
    shifts = np.stack([shifts, -shifts])  # x + (-y) is x - y, bit for bit
    left = np.tile(np.arange(k - 2), 2 * len(units))  # left neighbour of each shifted row
    rows = len(left)
    # gradient segments, refilled in place: ends[:2 rows] -> ends[rows:], left -> shifted -> right
    ends = np.empty((3 * rows, n), dtype=complex)
    shifted = ends[rows : 2 * rows].reshape(2, len(units), k - 2, n)
    ramp = np.arange(k, dtype=float)
    nodes = _redistribute(density, nodes, ramp)
    d = nodes[1:] - nodes[:-1]
    seg = _segment_lengths(density, nodes[:-1], nodes[1:], d)
    length = float(seg.sum())
    rho = _node_density(d, seg)
    step = 0.1 * length / (k - 1)
    window_mark = length
    direction = None  # the gradient's step direction, None when the nodes have moved
    for it in range(config.max_iterations):
        mid = nodes[1:-1]
        if direction is None:
            nodes.take(left, axis=0, out=ends[:rows])
            np.add(mid, shifts, out=shifted)
            nodes.take(left + 2, axis=0, out=ends[2 * rows :])
            both = _segment_lengths(density, ends[: 2 * rows], ends[rows:])
            sums = (both[:rows] + both[rows:]).reshape(2, len(units), k - 2)
            diff = ((sums[0] - sums[1]) / (2.0 * h)).T
            grad = diff[:, 0::2] + 1j * diff[:, 1::2]
            # rho_i |displacement_i| = step * |grad_i / rho_i| / gnorm
            scaled = grad / rho
            gnorm = float(np.max(np.sqrt(_across(np.add, (scaled.conj() * scaled).real))))
            if gnorm == 0.0 or not math.isfinite(gnorm):
                break
            direction = scaled / rho
        candidate = nodes.copy()
        candidate[1:-1] = mid - (step / gnorm) * direction
        candidate = _redistribute(density, candidate, ramp)
        d = candidate[1:] - candidate[:-1]
        cand_seg = _segment_lengths(density, candidate[:-1], candidate[1:], d)
        cand_length = float(cand_seg.sum())
        if cand_length < length:
            nodes, length = candidate, cand_length
            rho = _node_density(d, cand_seg)
            step *= 1.25
            direction = None
        else:
            step *= 0.5
            if step < 1e-16 * length:
                break
        if (it + 1) % 50 == 0:
            if window_mark - length < CONVERGENCE_TOL * max(length, 1e-30):
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
    t = np.linspace(0.0, 1.0, config.node_count)[:, None]
    chord = (1 - t) * za[None, :] + t * wa[None, :]
    nodes = chord[:: 1 << config.refinement_levels]
    if not contains_batch(density.domain, nodes).all():
        raise MembershipError(
            "straight chord exits the domain; no repair is implemented "
            "for non-convex members"
        )
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


@lru_cache(maxsize=64)
def _dyadic_pairs(count: int) -> np.ndarray:
    """Index pairs (i, i + 2^j), O(count log count) of them spanning all scales,
    as a read-only (P, 2) array ordered by offset, then by i; a polyline's
    count >= 2 gives P >= 1."""
    offsets = [1 << j for j in range((count - 1).bit_length())]
    pairs = np.array([(i, i + o) for o in offsets for i in range(count - o)], dtype=int)
    pairs.flags.writeable = False
    return pairs


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
    pairs = _dyadic_pairs(k)
    sub_lengths = cumulative[pairs[:, 1]] - cumulative[pairs[:, 0]]
    dists = np.asarray(distance_oracle(nodes[pairs[:, 0]], nodes[pairs[:, 1]]))
    deficits = sub_lengths - dists
    worst = int(np.argmax(deficits))
    raw = float(deficits[worst])
    slack = 1e-6 * (1.0 + float(cumulative[-1]))
    if raw < -slack:
        # the two-point rule can undercut a long segment by more than the slack:
        # measure again with every segment halved, and blame the oracle only if
        # it still exceeds those lengths by more than the slack plus the change
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        halves = _segment_lengths(
            density, np.concatenate([nodes[:-1], mids]), np.concatenate([mids, nodes[1:]])
        )
        halved = np.concatenate([[0.0], np.cumsum(halves[: k - 1] + halves[k - 1 :])])
        sub_halved = halved[pairs[:, 1]] - halved[pairs[:, 0]]
        if np.any(sub_halved - dists < -(slack + np.abs(sub_halved - sub_lengths))):
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
    v = curve.nodes - zc[None, :]
    return float(np.max(np.sqrt(_across(np.add, (v.conj() * v).real))))
