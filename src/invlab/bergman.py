"""Numeric Bergman kernel and metric on Reinhardt domains via monomial moments.

On a Reinhardt domain the monomials are orthogonal in the square-integrable
holomorphic space, so the kernel on the diagonal is the lacunary series
sum over alpha of |z^alpha|^2 / moment(alpha), with
moment(alpha) = integral over the domain of |z^alpha|^2 dV.  Each Reinhardt
catalog class gives its moments in closed form from ``math`` alone (factorials
and powers for discs, polydiscs and balls; Dirichlet's Gamma form for
ellipsoids, kept here, through lgamma where Gamma would leave the double
range), and a table is one array-mode ``monomial_moment`` call over a
multi-index grid that every table of that dimension and degree shares.

The metric is the square root of the log-kernel complex Hessian quadratic
form, evaluated by second-order central differences in the X and iX
directions with step h, all five points in one series batch.  This numeric
route is deliberately independent of the closed-form metrics of the catalog
classes, so the two certify each other.  The point must lie 2 h |X| inside: a
test on its moduli settles that for most points, and only the others pay for
the exact boundary projection (under a millisecond on ellipsoids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np

from .geometry import (
    DimensionMismatchError,
    Domain,
    MembershipError,
    PointLike,
    VectorLike,
    _modulus,
    as_coords,
    boundary_distance,
    contains,
    dimension,
    formula,
    member_coords,
)


def _whole(values, what: str) -> np.ndarray:
    """values as int64, refusing anything that is not a whole number."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind != "f" or not np.all(np.isfinite(arr) & (arr == np.round(arr))):
        raise ValueError(f"{what} must be whole numbers, got {values!r}")
    return arr.astype(np.int64)


def monomial_moment(domain: Domain, alpha) -> float | np.ndarray:
    """integral over the domain of |z^alpha|^2 dV: a float for one multi-index,
    an (m,) array of the same bits for an (m, n) stack of them (empty for an
    empty stack); ValueError when a moment leaves the double range (the
    multi-index is too deep)."""
    rows = np.atleast_2d(_whole(alpha, "multi-index"))
    if rows.ndim != 2 or rows.shape[1] != dimension(domain) or np.any(rows < 0):
        raise ValueError("multi-index must be nonnegative and match the dimension")
    moments = formula(domain, "moments")
    if not len(rows):
        return np.empty(0)
    try:
        out = moments(rows)
    except OverflowError:  # factorials past 170!, radii > 1 raised too high
        out = math.inf
    if not np.all(np.isfinite(out) & (out > 0)):
        raise ValueError(
            f"degree {rows.sum(axis=1).max()} is too deep for {domain}: "
            "moments leave the double range"
        )
    return out if np.ndim(alpha) == 2 else float(out[0])


# Gamma overflows a double at 171.62; a row whose 1 + sum a_j reaches this
# goes through lgamma, the others keep Gamma's smaller rounding error
GAMMA_EDGE = 171.0
_FACTORIALS = np.array([float(math.factorial(k)) for k in range(171)])  # 0! ... 170!


def _gamma(x: np.ndarray) -> np.ndarray:
    """Gamma at each 0 < x < GAMMA_EDGE; at a whole number the factorial
    rounded once, where math.gamma can be a few ulps off."""
    out = np.array(list(map(math.gamma, x.tolist())))
    whole = x == np.floor(x)
    out[whole] = _FACTORIALS[x[whole].astype(np.int64) - 1]
    return out


def _ellipsoid_moments(p: tuple[float, ...], rows: np.ndarray) -> np.ndarray:
    """prod_j (pi / p_j) Gamma(a_j) / Gamma(1 + sum_j a_j) with a_j = (alpha_j + 1) / p_j:
    t_j = |z_j|^(2 p_j) maps the ellipsoid onto the simplex, where this is
    Dirichlet's integral.  Gamma and lgamma are taken once per distinct a_j,
    the top one once per row."""
    a = [np.arange(1, col.max() + 2) / pj for col, pj in zip(rows.T, p)]
    top = 1.0 + sum(aj[col] for aj, col in zip(a, rows.T))
    scale = [math.pi / pj for pj in p]
    out = np.empty(len(rows))
    low = top < GAMMA_EDGE
    if low.any():
        # a_j < 1 + sum a_j < GAMMA_EDGE on these rows: a prefix of each table
        gam = [_gamma(aj[aj < GAMMA_EDGE]) for aj in a]
        part = rows[low]
        # dividing by the top Gamma first keeps every partial product in range
        value = gam[0][part[:, 0]] / _gamma(top[low])
        for j in range(1, len(p)):
            value = value * gam[j][part[:, j]]
        for s in scale:
            value = value * s
        out[low] = value
    if not low.all():
        lgam = [np.array([math.lgamma(x) for x in aj.tolist()]) for aj in a]
        log = sum(lg[col] for lg, col in zip(lgam, rows[~low].T))
        log = log - np.array([math.lgamma(t) for t in top[~low].tolist()]) + math.log(math.prod(scale))
        out[~low] = [math.exp(x) for x in log.tolist()]
    return out


@dataclass(frozen=True)
class MomentTable:
    """All monomial moments of a Reinhardt domain up to a total degree."""

    domain: Domain
    truncation_degree: int
    moments: Mapping[tuple[int, ...], float]
    # flat arrays for fast kernel evaluation, grouped by total degree
    alphas: np.ndarray = field(compare=False, repr=False)
    inv_moments: np.ndarray = field(compare=False, repr=False)
    degrees: np.ndarray = field(compare=False, repr=False)


@lru_cache(maxsize=64)
def _multi_indices(n: int, N: int) -> tuple[np.ndarray, tuple, np.ndarray, np.ndarray]:
    """Every multi-index of n coordinates with |alpha| <= N, ordered by
    (|alpha|, alpha): the int grid, its tuple keys, its float copy and its
    degrees, read-only and shared by every table of that (n, N)."""
    grid = np.indices((N + 1,) * n).reshape(n, -1).T
    grid = grid[grid.sum(axis=1) <= N]
    grid = grid[np.lexsort((*grid.T[::-1], grid.sum(axis=1)))]
    arrays = (grid, grid.astype(float), grid.sum(axis=1))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays[0], tuple(map(tuple, grid.tolist())), arrays[1], arrays[2]


@lru_cache(maxsize=64)
def moment_table(domain: Domain, truncation_degree: int) -> MomentTable:
    """Every moment with |alpha| <= N, ordered by (|alpha|, alpha), from one
    array-mode ``monomial_moment`` call; ValueError unless N is a whole number
    >= 0 shallow enough that every moment stays in the double range."""
    N = int(_whole(truncation_degree, "truncation degree"))
    if N < 0:
        raise ValueError("truncation degree must be >= 0")
    grid, keys, alphas, degrees = _multi_indices(dimension(domain), N)
    values = monomial_moment(domain, grid)
    return MomentTable(domain, N, dict(zip(keys, values.tolist())), alphas, 1.0 / values, degrees)


@dataclass(frozen=True)
class KernelResult:
    """Diagonal Bergman kernel value with its square root and a tail estimate."""

    kernel_diag: float
    kernel_sqrt: float
    tail_estimate: float


def _kernel_rows(table: MomentTable, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(series terms, truncated kernel diagonal), one row per point of P."""
    r2 = np.abs(P) ** 2
    terms = r2[:, 0, None] ** table.alphas[:, 0]  # np.prod over coordinates is slow
    for j in range(1, P.shape[1]):
        terms = terms * r2[:, j, None] ** table.alphas[:, j]
    terms = terms * table.inv_moments
    return terms, np.sum(terms, axis=1)


def bergman_kernel_diag(domain: Domain, z: PointLike, N: int) -> KernelResult:
    """Truncated kernel on the diagonal, sum over |alpha| <= N, with a geometric
    tail estimate from the last per-degree sums."""
    coords = member_coords(domain, z)
    table = moment_table(domain, N)
    terms, sums = _kernel_rows(table, coords[None, :])
    kernel = float(sums[0])
    tail = 0.0
    last = np.bincount(table.degrees, weights=terms[0])[-5:]
    if len(last) >= 2 and last[-1] > 0.0:
        ratios = [
            last[i + 1] / last[i]
            for i in range(len(last) - 1)
            if last[i] > 0.0 and last[i + 1] > 0.0
        ]
        if ratios:
            r = max(ratios)
            tail = math.inf if r >= 1.0 else float(last[-1] * r / (1.0 - r))
    return KernelResult(kernel, math.sqrt(kernel), tail)


STENCIL_STEP = 1e-3  # central-difference step of the Hessian metric


def bergman_metric_numeric(
    domain: Domain, z: PointLike, X: VectorLike, N: int, h: float = STENCIL_STEP
) -> float:
    """Metric from the log-kernel Hessian by central differences with step h.

    Requires the base point to sit reach = 2 h |X| inside the domain.  The
    Reinhardt catalog members are complete: if the moduli of z plus 2 reach
    (2 is float slack) lie inside, so does every point within the reach, and
    only points failing that call ``boundary_distance``.  The zero vector has
    metric 0; otherwise a nonpositive quadratic form signals a truncation
    degree too low for the point and raises.
    """
    coords = as_coords(z)
    vec = as_coords(X)
    if len(coords) != len(vec):
        raise DimensionMismatchError("point and vector dimensions differ")
    member_coords(domain, coords)
    table = moment_table(domain, N)
    if not vec.any():
        return 0.0
    reach = 2.0 * h * float(np.linalg.norm(vec))
    screened = contains(domain, _modulus(coords) + 2.0 * reach)
    if not screened and boundary_distance(domain, coords) < reach:
        raise MembershipError(
            f"point is within {reach:g} of the boundary, the reach of the difference stencil"
        )
    rows = [coords]
    for unit in (1.0, 1j):
        step = h * unit * vec
        rows += [coords + step, coords - step]
    logk = [math.log(k) for k in _kernel_rows(table, np.stack(rows))[1]]
    quad_form = 0.0
    for i in (1, 3):
        quad_form += logk[i] + logk[i + 1] - 2.0 * logk[0]
    quad_form /= 4.0 * h * h
    if quad_form <= 0.0:
        raise ValueError(
            "log-kernel Hessian is not positive here; increase the truncation degree"
        )
    return math.sqrt(quad_form)

