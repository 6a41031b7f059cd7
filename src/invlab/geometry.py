"""Model domains in C^n: the catalog, membership, Euclidean boundary distance,
ball caps, and each member's closed forms.

The catalog is deliberately small.  Every member either carries closed-form
invariant metrics (disc, half-plane, scaled half-disc, ball, polydisc,
products) or supports the moment-based Bergman machinery (Reinhardt
ellipsoids).  Domains are open: boundary points are never members, and
operations that need an interior point reject non-members with
``MembershipError`` instead of returning limiting values, because every
quantity built on top of the catalog blows up at the boundary.

Each member is a subclass of ``Domain`` and answers every per-domain question
in its own body: its dimension, signed boundary distance, scalar and batch
membership and cap nonemptiness always, and its closed forms where the catalog
has one (batch distance, Kobayashi density, Bergman metric, monomial moments,
seeded sampler, the ratio of the two metrics).  ``formula`` looks a closed form
up and refuses a member without one; the public entry points here and in
``distances``, ``metrics``, ``bergman`` and ``sampling`` are such lookups.

One signed boundary distance answers three questions: it is the distance to
the complement for a member and minus the distance to the closure otherwise,
so z is a member iff it is positive, and a cap B(c, r) is nonempty iff minus
it at c is below r (over products, caps and ellipsoids c must lie inside).

Points and tangent vectors reach the members as 1-d complex arrays from
``as_coords`` (double precision throughout; no arbitrary precision is
attempted).  A cap keeps its center twice: as a tuple of Python complex
numbers, which makes caps equal and hashable and which its scalar membership
test reads, and as a read-only array, which its batch test reads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import accumulate, product
from typing import Callable, Sequence, Union

import numpy as np


class DimensionMismatchError(ValueError):
    """Point or vector dimension does not match the domain."""


class MembershipError(ValueError):
    """A point required to lie in the (open) domain does not."""


class UnsupportedDomainError(ValueError):
    """The requested operation has no honest implementation for this variant."""


class EmptyIntersectionError(ValueError):
    """A ball cap would have empty interior."""


PointLike = VectorLike = Union[complex, float, int, Sequence[complex]]


def as_coords(z: PointLike) -> np.ndarray:
    """Coerce a point-like or vector-like value to a 1-d complex array."""
    if isinstance(z, (complex, float, int)):
        return np.array([complex(z)], dtype=complex)
    if isinstance(z, np.ndarray) and z.ndim == 1:  # coordinates already coerced once
        return z.astype(complex)
    if isinstance(z, np.number) or (isinstance(z, np.ndarray) and z.ndim == 0):
        return np.array([complex(z)], dtype=complex)
    return np.asarray([complex(c) for c in z], dtype=complex)


FEW_ROWS = 32  # below this many rows numpy's own reduction is the faster one


def _across(ufunc: np.ufunc, A: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(A, axis=-1)`` bit for bit (a NaN's sign aside), one
    coordinate column at a time where that is faster.

    numpy reduces a short last axis row by row, many times slower than one
    ufunc call per column once a batch has a few dozen rows.  Below 8 real
    terms a row (4 complex ones) its reduction runs left to right from the
    identity, which the column chain repeats.  A point or a few rows, a single
    column, and longer rows, whose pairwise sum associates otherwise, go to
    numpy.  The result never shares memory with A: callers may write into it.
    """
    rows, n = (len(A) if A.ndim > 1 else 1), A.shape[-1]
    if rows < FEW_ROWS or n < 2 or n * (2 if A.dtype.kind == "c" else 1) >= 8:
        return ufunc.reduce(A, axis=-1)
    out = A[:, 0] if ufunc.identity is None else ufunc(ufunc.identity, A[:, 0])
    for j in range(1, n):
        out = ufunc(out, A[:, j])
    return out


def _norm(Z: np.ndarray) -> np.ndarray:
    """Norm over the last axis, with the same operations for a point and for each
    row of a batch (``np.linalg.norm`` sums a vector and matrix rows differently)."""
    return np.sqrt(_across(np.add, Z.real**2 + Z.imag**2))


def _point_norm(coords: list) -> float:
    """``_norm`` of one point, bit for bit, from its coordinates as Python
    complex numbers.

    Under 8 coordinates numpy sums the squares left to right from 0, as the
    loop here does in Python floats, which overflow to inf where numpy would
    warn; a longer point keeps numpy's pairwise sum, its overflow ignored."""
    if len(coords) < 8:
        total = 0.0
        for c in coords:
            total += c.real * c.real + c.imag * c.imag
        return math.sqrt(total)
    with np.errstate(over="ignore"):
        return float(_norm(np.array(coords)))


def _modulus(Z: np.ndarray) -> np.ndarray:
    """Entrywise |z| by hypot, as Python's ``abs`` computes it; numpy's complex
    ``abs`` of an array may differ from that in the last bit."""
    return np.hypot(Z.real, Z.imag)


NEAR = 2.0**-49  # 8 eps: closer to the boundary, complements are recomputed


def _complement(r2: np.ndarray, Z: np.ndarray, modulus: Callable, radius=1.0) -> np.ndarray:
    """radius^2 - r2 (numpy's |z|^2), positive exactly where ``contains_batch`` accepts:
    within 8 eps of the boundary it is (radius - m)(radius + m), m = modulus(Z)."""
    s = radius**2 - r2
    near = np.abs(s) <= NEAR * radius**2
    if near.any():
        r, m = np.broadcast_to(radius, s.shape)[near], modulus(Z[near])
        s[near] = (r - m) * (r + m)
    return s


def _masked(vals: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Density values with +inf at the rows outside the domain."""
    vals = np.asarray(vals, dtype=float)
    return np.where(inside, vals, math.inf)


# --------------------------------------------------------------------------
# Domain descriptors
# --------------------------------------------------------------------------

class Domain:
    """A catalog member: ``dim``, ``signed``, ``contains``, ``contains_rows`` and
    ``cap_nonempty`` on every member; where the catalog has them, the batch
    cores ``distance(Z, W)``, ``kobayashi(Z, X)`` and ``bergman(Z, X)`` (+inf at
    rows outside), ``moments(rows)``, ``sample(seed, count, shrink)``, and
    ``bergman_over_kobayashi``, the ratio of the two metrics where it is
    constant (None elsewhere).  The planar members add ``distance_pair(z, w)``:
    the batch distance of one pair of Python complex numbers by the scalar
    pass of ``distances``, or None where the pass declines the pair."""

    bergman_over_kobayashi = None

    def contains(self, coords: np.ndarray) -> bool:
        """True iff the point (coordinates of the right length) is a member."""
        return self.signed(coords) > 0.0

    def cap_nonempty(self, coords: np.ndarray, radius: float) -> bool:
        """True iff the open ball B(coords, radius) meets the domain."""
        return -self.signed(coords) < radius

    def cap(self, center: tuple[complex, ...], radius: float) -> Domain:
        """The domain cut with the open ball B(center, radius)."""
        return BallIntersection(self, center, radius)


def _center_inside(domain: Domain, coords: np.ndarray, radius: float) -> bool:
    """``cap_nonempty`` of the members whose signed distance is not exact off
    the domain: only a center inside can be verified."""
    if domain.contains(coords):
        return True
    raise UnsupportedDomainError(
        "cannot verify cap nonemptiness against this base; place the center inside"
    )


def formula(domain: Domain, name: str) -> Callable:
    """The closed form ``name`` of a catalog member; UnsupportedDomainError,
    naming the class, where the catalog has none."""
    found = getattr(domain, name, None)
    if found is None:
        raise UnsupportedDomainError(
            f"the catalog has no {name} formula for {type(domain).__name__}"
        )
    return found


@dataclass(frozen=True)
class UnitDisc(Domain):
    """The open unit disc in C."""

    dim = 1
    bergman_over_kobayashi = math.sqrt(2)

    def signed(self, coords):
        return 1.0 - abs(coords[0])

    def contains_rows(self, Z):
        return _modulus(Z[:, 0]) < 1.0

    def distance(self, Z, W):
        return distances.disc_distance_batch(np.atleast_2d(Z)[:, 0], np.atleast_2d(W)[:, 0])

    def distance_pair(self, z, w):
        return distances.disc_distance_pair(z, w)

    def kobayashi(self, Z, X):
        s = _complement(np.abs(Z[:, 0]) ** 2, Z[:, 0], _modulus)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.abs(X[:, 0]) / s
        return _masked(vals, s > 0.0)

    def bergman(self, Z, X):
        return self.bergman_over_kobayashi * self.kobayashi(Z, X)

    def moments(self, rows):
        return math.pi / (rows[:, 0] + 1)

    def sample(self, seed, count, shrink):
        return sampling.disc_points(seed, count, shrink)[:, None]


@dataclass(frozen=True)
class HalfPlane(Domain):
    """The open upper half-plane Im z > 0."""

    dim = 1

    def signed(self, coords):
        # the only unbounded member: a non-finite point has no distance, and is no member
        return coords[0].imag if cmath.isfinite(coords[0]) else math.nan

    def contains_rows(self, Z):
        return (Z[:, 0].imag > 0.0) & np.isfinite(Z[:, 0])

    def cap(self, center, radius):
        # the cut at 0 with radius up to 1 normalizes to a half-disc
        if center == (0j,) and 0.0 < radius <= 1.0:
            return HalfDiscScaled(radius)
        return super().cap(center, radius)

    def distance(self, Z, W):
        return distances.halfplane_distance_batch(np.atleast_2d(Z)[:, 0], np.atleast_2d(W)[:, 0])

    def distance_pair(self, z, w):
        return distances.halfplane_distance_pair(z, w)

    def kobayashi(self, Z, X):
        y = Z[:, 0].imag
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.abs(X[:, 0]) / (2.0 * y)
        return _masked(vals, (y > 0.0) & np.isfinite(Z[:, 0]))

    def sample(self, seed, count, shrink):
        return sampling.halfplane_points(seed, count)[:, None]  # a fixed box; no shrink


@dataclass(frozen=True)
class HalfDiscScaled(Domain):
    """Upper half-plane cut with the disc of radius r centered at 0, 2^-1022 <= r <= 1."""

    radius: float = 1.0
    dim = 1

    def __post_init__(self):
        # a normal radius: the distances scale by 1/radius, which overflows below
        if not (2.0**-1022 <= self.radius <= 1.0):
            raise ValueError("half-disc radius must lie in [2^-1022, 1]")

    def signed(self, coords):
        z, r = coords[0], self.radius
        inner = min(r - abs(z), z.imag)  # NaN first, so a NaN point is no member
        if inner > 0.0:
            return inner
        w = complex(z.real, max(z.imag, 0.0))  # nearest point of the closure
        if abs(w) > r:
            w = w * (r / abs(w))
        return -abs(z - w)

    def contains_rows(self, Z):
        return (Z[:, 0].imag > 0.0) & (_modulus(Z[:, 0]) < self.radius)

    def distance(self, Z, W):
        return distances.halfdisc_distance_batch(
            np.atleast_2d(Z)[:, 0], np.atleast_2d(W)[:, 0], self.radius
        )

    def distance_pair(self, z, w):
        return distances.halfdisc_distance_pair(z, w, self.radius)

    def kobayashi(self, Z, X):
        # the half-plane density pulled back through f = ((z + 1)/(z - 1))^2:
        # |f'| / (2 Im f) at zeta = z / r, with Im f(zeta) = 4 (1 - |zeta|^2)
        # Im zeta / |zeta - 1|^4 in closed form, free of the cancellation in
        # Im f at the arc
        r = self.radius
        s = _complement(np.abs(Z[:, 0]) ** 2, Z[:, 0], _modulus, r)
        zeta = Z[:, 0] / r
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.abs(X[:, 0]) * np.abs(1.0 + zeta) * np.abs(1.0 - zeta)
            vals /= 2.0 * r * zeta.imag * (s / r**2)
        return _masked(vals, (Z[:, 0].imag > 0.0) & (s > 0.0))

    def sample(self, seed, count, shrink):
        return sampling.halfdisc_points(seed, count, self.radius * shrink)[:, None]


@dataclass(frozen=True)
class Ball(Domain):
    """The open Euclidean unit ball of C^n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ball dimension must be >= 1")

    dim = property(lambda self: self.n)
    bergman_over_kobayashi = property(lambda self: math.sqrt(self.n + 1))

    def signed(self, coords):
        return 1.0 - _point_norm(coords.tolist())

    def contains_rows(self, Z):
        return _norm(Z) < 1.0

    def distance(self, Z, W):
        if self.n == 1:  # the disc, whose form has no projection w - Pw to cancel
            return UnitDisc().distance(Z, W)
        return distances.ball_distance_batch(Z, W)

    def kobayashi(self, Z, X):
        # differentiate the automorphism moving z to the origin, where the
        # density of a vector is its norm
        nz2 = _across(np.add, np.abs(Z) ** 2)
        s2 = _complement(nz2, Z, _norm)
        ip = _across(np.add, X * np.conj(Z))
        nx2 = _across(np.add, np.abs(X) ** 2)
        # split X along and across z, push through the automorphism derivative
        with np.errstate(divide="ignore", invalid="ignore"):
            p2 = np.where(nz2 > 0.0, np.abs(ip) ** 2 / np.where(nz2 > 0, nz2, 1.0), 0.0)
            q2 = np.maximum(nx2 - p2, 0.0)
            vals = np.sqrt(p2 + s2 * q2) / s2
        return _masked(vals, s2 > 0.0)

    def bergman(self, Z, X):
        return self.bergman_over_kobayashi * self.kobayashi(Z, X)

    def moments(self, rows):
        n, total = self.n, rows.sum(axis=1)
        fact = np.array([float(math.factorial(k)) for k in range(n + total.max() + 1)])
        out = math.pi**n
        for a in rows.T:
            out = out * fact[a]
        return out / fact[n + total]

    def sample(self, seed, count, shrink):
        return sampling.ball_points(seed, count, self.n, shrink)


@dataclass(frozen=True)
class Polydisc(Domain):
    """Product of discs of the given finite positive radii."""

    radii: tuple[float, ...]

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if len(radii) < 1 or not all(0.0 < r < math.inf for r in radii):
            raise ValueError("polydisc radii must be finite and positive")
        object.__setattr__(self, "radii", radii)

    dim = property(lambda self: len(self.radii))

    def signed(self, coords):
        gaps = [r - abs(c) for c, r in zip(coords, self.radii)]
        if all(g > 0.0 for g in gaps):
            return min(gaps)
        return -math.hypot(*(max(0.0, -g) for g in gaps))

    def contains_rows(self, Z):
        return _across(np.logical_and, _modulus(Z) < np.asarray(self.radii))

    def distance(self, Z, W):
        return distances.polydisc_distance_batch(Z, W, self.radii)

    def kobayashi(self, Z, X):
        radii = np.asarray(self.radii)
        s = _complement(np.abs(Z) ** 2, Z, _modulus, radii)
        with np.errstate(divide="ignore", invalid="ignore"):
            per = radii * np.abs(X) / s
            vals = _across(np.maximum, per)
        return _masked(vals, _across(np.logical_and, s > 0.0))

    def bergman(self, Z, X):
        radii = np.asarray(self.radii)
        s = _complement(np.abs(Z) ** 2, Z, _modulus, radii)
        with np.errstate(divide="ignore", invalid="ignore"):
            per = 2.0 * (radii * np.abs(X)) ** 2 / s**2
            vals = np.sqrt(_across(np.add, per))
        return _masked(vals, _across(np.logical_and, s > 0.0))

    def moments(self, rows):
        out = 1.0  # factor tables by Python's float **; numpy's power rounds otherwise
        for a, r in zip(rows.T, self.radii):
            factor = [math.pi * r ** (2 * k + 2) / (k + 1) for k in range(a.max() + 1)]
            out = out * np.array(factor)[a]
        return out

    def sample(self, seed, count, shrink):
        return sampling.polydisc_points(seed, count, self.radii, shrink)


@dataclass(frozen=True)
class Product(Domain):
    """Cartesian product of catalog domains; coordinates split factor by factor."""

    factors: tuple[Domain, ...]
    # coordinate slice of each factor; derived, so kept out of ==, hash and repr
    # (moment tables and other caches key on the domain)
    slices: tuple[slice, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.factors) < 1:
            raise ValueError("a product needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))
        stops = tuple(accumulate(f.dim for f in self.factors))
        object.__setattr__(self, "slices", tuple(map(slice, (0,) + stops[:-1], stops)))

    dim = property(lambda self: self.slices[-1].stop)

    def signed(self, coords):
        # complement of a product is the union of "bad slab" cylinders
        return min(f.signed(coords[s]) for f, s in zip(self.factors, self.slices))

    def contains(self, coords):
        return all(f.contains(coords[s]) for f, s in zip(self.factors, self.slices))

    def contains_rows(self, Z):
        return np.all(
            [f.contains_rows(Z[:, s]) for f, s in zip(self.factors, self.slices)], axis=0
        )

    cap_nonempty = _center_inside

    def _max_over_factors(self, name: str) -> Callable:
        """Batch core (Z, X) -> (m,): the max over the factors of their ``name``
        core on their coordinate slice, looked up now, so a factor without one
        refuses the product before its first evaluation."""
        parts = [(formula(f, name), s) for f, s in zip(self.factors, self.slices)]

        def core(Z, X):
            Z = np.atleast_2d(np.asarray(Z, dtype=complex))
            X = np.atleast_2d(np.asarray(X, dtype=complex))
            return np.max(np.stack([c(Z[:, s], X[:, s]) for c, s in parts]), axis=0)

        return core

    distance = property(lambda self: self._max_over_factors("distance"))
    kobayashi = property(lambda self: self._max_over_factors("kobayashi"))


@dataclass(frozen=True)
class BallIntersection(Domain):
    """A base domain cut with an open Euclidean ball (a "cap")."""

    base: Domain
    center: tuple[complex, ...]
    radius: float
    # the center as a read-only array; derived, so kept out of ==, hash and repr
    center_coords: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        coords = as_coords(self.center)
        if not np.isfinite(coords).all():
            raise ValueError("cap center must have finite coordinates")
        if not 0.0 < self.radius < math.inf:
            raise ValueError("cap radius must be finite and positive")
        if len(coords) != self.base.dim:
            raise DimensionMismatchError("cap center has wrong dimension")
        if not self.base.cap_nonempty(coords, self.radius):
            raise EmptyIntersectionError("ball cap has empty interior")
        coords.flags.writeable = False
        object.__setattr__(self, "center", tuple(coords.tolist()))
        object.__setattr__(self, "center_coords", coords)

    dim = property(lambda self: self.base.dim)

    def _from_center(self, coords) -> float:
        return _point_norm([a - b for a, b in zip(coords.tolist(), self.center)])

    def signed(self, coords):
        to_sphere = self.radius - self._from_center(coords)
        # exact for the convex-with-convex intersections in the catalog
        return min(self.base.signed(coords), to_sphere)

    def contains(self, coords):
        return self._from_center(coords) < self.radius and self.base.contains(coords)

    def contains_rows(self, Z):
        cap = _norm(Z - self.center_coords) < self.radius
        return cap & self.base.contains_rows(Z)

    cap_nonempty = _center_inside


@dataclass(frozen=True)
class ReinhardtEllipsoid(Domain):
    """The Reinhardt domain sum_j |z_j|^(2 p_j) < 1 with finite positive exponents."""

    exponents: tuple[float, ...]
    # 2 p_j, the power of each modulus in the sum; derived, so kept out of ==, hash and repr
    doubled: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        exps = tuple(float(p) for p in self.exponents)
        if len(exps) < 1 or not all(0.0 < p < math.inf for p in exps):
            raise ValueError("ellipsoid exponents must be finite and positive")
        object.__setattr__(self, "exponents", exps)
        doubled = 2.0 * np.array(exps)
        doubled.flags.writeable = False
        object.__setattr__(self, "doubled", doubled)

    dim = property(lambda self: len(self.exponents))

    def signed(self, coords):
        return _ellipsoid_delta(self, coords)

    # the boundary distance is a projection, so membership is tested directly;
    # a modulus from 1 on is no member, and its power could overflow
    def contains(self, coords):
        r = np.abs(coords)
        return max(r.tolist()) < 1.0 and float(_across(np.add, r**self.doubled)) < 1.0

    def contains_rows(self, Z):
        return _across(np.add, np.abs(Z) ** self.doubled) < 1.0

    cap_nonempty = _center_inside

    def moments(self, rows):
        return bergman._ellipsoid_moments(self.exponents, rows)


# where each monotone piece of the KKT multiplier is sampled, as a fraction of
# the piece: geometric towards its start, where a point near the boundary puts
# its root (down to 1e-300 for a piece from s = 0), then uniform
_PIECE_GRID = np.concatenate(
    [np.geomspace(1e-300, 1e-17, 30), np.geomspace(1e-16, 1e-2, 15), np.linspace(0.02, 1.0, 50)]
)
_ZERO, _FREE_BUDGET = "zero", "free budget"  # the branches that are no piece


def _ellipsoid_delta(domain: ReinhardtEllipsoid, coords: np.ndarray) -> float:
    """Distance to the complement of a Reinhardt ellipsoid, by an exact projection.

    Exact only for members, as ``_center_inside`` assumes: in two or more
    variables any other point reads 0, no positive value and no NaN.

    Rotation invariance in each coordinate puts the nearest boundary point at
    the same phases as z, so the problem drops to the moduli orthant: minimize
    |s - x| over s >= 0 with sum s_j^(2 p_j) = 1, and as the moduli of the
    complement form an upper set, s >= x.  A minimizer is an axis exit or solves the KKT system
    s_j - x_j = lam * 2 p_j s_j^(2 p_j - 1) with one lam > 0.  On [x_j, 1]
    the multiplier L_j(s) = (s - x_j) / (2 p_j s^(2 p_j - 1)) is monotone, or
    rises then falls (p_j > 1, x_j > 0), so each lam has at most two
    preimages per coordinate; x_j = 0 with p_j > 1/2 adds the branch s_j = 0,
    and p_j = 1 with x_j = 0 is L_j = 1/2 throughout, where s_j takes whatever
    budget the others leave.  Every combination of branches is sampled on a
    merged lam grid, each sign change of sum s_j^(2 p_j) - 1 is polished by
    Newton's method on the KKT system, and the least distance wins.
    """
    p = np.asarray(domain.exponents, dtype=float)
    x = np.abs(coords)
    if len(p) == 1:
        return 1.0 - x[0]  # any single-exponent ellipsoid is the unit disc
    if not domain.contains(coords):
        return 0.0  # the projection below is defined from inside only
    # delta is 1-Lipschitz in the moduli, so moduli below 1e-16 count as 0: for
    # p_j = 1 the multiplier of such a modulus is 1/2 to the last bit anyway
    x = np.where(x < 1e-16, 0.0, x)
    level = x ** (2 * p)
    exits = (1.0 - (_across(np.add, level) - level)) ** (0.5 / p) - x
    best = float(_across(np.minimum, exits))
    branches = []
    for xj, pj in zip(x, p):
        if xj == 0.0 and pj == 1.0:
            branches.append([_ZERO, _FREE_BUDGET])
            continue
        fold = (2 * pj - 1) * xj / (2 * pj - 2) if pj > 1.0 else math.inf
        ends = [xj, fold, 1.0] if xj < fold < 1.0 else [xj, 1.0]
        pieces = [_ZERO] if xj == 0.0 and pj > 0.5 else []
        for a, b in zip(ends, ends[1:]):  # (log lam, s) samples, sorted by lam
            s = a + (b - a) * _PIECE_GRID
            with np.errstate(all="ignore"):  # s^(2 p_j - 1) may under- or overflow
                lam = (s - xj) / (2 * pj * s ** (2 * pj - 1))
            keep = np.isfinite(lam) & (lam > 0.0)
            order = np.argsort(lam[keep])
            loglam, s = np.log(lam[keep][order]), s[keep][order]
            if a == xj > 0.0:  # lam -> 0 as s -> x_j, below the samples' rounding
                loglam, s = np.append(-800.0, loglam), np.append(xj, s)
            pieces.append((loglam, s))
        branches.append(pieces)
    starts, fixed, lam_fixed = [], [], []
    for combo in product(*branches):
        free = [j for j, b in enumerate(combo) if not isinstance(b, str)]
        budget = _FREE_BUDGET in combo  # lam = 1/2, the budget fixes no root
        if not (free or budget):
            continue  # every modulus 0 is no boundary point
        if budget:
            grid = np.array([math.log(0.5)])
        else:
            grid = np.unique(np.concatenate([combo[j][0] for j in free]))
        lo = max((combo[j][0][0] for j in free), default=-math.inf)
        hi = min((combo[j][0][-1] for j in free), default=math.inf)
        grid = grid[(lo <= grid) & (grid <= hi)]
        S = np.zeros((len(grid), len(p)))
        for j in free:
            S[:, j] = np.interp(grid, *combo[j])
        if not budget:
            # bracket sign changes of the constraint and start in between, from
            # both ends' moduli: a piece nearly flat in lam (p_j near 1, x_j
            # near 0) then starts where the constraint puts it
            G = _across(np.add, S ** (2 * p)) - 1.0
            i = np.flatnonzero(G[:-1] * G[1:] <= 0.0)
            t = G[i] / np.where(G[i] == G[i + 1], 1.0, G[i] - G[i + 1])
            grid = grid[i] + t * (grid[i + 1] - grid[i])
            S = S[i] + t[:, None] * (S[i + 1] - S[i])
        starts += [np.append(row, math.exp(g)) for row, g in zip(S, grid)]
        fixed += [[isinstance(b, str) for b in combo]] * len(grid)
        lam_fixed += [budget] * len(grid)
    if starts:
        s, budget = _kkt_polish(x, p, np.array(starts), np.array(fixed), np.array(lam_fixed))
        d2 = _across(np.add, (s - x) ** 2) + budget
        if np.any(np.isfinite(d2)):
            best = min(best, math.sqrt(float(np.nanmin(d2))))
    return best


def _kkt_polish(x, p, start, fixed, lam_fixed):
    """Newton's method on F_j = s_j - x_j - lam g_j, F_n = sum s_j^(2 p_j) - 1,
    with g_j = 2 p_j s_j^(2 p_j - 1), from each row of ``start`` = (s, lam).

    Coordinates marked ``fixed`` stay 0, and rows with ``lam_fixed`` keep lam
    and drop F_n, their fixed coordinates taking the budget the others leave.
    The Jacobian is an arrowhead, diag(a) bordered by -g and g, so each step is
    solved in closed form.  Returns (s, budget) with NaN rows of s for starts
    that did not reach a point with s >= 0 on the boundary.
    """
    s, lam = start[:, :-1].copy(), start[:, -1].copy()
    with np.errstate(all="ignore"):
        for _ in range(50):
            t = np.where(fixed, 1.0, s)  # keeps 0 ** negative off fixed coordinates
            g = np.where(fixed, 0.0, 2 * p * t ** (2 * p - 1))
            F = np.where(fixed, 0.0, s - x - lam[:, None] * g)
            a = np.where(fixed, 1.0, 1.0 - lam[:, None] * g * (2 * p - 1) / t)
            Fn = _across(np.add, s ** (2 * p)) - 1.0
            num, den = _across(np.add, g * F / a), _across(np.add, g * g / a)
            dlam = np.where(lam_fixed, 0.0, (num - Fn) / den)
            ds = (g * dlam[:, None] - F) / a
            s, lam = s + ds, lam + dlam
            if not np.any(np.abs(ds) > 1e-15):  # s <= 1: the next step is rounding
                break
        level = _across(np.add, s ** (2 * p))
        budget = np.where(lam_fixed, 1.0 - level, 0.0)
        ok = (
            _across(np.logical_and, fixed | (s > 0.0))
            & (lam > 0.0)
            & np.where(lam_fixed, budget >= -1e-13, np.abs(level - 1.0) <= 1e-13)
        )
    s[~ok] = np.nan
    return s, np.maximum(budget, 0.0)


# --------------------------------------------------------------------------
# entry points: validated lookups on the catalog classes
# --------------------------------------------------------------------------

def dimension(domain: Domain) -> int:
    return domain.dim


def _coords_in_dim(domain: Domain, z: PointLike) -> np.ndarray:
    coords = as_coords(z)
    if len(coords) != domain.dim:
        raise DimensionMismatchError(f"point has dimension {len(coords)}, domain has {domain.dim}")
    return coords


def contains(domain: Domain, z: PointLike) -> bool:
    """True iff z lies in the open domain; boundary points are excluded."""
    return domain.contains(_coords_in_dim(domain, z))


def member_coords(domain: Domain, z: PointLike, name: str = "point") -> np.ndarray:
    """The coordinates of z; MembershipError unless z lies in the open domain."""
    coords = _coords_in_dim(domain, z)
    if not domain.contains(coords):
        raise MembershipError(f"{name} {coords.tolist()} is not in the domain")
    return coords


def member_point(domain: Domain, z: PointLike, name: str = "point") -> complex:
    """``member_coords`` of a one-dimensional member, as one Python complex.

    A Python number is tested as it is, with no array built: the planar
    members' ``signed`` gives a Python complex the values it gives numpy's, or
    raises OverflowError from Python's abs past the double range.  Any other
    form, a refused number and such an error go to ``member_coords``."""
    if isinstance(z, (complex, float, int)):
        c = complex(z)
        try:
            if domain.contains((c,)):
                return c
        except OverflowError:
            pass
    return complex(member_coords(domain, z, name)[0])


def boundary_distance(domain: Domain, z: PointLike) -> float:
    """Euclidean distance from an interior point to the complement of the domain."""
    return domain.signed(member_coords(domain, z))


def contains_batch(domain: Domain, Z: np.ndarray) -> np.ndarray:
    """Vectorized membership for a batch of points, shape (m, n) -> (m,) bools."""
    return domain.contains_rows(np.atleast_2d(np.asarray(Z, dtype=complex)))


def intersect_with_ball(domain: Domain, center: PointLike, radius: float) -> Domain:
    """Cut a domain with an open ball; the half-plane cut at 0 normalizes to a half-disc."""
    return domain.cap(tuple(as_coords(center).tolist()), radius)


# The closed forms above call the shared kernels of these modules, which import
# names from this one; imported last, they find every name already defined.
from . import bergman, distances, sampling  # noqa: E402
