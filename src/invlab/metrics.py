"""Closed-form infinitesimal metrics on the catalog domains.

A ``FinslerDensity`` packages a nonnegative, absolutely homogeneous function
of (point, tangent vector).  Three families are provided in closed form:

* the Kobayashi density (the hyperbolic density on planar members, the
  standard ball and polydisc formulas, max over factors on products),
* the Bergman metric on disc, ball and polydisc,
* the normalized Bergman metric, the Bergman metric divided by sqrt(n + 1),
  which coincides with the Kobayashi density on the disc and the ball.

Densities evaluate in batch on (m, n) complex arrays for the geodesic solver;
points outside the domain map to +inf, which arithmetic then propagates
(lengths through an outside point are +inf).  The scalar entry points instead
validate membership and raise.

The ball Kobayashi density is computed by differentiating the automorphism
that moves the base point to the origin, where the density of a vector is its
norm; this avoids carrying a separate formula with its own typo risk.  The
half-disc density is the half-plane density pulled back through
((z + 1)/(z - 1))^2 in closed form, free of the cancellation in Im f at the
arc; ``pullback`` works through any ``conformal.ConformalMap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import conformal
from .geometry import (
    Ball,
    Domain,
    HalfDiscScaled,
    HalfPlane,
    MembershipError,
    PointLike,
    Polydisc,
    Product,
    UnitDisc,
    UnsupportedDomainError,
    VectorLike,
    _modulus,
    _norm,
    as_coords,
    contains_batch,
    dimension,
    max_over_factors,
    member_coords,
)

INF = math.inf
NEAR = 2.0**-49  # 8 eps: closer to the boundary, complements are recomputed


@dataclass(frozen=True)
class FinslerDensity:
    """A point-and-vector density with a vectorized evaluation core."""

    source: str
    domain: Optional[Domain]
    core: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(compare=False)

    def evaluate(self, z: PointLike, X: VectorLike) -> float:
        """Scalar evaluation with membership validation."""
        zc = as_coords(z)
        Xc = as_coords(X)
        if len(zc) != len(Xc):
            raise MembershipError("point and vector dimensions differ")
        if self.domain is not None:
            member_coords(self.domain, zc)
        return float(self.core(zc[None, :], Xc[None, :])[0])

    def evaluate_batch(self, Z: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Unvalidated batch evaluation; outside points give +inf."""
        return self.core(np.atleast_2d(Z), np.atleast_2d(X))


def _masked(vals: np.ndarray, inside: np.ndarray) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    return np.where(inside, vals, INF)


def _complement(r2: np.ndarray, Z: np.ndarray, modulus: Callable, radius=1.0) -> np.ndarray:
    """radius^2 - r2 (numpy's |z|^2), positive exactly where ``contains_batch`` accepts:
    within 8 eps of the boundary it is (radius - m)(radius + m), m = modulus(Z)."""
    s = radius**2 - r2
    near = np.abs(s) <= NEAR * radius**2
    if near.any():
        r, m = np.broadcast_to(radius, s.shape)[near], modulus(Z[near])
        s[near] = (r - m) * (r + m)
    return s


def _kobayashi_core(domain: Domain) -> Callable:
    if isinstance(domain, UnitDisc):

        def core(Z, X):
            s = _complement(np.abs(Z[:, 0]) ** 2, Z[:, 0], _modulus)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.abs(X[:, 0]) / s
            return _masked(vals, s > 0.0)

        return core
    if isinstance(domain, HalfPlane):

        def core(Z, X):
            y = Z[:, 0].imag
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.abs(X[:, 0]) / (2.0 * y)
            return _masked(vals, (y > 0.0) & np.isfinite(Z[:, 0]))

        return core
    if isinstance(domain, HalfDiscScaled):
        r = domain.radius

        def core(Z, X):
            # |f'| / (2 Im f) for f = ((z + 1)/(z - 1))^2 at zeta = z / r, with
            # Im f(zeta) = 4 (1 - |zeta|^2) Im zeta / |zeta - 1|^4 in closed form
            s = _complement(np.abs(Z[:, 0]) ** 2, Z[:, 0], _modulus, r)
            zeta = Z[:, 0] / r
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.abs(X[:, 0]) * np.abs(1.0 + zeta) * np.abs(1.0 - zeta)
                vals /= 2.0 * r * zeta.imag * (s / r**2)
            return _masked(vals, (Z[:, 0].imag > 0.0) & (s > 0.0))

        return core
    if isinstance(domain, Ball):

        def core(Z, X):
            nz2 = np.sum(np.abs(Z) ** 2, axis=1)
            s2 = _complement(nz2, Z, _norm)
            ip = np.sum(X * np.conj(Z), axis=1)
            nx2 = np.sum(np.abs(X) ** 2, axis=1)
            # split X along and across z, push through the automorphism derivative
            with np.errstate(divide="ignore", invalid="ignore"):
                p2 = np.where(nz2 > 0.0, np.abs(ip) ** 2 / np.where(nz2 > 0, nz2, 1.0), 0.0)
                q2 = np.maximum(nx2 - p2, 0.0)
                vals = np.sqrt(p2 + s2 * q2) / s2
            return _masked(vals, s2 > 0.0)

        return core
    if isinstance(domain, Polydisc):
        radii = np.asarray(domain.radii)

        def core(Z, X):
            s = _complement(np.abs(Z) ** 2, Z, _modulus, radii)
            with np.errstate(divide="ignore", invalid="ignore"):
                per = radii * np.abs(X) / s
                vals = np.max(per, axis=1)
            return _masked(vals, np.all(s > 0.0, axis=1))

        return core
    if isinstance(domain, Product):
        return max_over_factors(domain, _kobayashi_core)
    raise UnsupportedDomainError(
        f"no closed-form Kobayashi density for {type(domain).__name__}"
    )


def kobayashi_density(domain: Domain) -> FinslerDensity:
    return FinslerDensity("kobayashi", domain, _kobayashi_core(domain))


def bergman_over_kobayashi(domain: Domain) -> Optional[float]:
    """The Bergman metric over the Kobayashi density where the catalog knows it
    to be constant: sqrt(n + 1) on the disc and the ball; None elsewhere."""
    if isinstance(domain, (UnitDisc, Ball)):
        return math.sqrt(dimension(domain) + 1)
    return None


def _bergman_core(domain: Domain) -> Callable:
    scale = bergman_over_kobayashi(domain)
    if scale is not None:
        kob = _kobayashi_core(domain)

        def core(Z, X):
            return scale * kob(Z, X)

        return core
    if isinstance(domain, Polydisc):
        radii = np.asarray(domain.radii)

        def core(Z, X):
            s = _complement(np.abs(Z) ** 2, Z, _modulus, radii)
            with np.errstate(divide="ignore", invalid="ignore"):
                per = 2.0 * (radii * np.abs(X)) ** 2 / s**2
                vals = np.sqrt(np.sum(per, axis=1))
            return _masked(vals, np.all(s > 0.0, axis=1))

        return core
    raise UnsupportedDomainError(
        f"no closed-form Bergman metric for {type(domain).__name__};"
        " use the numeric moment-based route for Reinhardt domains"
    )


def bergman_density(domain: Domain) -> FinslerDensity:
    return FinslerDensity("bergman", domain, _bergman_core(domain))


def normalized_bergman_density(domain: Domain) -> FinslerDensity:
    core = _bergman_core(domain)
    scale = 1.0 / math.sqrt(dimension(domain) + 1)

    def scaled(Z, X):
        return scale * core(Z, X)

    return FinslerDensity("normalized_bergman", domain, scaled)


def pullback(m: conformal.ConformalMap, density: FinslerDensity) -> FinslerDensity:
    """Pull a planar density back through a conformal map: t(z; X) = t(f(z); f'(z) X)."""
    src = m.source

    def core(Z, X):
        z = Z[:, 0]
        if src is not None:
            inside = contains_batch(src, Z)
            zsafe = np.where(inside, z, 0.5j)  # inside every source domain of the catalog
        else:
            inside = np.ones(len(z), dtype=bool)
            zsafe = z
        w = m.image(zsafe)
        d = m.derivative(zsafe) * X[:, 0]
        vals = density.core(w[:, None], d[:, None])
        return _masked(vals, inside)

    return FinslerDensity("pullback", src, core)


def custom_density(
    fn: Callable[[np.ndarray, np.ndarray], float], domain: Optional[Domain] = None
) -> FinslerDensity:
    """Wrap a scalar (coords, components) -> value function; rows are looped."""

    def core(Z, X):
        return np.array([float(fn(z, x)) for z, x in zip(Z, X)])

    return FinslerDensity("custom", domain, core)


# --------------------------------------------------------------------------
# scalar convenience entry points
# --------------------------------------------------------------------------

def kobayashi_royden_density(domain: Domain, z: PointLike, X: VectorLike) -> float:
    return kobayashi_density(domain).evaluate(z, X)


def bergman_metric(domain: Domain, z: PointLike, X: VectorLike) -> float:
    return bergman_density(domain).evaluate(z, X)


def normalized_bergman(domain: Domain, z: PointLike, X: VectorLike) -> float:
    return normalized_bergman_density(domain).evaluate(z, X)


def pullback_density(
    m: conformal.ConformalMap, density: FinslerDensity, z: PointLike, X: VectorLike
) -> float:
    return pullback(m, density).evaluate(z, X)

