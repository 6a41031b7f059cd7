"""Invariant infinitesimal metrics on the catalog domains, as Finsler densities.

A ``FinslerDensity`` packages a nonnegative, absolutely homogeneous function
of (point, tangent vector) with a batch core.  Three families come from the
closed forms that the catalog classes in :mod:`invlab.geometry` define:

* the Kobayashi density (the hyperbolic density on planar members, the
  standard ball and polydisc formulas, max over factors on products),
* the Bergman metric on disc, ball and polydisc,
* the normalized Bergman metric, the Bergman metric divided by sqrt(n + 1),
  which coincides with the Kobayashi density on the disc and the ball.

Densities evaluate in batch on (m, n) complex arrays for the geodesic solver;
points outside the domain map to +inf, which arithmetic then propagates
(lengths through an outside point are +inf).  The scalar ``evaluate`` (and
``kobayashi_royden_density``, which calls it) instead validates membership and
raises.  ``pullback`` works through any ``conformal.ConformalMap``, taking the
image and the derivative from one ``jet`` call, so a composition is walked
once per batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import conformal
from .geometry import (
    DimensionMismatchError,
    Domain,
    PointLike,
    VectorLike,
    _masked,
    as_coords,
    contains_batch,
    dimension,
    formula,
    member_coords,
)


@dataclass(frozen=True)
class FinslerDensity:
    """A point-and-vector density with a vectorized evaluation core."""

    source: str
    domain: Optional[Domain]
    core: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(compare=False)

    def evaluate(self, z: PointLike, X: VectorLike) -> float:
        """Scalar evaluation with membership validation."""
        zc = as_coords(z) if self.domain is None else member_coords(self.domain, z)
        Xc = as_coords(X)
        if len(zc) != len(Xc):
            raise DimensionMismatchError("point and vector dimensions differ")
        return float(self.core(zc[None, :], Xc[None, :])[0])

    def evaluate_batch(self, Z: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Unvalidated batch evaluation; outside points give +inf."""
        return self.core(np.atleast_2d(Z), np.atleast_2d(X))


def kobayashi_density(domain: Domain) -> FinslerDensity:
    return FinslerDensity("kobayashi", domain, formula(domain, "kobayashi"))


def bergman_density(domain: Domain) -> FinslerDensity:
    return FinslerDensity("bergman", domain, formula(domain, "bergman"))


def normalized_bergman_density(domain: Domain) -> FinslerDensity:
    core = formula(domain, "bergman")
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
        w, dw = m.jet(zsafe)
        vals = density.core(w[:, None], (dw * X[:, 0])[:, None])
        return _masked(vals, inside)

    return FinslerDensity("pullback", src, core)


def kobayashi_royden_density(domain: Domain, z: PointLike, X: VectorLike) -> float:
    return kobayashi_density(domain).evaluate(z, X)
