"""Planar conformal maps with exact derivatives.

Each map is a frozen class that defines its own ``image`` and ``derivative``
in closed form, its ``source`` domain (None when the map is entire), and the
``check`` that refuses a point outside that source.  The catalog is what the
distance and metric transfers need:

* ``Cayley`` sends the unit disc onto the upper half-plane.  The convention is
  pinned to theta(w) = i (1 - w) / (1 + w), so theta(0) = i; any conformal
  choice would do, but one must be fixed for reproducibility.
* ``HalfDiscToHalfPlane`` is f(z) = ((z + 1) / (z - 1))^2, which sends the unit
  upper half-disc onto the upper half-plane, with derivative
  -4 (z + 1) / (z - 1)^3.  Its global inverse needs a square-root branch
  choice, so no inverse map is provided; when tests need preimages they
  run a local complex Newton iteration instead (``invert_by_newton``).

``image`` and ``derivative`` are plain complex arithmetic, so they accept
numpy arrays as well as scalars; only the module-level entry points
``apply`` and ``derivative`` validate source-domain membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Domain, HalfDiscScaled, MembershipError, UnitDisc


class ConformalMap:
    """A holomorphic map with closed-form ``image`` and ``derivative``.

    ``check`` allows closure points: the catalog maps extend holomorphically
    across the boundary of their source, away from their singular point, so
    the closed forms stay evaluable at distinguished boundary points.
    """

    source: Optional[Domain] = None  # None: the map is entire

    def check(self, z: complex) -> None:
        """Raise MembershipError unless z lies in the closed source region."""


@dataclass(frozen=True)
class Scale(ConformalMap):
    """z -> factor * z with a nonzero complex factor."""

    factor: complex

    def __post_init__(self):
        if self.factor == 0:
            raise ValueError("scale factor must be nonzero")
        object.__setattr__(self, "factor", complex(self.factor))

    def image(self, z):
        return self.factor * z

    def derivative(self, z):
        return self.factor * np.ones_like(z)


@dataclass(frozen=True)
class Mobius(ConformalMap):
    """z -> (a z + b) / (c z + d) with ad - bc != 0."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.a * self.d - self.b * self.c == 0:
            raise ValueError("degenerate Mobius coefficients (ad - bc = 0)")

    def image(self, z):
        return (self.a * z + self.b) / (self.c * z + self.d)

    def derivative(self, z):
        return (self.a * self.d - self.b * self.c) / (self.c * z + self.d) ** 2

    def check(self, z):
        if abs(self.c * z + self.d) == 0.0:
            raise MembershipError("point is the pole of the Mobius map")


@dataclass(frozen=True)
class Cayley(ConformalMap):
    """Unit disc onto upper half-plane, w -> i (1 - w) / (1 + w)."""

    source = UnitDisc()

    def image(self, z):
        return 1j * (1 - z) / (1 + z)

    def derivative(self, z):
        return -2j / (1 + z) ** 2

    def check(self, z):
        if abs(z) > 1.0 or z == -1.0:
            raise MembershipError(f"point {z} is outside the closed unit disc")


@dataclass(frozen=True)
class HalfDiscToHalfPlane(ConformalMap):
    """Unit upper half-disc onto the upper half-plane, z -> ((z + 1)/(z - 1))^2."""

    source = HalfDiscScaled(1.0)

    def image(self, z):
        return ((z + 1) / (z - 1)) ** 2

    def derivative(self, z):
        return -4 * (z + 1) / (z - 1) ** 3

    def check(self, z):
        if z.imag < 0.0 or abs(z) > 1.0 or z == 1.0:
            raise MembershipError(f"point {z} is outside the closed upper half-disc")


@dataclass(frozen=True)
class Composition(ConformalMap):
    """maps = (g, f) acts as g after f: apply((g, f), z) = g(f(z))."""

    maps: tuple[ConformalMap, ...]

    def __post_init__(self):
        if len(self.maps) < 1:
            raise ValueError("a composition needs at least one map")
        object.__setattr__(self, "maps", tuple(self.maps))

    @property
    def source(self) -> Optional[Domain]:
        return self.maps[-1].source

    def image(self, z):
        for part in reversed(self.maps):
            z = part.image(z)
        return z

    def derivative(self, z):
        deriv = 1.0 + 0j
        for part in reversed(self.maps):
            deriv = deriv * part.derivative(z)
            z = part.image(z)
        return deriv

    def check(self, z):  # each part checks the point that part receives
        for part in reversed(self.maps):
            part.check(z)
            z = part.image(z)


def apply(m: ConformalMap, z: complex) -> complex:
    """Evaluate the map at a point of its source domain."""
    z = complex(z)
    m.check(z)
    return complex(m.image(z))


def derivative(m: ConformalMap, z: complex) -> complex:
    """Complex derivative at a point of the source domain (chain rule for compositions)."""
    z = complex(z)
    m.check(z)
    return complex(m.derivative(z))


NEWTON_TOL = 1e-14  # relative to max(1, |target|)


def invert_by_newton(m: ConformalMap, target: complex, seed: complex) -> complex:
    """Local preimage of ``target`` by complex Newton iteration started at ``seed``.

    Convergence is only local; the seed picks the branch.  Raises if the
    iteration stalls or leaves the source domain.
    """
    z = complex(seed)
    for _ in range(100):
        fz = apply(m, z)
        if abs(fz - target) <= NEWTON_TOL * max(1.0, abs(target)):
            return z
        z = z - (fz - target) / derivative(m, z)
    raise RuntimeError("Newton inversion did not converge")
