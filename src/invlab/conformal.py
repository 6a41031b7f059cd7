"""Planar conformal maps with exact derivatives.

Each map is a frozen class that defines its own ``image`` in closed form,
its ``jet`` (f(z), f'(z)), its ``source`` domain (None when the map is
entire), and the ``check`` that refuses a point outside that source.  The jet
is each map's only derivative, taken in one walk: a ``Composition`` carries
each part's image into the next part while it multiplies the derivatives, and
``Mobius`` and ``HalfDiscToHalfPlane`` form their shared denominators once.
A jet's image is the same expression as ``image``, so the same bits.  The
catalog is what the distance and metric transfers need:

* ``Cayley`` sends the unit disc onto the upper half-plane.  The convention is
  pinned to theta(w) = i (1 - w) / (1 + w), so theta(0) = i; any conformal
  choice would do, but one must be fixed for reproducibility.
* ``HalfDiscToHalfPlane`` is f(z) = ((z + 1) / (z - 1))^2, which sends the unit
  upper half-disc onto the upper half-plane, with derivative
  -4 (z + 1) / (z - 1)^3.  Its global inverse needs a square-root branch
  choice, so no inverse map is provided; when tests need preimages they
  run a local complex Newton iteration instead (``invert_by_newton``).

``image`` and ``jet`` are plain complex arithmetic, so they accept numpy
arrays as well as scalars; only the module-level entry points ``apply``,
``derivative`` and ``invert_by_newton`` validate, refusing a point that is not
finite or lies outside the closed source region (a composition checks the
point each part receives).  Newton checks each iterate once and
takes f and f' from one ``jet``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Domain, HalfDiscScaled, MembershipError, UnitDisc


class ConformalMap:
    """A holomorphic map with closed-form ``image`` and ``jet`` (image and
    derivative, the map's only derivative).

    ``check`` allows closure points: the catalog maps extend holomorphically
    across the boundary of their source, away from their singular point, so
    the closed forms stay evaluable at distinguished boundary points.  Every
    ``check`` refuses a point that is not finite: the base one by name, the
    bounded sources' by testing membership positively, which NaN fails.
    """

    source: Optional[Domain] = None  # None: the map is entire

    def check(self, z: complex) -> None:
        """Raise MembershipError unless z is finite and lies in the closed source region."""
        if not cmath.isfinite(z):
            raise MembershipError(f"point {z} is not finite")


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

    def jet(self, z):
        return self.factor * z, self.factor * np.ones_like(z)


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

    def jet(self, z):
        q = self.c * z + self.d  # q * q: q ** 2 of a huge Python complex raises
        return (self.a * z + self.b) / q, (self.a * self.d - self.b * self.c) / (q * q)

    def check(self, z):
        super().check(z)
        if abs(self.c * z + self.d) == 0.0:
            raise MembershipError("point is the pole of the Mobius map")


@dataclass(frozen=True)
class Cayley(ConformalMap):
    """Unit disc onto upper half-plane, w -> i (1 - w) / (1 + w)."""

    source = UnitDisc()

    def image(self, z):
        return 1j * (1 - z) / (1 + z)

    def jet(self, z):
        return 1j * (1 - z) / (1 + z), -2j / (1 + z) ** 2

    def check(self, z):
        if not (abs(z) <= 1.0 and z != -1.0):  # a positive test, so NaN is refused
            raise MembershipError(f"point {z} is outside the closed unit disc")


@dataclass(frozen=True)
class HalfDiscToHalfPlane(ConformalMap):
    """Unit upper half-disc onto the upper half-plane, z -> ((z + 1)/(z - 1))^2."""

    source = HalfDiscScaled(1.0)

    def image(self, z):
        return ((z + 1) / (z - 1)) ** 2

    def jet(self, z):
        zp, zm = z + 1, z - 1
        return (zp / zm) ** 2, -4 * zp / zm**3

    def check(self, z):
        if not (z.imag >= 0.0 and abs(z) <= 1.0 and z != 1.0):  # a positive test, so NaN is refused
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

    def jet(self, z):
        deriv = 1.0 + 0j
        for part in reversed(self.maps):
            z, d = part.jet(z)
            # +d is a temporary, as a derivative formed apart would be: numpy
            # computes deriv * temporary in place with the operands swapped from
            # 256 KiB on, and a complex product's rounding depends on operand order
            deriv = deriv * +d
        return z, deriv

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
    return complex(m.jet(z)[1])


NEWTON_TOL = 1e-14  # relative to max(1, |target|)


def invert_by_newton(m: ConformalMap, target: complex, seed: complex) -> complex:
    """Local preimage of ``target`` by complex Newton iteration started at ``seed``.

    Convergence is only local; the seed picks the branch.  Raises
    MembershipError when an iterate is not finite or leaves the source domain,
    RuntimeError when the iteration stalls: at a critical point short of the
    target, or after 100 steps.
    """
    z = complex(seed)
    tol = NEWTON_TOL * max(1.0, abs(target))
    for _ in range(100):
        m.check(z)
        fz, dfz = m.jet(z)
        fz, dfz = complex(fz), complex(dfz)
        if abs(fz - target) <= tol:
            return z
        if dfz == 0:
            raise RuntimeError(f"Newton inversion stalled at the critical point {z}")
        z = complex(z - (fz - target) / dfz)
    raise RuntimeError("Newton inversion did not converge")
