"""Planar conformal maps with exact derivatives.

Each map is a frozen descriptor; ``apply`` and ``derivative`` evaluate it and
its complex derivative in closed form.  The catalog is what the distance and
metric transfers need:

* ``Cayley`` sends the unit disc onto the upper half-plane.  The convention is
  pinned to theta(w) = i (1 - w) / (1 + w), so theta(0) = i; any conformal
  choice would do, but one must be fixed for reproducibility.
* ``HalfDiscToHalfPlane`` is f(z) = ((z + 1) / (z - 1))^2, which sends the unit
  upper half-disc onto the upper half-plane, with derivative
  -4 (z + 1) / (z - 1)^3.  Its global inverse needs a square-root branch
  choice, so no inverse descriptor is provided; when tests need preimages they
  run a local complex Newton iteration instead (``invert_by_newton``).

Evaluation cores are plain complex arithmetic, so they accept numpy arrays as
well as scalars; only the scalar entry points validate source-domain
membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .geometry import Domain, HalfDiscScaled, MembershipError, UnitDisc


@dataclass(frozen=True)
class Scale:
    """z -> factor * z with a nonzero complex factor."""

    factor: complex

    def __post_init__(self):
        if self.factor == 0:
            raise ValueError("scale factor must be nonzero")
        object.__setattr__(self, "factor", complex(self.factor))


@dataclass(frozen=True)
class Mobius:
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


@dataclass(frozen=True)
class Cayley:
    """Unit disc onto upper half-plane, w -> i (1 - w) / (1 + w)."""


@dataclass(frozen=True)
class HalfDiscToHalfPlane:
    """Unit upper half-disc onto the upper half-plane, z -> ((z + 1)/(z - 1))^2."""


@dataclass(frozen=True)
class Composition:
    """maps = (g, f) acts as g after f: apply((g, f), z) = g(f(z))."""

    maps: tuple["MapDescriptor", ...]

    def __post_init__(self):
        if len(self.maps) < 1:
            raise ValueError("a composition needs at least one map")
        object.__setattr__(self, "maps", tuple(self.maps))


MapDescriptor = Union[Scale, Mobius, Cayley, HalfDiscToHalfPlane, Composition]


def source_domain(m: MapDescriptor) -> Optional[Domain]:
    """The declared source domain, or None when the map is entire."""
    if isinstance(m, Cayley):
        return UnitDisc()
    if isinstance(m, HalfDiscToHalfPlane):
        return HalfDiscScaled(1.0)
    if isinstance(m, Composition):
        return source_domain(m.maps[-1])
    return None


def _check_source(m: MapDescriptor, z: complex) -> None:
    """Reject points outside the closed source region or at a singularity.

    The catalog maps extend holomorphically across the boundary (away from
    their singular point), so closure points are allowed; this keeps the
    closed forms evaluable at distinguished boundary points while still
    refusing points that are simply out of range.  A composition checks each
    part at the point that part receives.
    """
    if isinstance(m, Composition):
        for part in reversed(m.maps):
            _check_source(part, z)
            z = _apply(part, z)
        return
    if isinstance(m, Mobius):
        if abs(m.c * z + m.d) == 0.0:
            raise MembershipError("point is the pole of the Mobius map")
        return
    if isinstance(m, Cayley):
        if abs(z) > 1.0 or z == -1.0:
            raise MembershipError(f"point {z} is outside the closed unit disc")
        return
    if isinstance(m, HalfDiscToHalfPlane):
        if z.imag < 0.0 or abs(z) > 1.0 or z == 1.0:
            raise MembershipError(f"point {z} is outside the closed upper half-disc")
        return


def _apply(m: MapDescriptor, z):
    if isinstance(m, Scale):
        return m.factor * z
    if isinstance(m, Mobius):
        return (m.a * z + m.b) / (m.c * z + m.d)
    if isinstance(m, Cayley):
        return 1j * (1 - z) / (1 + z)
    if isinstance(m, HalfDiscToHalfPlane):
        return ((z + 1) / (z - 1)) ** 2
    if isinstance(m, Composition):
        for part in reversed(m.maps):
            z = _apply(part, z)
        return z
    raise TypeError(f"unknown map {m!r}")


def _derivative(m: MapDescriptor, z):
    if isinstance(m, Scale):
        return (
            np.full_like(z, m.factor) if isinstance(z, np.ndarray) else m.factor
        )
    if isinstance(m, Mobius):
        det = m.a * m.d - m.b * m.c
        return det / (m.c * z + m.d) ** 2
    if isinstance(m, Cayley):
        return -2j / (1 + z) ** 2
    if isinstance(m, HalfDiscToHalfPlane):
        return -4 * (z + 1) / (z - 1) ** 3
    if isinstance(m, Composition):
        deriv = 1.0 + 0j
        for part in reversed(m.maps):
            deriv = deriv * _derivative(part, z)
            z = _apply(part, z)
        return deriv
    raise TypeError(f"unknown map {m!r}")


def apply(m: MapDescriptor, z: complex) -> complex:
    """Evaluate the map at a point of its source domain."""
    z = complex(z)
    _check_source(m, z)
    return complex(_apply(m, z))


def derivative(m: MapDescriptor, z: complex) -> complex:
    """Complex derivative at a point of the source domain (chain rule for compositions)."""
    z = complex(z)
    _check_source(m, z)
    return complex(_derivative(m, z))


def invert_by_newton(
    m: MapDescriptor, target: complex, seed: complex, tol: float = 1e-14
) -> complex:
    """Local preimage of ``target`` by complex Newton iteration started at ``seed``.

    Convergence is only local; the seed picks the branch.  Raises if the
    iteration stalls or leaves the source domain.
    """
    z = complex(seed)
    for _ in range(100):
        fz = apply(m, z)
        if abs(fz - target) <= tol * max(1.0, abs(target)):
            return z
        z = z - (fz - target) / derivative(m, z)
    raise RuntimeError("Newton inversion did not converge")
