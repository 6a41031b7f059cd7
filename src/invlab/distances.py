"""Closed-form invariant distances on the catalog, and the half-disc gap.

Distance convention: on every catalog member the distance is atanh of a
Moebius-invariant ratio m in [0, 1).  On the upper half-plane
m(z, w) = |z - w| / |z - conj w|; on the unit disc it is the classical
pseudohyperbolic ratio |z - w| / |1 - z conj w|; the unit upper half-disc
transfers to the half-plane through f(z) = ((z + 1)/(z - 1))^2; the ball uses
the automorphism moving one point to the origin; polydiscs and products take
the max over factors.

atanh is evaluated as log(1 + m) - log(1 - m^2) / 2, with the complement
1 - m^2 supplied by a cancellation-free closed form per domain:

* half-plane:      1 - m^2 = 4 Im z Im w / |z - conj w|^2
* unit disc:       1 - m^2 = (1 - |z|^2)(1 - |w|^2) / |1 - z conj w|^2
* ball:            1 - m^2 = (1 - |z|^2)(1 - |w|^2) / |1 - <z, w>|^2

(The half-plane complement carries |z - conj w|^2 in the denominator, the
form consistent with m = |z - w| / |z - conj w|; this is pinned by the
brute-force identity test in the suite.)  Ratios within 1e-15 of 1 overflow
to the +inf marker uniformly.

The localization gap on the half-disc splits exactly into two terms:

* a boundary term, log of 1 plus a quantity proportional to Im z Im w, and
* a separation term, -log(1 - |z - w|^2 / |1 - z conj w|^2) / 2,

and ``localization_gap`` computes the gap by both routes (term sum, and
difference of the two distances) with the disagreement stored as a residual.
Sweep tables take the term sum from ``gap_terms_batch`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    Domain,
    HalfDiscScaled,
    PointLike,
    _modulus,
    formula,
    member_coords,
)

OVERFLOW_EDGE = 1.0 - 1e-15


@dataclass(frozen=True)
class DistanceValue:
    """A nonnegative distance (or +inf marker)."""

    value: float


@dataclass(frozen=True)
class GapDecomposition:
    """Two-term split of (half-disc distance) - (half-plane distance)."""

    gap: float
    term_boundary: float
    term_separation: float
    residual: float
    k_local: float
    k_global: float

    def __post_init__(self):
        if abs(self.gap - (self.term_boundary + self.term_separation)) > 1e-12:
            raise ValueError("gap must equal the sum of its two terms")


def _atanh_stable(m, comp):
    """atanh m with the complement 1 - m^2 given in stable form; overflows to +inf."""
    m = np.asarray(m, dtype=float)
    comp = np.asarray(comp, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log1p(m) - 0.5 * np.log(comp)
    return np.where(m >= OVERFLOW_EDGE, math.inf, vals)


# --------------------------------------------------------------------------
# batch cores (plain complex arrays, no validation)
# --------------------------------------------------------------------------

def halfplane_ratio(z, w):
    """m(z, w) = |z - w| / |z - conj w| on the upper half-plane."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return np.abs(z - w) / np.abs(z - np.conj(w))


def halfplane_complement(z, w):
    """1 - m(z, w)^2 in cancellation-free form: 4 Im z Im w / |z - conj w|^2."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return 4.0 * z.imag * w.imag / np.abs(z - np.conj(w)) ** 2


def halfplane_distance_batch(z, w):
    return _atanh_stable(halfplane_ratio(z, w), halfplane_complement(z, w))


def disc_ratio(z, w):
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return np.abs(z - w) / np.abs(1.0 - z * np.conj(w))


def disc_complement(z, w):
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    a2 = np.abs(z) ** 2
    b2 = np.abs(w) ** 2
    return (1.0 - a2) * (1.0 - b2) / np.abs(1.0 - z * np.conj(w)) ** 2


def disc_distance_batch(z, w):
    return _atanh_stable(disc_ratio(z, w), disc_complement(z, w))


def halfdisc_ratio_parts(z, w):
    """(m, 1 - m^2) for the unit upper half-disc, both in stable form.

    The ratio transfers from the half-plane by the factor
    |1 - z w| / |1 - z conj w|, and the complement picks up the disc
    complement of the pair on top of the half-plane complement.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    mu = np.abs(1.0 - z * w) / np.abs(1.0 - z * np.conj(w))
    m = mu * halfplane_ratio(z, w)
    comp = halfplane_complement(z, w) * disc_complement(z, w)
    return m, comp


def halfdisc_distance_batch(z, w, radius: float = 1.0):
    m, comp = halfdisc_ratio_parts(
        np.asarray(z, dtype=complex) / radius, np.asarray(w, dtype=complex) / radius
    )
    return _atanh_stable(m, comp)


def gap_terms_batch(z, w):
    """(boundary term, separation term) of the unit half-disc gap, vectorized."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    zw = np.abs(z - w)
    zwbar = np.abs(z - np.conj(w))
    d1 = np.abs(1.0 - z * w)
    d2 = np.abs(1.0 - z * np.conj(w))
    amount = zw * (z.imag * w.imag / (zw + zwbar)) * 4.0 / ((d1 + d2) * d2)
    t_boundary = np.log1p(amount)
    q = zw**2 / d2**2
    t_separation = -0.5 * np.log1p(-q)
    return t_boundary, t_separation


def ball_distance_batch(Z, W):
    """Ball distances by the automorphism phi_z sending z to 0: m = |phi_z(w)|.

    phi_z(w) = (z - P w - s (w - P w)) / (1 - <w, z>), with P the projection
    onto z and s = sqrt(1 - |z|^2); rows with z = 0 use phi_0(w) = -w.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    W = np.atleast_2d(np.asarray(W, dtype=complex))
    nz2 = np.sum(np.abs(Z) ** 2, axis=1)
    nw2 = np.sum(np.abs(W) ** 2, axis=1)
    ip = np.sum(W * np.conj(Z), axis=1)
    at_origin = nz2 == 0.0
    safe = np.where(at_origin, 1.0, nz2)
    # divide by the real |z|^2 part by part: numpy's complex division rounds
    # through a reciprocal, and in C^1 w - P w cancels to the last bit
    proj = (ip.real / safe + 1j * (ip.imag / safe))[:, None] * Z
    s = np.sqrt(np.maximum(0.0, 1.0 - nz2))[:, None]
    phi = (Z - proj - s * (W - proj)) / (1.0 - ip)[:, None]
    m = np.linalg.norm(np.where(at_origin[:, None], -W, phi), axis=1)
    comp = (1.0 - nz2) * (1.0 - nw2) / np.abs(1.0 - ip) ** 2
    return _atanh_stable(m, comp)


def polydisc_distance_batch(Z, W, radii):
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    W = np.atleast_2d(np.asarray(W, dtype=complex))
    r = np.asarray(radii, dtype=float)
    per = _atanh_stable(disc_ratio(Z / r, W / r), disc_complement(Z / r, W / r))
    return np.max(per, axis=1)


def distance_batch(domain: Domain) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Batch distance evaluator for a catalog domain, (m,n)x(m,n) -> (m,)."""
    return formula(domain, "distance")


# --------------------------------------------------------------------------
# scalar operations (validated)
# --------------------------------------------------------------------------

def kobayashi_distance(domain: Domain, z: PointLike, w: PointLike) -> DistanceValue:
    """Closed-form distance on a catalog domain; +inf marker past the overflow edge."""
    zc = member_coords(domain, z, "z")
    wc = member_coords(domain, w, "w")
    return DistanceValue(float(distance_batch(domain)(zc[None, :], wc[None, :])[0]))


def caratheodory_distance(domain: Domain, z: PointLike, w: PointLike) -> DistanceValue:
    """Sup of pulled-back disc distances; equals the Kobayashi distance on the catalog."""
    return kobayashi_distance(domain, z, w)


def _distinct(z, w):
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if np.any(z == w):
        raise ValueError("leading forms need distinct points")
    return z, w


def gap_term_boundary_leading(z, w):
    """Small-point leading form of the boundary term, for scalars or arrays:
    2 |z - w| Im z Im w / (|z - w| + |z - conj w|)."""
    z, w = _distinct(z, w)
    zw = _modulus(z - w)
    return 2.0 * zw * z.imag * w.imag / (zw + _modulus(z - np.conj(w)))


def gap_term_separation_leading(z, w):
    """Small-point leading form of the separation term, |z - w|^2 / 2, for
    scalars or arrays."""
    z, w = _distinct(z, w)
    return 0.5 * _modulus(z - w) ** 2


def localization_gap(z: complex, w: complex, radius: float = 1.0) -> GapDecomposition:
    """Exact two-term decomposition of k_halfdisc(radius) - k_halfplane.

    The gap is computed both as the sum of the closed-form terms and as the
    difference of the two distances; |sum - difference| is stored as the
    residual so the two routes certify each other.  For radius < 1 the points
    rescale by 1/radius (the half-plane distance is scale invariant).
    """
    dom = HalfDiscScaled(radius)
    member_coords(dom, z, "z")
    member_coords(dom, w, "w")
    zs, ws = complex(z) / radius, complex(w) / radius
    tb, ts = (float(t) for t in gap_terms_batch(zs, ws))
    k_local = float(halfdisc_distance_batch(zs, ws))
    k_global = float(halfplane_distance_batch(complex(z), complex(w)))
    gap = tb + ts
    residual = abs(gap - (k_local - k_global))
    return GapDecomposition(gap, tb, ts, residual, k_local, k_global)
