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
brute-force identity test in the suite.)  It is evaluated as
(2 Im z / |z - conj w|)(2 Im w / |z - conj w|), whose factors lie in (0, 2):
no square is formed, so no member pair gives 0/0 or inf/inf (up to moduli of
half the largest double), and the bits do not move under z, w -> 2^k z, 2^k w
while the moduli stay normal.  Ratios within 1e-15 of 1 overflow to the +inf
marker uniformly.

The localization gap on the half-disc splits exactly into two terms:

* a boundary term, log of 1 plus a quantity proportional to Im z Im w, and
* a separation term, -log(1 - |z - w|^2 / |1 - z conj w|^2) / 2,

and ``localization_gap`` computes the gap by both routes (term sum, and
difference of the two distances) with the disagreement stored as a residual.
Sweep tables take the term sum from ``gap_terms_batch`` alone.

Every planar formula takes its moduli |z - w|, |z - conj w|, |1 - z w| and
|1 - z conj w| as inputs, each formed once per call; ``localization_gap``
validates its points, then makes one pass: moduli, terms, k_local, k_global.
That pass runs on numpy scalars and returns the batch cores' bits: complex
subtraction and conjugation are exact in scalar math, while the complex
modulus, product and logarithms stay ufunc calls (``np.abs``, ``np.multiply``,
``np.log1p``, ``np.log``), whose scalar forms round otherwise.
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
    _across,
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


def _atanh_stable(m, comp):
    """atanh m with the complement 1 - m^2 given in stable form; overflows to +inf."""
    m = np.asarray(m, dtype=float)
    comp = np.asarray(comp, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log1p(m, out=np.empty(m.shape))  # an array, even for a 0-d m
        vals -= 0.5 * np.log(comp)
    vals[m >= OVERFLOW_EDGE] = math.inf
    return vals


def _atanh_scalar(m, comp) -> float:
    """``_atanh_stable`` of one numpy-scalar pair, same bits, without its arrays."""
    if m < OVERFLOW_EDGE and comp > 0:
        return float(np.log1p(m) - 0.5 * np.log(comp))
    return float(_atanh_stable(m, comp))


# --------------------------------------------------------------------------
# batch cores (plain complex arrays, no validation)
# --------------------------------------------------------------------------
# Each modulus is formed once per call and passed to the formulas reading it.
# z * np.conj(w) stays inline: from 16384 rows numpy multiplies into the
# conjugate's temporary as conj(w) * z, which rounds otherwise than z * wb.

def _halfplane_moduli(z, w):
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    return z, w, np.abs(z - w), np.abs(z - np.conj(w))


def _moduli(z, w):
    z, w, zw, zwbar = _halfplane_moduli(z, w)
    return z, w, zw, zwbar, np.abs(1.0 - z * w), np.abs(1.0 - z * np.conj(w))


def _halfplane_parts(z, w, zw, zwbar):
    return zw / zwbar, (2.0 * z.imag / zwbar) * (2.0 * w.imag / zwbar)


def _disc_comp(z, w, d2):
    return (1.0 - np.abs(z) ** 2) * (1.0 - np.abs(w) ** 2) / d2**2


def _halfdisc_parts(z, w, m, comp, d1, d2):
    """(m, 1 - m^2) on the unit upper half-disc from the half-plane's m, comp:
    the ratio transfers by the factor |1 - z w| / |1 - z conj w|, and the
    complement picks up the disc complement of the pair."""
    return d1 / d2 * m, comp * _disc_comp(z, w, d2)


def _gap_terms(z, w, zw, zwbar, d1, d2):
    amount = zw * (z.imag * w.imag / (zw + zwbar)) * 4.0 / ((d1 + d2) * d2)
    t_boundary = np.log1p(amount)
    q = zw**2 / d2**2
    t_separation = -0.5 * np.log1p(-q)
    return t_boundary, t_separation


def halfplane_distance_batch(z, w):
    return _atanh_stable(*_halfplane_parts(*_halfplane_moduli(z, w)))


def disc_distance_batch(z, w):
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    d2 = np.abs(1.0 - z * np.conj(w))
    return _atanh_stable(np.abs(z - w) / d2, _disc_comp(z, w, d2))


def halfdisc_distance_batch(z, w, radius: float = 1.0):
    z, w = np.asarray(z, dtype=complex) / radius, np.asarray(w, dtype=complex) / radius
    z, w, zw, zwbar, d1, d2 = _moduli(z, w)
    return _atanh_stable(*_halfdisc_parts(z, w, *_halfplane_parts(z, w, zw, zwbar), d1, d2))


def gap_terms_batch(z, w):
    """(boundary term, separation term) of the unit half-disc gap, vectorized."""
    return _gap_terms(*_moduli(z, w))


def ball_distance_batch(Z, W):
    """Ball distances by the automorphism phi_z sending z to 0: m = |phi_z(w)|.

    phi_z(w) = (z - P w - s (w - P w)) / (1 - <w, z>), with P the projection
    onto z and s = sqrt(1 - |z|^2); rows with z = 0 use phi_0(w) = -w.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    W = np.atleast_2d(np.asarray(W, dtype=complex))
    nz2 = _across(np.add, np.abs(Z) ** 2)
    nw2 = _across(np.add, np.abs(W) ** 2)
    ip = _across(np.add, W * np.conj(Z))
    at_origin = nz2 == 0.0
    safe = np.where(at_origin, 1.0, nz2)
    # divide by the real |z|^2 part by part: numpy's complex division rounds
    # through a reciprocal, and in C^1 w - P w cancels to the last bit
    proj = (ip.real / safe + 1j * (ip.imag / safe))[:, None] * Z
    s = np.sqrt(np.maximum(0.0, 1.0 - nz2))[:, None]
    phi = (Z - proj - s * (W - proj)) / (1.0 - ip)[:, None]
    v = np.where(at_origin[:, None], -W, phi)
    m = np.sqrt(_across(np.add, (v.conj() * v).real))
    comp = (1.0 - nz2) * (1.0 - nw2) / np.abs(1.0 - ip) ** 2
    return _atanh_stable(m, comp)


def polydisc_distance_batch(Z, W, radii):
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    W = np.atleast_2d(np.asarray(W, dtype=complex))
    r = np.asarray(radii, dtype=float)
    return _across(np.maximum, disc_distance_batch(Z / r, W / r))


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


def _scalar_pair(z: complex, w: complex):
    """(z, w, conj w, |z - w|, |z - conj w|) on numpy scalars, the bits of
    ``_halfplane_moduli`` on 0-d arrays."""
    z, w = np.complex128(z), np.complex128(w)
    wb = w.conjugate()
    return z, w, wb, np.abs(z - w), np.abs(z - wb)


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


def localization_gap(z: PointLike, w: PointLike, radius: float = 1.0) -> GapDecomposition:
    """Exact two-term decomposition of k_halfdisc(radius) - k_halfplane.

    The gap is computed both as the sum of the closed-form terms and as the
    difference of the two distances; |sum - difference| is stored as the
    residual so the two routes certify each other.  For radius < 1 the points
    rescale by 1/radius (the half-plane distance is scale invariant).
    The pass runs on numpy scalars, with the batch cores' bits.
    """
    dom = HalfDiscScaled(radius)
    z = complex(member_coords(dom, z, "z")[0])
    w = complex(member_coords(dom, w, "w")[0])
    zs, ws, wsb, zw, zwbar = _scalar_pair(z / radius, w / radius)
    d1, d2 = np.abs(1.0 - np.multiply(zs, ws)), np.abs(1.0 - np.multiply(zs, wsb))
    tb, ts = (float(t) for t in _gap_terms(zs, ws, zw, zwbar, d1, d2))
    halfplane = _halfplane_parts(zs, ws, zw, zwbar)
    k_local = _atanh_scalar(*_halfdisc_parts(zs, ws, *halfplane, d1, d2))
    if radius != 1.0:  # the half-plane distance is that of the unscaled pair
        z, w, _, zw, zwbar = _scalar_pair(z, w)
        halfplane = _halfplane_parts(z, w, zw, zwbar)
    k_global = _atanh_scalar(*halfplane)
    gap = tb + ts
    residual = abs(gap - (k_local - k_global))
    return GapDecomposition(gap, tb, ts, residual, k_local, k_global)
