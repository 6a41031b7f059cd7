"""Closed-form invariant distances on the catalog, and the half-disc gap.

Distance convention: on every catalog member the distance is atanh of a
Moebius-invariant ratio m in [0, 1).  On the upper half-plane
m(z, w) = |z - w| / |z - conj w|; on the unit disc it is the classical
pseudohyperbolic ratio |z - w| / |1 - z conj w|; the unit upper half-disc
transfers to the half-plane through f(z) = ((z + 1)/(z - 1))^2; the ball uses
the automorphism moving one point to the origin (rows with z = 0 take -w,
written over the automorphism's value only where there are such rows);
polydiscs and products take the max over factors.

A pair of the unit half-disc is not scaled.  Any other scaling to a unit
member (the half-disc of radius r, each polydisc coordinate) is a product with
the reciprocal 1 / radius: numpy divides a complex array by a real one through
that reciprocal, so the bits are those of z / radius, the sign of a zero aside.

atanh is evaluated as log(1 + m) - log(1 - m^2) / 2, with the complement
1 - m^2 supplied by a cancellation-free closed form per domain:

* half-plane:      1 - m^2 = 4 Im z Im w / |z - conj w|^2
* unit disc:       1 - m^2 = (1 - |z|^2)(1 - |w|^2) / |1 - z conj w|^2
* ball:            1 - m^2 = (1 - |z|^2)(1 - |w|^2) / |1 - <z, w>|^2,
                   the disc's body with <z, w> in place of z conj w

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

The planar formula bodies take Im z, Im w, the moduli |z - w|, |z - conj w|,
|1 - z w|, |1 - z conj w|, |z|, |w| and the squares they need as inputs, and
make no transcendental call.  The batch cores feed them arrays, each modulus
formed once per call.  The planar scalar pass feeds them Python floats: it
validates one pair as Python complex numbers, forms the pair's two products
in one ``np.multiply`` call and its six moduli in one ``np.abs`` call on short
stacks, and takes every logarithm of the pair in one ``np.log1p`` and one
``np.log`` call.  ``kobayashi_distance`` on the disc, the half-plane and the
half-discs and ``localization_gap`` run on it.  An elementwise ufunc rounds
alike whatever the length of its array, and Python's float + - * / is numpy's
float64 arithmetic, so the pass, the gap included, returns the bits of the
batch cores on one row: it scales a half-disc pair as they do and squares by
x * x, as np.square does.  The complex products, moduli and logarithms stay
numpy's, whose bits follow its SIMD dispatch.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .geometry import (
    Domain,
    HalfDiscScaled,
    PointLike,
    _across,
    _modulus,
    formula,
    member_coords,
    member_point,
)

OVERFLOW_EDGE = 1.0 - 1e-15
_UNIT_HALFDISC = HalfDiscScaled(1.0)


class DistanceValue(NamedTuple):
    """A nonnegative distance (or +inf marker)."""

    value: float


class GapDecomposition(NamedTuple):
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


def _halfplane_parts(y, v, zw, zwbar):
    """(m, 1 - m^2) on the upper half-plane from Im z = y, Im w = v, |z - w| and
    |z - conj w|."""
    return zw / zwbar, (2.0 * y / zwbar) * (2.0 * v / zwbar)


def _disc_comp(az2, aw2, d2_2):
    """1 - m^2 on the unit disc from |z|^2, |w|^2 and |1 - z conj w|^2."""
    return (1.0 - az2) * (1.0 - aw2) / d2_2


def _halfdisc_parts(m, comp, d1, d2, disc_comp):
    """(m, 1 - m^2) on the unit upper half-disc from the half-plane's m, comp:
    the ratio transfers by the factor |1 - z w| / |1 - z conj w|, and the
    complement picks up the disc complement of the pair."""
    return d1 / d2 * m, comp * disc_comp


def _gap_terms(y, v, zw, zwbar, d1, d2, zw2, d2_2):
    """(a, -q) of the unit half-disc gap, from Im z, Im w, the moduli and the
    squares |z - w|^2, |1 - z conj w|^2: the boundary term is log1p(a), the
    separation term -log1p(-q) / 2."""
    amount = zw * (y * v / (zw + zwbar)) * 4.0 / ((d1 + d2) * d2)
    return amount, -(zw2 / d2_2)


def halfplane_distance_batch(z, w):
    z, w, zw, zwbar = _halfplane_moduli(z, w)
    return _atanh_stable(*_halfplane_parts(z.imag, w.imag, zw, zwbar))


def disc_distance_batch(z, w):
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    d2 = np.abs(1.0 - z * np.conj(w))
    return _atanh_stable(np.abs(z - w) / d2, _disc_comp(np.abs(z) ** 2, np.abs(w) ** 2, d2**2))


def halfdisc_distance_batch(z, w, radius: float = 1.0):
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    if radius != 1.0:
        s = 1.0 / radius
        z, w = z * s, w * s
    z, w, zw, zwbar, d1, d2 = _moduli(z, w)
    disc = _disc_comp(np.abs(z) ** 2, np.abs(w) ** 2, d2**2)
    return _atanh_stable(*_halfdisc_parts(*_halfplane_parts(z.imag, w.imag, zw, zwbar), d1, d2, disc))


def gap_terms_batch(z, w):
    """(boundary term, separation term) of the unit half-disc gap, vectorized."""
    z, w, zw, zwbar, d1, d2 = _moduli(z, w)
    amount, neg_q = _gap_terms(z.imag, w.imag, zw, zwbar, d1, d2, zw**2, d2**2)
    return np.log1p(amount), -0.5 * np.log1p(neg_q)


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
    origin = at_origin.any()
    safe = np.where(at_origin, 1.0, nz2) if origin else nz2
    # divide by the real |z|^2 part by part: numpy's complex division rounds
    # through a reciprocal, and in C^1 w - P w cancels to the last bit
    proj = (ip.real / safe + 1j * (ip.imag / safe))[:, None] * Z
    s = np.sqrt(np.maximum(0.0, 1.0 - nz2))[:, None]
    phi = (Z - proj - s * (W - proj)) / (1.0 - ip)[:, None]
    if origin:
        phi[at_origin] = -W[at_origin]
    m = np.sqrt(_across(np.add, (phi.conj() * phi).real))
    return _atanh_stable(m, _disc_comp(nz2, nw2, np.abs(1.0 - ip) ** 2))


def polydisc_distance_batch(Z, W, radii):
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    W = np.atleast_2d(np.asarray(W, dtype=complex))
    s = 1.0 / np.asarray(radii, dtype=float)
    return _across(np.maximum, disc_distance_batch(Z * s, W * s))


def distance_batch(domain: Domain) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Batch distance evaluator for a catalog domain, (m,n)x(m,n) -> (m,)."""
    return formula(domain, "distance")


# --------------------------------------------------------------------------
# the planar scalar pass (one validated pair of Python complex numbers)
# --------------------------------------------------------------------------
# Python floats overflow silently or raise on a division by zero where numpy
# warns, so the pass declines the pairs on which that could happen: bounded
# pairs with |1 - z conj w| at most 1/SAFE, half-plane pairs with
# |z - conj w| from SAFE on.  numpy's arithmetic takes those.

SAFE = 2.0**500  # within [1/SAFE, SAFE] no product or quotient of the pass overflows


def _pair_moduli(z: complex, w: complex, *more: complex) -> list:
    """|z - w|, |z - conj w|, |1 - z w|, |1 - z conj w|, |z|, |w| and the
    moduli of ``more``, for a pair of a bounded member."""
    wb = w.conjugate()
    p, pb = np.multiply(np.array([z, z]), np.array([w, wb])).tolist()
    return np.abs(np.array([z - w, z - wb, 1.0 - p, 1.0 - pb, z, w, *more])).tolist()


def _logs(args: list, pairs: list) -> tuple[list, list]:
    """np.log1p of each of ``args``, which warns as the batch cores' does, and
    ``_atanh_stable`` of each (m, 1 - m^2) of ``pairs``, which, like it, never
    warns: Python floats from one np.log1p and one np.log call."""
    ms = [m for m, _ in pairs]
    comps = [1.0 if m >= OVERFLOW_EDGE else c for m, c in pairs]  # +inf needs no log
    logs = np.log1p(np.array(args + ms)).tolist()
    if min(comps) > 0.0:  # min is NaN or at most 0 wherever some log would warn
        log_comps = np.log(np.array(comps)).tolist()
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            log_comps = np.log(np.array(comps)).tolist()
    n = len(args)
    atanh = [math.inf if m >= OVERFLOW_EDGE else a - 0.5 * c for m, a, c in zip(ms, logs[n:], log_comps)]
    return logs[:n], atanh


def _atanh_pair(m, comp) -> float:
    return _logs([], [(m, comp)])[1][0]


def disc_distance_pair(z: complex, w: complex) -> float | None:
    """``disc_distance_batch`` of one pair by the scalar pass; None where it declines."""
    zw, _, _, d2, az, aw = _pair_moduli(z, w)
    if not d2 > 1.0 / SAFE:
        return None
    return _atanh_pair(zw / d2, _disc_comp(az * az, aw * aw, d2 * d2))


def halfplane_distance_pair(z: complex, w: complex) -> float | None:
    """``halfplane_distance_batch`` of one pair by the scalar pass; None where
    it declines.  It forms no product, which could overflow on this member."""
    zw, zwbar = np.abs(np.array([z - w, z - w.conjugate()])).tolist()
    if not zwbar < SAFE:
        return None
    return _atanh_pair(*_halfplane_parts(z.imag, w.imag, zw, zwbar))


def halfdisc_distance_pair(z: complex, w: complex, radius: float = 1.0) -> float | None:
    """``halfdisc_distance_batch`` of one pair by the scalar pass; None where it declines."""
    if radius != 1.0:  # as the batch core scales
        s = 1.0 / radius
        z, w = z * s, w * s
    zw, zwbar, d1, d2, az, aw = _pair_moduli(z, w)
    if not d2 > 1.0 / SAFE:
        return None
    parts = _halfplane_parts(z.imag, w.imag, zw, zwbar)
    return _atanh_pair(*_halfdisc_parts(*parts, d1, d2, _disc_comp(az * az, aw * aw, d2 * d2)))


# --------------------------------------------------------------------------
# scalar operations (validated)
# --------------------------------------------------------------------------

def kobayashi_distance(domain: Domain, z: PointLike, w: PointLike) -> DistanceValue:
    """Closed-form distance on a catalog domain; +inf marker past the overflow edge.

    A planar member's ``distance_pair`` takes the pair by the scalar pass; every
    other pair, and one the pass declines, runs through the batch core as one row.
    """
    pair = getattr(domain, "distance_pair", None)
    if pair is None:
        zc, wc = member_coords(domain, z, "z"), member_coords(domain, w, "w")
    else:
        z, w = member_point(domain, z, "z"), member_point(domain, w, "w")
        value = pair(z, w)
        if value is not None:
            return DistanceValue(value)
        zc, wc = np.array([z]), np.array([w])
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


def localization_gap(z: PointLike, w: PointLike, radius: float = 1.0) -> GapDecomposition:
    """Exact two-term decomposition of k_halfdisc(radius) - k_halfplane.

    The gap is computed both as the sum of the closed-form terms and as the
    difference of the two distances; |sum - difference| is stored as the
    residual so the two routes certify each other.  For radius < 1 the points
    rescale by 1/radius (the half-plane distance is scale invariant).
    The pass is the planar scalar pass; where it declines, its arithmetic
    runs on numpy scalars, which keep numpy's inf, NaN and warnings.
    """
    dom = _UNIT_HALFDISC if radius == 1.0 else HalfDiscScaled(radius)
    z, w = member_point(dom, z, "z"), member_point(dom, w, "w")
    zs, ws, unscaled = z, w, ()
    if radius != 1.0:  # as the batch core scales
        s = 1.0 / radius
        # the half-plane distance is that of the unscaled pair
        zs, ws, unscaled = z * s, w * s, (z - w, z - w.conjugate())
    moduli = _pair_moduli(zs, ws, *unscaled)
    if not moduli[3] > 1.0 / SAFE:  # declined: numpy scalars
        moduli = list(np.array(moduli))
    zw, zwbar, d1, d2, az, aw, *rest = moduli
    local = _halfplane_parts(zs.imag, ws.imag, zw, zwbar)
    glob = _halfplane_parts(z.imag, w.imag, *rest) if rest else local
    disc = _disc_comp(az * az, aw * aw, d2 * d2)
    (tb, log_sep), (k_local, k_global) = _logs(
        list(_gap_terms(zs.imag, ws.imag, zw, zwbar, d1, d2, zw * zw, d2 * d2)),
        [_halfdisc_parts(*local, d1, d2, disc), glob],
    )
    ts = -0.5 * log_sep
    gap = tb + ts
    residual = abs(gap - (k_local - k_global))
    return GapDecomposition(gap, tb, ts, residual, k_local, k_global)
