"""The batch distance cores make only the passes their formulas need, and the
densities of scaled members are formed in unit coordinates; both return the
bits of their earlier bodies.

The reference copies below are the earlier bodies:

* the half-disc core divided both arrays by its radius, 1.0 included;
* the polydisc core divided its complex arrays by the real radii;
* the ball core selected the origin rows' -w with two whole-array
  ``np.where`` calls;
* the product core stacked its factors' values to take ``np.max`` over them;
* the disc, ball and polydisc densities took the complement r^2 - |z|^2, with
  (r - m)(r + m) within 8 eps r^2 of the boundary, and the polydisc's were
  r |X| / s and sqrt(sum 2 (r |X|)^2 / s^2);
* the half-disc density formed its own 1 - |z / r|^2 and its own 8 eps band.

numpy divides a complex array by a real one through the reciprocal of the
real, so the cores' product with ``1.0 / radius`` agrees with that division
on finite inputs, the sign of a zero aside, which no modulus reads.  Unit
coordinates move no bit at radius 1, nor at a power-of-two radius, which
scales every step exactly.  The copies are compared bit for bit, warnings
included, on the benchmark's members Ball(2), Polydisc((1.0, 0.5)) and
UnitDisc x HalfPlane, on the half-disc at radius 1 and 0.3, and for the
densities also on the disc and Polydisc((0.25, 2.0)): at 1, 2048 and 20,000
rows (numpy elides temporaries from 16,384 rows), on interior rows, rows
within 1e-12 of the boundary, rows in the 8 eps band (some rounding onto or
past the boundary), rows with a real or imaginary part +0 or -0, and, for the
ball's distance, rows at z = 0.
"""

import math
import warnings

import numpy as np
import pytest

from invlab import distances
from invlab.distances import _atanh_stable, distance_batch
from invlab.geometry import (
    Ball,
    HalfDiscScaled,
    HalfPlane,
    Polydisc,
    Product,
    UnitDisc,
    _across,
    _masked,
    _modulus,
    _norm,
    formula,
)

ROWS = (1, 2048, 20_000)
NEAR = ("boundary", "band")  # the families of rows near the boundary


# --------------------------------------------------------------------------
# reference copies: the earlier bodies
# --------------------------------------------------------------------------

def _ref_halfdisc_distance_batch(z, w, radius=1.0):
    z, w = np.asarray(z, dtype=complex) / radius, np.asarray(w, dtype=complex) / radius
    z, w, zw, zwbar, d1, d2 = distances._moduli(z, w)
    disc = distances._disc_comp(np.abs(z) ** 2, np.abs(w) ** 2, d2**2)
    parts = distances._halfplane_parts(z.imag, w.imag, zw, zwbar)
    return _atanh_stable(*distances._halfdisc_parts(*parts, d1, d2, disc))


def _ref_ball_distance_batch(Z, W):
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    W = np.atleast_2d(np.asarray(W, dtype=complex))
    nz2 = _across(np.add, np.abs(Z) ** 2)
    nw2 = _across(np.add, np.abs(W) ** 2)
    ip = _across(np.add, W * np.conj(Z))
    at_origin = nz2 == 0.0
    safe = np.where(at_origin, 1.0, nz2)
    proj = (ip.real / safe + 1j * (ip.imag / safe))[:, None] * Z
    s = np.sqrt(np.maximum(0.0, 1.0 - nz2))[:, None]
    phi = (Z - proj - s * (W - proj)) / (1.0 - ip)[:, None]
    v = np.where(at_origin[:, None], -W, phi)
    m = np.sqrt(_across(np.add, (v.conj() * v).real))
    return _atanh_stable(m, distances._disc_comp(nz2, nw2, np.abs(1.0 - ip) ** 2))


def _ref_polydisc_distance_batch(Z, W, radii):
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    W = np.atleast_2d(np.asarray(W, dtype=complex))
    r = np.asarray(radii, dtype=float)
    return _across(np.maximum, distances.disc_distance_batch(Z / r, W / r))


def _ref_product_distance(domain):
    parts = [(formula(f, "distance"), s) for f, s in zip(domain.factors, domain.slices)]

    def core(Z, X):
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        X = np.atleast_2d(np.asarray(X, dtype=complex))
        return np.max(np.stack([c(Z[:, s], X[:, s]) for c, s in parts]), axis=0)

    return core


def _ref_complement(r2, Z, modulus, radius=1.0):
    s = radius**2 - r2
    near = np.abs(s) <= 2.0**-49 * radius**2
    if near.any():
        r, m = np.broadcast_to(radius, s.shape)[near], modulus(Z[near])
        s[near] = (r - m) * (r + m)
    return s


def _ref_disc_kobayashi(Z, X):
    s = _ref_complement(np.abs(Z[:, 0]) ** 2, Z[:, 0], _modulus)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.abs(X[:, 0]) / s
    return _masked(vals, s > 0.0)


def _ref_ball_kobayashi(Z, X):
    nz2 = _across(np.add, np.abs(Z) ** 2)
    s2 = _ref_complement(nz2, Z, _norm)
    ip = _across(np.add, X * np.conj(Z))
    nx2 = _across(np.add, np.abs(X) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        p2 = np.where(nz2 > 0.0, np.abs(ip) ** 2 / np.where(nz2 > 0, nz2, 1.0), 0.0)
        q2 = np.maximum(nx2 - p2, 0.0)
        vals = np.sqrt(p2 + s2 * q2) / s2
    return _masked(vals, s2 > 0.0)


def _ref_halfdisc_kobayashi(radius):
    def core(Z, X):
        r, z = radius, Z[:, 0]
        zeta = z if r == 1.0 else z * (1.0 / r)
        s = 1.0 - np.abs(zeta) ** 2
        near = np.abs(s) <= 2.0**-49
        if near.any():
            m = _modulus(z[near])
            s[near] = (r - m) / r * ((r + m) / r)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.abs(X[:, 0]) * np.abs(1.0 + zeta) * np.abs(1.0 - zeta)
            vals /= 2.0 * r * zeta.imag * s
        return _masked(vals, (z.imag > 0.0) & (s > 0.0))

    return core


def _ref_polydisc_kobayashi(radii):
    def core(Z, X):
        r = np.asarray(radii)
        s = _ref_complement(np.abs(Z) ** 2, Z, _modulus, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = _across(np.maximum, r * np.abs(X) / s)
        return _masked(vals, _across(np.logical_and, s > 0.0))

    return core


def _ref_polydisc_bergman(radii):
    def core(Z, X):
        r = np.asarray(radii)
        s = _ref_complement(np.abs(Z) ** 2, Z, _modulus, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.sqrt(_across(np.add, 2.0 * (r * np.abs(X)) ** 2 / s**2))
        return _masked(vals, _across(np.logical_and, s > 0.0))

    return core


# --------------------------------------------------------------------------
# inputs: (m, n) member rows of each family
# --------------------------------------------------------------------------

def _disc(rng, m, radius=1.0):
    rho = np.sqrt(rng.uniform(0.0, 1.0, m)) * (1.0 - 1e-9)
    return radius * rho * np.exp(1j * rng.uniform(-math.pi, math.pi, m))


def _gap(rng, m, family):
    """1 - |z| / r of rows near the boundary: within 1e-12, or in the 8 eps band."""
    return rng.uniform(0.0, 2.0**-50, m) if family == "band" else rng.uniform(1e-15, 1e-12, m)


def _circle(rng, m, radius=1.0, family="boundary"):
    rho = 1.0 - _gap(rng, m, family)
    return radius * rho * np.exp(1j * rng.uniform(-math.pi, math.pi, m))


def _upper(z):
    return z.real + 1j * np.abs(z.imag)


def _sphere(rng, m, n, norm):
    U = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return norm[:, None] * U / np.linalg.norm(U, axis=1)[:, None]


def _signed_zeros(rng, Z):
    """Z with one random real or imaginary part of each row set to +0 or -0."""
    Z = Z.copy()
    rows, cols = np.arange(len(Z)), rng.integers(0, Z.shape[1], len(Z))
    zero = np.where(rng.random(len(Z)) < 0.5, 0.0, -0.0)
    part = rng.random(len(Z)) < 0.5
    old = Z[rows, cols]
    Z[rows, cols] = np.where(part, zero + 1j * old.imag, old.real + 1j * zero)
    return Z


def _ball(rng, m, family):
    if family in NEAR:
        return _sphere(rng, m, 2, 1.0 - _gap(rng, m, family))
    Z = _sphere(rng, m, 2, np.sqrt(rng.uniform(0.0, 1.0, m)) * (1.0 - 1e-9))
    if family == "zeros":
        return _signed_zeros(rng, Z)
    if family == "origin":
        # every other row at z = 0, with signed zero parts
        signs = np.where(rng.random((m, 2, 2)) < 0.5, 0.0, -0.0)
        origin = signs[..., 0] + 1j * signs[..., 1]
        return np.where((np.arange(m) % 2 == 0)[:, None], origin, Z)
    return Z


def _polydisc(rng, m, family, radii=(1.0, 0.5)):
    if family in NEAR:
        Z = np.stack([_circle(rng, m, r, family) for r in radii], axis=1)
    else:
        Z = np.stack([_disc(rng, m, r) for r in radii], axis=1)
    return _signed_zeros(rng, Z) if family == "zeros" else Z


def _product(rng, m, family):
    if family in NEAR:
        x = rng.uniform(-2.0, 2.0, m)
        Z = np.stack([_circle(rng, m, 1.0, family), x + 1j * rng.uniform(1e-15, 1e-12, m)], axis=1)
    else:
        y = np.exp(rng.uniform(-3.0, 3.0, m))
        Z = np.stack([_disc(rng, m), rng.uniform(-3.0, 3.0, m) + 1j * y], axis=1)
    return _signed_zeros(rng, Z) if family == "zeros" else Z


def _halfdisc(rng, m, family, radius):
    if family in NEAR:  # half near the arc, half near the real segment
        arc = _upper(_circle(rng, m, radius, family))
        segment = radius * (rng.uniform(-1.0, 1.0, m) + 1j * rng.uniform(1e-15, 1e-12, m))
        Z = np.where(np.arange(m) % 2 == 0, arc, segment)
    else:
        Z = _upper(_disc(rng, m, radius))
    return _signed_zeros(rng, Z[:, None]) if family == "zeros" else Z[:, None]


BALL, POLYDISC, PRODUCT = Ball(2), Polydisc((1.0, 0.5)), Product((UnitDisc(), HalfPlane()))

CASES = {
    "ball": (_ball, distance_batch(BALL), _ref_ball_distance_batch),
    "polydisc": (
        _polydisc,
        distance_batch(POLYDISC),
        lambda Z, W: _ref_polydisc_distance_batch(Z, W, POLYDISC.radii),
    ),
    "product": (_product, distance_batch(PRODUCT), _ref_product_distance(PRODUCT)),
}
for _r in (1.0, 0.3):
    CASES[f"halfdisc-r{_r}"] = (
        lambda rng, m, f, r=_r: _halfdisc(rng, m, f, r),
        lambda Z, W, r=_r: distances.halfdisc_distance_batch(Z[:, 0], W[:, 0], r),
        lambda Z, W, r=_r: _ref_halfdisc_distance_batch(Z[:, 0], W[:, 0], r),
    )

DISC = UnitDisc()
CASES["disc-kobayashi"] = (
    lambda rng, m, f: _polydisc(rng, m, f, (1.0,)), DISC.kobayashi, _ref_disc_kobayashi
)
CASES["ball-kobayashi"] = (_ball, BALL.kobayashi, _ref_ball_kobayashi)
for _r in (1.0, 0.3):
    CASES[f"halfdisc-r{_r}-kobayashi"] = (
        lambda rng, m, f, r=_r: _halfdisc(rng, m, f, r),
        HalfDiscScaled(_r).kobayashi,
        _ref_halfdisc_kobayashi(_r),
    )
for _p in (POLYDISC, Polydisc((0.25, 2.0))):
    for _name, _ref in (("kobayashi", _ref_polydisc_kobayashi), ("bergman", _ref_polydisc_bergman)):
        CASES[f"polydisc{_p.radii}-{_name}"] = (
            lambda rng, m, f, radii=_p.radii: _polydisc(rng, m, f, radii),
            formula(_p, _name),
            _ref(_p.radii),
        )

FAMILIES = ("interior", "boundary", "zeros", "origin", "band")
PARAMS = [
    (name, family, rows)
    for name in CASES
    for family in FAMILIES
    if family != "origin" or name == "ball"
    for rows in ROWS
]


def _same(a, b) -> bool:
    """Equal shape and values, NaN equal to NaN, zeros equal only by sign."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    num = ~np.isnan(a)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(
        np.signbit(a[num]), np.signbit(b[num])
    )


def _recorded(call, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args)
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("name, family, rows", PARAMS, ids=lambda p: str(p))
def test_cores_keep_the_bits_of_their_earlier_passes(name, family, rows):
    points, core, ref = CASES[name]
    seed = 4100 + 10 * list(CASES).index(name) + FAMILIES.index(family)
    rng = np.random.default_rng(seed)
    # a density core reads W as its tangent vector X
    Z, W = points(rng, rows, family), points(rng, rows, family)
    got, got_warned = _recorded(core, Z, W)
    want, want_warned = _recorded(ref, Z, W)
    assert _same(got, want)
    assert got_warned == want_warned
    if family == "origin":
        # the origin rows are -w's distance to 0: atanh |w|
        at = np.flatnonzero(_across(np.add, np.abs(Z) ** 2) == 0.0)
        assert len(at) > 0
        norm = np.sqrt(_across(np.add, np.abs(W[at]) ** 2))
        assert np.allclose(got[at], np.arctanh(norm), rtol=1e-12, atol=0.0)
