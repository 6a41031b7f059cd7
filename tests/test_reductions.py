"""Reductions over the coordinate axis: ``geometry._across`` is numpy's own
reduction bit for bit, so every core routed through it returns the bits it
returned with ``np.sum``/``np.max``/``np.all``/``np.linalg.norm`` over axis 1.
A zero max or min is numpy's by value: numpy's sign for it follows its SIMD
dispatch, and ``_across`` gives the sign of its column chain under both.

Summation order matters only from three coordinates on, which the verify
report, the committed tables and the benchmark never reach; the reference
copies below are those reductions as numpy computes them, checked in three
dimensions, near the boundary included.  They carry their own copy of the
complement in unit coordinates, so a change to ``geometry._complement``
shows here.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from invlab import geometry
from invlab.distances import _atanh_stable, disc_distance_batch, distance_batch
from invlab.geometry import (
    Ball,
    Polydisc,
    Product,
    ReinhardtEllipsoid,
    FEW_ROWS,
    UnitDisc,
    _across,
    _masked,
    _modulus,
    boundary_distance,
    contains,
    contains_batch,
    formula,
)
from invlab.sampling import _unit, ball_points, generator


def _same(a, b) -> bool:
    """Equal dtype, shape and values, NaN equal to NaN and zeros by sign (a
    NaN's sign is no value: numpy's maximum drops it from a NaN that starts a row)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.kind == "c":
        return _same(a.real, b.real) and _same(a.imag, b.imag)
    if a.dtype.kind == "f":
        num = ~np.isnan(a)
        return np.array_equal(a, b, equal_nan=True) and np.array_equal(
            np.signbit(a[num]), np.signbit(b[num])
        )
    return np.array_equal(a, b)


_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 5e-324])
_FLOATS = st.one_of(_SPECIAL, st.floats(allow_nan=True, allow_infinity=True))
_ELEMENTS = {
    "float": _FLOATS,
    "complex": st.builds(complex, _FLOATS, _FLOATS),
    "bool": st.booleans(),
}


def _zero_by_value(a, ufunc):
    """a with +0 for -0 where ``ufunc`` is a max or min, whose zero's sign
    numpy's own reduction takes from its SIMD dispatch."""
    return a + 0.0 if ufunc in (np.maximum, np.minimum) and a.dtype.kind in "fc" else a


@pytest.mark.parametrize(
    "ufunc", [np.add, np.maximum, np.minimum, np.logical_and], ids=lambda u: u.__name__
)
@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(_ELEMENTS)),
    n=st.integers(1, 9),
    rows=st.one_of(st.none(), st.integers(0, 8)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_across_is_numpys_reduction_bit_for_bit(ufunc, kind, n, rows, seed, data):
    shape = (n,) if rows is None else (rows, n)
    # the drawn entries probe the edges; seeded entries of every magnitude,
    # with full mantissas, round differently when added in another order, and
    # make the batch long enough for the column chain
    drawn = data.draw(hnp.arrays(np.dtype(kind), shape, elements=_ELEMENTS[kind], fill=st.nothing()))
    rng = generator(seed)
    seeded = rng.standard_normal((FEW_ROWS, n)) * 10.0 ** rng.integers(-8, 8, (FEW_ROWS, n))
    seeded = {"float": seeded, "complex": seeded + 1j * rng.standard_normal(seeded.shape), "bool": seeded > 0}
    for A in (drawn, np.concatenate([drawn.reshape(-1, n), seeded[kind]])):
        with np.errstate(all="ignore"):
            expected = ufunc.reduce(A, axis=-1)
            got = _across(ufunc, A)
        assert _same(_zero_by_value(got, ufunc), _zero_by_value(expected, ufunc))
        assert not np.shares_memory(got, A)


@pytest.mark.parametrize(
    "ufunc, last, want",
    [(np.maximum, -math.inf, -0.0), (np.minimum, -math.inf, -math.inf),
     (np.maximum, math.inf, math.inf), (np.minimum, math.inf, -0.0)],
    ids=lambda p: getattr(p, "__name__", str(p)),
)
def test_across_gives_a_zero_max_or_min_the_sign_of_its_column_chain(ufunc, last, want):
    # where the row's max or min is a zero, numpy's own reduction gives it +0
    # under its dispatch without AVX-512 and -0 under AVX-512; the column
    # chain gives -0 under both
    A = np.ones((FEW_ROWS, 5))
    A[0] = [0.0, 0.0, 0.0, -0.0, last]
    got = _across(ufunc, A)
    assert _same(got[0], np.float64(want))
    assert _same(_zero_by_value(got, ufunc), _zero_by_value(ufunc.reduce(A, axis=-1), ufunc))


# --------------------------------------------------------------------------
# reference copies of the axis-1 reductions, as numpy computes them
# --------------------------------------------------------------------------

def _ref_norm(Z):
    return np.sqrt(np.add.reduce(Z.real**2 + Z.imag**2, axis=-1))


def _ref_complement(r2, Z, modulus, radius=1.0):
    # 1 - r2 in unit coordinates, ((r - m) / r)((r + m) / r) within 8 eps of the boundary
    s = 1.0 - r2
    near = np.abs(s) <= 2.0**-49
    if near.any():
        r, m = np.broadcast_to(radius, s.shape)[near], modulus(Z[near])
        s[near] = (r - m) / r * ((r + m) / r)
    return s


def _ref_ball_kobayashi(Z, X):
    nz2 = np.sum(np.abs(Z) ** 2, axis=1)
    s2 = _ref_complement(nz2, Z, _ref_norm)
    ip = np.sum(X * np.conj(Z), axis=1)
    nx2 = np.sum(np.abs(X) ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p2 = np.where(nz2 > 0.0, np.abs(ip) ** 2 / np.where(nz2 > 0, nz2, 1.0), 0.0)
        q2 = np.maximum(nx2 - p2, 0.0)
        vals = np.sqrt(p2 + s2 * q2) / s2
    return _masked(vals, s2 > 0.0)


def _ref_ball_distance(Z, W):
    nz2 = np.sum(np.abs(Z) ** 2, axis=1)
    nw2 = np.sum(np.abs(W) ** 2, axis=1)
    ip = np.sum(W * np.conj(Z), axis=1)
    at_origin = nz2 == 0.0
    safe = np.where(at_origin, 1.0, nz2)
    proj = (ip.real / safe + 1j * (ip.imag / safe))[:, None] * Z
    s = np.sqrt(np.maximum(0.0, 1.0 - nz2))[:, None]
    phi = (Z - proj - s * (W - proj)) / (1.0 - ip)[:, None]
    m = np.linalg.norm(np.where(at_origin[:, None], -W, phi), axis=1)
    comp = (1.0 - nz2) * (1.0 - nw2) / np.abs(1.0 - ip) ** 2
    return _atanh_stable(m, comp)


def _ref_polydisc(radii):
    r = np.asarray(radii)
    inv = 1.0 / r

    def contains_rows(Z):
        return np.all(_modulus(Z) < r, axis=1)

    def kobayashi(Z, X):
        s = _ref_complement(np.abs(Z * inv) ** 2, Z, _modulus, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.max(np.abs(X) * inv / s, axis=1)
        return _masked(vals, np.all(s > 0.0, axis=1))

    def bergman(Z, X):
        s = _ref_complement(np.abs(Z * inv) ** 2, Z, _modulus, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.sqrt(np.sum(2.0 * (np.abs(X) * inv) ** 2 / s**2, axis=1))
        return _masked(vals, np.all(s > 0.0, axis=1))

    def distance(Z, W):
        return np.max(disc_distance_batch(Z / r, W / r), axis=1)

    def signed(coords):
        gaps = [rj - abs(c) for c, rj in zip(coords, radii)]
        if all(g > 0.0 for g in gaps):
            return min(gaps)
        return -math.hypot(*(max(0.0, -g) for g in gaps))

    return dict(contains_rows=contains_rows, kobayashi=kobayashi, bergman=bergman,
                distance=distance, boundary_distance=signed)


def _ref_ellipsoid_delta(domain, coords):
    # the projection differs from its axis-1 form in its reductions alone, so
    # its reference is the same code with numpy's own reductions
    with mock.patch.object(geometry, "_across", lambda ufunc, A: ufunc.reduce(A, axis=-1)):
        return geometry._ellipsoid_delta(domain, coords)


_DISC = UnitDisc()
_P3 = (1.0, 2.0, 0.7)
REFERENCES = {
    Ball(3): dict(
        contains_rows=lambda Z: _ref_norm(Z) < 1.0,
        kobayashi=_ref_ball_kobayashi,
        bergman=lambda Z, X: math.sqrt(4) * _ref_ball_kobayashi(Z, X),
        distance=_ref_ball_distance,
        boundary_distance=lambda c: 1.0 - float(_ref_norm(c)),
    ),
    Polydisc((1.0, 0.5, 0.8)): _ref_polydisc((1.0, 0.5, 0.8)),
    ReinhardtEllipsoid(_P3): dict(
        contains_rows=lambda Z: np.sum(np.abs(Z) ** (2 * np.asarray(_P3)), axis=1) < 1.0,
        boundary_distance=lambda c: _ref_ellipsoid_delta(ReinhardtEllipsoid(_P3), c),
    ),
    Product((_DISC, Ball(2))): dict(
        contains_rows=lambda Z: np.all(
            [_DISC.contains_rows(Z[:, :1]), _ref_norm(Z[:, 1:]) < 1.0], axis=0
        ),
        kobayashi=lambda Z, X: np.max(
            np.stack([_DISC.kobayashi(Z[:, :1], X[:, :1]), _ref_ball_kobayashi(Z[:, 1:], X[:, 1:])]),
            axis=0,
        ),
        distance=lambda Z, W: np.max(
            np.stack([_DISC.distance(Z[:, :1], W[:, :1]), _ref_ball_distance(Z[:, 1:], W[:, 1:])]),
            axis=0,
        ),
        boundary_distance=lambda c: min(1.0 - abs(c[0]), 1.0 - float(_ref_norm(c[1:]))),
    ),
}


def _unit_rows(rng, m, n):
    U = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return U / np.linalg.norm(U, axis=1)[:, None]


def _flips(domain, U):
    """Per row of U, the last t with t U inside the domain (bisected from 0 in,
    4 out: every domain here lies in the ball of radius 2 about 0)."""
    lo, hi = np.zeros(len(U)), np.full(len(U), 4.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        inside = contains_batch(domain, mid[:, None] * U)
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return lo


def _points(domain, seed, m):
    """(members, near-outside points), the members half inside at random and
    half within 1e-12 of the boundary."""
    rng = generator(seed)
    U = _unit_rows(rng, 2 * m, domain.dim)
    t = _flips(domain, U)
    d = rng.uniform(0.0, 1e-12, m)
    scale = np.concatenate([t[:m] * rng.uniform(0.0, 1.0, m), t[m:] - d])
    return scale[:, None] * U, (t[m:] + d)[:, None] * U[m:]


@pytest.mark.parametrize("domain", list(REFERENCES), ids=repr)
def test_three_dimensional_cores_keep_their_axis_one_bits(domain):
    ref = REFERENCES[domain]
    members, outside = _points(domain, 3, 40)
    Z = np.concatenate([members, outside])
    X = generator(4).standard_normal(Z.shape) + 1j * generator(5).standard_normal(Z.shape)
    W = members[::-1].copy()
    inside = contains_batch(domain, Z)
    assert inside[: len(members)].all() and 0 < inside.sum() < len(Z)
    assert _same(inside, ref["contains_rows"](Z))
    for name in ("kobayashi", "bergman"):
        if name in ref:
            assert _same(formula(domain, name)(Z, X), ref[name](Z, X)), name
    if "distance" in ref:
        assert _same(distance_batch(domain)(members, W), ref["distance"](members, W))
    for p in members[::4]:
        assert _same(boundary_distance(domain, p), ref["boundary_distance"](p))


def test_ball_sampler_keeps_its_axis_one_bits():
    for n in (2, 3, 4):  # 4: eight real columns, which numpy reduces itself
        rng = generator(9)
        g = rng.standard_normal((500, 2 * n))
        direction = g / np.linalg.norm(g, axis=1, keepdims=True)
        pts = (_unit(rng.random(500)) ** (1.0 / (2 * n)))[:, None] * direction
        assert _same(ball_points(9, 500, n), pts[:, :n] + 1j * pts[:, n:])


MEMBERSHIP_DOMAINS = [
    Ball(2),
    Ball(3),
    Ball(8),  # eight real terms, which numpy sums pairwise for a point too
    Polydisc((1.0, 0.5, 0.8)),
    ReinhardtEllipsoid(_P3),
    Product((_DISC, Ball(2))),
    Ball(2).cap((0.3, 0.1j), 0.9),
    _DISC.cap((0.2 - 0.1j,), 0.5),
]


@pytest.mark.parametrize("domain", MEMBERSHIP_DOMAINS, ids=repr)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_scalar_and_batch_membership_agree_ulps_from_the_boundary(domain, seed):
    U = _unit_rows(generator(seed), 8, domain.dim)
    t = _flips(domain, U)
    steps = [t]
    for _ in range(3):  # up to three ulps either side of the last inside t
        steps = [np.nextafter(steps[0], 0.0)] + steps + [np.nextafter(steps[-1], 4.0)]
    P = (np.stack(steps, axis=1)[..., None] * U[:, None, :]).reshape(-1, domain.dim)
    batch = contains_batch(domain, P)
    assert batch.any() and not batch.all()
    assert batch.tolist() == [contains(domain, p) for p in P]
