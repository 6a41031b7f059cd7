"""Warm Bergman reads keep their bits: the series core builds its products in
place and sums them with ``np.add.reduce``, the tail counts only the rows of
the top five degrees and takes its ratios in Python floats, the metric forms
its five stencil points as one broadcast, and an ellipsoid tests membership
with exponents doubled once, when it is made.

The reference copies below are the earlier bodies: fresh products summed by
``np.sum``, a bincount over every degree with a masked ratio, the stencil rows
stacked from a list, and ellipsoid membership that doubles the exponents on
every call.  They are checked on the metric domains and Ball(3) at N = 0 to 5,
12 and 20, and 50 on the disc; below N = 4 there are fewer than five degree
sums for the tail.  The points are the origin, points with one zero
coordinate, points with moduli near 1e-160, points within an ulp and within
1e-9 of the boundary, and seeded interior points.  Every float is compared by
its hex and every refusal by its type.
"""

import math

import numpy as np
import pytest

from invlab import bergman
from invlab.bergman import KernelResult, bergman_kernel_diag, bergman_metric_numeric, moment_table
from invlab.geometry import (
    Ball,
    DimensionMismatchError,
    MembershipError,
    Polydisc,
    ReinhardtEllipsoid,
    UnitDisc,
    _across,
    as_coords,
    contains_batch,
    member_coords,
)

METRIC_DOMAINS = [
    UnitDisc(),
    Ball(2),
    Polydisc((0.7, 1.3)),
    ReinhardtEllipsoid((1.0, 2.0)),
    ReinhardtEllipsoid((0.6, 2.7)),
    ReinhardtEllipsoid((2.5, 1.5)),
    ReinhardtEllipsoid((0.4, 1.0)),
    ReinhardtEllipsoid((1.0, 1.0)),
]
DEGREES = (0, 1, 2, 3, 4, 5, 12, 20)
CASES = [(d, N) for d in METRIC_DOMAINS + [Ball(3)] for N in DEGREES] + [(UnitDisc(), 50)]


# --------------------------------------------------------------------------
# reference copies: the earlier bodies
# --------------------------------------------------------------------------

def _ref_contains(domain, coords):
    if isinstance(domain, ReinhardtEllipsoid):
        return float(_across(np.add, np.abs(coords) ** (2 * np.asarray(domain.exponents)))) < 1.0
    return domain.contains(coords)


def _ref_contains_rows(domain, Z):
    if isinstance(domain, ReinhardtEllipsoid):
        return _across(np.add, np.abs(Z) ** (2 * np.asarray(domain.exponents))) < 1.0
    return domain.contains_rows(Z)


def _ref_member_coords(domain, z):
    coords = as_coords(z)
    if len(coords) != domain.dim:
        raise DimensionMismatchError(f"point has dimension {len(coords)}, domain has {domain.dim}")
    if not _ref_contains(domain, coords):
        raise MembershipError(f"point {coords.tolist()} is not in the domain")
    return coords


def _ref_kernel_rows(table, P):
    """(series terms, truncated kernel diagonal), one row per point of P."""
    r2 = np.abs(P) ** 2
    terms = r2[:, 0, None] ** table.alphas[:, 0]
    for j in range(1, P.shape[1]):
        terms = terms * r2[:, j, None] ** table.alphas[:, j]
    terms = terms * table.inv_moments
    return terms, np.sum(terms, axis=1)


def _ref_kernel_diag(domain, z, N):
    coords = _ref_member_coords(domain, z)
    table = moment_table(domain, N)
    terms, sums = _ref_kernel_rows(table, coords[None, :])
    kernel = float(sums[0])
    tail = 0.0
    last = np.bincount(table.degrees, weights=terms[0])[-5:]
    if last[-1] > 0.0:
        ratios = np.divide(last[1:], last[:-1], out=np.zeros(len(last) - 1), where=last[:-1] > 0.0)
        r = max(ratios.tolist(), default=0.0)
        tail = math.inf if r >= 1.0 else float(last[-1] * r / (1.0 - r))
    return KernelResult(kernel, math.sqrt(kernel), tail)


def _ref_metric_numeric(domain, z, X, N, h=1e-3):
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"stencil step h must be finite and positive, got {h!r}")
    coords = _ref_member_coords(domain, z)
    vec = as_coords(X)
    if len(coords) != len(vec):
        raise DimensionMismatchError("point and vector dimensions differ")
    table = moment_table(domain, N)
    if not vec.any():
        return 0.0
    rows = [coords]
    for unit in (1.0, 1j):
        step = h * unit * vec
        rows += [coords + step, coords - step]
    stencil = np.stack(rows)
    if not _ref_contains_rows(domain, stencil).all():
        raise MembershipError(f"a point of the difference stencil with step {h:g} leaves the domain")
    logk = [math.log(k) for k in _ref_kernel_rows(table, stencil)[1]]
    quad_form = 0.0
    for i in (1, 3):
        quad_form += logk[i] + logk[i + 1] - 2.0 * logk[0]
    quad_form /= 4.0 * h * h
    if quad_form <= 0.0:
        raise ValueError("log-kernel Hessian is not positive here; increase the truncation degree")
    return math.sqrt(quad_form)


# --------------------------------------------------------------------------
# inputs and comparison
# --------------------------------------------------------------------------

def _edge(domain, u):
    """The last member on the ray t u by bisection on t, a point within an ulp
    of the boundary, and that point pulled in by 1e-9."""
    lo, hi = 0.0, 1.0
    while _ref_contains(domain, hi * u):
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if _ref_contains(domain, mid * u) else (lo, mid)
    return [lo * u, (lo * (1.0 - 1e-9)) * u]


def _points(domain, rng):
    n = domain.dim
    pts = [np.zeros(n, dtype=complex)]
    for _ in range(3):
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        pts += _edge(domain, u)
        pts.append(1e-160 * u / np.abs(u).max())
        if n > 1:
            pts.append(_edge(domain, np.where(np.arange(n) == rng.integers(n), 0.0, u))[1])
            mixed = 0.5 * pts[-1]
            mixed[rng.integers(n)] = 1e-160 * (1 + 1j)
            pts.append(mixed)
    for _ in range(10):
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        pts.append(_edge(domain, u)[0] * rng.uniform(0.0, 1.0))
    return pts


def _outcome(f, *args):
    try:
        out = f(*args)
    except ValueError as exc:  # the invlab errors are ValueErrors
        return type(exc)
    fields = (out.kernel_diag, out.kernel_sqrt, out.tail_estimate) if isinstance(out, KernelResult) else (out,)
    return [(type(x).__name__, float.hex(x)) for x in fields]


# --------------------------------------------------------------------------
# tests
# --------------------------------------------------------------------------

@pytest.mark.parametrize("domain, N", CASES, ids=repr)
def test_kernel_and_metric_keep_their_bits(domain, N):
    rng = np.random.default_rng([2525, CASES.index((domain, N))])
    n = domain.dim
    refused = 0
    for z in _points(domain, rng):
        assert _ref_contains(domain, z)
        want = _outcome(_ref_kernel_diag, domain, z, N)
        assert _outcome(bergman_kernel_diag, domain, z, N) == want, z
        X = rng.normal(size=n) + 1j * rng.normal(size=n)
        for h in (1e-3, 10.0 ** rng.uniform(-6.0, -0.5)):
            want = _outcome(_ref_metric_numeric, domain, z, X, N, h)
            assert _outcome(bergman_metric_numeric, domain, z, X, N, h) == want, (z, X, h)
            refused += isinstance(want, type)
    assert refused > 0
    z = _points(domain, rng)[-1]
    for X in (np.zeros(n), np.ones(n + 1), np.full(n, 1e30), np.full(n, 1e-300j)):
        want = _outcome(_ref_metric_numeric, domain, z, X, N)
        assert _outcome(bergman_metric_numeric, domain, z, X, N) == want, X
    outside = np.full(n, 1.0 + max(getattr(domain, "radii", (1.0,))))
    for args in ((outside, N), (np.zeros(n + 1), N), (z, -1), (z, 2.5)):
        assert _outcome(bergman_kernel_diag, domain, *args) == _outcome(_ref_kernel_diag, domain, *args)


@pytest.mark.parametrize("domain, N", [c for c in CASES if c[1] in (5, 20)], ids=repr)
def test_series_core_keeps_its_bits_on_a_batch(domain, N):
    rng = np.random.default_rng([2526, CASES.index((domain, N))])
    table = moment_table(domain, N)
    P = np.array(_points(domain, rng))
    for got, want in zip(bergman._kernel_rows(table, P), _ref_kernel_rows(table, P)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "domain", [d for d in METRIC_DOMAINS if isinstance(d, ReinhardtEllipsoid)]
    + [ReinhardtEllipsoid((1.0, 2.0, 0.7)), ReinhardtEllipsoid((0.3,))], ids=repr,
)
def test_ellipsoid_membership_keeps_its_bits(domain):
    rng = np.random.default_rng(2527)
    n = domain.dim
    Z = []
    for _ in range(200):
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        inner, near = _edge(domain, u)
        Z += [inner, inner * (1.0 + 2.0**-52), near, u]
    Z = np.array(Z)
    want = _ref_contains_rows(domain, Z)
    assert 0 < want.sum() < len(Z)
    assert np.array_equal(contains_batch(domain, Z), want)
    assert [domain.contains(z) for z in Z] == [_ref_contains(domain, z) for z in Z]
    for z in Z[want][:50]:
        assert member_coords(domain, z).tobytes() == _ref_member_coords(domain, z).tobytes()


def test_doubled_exponents_are_derived_and_read_only():
    a, b = ReinhardtEllipsoid((1, 2.5)), ReinhardtEllipsoid((1.0, 2.5))
    assert a == b and hash(a) == hash(b) and repr(a) == "ReinhardtEllipsoid(exponents=(1.0, 2.5))"
    assert a.doubled.tolist() == [2.0, 5.0]
    with pytest.raises(ValueError, match="read-only"):
        a.doubled[0] = 1.0
