import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invlab.geometry import (
    Ball,
    BallIntersection,
    DimensionMismatchError,
    EmptyIntersectionError,
    HalfDiscScaled,
    HalfPlane,
    MembershipError,
    Polydisc,
    Product,
    ReinhardtEllipsoid,
    UnitDisc,
    boundary_distance,
    contains,
    contains_batch,
    dimension,
    intersect_with_ball,
)
from invlab.sampling import ball_points, halfplane_points


def test_contains_examples():
    assert contains(HalfDiscScaled(1.0), 0.5j)
    assert not contains(HalfDiscScaled(1.0), 2j)
    assert not contains(UnitDisc(), 1.0)  # boundary excluded


def test_boundary_distance_examples():
    assert boundary_distance(HalfPlane(), 0.3 + 0.2j) == pytest.approx(0.2, abs=1e-15)
    assert boundary_distance(HalfDiscScaled(1.0), 0.5j) == pytest.approx(0.5, abs=1e-15)
    assert boundary_distance(Polydisc((1.0, 1.0)), (0.5, 0.3)) == pytest.approx(
        0.5, abs=1e-15
    )


def test_intersect_with_ball_normalizes_halfplane():
    assert intersect_with_ball(HalfPlane(), 0, 1.0) == HalfDiscScaled(1.0)
    assert intersect_with_ball(HalfPlane(), 0, 0.25) == HalfDiscScaled(0.25)
    assert contains(intersect_with_ball(HalfPlane(), 0, 1.0), 0.5j)


def test_intersect_with_ball_generic_cap():
    cap = intersect_with_ball(UnitDisc(), 0.5, 0.3)
    assert isinstance(cap, BallIntersection)
    assert contains(cap, 0.5)
    assert not contains(cap, -0.5)
    assert boundary_distance(cap, 0.5) == pytest.approx(0.3, abs=1e-15)


def test_cap_center_forms_give_one_cap():
    caps = [
        intersect_with_ball(UnitDisc(), center, 0.3)
        for center in ((0.5,), [0.5], np.array([0.5]), 0.5)
    ]
    assert all(cap == caps[0] and hash(cap) == hash(caps[0]) for cap in caps)
    for cap in caps:
        assert cap.center == (0.5 + 0j,) and type(cap.center[0]) is complex
        assert not cap.center_coords.flags.writeable
    with pytest.raises(ValueError):
        caps[0].center_coords[0] = 0.0


def test_empty_intersection_rejected():
    with pytest.raises(EmptyIntersectionError):
        intersect_with_ball(HalfPlane(), -5j, 1.0)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        contains(Ball(2), 0.5)
    with pytest.raises(DimensionMismatchError):
        boundary_distance(UnitDisc(), (0.1, 0.2))


def test_membership_required_for_distance():
    with pytest.raises(MembershipError):
        boundary_distance(UnitDisc(), 1.0)
    with pytest.raises(MembershipError):
        boundary_distance(HalfPlane(), -1j)


def _halfdisc_brute_delta(z: complex, r: float, samples: int = 1000) -> float:
    """Brute-force distance to the half-disc boundary: grid plus ternary polish."""

    def seg(t):
        return complex(-r + 2 * r * t, 0.0)

    def arc(t):
        return r * np.exp(1j * np.pi * t)

    best = math.inf
    for piece in (seg, arc):
        ts = np.linspace(0.0, 1.0, samples)
        ds = np.abs(np.array([piece(t) for t in ts]) - z)
        i = int(np.argmin(ds))
        lo = ts[max(i - 1, 0)]
        hi = ts[min(i + 1, samples - 1)]
        for _ in range(80):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if abs(piece(m1) - z) < abs(piece(m2) - z):
                hi = m2
            else:
                lo = m1
        best = min(best, abs(piece(0.5 * (lo + hi)) - z))
    return best


@settings(max_examples=40, deadline=None)
@given(
    rr=st.floats(0.05, 0.95),
    theta=st.floats(0.05, 0.95),
    radius=st.floats(0.3, 1.0),
)
def test_halfdisc_distance_matches_brute_force(rr, theta, radius):
    z = radius * rr * np.exp(1j * np.pi * theta)
    z = complex(z)
    dom = HalfDiscScaled(radius)
    assert contains(dom, z)
    formula = boundary_distance(dom, z)
    assert formula == pytest.approx(min(z.imag, radius - abs(z)), abs=1e-15)
    assert abs(formula - _halfdisc_brute_delta(z, radius)) <= 1e-6


@settings(max_examples=60, deadline=None)
@given(x=st.floats(-0.95, 0.95), y=st.floats(-0.95, 0.95))
def test_distance_positive_iff_member(x, y):
    z = complex(x, y)
    for dom in (UnitDisc(), HalfPlane(), HalfDiscScaled(0.8)):
        if contains(dom, z):
            assert boundary_distance(dom, z) > 0
        else:
            with pytest.raises(MembershipError):
                boundary_distance(dom, z)


def _cap_flips_at(base, center, d):
    """A cap centred outside the base is nonempty iff its radius exceeds the
    center's distance d to the closed base."""
    assert isinstance(intersect_with_ball(base, center, d * (1 + 1e-6)), BallIntersection)
    with pytest.raises(EmptyIntersectionError):
        intersect_with_ball(base, center, d * (1 - 1e-6))


def _corner(eps, phi, left):
    z = 1.0 + eps * complex(math.cos(phi), math.sin(phi))
    return -z.conjugate() if left else z


# outside the r-scaled half-disc, in units of r: below the axis, beyond the
# arc, and in a cone at the corner 1 (mirrored to -1) that meets both pieces
_BELOW = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.0, -0.01))
_BEYOND = st.builds(
    lambda rho, theta: rho * complex(math.cos(theta), math.sin(theta)),
    st.floats(1.01, 2.0),
    st.floats(0.0, math.pi),
)
_CORNER = st.builds(
    _corner, st.floats(0.01, 0.3), st.floats(-0.75 * math.pi, 0.25 * math.pi), st.booleans()
)


@settings(max_examples=60, deadline=None)
@given(u=st.one_of(_BELOW, _BEYOND, _CORNER), radius=st.floats(0.3, 1.0))
def test_cap_centered_outside_the_halfdisc(u, radius):
    base, c = HalfDiscScaled(radius), radius * u
    assert not contains(base, c)
    _cap_flips_at(base, c, _halfdisc_brute_delta(c, radius))


@settings(max_examples=60, deadline=None)
@given(
    moduli=st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 0.99)),
    excess=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
    phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
    outside=st.sampled_from([(True, False), (False, True), (True, True)]),
)
def test_cap_centered_outside_the_polydisc(moduli, excess, phases, outside):
    radii = (1.0, 0.5)
    rho = [1 + e if out else m for m, e, out in zip(moduli, excess, outside)]
    center = [
        r * p * complex(math.cos(t), math.sin(t)) for r, p, t in zip(radii, rho, phases)
    ]
    # the closed polydisc is a product, so the gaps of its factors add in squares
    gaps = [r * (p - 1) if out else 0.0 for r, p, out in zip(radii, rho, outside)]
    _cap_flips_at(Polydisc(radii), center, math.sqrt(sum(g * g for g in gaps)))


def test_cap_monotonicity():
    dom = UnitDisc()
    cap = intersect_with_ball(dom, 0.2, 0.5)
    for z in (0.2, 0.3 + 0.1j, 0.1 - 0.2j):
        assert boundary_distance(cap, z) <= boundary_distance(dom, z) + 1e-15


def test_product_domain():
    dom = Product((UnitDisc(), HalfPlane()))
    assert dimension(dom) == 2
    assert contains(dom, (0.5, 1j))
    assert not contains(dom, (0.5, -1j))
    assert boundary_distance(dom, (0.5, 0.2j)) == pytest.approx(0.2, abs=1e-15)


def test_product_with_a_ball_factor_matches_its_factors():
    ball, hp = Ball(2), HalfPlane()
    dom = Product((ball, hp))
    assert dimension(dom) == 3
    # nearly half of the rows fall outside the ball, a sixth below the axis
    pts = np.concatenate(
        [
            ball_points(71, 400, 2, 1.15),
            halfplane_points(72, 400, im_range=(-0.4, 1.6))[:, None],
        ],
        axis=1,
    )
    inside = contains_batch(ball, pts[:, :2]) & contains_batch(hp, pts[:, 2:])
    assert 0 < inside.sum() < len(pts)
    assert np.array_equal(contains_batch(dom, pts), inside)
    center, radius = np.array([0.1, -0.2j, 0.3 + 0.6j]), 0.8
    cap = intersect_with_ball(dom, center, radius)
    to_sphere = radius - np.linalg.norm(pts - center, axis=1)
    assert np.array_equal(contains_batch(cap, pts), inside & (to_sphere > 0))
    for p, ok, gap in zip(pts, inside, to_sphere):
        assert contains(dom, p) == ok
        assert contains(cap, p) == (ok and gap > 0)
        if ok:
            delta = min(boundary_distance(ball, p[:2]), boundary_distance(hp, p[2:]))
            assert boundary_distance(dom, p) == delta
            if gap > 0:
                assert boundary_distance(cap, p) == pytest.approx(
                    min(delta, gap), abs=1e-15
                )


# every catalog member with an interior anchor point
MEMBERS = [
    (UnitDisc(), (0j,)),
    (HalfPlane(), (1j,)),
    (HalfDiscScaled(0.7), (0.3j,)),
    (Ball(2), (0j, 0j)),
    (Ball(3), (0j, 0j, 0j)),
    (Polydisc((1.0, 0.5)), (0j, 0j)),
    (Product((Ball(2), HalfPlane())), (0j, 0j, 1j)),
    (Product((UnitDisc(), HalfPlane())), (0j, 1j)),
    (ReinhardtEllipsoid((1.0, 2.0)), (0j, 0j)),
    (ReinhardtEllipsoid((0.75, 1.5, 3.0)), (0j, 0j, 0j)),
    (intersect_with_ball(UnitDisc(), 0.5, 0.7), (0.5,)),
    (intersect_with_ball(Ball(2), (0.5, 0.2j), 0.7), (0.5, 0.2j)),
    (
        intersect_with_ball(Product((Ball(2), HalfPlane())), (0.3, 0j, 0.2j), 0.8),
        (0.3, 0j, 0.2j),
    ),
]


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(0, len(MEMBERS) - 1),
    direction=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    offset=st.floats(-1e-12, 1e-12),
)
def test_scalar_and_batch_membership_agree_at_the_boundary(k, direction, offset):
    dom, anchor = MEMBERS[k]
    n = dimension(dom)
    a = np.asarray(anchor, dtype=complex)
    u = np.asarray(direction[:n]) + 1j * np.asarray(direction[n : 2 * n])
    assume(np.linalg.norm(u) > 0.1)

    def inside(t):
        return bool(contains_batch(dom, (a + t * u)[None])[0])

    lo, hi = 0.0, 4.0
    assume(not inside(hi))
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # to the batch predicate's flip
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    for t in (lo, hi, lo + offset):
        p = a + t * u
        assert contains(dom, p) == contains_batch(dom, p[None])[0]


def test_ball_distance():
    assert boundary_distance(Ball(2), (0.3, 0.4j)) == pytest.approx(0.5, abs=1e-15)


def test_ellipsoid_single_exponent_is_disc():
    dom = ReinhardtEllipsoid((3.0,))
    assert contains(dom, 0.9)
    assert boundary_distance(dom, 0.3 + 0.4j) == pytest.approx(0.5, abs=1e-12)


def test_ellipsoid_matches_ball_when_exponents_are_one():
    dom = ReinhardtEllipsoid((1.0, 1.0))
    for z in ((0.3, 0.4j), (0.1 + 0.1j, -0.2), (0.0, 0.5j), (0j, 0j)):
        got = boundary_distance(dom, z)
        exact = 1.0 - float(np.linalg.norm(np.asarray(z, dtype=complex)))
        assert got == pytest.approx(exact, abs=1e-14)


def _arc_distances(p, x, i, u):
    """|s - x| along the boundary arc s >= x, with s_i = x_i + (top - x_i) u and
    the other modulus solved (log1p keeps it exact next to the corners)."""
    k = 1 - i
    top = math.exp(math.log1p(-(x[k] ** (2 * p[k]))) / (2 * p[i]))
    si = x[i] + (top - x[i]) * u
    sk = np.exp(np.log1p(-np.minimum(si ** (2 * p[i]), 1.0)) / (2 * p[k]))
    return np.hypot(si - x[i], sk - x[k])


def _sampled_ellipsoid_delta2(p, x, m=50001):
    """Least |s - x| over dense samples of the boundary curve, parametrized by
    each modulus in turn (geometric towards s = x, then uniform), zoomed twice
    around the best sample."""
    best = math.inf
    base = np.unique(np.concatenate([[0.0], np.geomspace(1e-16, 1.0, m), np.linspace(0.0, 1.0, m)]))
    for i in (0, 1):
        u = base
        with np.errstate(divide="ignore"):
            for _ in range(3):
                d = _arc_distances(p, x, i, u)
                j = int(np.argmin(d))
                best = min(best, float(d[j]))
                u = np.linspace(u[max(j - 1, 0)], u[min(j + 1, len(u) - 1)], 2001)
    return best


def _sampled_ellipsoid_delta3(p, x, m=300):
    """Least |s - x| over grids of the boundary surface s >= x: two moduli on a
    grid (geometric towards x, then uniform), the third solved, each of the
    three choices zoomed three times around its best point."""
    best = math.inf
    base = np.unique(np.concatenate([[0.0], np.geomspace(1e-12, 1.0, m // 2), np.linspace(0.0, 1.0, m)]))
    for k in range(3):
        i, j = [c for c in range(3) if c != k]
        ui = uj = base
        for _ in range(4):
            si = x[i] + (1 - x[i]) * ui[:, None]
            sj = x[j] + (1 - x[j]) * uj[None, :]
            rest = 1.0 - si ** (2 * p[i]) - sj ** (2 * p[j])
            inside = rest >= x[k] ** (2 * p[k])
            sk = np.where(inside, np.maximum(rest, 0.0), 0.0) ** (1 / (2 * p[k]))
            d = np.where(inside, np.sqrt((si - x[i]) ** 2 + (sj - x[j]) ** 2 + (sk - x[k]) ** 2), math.inf)
            a, b = np.unravel_index(np.argmin(d), d.shape)
            best = min(best, float(d[a, b]))
            ui = np.linspace(ui[max(a - 1, 0)], ui[min(a + 1, len(ui) - 1)], 101)
            uj = np.linspace(uj[max(b - 1, 0)], uj[min(b + 1, len(uj) - 1)], 101)
    return best


def _moduli_at_level(p, direction, level):
    """The point t * direction with sum (t d_j)^(2 p_j) = level <= 1, by bisection."""
    d = np.asarray(direction, dtype=float)
    if not d.any():
        return d
    d = d / d.max()  # so t = 1 is at or past the level
    f = lambda t: float(np.sum((t * d) ** (2 * np.asarray(p))))
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if f(mid) < level else (lo, mid)
    return lo * d


_EXPONENT = st.one_of(st.sampled_from([0.3, 0.5, 1.0, 2.0, 4.0]), st.floats(0.3, 4.0))
_MODULUS = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
# the level sum |z_j|^(2 p_j) of the point: anywhere, or within 1e-12 .. 1e-2 of 1
_LEVEL = st.one_of(
    st.floats(0.0, 0.999), st.floats(2.0, 12.0).map(lambda k: 1.0 - 10.0**-k)
)


@settings(max_examples=150, deadline=None)
@given(
    p=st.tuples(_EXPONENT, _EXPONENT),
    direction=st.tuples(_MODULUS, _MODULUS),
    level=_LEVEL,
    phases=st.tuples(st.floats(-3.2, 3.2), st.floats(-3.2, 3.2)),
)
def test_ellipsoid_projection_matches_dense_sampling(p, direction, level, phases):
    x = _moduli_at_level(p, direction, level)
    z = x * np.exp(1j * np.asarray(phases))
    assume(contains(ReinhardtEllipsoid(p), z))
    got = boundary_distance(ReinhardtEllipsoid(p), z)
    assert got == pytest.approx(_sampled_ellipsoid_delta2(p, x), abs=1e-14)


@pytest.mark.parametrize(
    "p, direction, level",
    [
        ((0.75, 1.5, 3.0), (0.3, 0.5, 0.4), 0.6),
        ((4.0, 0.3, 3.5), (0.1, 1.0, 0.3), 0.01),  # a tiny modulus under p = 4
        ((1.0, 2.0, 0.7), (0.0, 0.4, 0.2), 0.5),  # p = 1 with a zero modulus
        ((1.0, 1.0, 2.5), (0.0, 0.0, 1.0), 0.3),
        ((0.3, 0.5, 4.0), (1.0, 0.0, 1.0), 1.0 - 1e-9),
        ((2.0, 3.0, 1.5), (1.0, 1.0, 1.0), 1.0 - 1e-3),
        ((0.4, 2.0, 2.0), (0.0, 0.0, 0.0), 0.0),
    ],
)
def test_ellipsoid_projection_matches_a_grid_in_three_dimensions(p, direction, level):
    x = _moduli_at_level(p, direction, level)
    got = boundary_distance(ReinhardtEllipsoid(p), x)
    assert got == pytest.approx(_sampled_ellipsoid_delta3(p, x), abs=1e-14)


def test_ellipsoid_projection_where_a_multistart_slsqp_failed():
    # an SLSQP started from a zero modulus under p < 1/2, where the constraint's
    # gradient is infinite, returned 0.99999572 here
    got = boundary_distance(ReinhardtEllipsoid((4.0, 0.3)), (0.2, 0.0))
    assert got == pytest.approx(0.7674712936391594, abs=1e-12)


def test_ellipsoid_membership_and_positivity():
    dom = ReinhardtEllipsoid((1.0, 2.0))
    assert contains(dom, (0.5, 0.5))
    assert boundary_distance(dom, (0.5, 0.5)) > 0
    assert not contains(dom, (1.0, 0.5))


def test_contains_batch_agrees_with_scalar():
    pts = np.array([[0.5j], [2j], [0.99j], [0.5 + 0.1j]])
    dom = HalfDiscScaled(1.0)
    got = contains_batch(dom, pts)
    expected = [contains(dom, row) for row in pts]
    assert list(got) == expected


NON_FINITE = [complex(0, math.inf), complex(math.inf, 1), math.inf * 1j, complex(math.nan, 1)]


def test_non_finite_points_are_no_members():
    # the half-plane is the only unbounded member; the bounded ones reject
    # infinite points through their modulus already
    for dom, anchor in MEMBERS:
        for bad in NON_FINITE:
            for k in range(dimension(dom)):
                p = np.asarray(anchor, dtype=complex)
                p[k] = bad
                assert not contains(dom, p), (dom, p)
                assert not contains_batch(dom, p[None])[0], (dom, p)
    prod = Product((UnitDisc(), HalfPlane()))
    assert not contains_batch(prod, [[0.1, complex(math.inf, 1)]])[0]
    with pytest.raises(MembershipError):
        boundary_distance(HalfPlane(), complex(0, math.inf))


def test_point_validation():
    for center in ((complex("inf"),), (complex(0, math.nan),)):
        with pytest.raises(ValueError, match="finite"):
            BallIntersection(UnitDisc(), center, 0.5)
    with pytest.raises(DimensionMismatchError):
        BallIntersection(UnitDisc(), (), 0.5)
    for bad in (1.5, 0.0, 5e-324, 2.0**-1023):  # 1/radius overflows below 2^-1022
        with pytest.raises(ValueError):
            HalfDiscScaled(bad)
    assert math.isfinite(1.0 / HalfDiscScaled(2.0**-1022).radius)
    with pytest.raises(ValueError):
        Polydisc((1.0, -1.0))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            Polydisc((bad, 1.0))
        with pytest.raises(ValueError):
            ReinhardtEllipsoid((1.0, bad))
        with pytest.raises(ValueError):
            BallIntersection(HalfPlane(), (0.5j,), bad)
