import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import conformal
from invlab.geometry import (
    Ball,
    DimensionMismatchError,
    HalfDiscScaled,
    HalfPlane,
    MembershipError,
    Polydisc,
    Product,
    ReinhardtEllipsoid,
    UnitDisc,
    UnsupportedDomainError,
    contains_batch,
)
from invlab.metrics import (
    FinslerDensity,
    bergman_density,
    kobayashi_density,
    kobayashi_royden_density,
    normalized_bergman_density,
    pullback,
)
from invlab.sampling import ball_points, disc_points, halfdisc_points

INV_CAYLEY = conformal.Mobius(-1, 1j, 1, 1j)  # upper half-plane onto the unit disc


def test_kobayashi_examples():
    assert kobayashi_royden_density(UnitDisc(), 0, 1) == pytest.approx(1.0, abs=1e-15)
    assert kobayashi_royden_density(UnitDisc(), 0.5, 1) == pytest.approx(
        4.0 / 3.0, abs=1e-15
    )
    assert kobayashi_royden_density(HalfDiscScaled(1.0), 0.5j, 1) == pytest.approx(
        5.0 / 3.0, abs=1e-13
    )
    assert kobayashi_royden_density(Polydisc((1.0, 1.0)), (0, 0), (1, 2)) == 2.0
    assert kobayashi_royden_density(HalfPlane(), 0.5j, 1) == pytest.approx(
        1.0, abs=1e-15
    )


def test_bergman_examples():
    disc, ball = bergman_density(UnitDisc()), bergman_density(Ball(2))
    assert disc.evaluate(0, 1) == pytest.approx(math.sqrt(2), abs=1e-15)
    assert ball.evaluate((0, 0), (1, 0)) == pytest.approx(math.sqrt(3), abs=1e-15)
    assert disc.evaluate(0.5, 1) == pytest.approx(math.sqrt(2) * 4.0 / 3.0, abs=1e-15)


def test_normalized_bergman_examples():
    disc, ball = normalized_bergman_density(UnitDisc()), normalized_bergman_density(Ball(2))
    assert disc.evaluate(0, 1) == pytest.approx(1.0, abs=1e-15)
    assert ball.evaluate((0, 0), (1, 0)) == pytest.approx(1.0, abs=1e-15)
    assert disc.evaluate(0.5, 1) == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_pullback_examples():
    hp = kobayashi_density(HalfPlane())
    got = pullback(conformal.HalfDiscToHalfPlane(), hp).evaluate(0.5j, 1)
    assert got == pytest.approx(5.0 / 3.0, abs=1e-13)

    disc = kobayashi_density(UnitDisc())
    assert pullback(conformal.Scale(1), disc).evaluate(0.3, 1) == pytest.approx(
        kobayashi_royden_density(UnitDisc(), 0.3, 1), abs=1e-15
    )
    # the half-plane density is the disc density seen through the inverse Cayley map
    assert pullback(INV_CAYLEY, disc).evaluate(1j, 1) == pytest.approx(0.5, abs=1e-15)


def test_pullback_through_a_composition_is_the_halfdisc_density():
    # the map route (the composition's own source, image and derivative)
    # against the closed form; Scale(2) is invisible to the half-plane density
    m = conformal.Composition((conformal.Scale(2.0), conformal.HalfDiscToHalfPlane()))
    pulled = pullback(m, kobayashi_density(HalfPlane()))
    assert pulled.domain == HalfDiscScaled(1.0)
    Z = halfdisc_points(11, 2000, 0.99)[:, None]
    X = np.exp(1j * np.linspace(0.0, 6.0, len(Z)))[:, None]
    want = kobayashi_density(HalfDiscScaled(1.0)).evaluate_batch(Z, X)
    np.testing.assert_allclose(pulled.evaluate_batch(Z, X), want, rtol=1e-12, atol=0)
    outside = np.array([[0.5 - 0.1j], [0.3 + 0j], [1.2j], [-0.8 + 0.8j], [complex(0, np.inf)]])
    assert np.all(pulled.evaluate_batch(outside, np.ones_like(outside)) == np.inf)


@settings(max_examples=50, deadline=None)
@given(
    rr=st.floats(0.05, 0.9),
    th=st.floats(0.05, 0.95),
    lam_re=st.floats(-3, 3),
    lam_im=st.floats(-3, 3),
)
def test_absolute_homogeneity(rr, th, lam_re, lam_im):
    lam = complex(lam_re, lam_im)
    z = complex(rr * np.exp(1j * np.pi * th))
    X = 0.7 - 0.2j
    for density in (
        kobayashi_density(UnitDisc()),
        kobayashi_density(HalfPlane()),
        kobayashi_density(HalfDiscScaled(1.0)),
        bergman_density(UnitDisc()),
    ):
        if density.domain is not None:
            from invlab.geometry import contains

            if not contains(density.domain, z):
                continue
        base = density.evaluate(z, X)
        scaled = density.evaluate(z, lam * X)
        assert scaled == pytest.approx(abs(lam) * base, rel=1e-12, abs=1e-12)


def test_homogeneity_in_higher_dimension():
    dens = kobayashi_density(Ball(2))
    z = (0.2 + 0.1j, -0.3)
    X = (0.4, 0.5j)
    lam = 1.7 - 0.3j
    assert dens.evaluate(z, tuple(lam * x for x in X)) == pytest.approx(
        abs(lam) * dens.evaluate(z, X), rel=1e-12
    )


def test_conformal_invariance_on_catalog_pairs():
    hp = kobayashi_density(HalfPlane())
    hd = kobayashi_density(HalfDiscScaled(1.0))
    for z in halfdisc_points(3, 200, 0.95):
        a = pullback(conformal.HalfDiscToHalfPlane(), hp).evaluate(z, 1.0)
        b = hd.evaluate(z, 1.0)
        assert a == pytest.approx(b, rel=1e-12)
    disc = kobayashi_density(UnitDisc())
    cay = conformal.Cayley()
    for zeta in disc_points(4, 200, 0.95):
        a = pullback(cay, hp).evaluate(zeta, 1.0)
        b = disc.evaluate(zeta, 1.0)
        assert a == pytest.approx(b, rel=1e-12)
    # scaling: the radius-r disc density is the unit disc density through z -> z/r
    r = 0.35
    scaled = kobayashi_density(Polydisc((r,)))
    via_scale = pullback(conformal.Scale(1.0 / r), disc)
    for z in disc_points(8, 200, 0.95 * r):
        assert scaled.evaluate(z, 0.3 - 0.4j) == pytest.approx(
            via_scale.evaluate(z, 0.3 - 0.4j), rel=1e-12
        )


def test_normalized_bergman_equals_kobayashi_on_disc_and_ball():
    rng = np.random.default_rng(11)
    zs = disc_points(5, 10_000, 0.98)
    Xs = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
    nb = normalized_bergman_density(UnitDisc()).evaluate_batch(
        zs[:, None], Xs[:, None]
    )
    kb = kobayashi_density(UnitDisc()).evaluate_batch(zs[:, None], Xs[:, None])
    np.testing.assert_allclose(nb, kb, rtol=1e-12)

    zb = ball_points(6, 2_000, 2, 0.95)
    Xb = rng.standard_normal((2_000, 2)) + 1j * rng.standard_normal((2_000, 2))
    nb2 = normalized_bergman_density(Ball(2)).evaluate_batch(zb, Xb)
    kb2 = kobayashi_density(Ball(2)).evaluate_batch(zb, Xb)
    np.testing.assert_allclose(nb2, kb2, rtol=1e-12)


def test_bidisc_normalized_bergman_over_kobayashi():
    # sqrt(2/3) |v|_2 / |v|_inf with v_j = |X_j| / (1 - |z_j|^2): inside
    # [sqrt(2/3), sqrt(4/3)], so inside the squeezing bounds 2^(-3/2), 2^(3/2)
    dom = Polydisc((1.0, 1.0))
    normalized = normalized_bergman_density(dom)
    rng = np.random.default_rng(2)
    pts = np.stack(
        [disc_points(21, 300, 0.97), disc_points(22, 300, 0.97)], axis=1
    )
    for z in pts[:50]:
        X = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        ratio = normalized.evaluate(z, X) / kobayashi_royden_density(dom, z, X)
        assert math.sqrt(2 / 3) * (1 - 1e-12) <= ratio <= math.sqrt(4 / 3) * (1 + 1e-12)


def test_product_density_is_max_of_factors():
    dom = Product((UnitDisc(), HalfPlane()))
    dens = kobayashi_density(dom)
    val = dens.evaluate((0.5, 2j), (1.0, 1.0))
    expected = max(
        kobayashi_royden_density(UnitDisc(), 0.5, 1.0),
        kobayashi_royden_density(HalfPlane(), 2j, 1.0),
    )
    assert val == pytest.approx(expected, abs=1e-15)
    # a factor of dimension two; the last row leaves the ball and gives +inf
    dom = Product((Ball(2), HalfPlane()))
    Z = np.array([[0.3, -0.2j, 0.5 + 1j], [0.1j, 0.6, 0.01j], [0.9, 0.5, 1j]])
    X = np.array([[1.0, 1j, 0.5], [0.2, -1.0, 1e-3], [1.0, 1.0, 1.0]])
    got = kobayashi_density(dom).evaluate_batch(Z, X)
    for z, x, g in zip(Z[:2], X[:2], got):
        assert g == max(
            kobayashi_royden_density(Ball(2), z[:2], x[:2]),
            kobayashi_royden_density(HalfPlane(), z[2], x[2]),
        )
        assert kobayashi_royden_density(dom, z, x) == g
    assert got[2] == math.inf


def test_infinity_marker_propagates():
    inside = HalfDiscScaled(0.5)

    def core(Z, X):
        return np.where(contains_batch(inside, Z), np.abs(X[:, 0]), math.inf)

    dens = FinslerDensity("inside-half-disc", HalfPlane(), core)
    assert dens.evaluate(0.25j, 1.0) == 1.0
    assert dens.evaluate(2j, 1.0) == math.inf

    from invlab.geodesics import Polyline, finsler_length

    t = np.linspace(0.0, 1.0, 9)
    nodes = ((1 - t) * 0.25j + t * (0.6 + 0.25j))[:, None]
    curve = Polyline(HalfPlane(), nodes)
    assert finsler_length(dens, curve) == math.inf


def _nudged(rng, Z):
    """Z with each real and imaginary part moved by -1, 0 or +1 ulp at random."""
    def part(x):
        return np.nextafter(x, x + rng.integers(-1, 2, x.shape))

    return part(Z.real) + 1j * part(Z.imag)


def test_density_cores_agree_with_membership():
    # points on the last representable circle or sphere inside the boundary,
    # nudged by an ulp so that membership accepts some and rejects others
    rng = np.random.default_rng(20240)
    m = 4000

    def circle(radius):
        return np.nextafter(radius, 0.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, m))

    u = rng.normal(size=(m, 4))
    u /= np.linalg.norm(u, axis=1)[:, None]
    sphere = (u[:, :2] + 1j * u[:, 2:]) * np.nextafter(1.0, 0.0)

    def upper_arc(radius):
        c = circle(radius)
        return (c.real + 1j * np.abs(c.imag))[:, None]

    both = (kobayashi_density, bergman_density)
    cases = [
        (UnitDisc(), circle(1.0)[:, None], both),
        (Polydisc((1.0, 0.5)), np.stack([circle(1.0), np.full(m, 0.25j)], axis=1), both),
        (Polydisc((1.0, 0.5)), np.stack([np.full(m, 0.5), circle(0.5)], axis=1), both),
        (Ball(2), sphere, both),
        (HalfDiscScaled(1.0), upper_arc(1.0), (kobayashi_density,)),
        (HalfDiscScaled(0.7), upper_arc(0.7), (kobayashi_density,)),
    ]
    for domain, Z, densities in cases:
        Z = _nudged(rng, Z)
        accepted = contains_batch(domain, Z)
        assert accepted.any() and not accepted.all()
        X = np.ones_like(Z)
        for density in (d(domain) for d in densities):
            vals = density.evaluate_batch(Z, X)
            assert np.all(np.isfinite(vals[accepted]) & (vals[accepted] > 0))
            assert np.all(vals[~accepted] == math.inf)
        if isinstance(domain, HalfDiscScaled):
            # |1 + zeta| |1 - zeta| / (2 r Im zeta (1 - |zeta|^2)), zeta = z / r, with
            # r^2 (1 - |zeta|^2) = (r - |z|)(r + |z|) as the complement takes it
            r = domain.radius
            for z in Z[accepted, 0][:200]:
                zeta, s = z / r, (r - abs(z)) * (r + abs(z)) / r**2
                want = abs(1 + zeta) * abs(1 - zeta) / (2 * r * zeta.imag * s)
                got = kobayashi_royden_density(domain, z, 1.0)
                assert got == pytest.approx(want, rel=1e-13)
    z = -0.24198136115632474 - 0.9702808979120078j
    assert math.isfinite(kobayashi_royden_density(UnitDisc(), z, 1.0))
    assert math.isfinite(bergman_density(UnitDisc()).evaluate(z, 1.0))
    z = 0.04676626078799779 + 0.9989058598546255j
    assert 0.0 < kobayashi_royden_density(HalfDiscScaled(1.0), z, 1.0) < math.inf


def test_scaled_densities_are_scale_invariant_down_to_tiny_radii():
    # 1 - |zeta|^2 is formed from zeta = z / r, so no square of z underflows
    want = kobayashi_density(HalfDiscScaled(1.0)).evaluate_batch([[0.5j]], [[1.0]])[0]
    assert want == pytest.approx(5.0 / 3.0, rel=1e-15, abs=0.0)
    zeta, xi = np.array([0.5, 0.2 + 0.3j]), np.array([1.0, 0.5j])
    unit = Polydisc((1.0, 1.0))
    densities = (kobayashi_density, bergman_density)
    polydisc_want = [d(unit).evaluate_batch([zeta], [xi])[0] for d in densities]
    for r in (1.0, 0.3, 1e-100, 1e-150, 1e-200, 1e-300, 2.0**-1022):
        poly = Polydisc((r, r))
        for density, value in zip(densities, polydisc_want):
            got = density(poly).evaluate_batch([zeta * r], [xi * r])[0]
            assert got == pytest.approx(value, rel=8e-16, abs=0.0), (density.__name__, r)
        dens = kobayashi_density(HalfDiscScaled(r))
        got = dens.evaluate_batch([[0.5j * r], [(0.2 + 0.7j) * r], [2j * r]], [[r]] * 3)
        assert got[0] == pytest.approx(want, rel=8e-16, abs=0.0), r
        assert got[1] == pytest.approx(
            kobayashi_density(HalfDiscScaled(1.0)).evaluate(0.2 + 0.7j, 1.0), rel=8e-16, abs=0.0
        ), r
        assert got[2] == math.inf, r


def test_halfplane_density_is_infinite_at_non_finite_points():
    Z = np.array([[complex(math.inf, 1)], [math.inf * 1j], [complex(0, math.inf)], [1j]])
    X = np.ones_like(Z)
    vals = kobayashi_density(HalfPlane()).evaluate_batch(Z, X)
    assert list(vals) == [math.inf, math.inf, math.inf, 0.5]
    assert list(contains_batch(HalfPlane(), Z)) == [False, False, False, True]
    prod = Product((UnitDisc(), HalfPlane()))
    Zp = np.array([[0.1, complex(math.inf, 1)], [0.1, 1j]])
    assert list(kobayashi_density(prod).evaluate_batch(Zp, np.ones_like(Zp))) == [
        math.inf,
        pytest.approx(1 / 0.99),
    ]
    with pytest.raises(MembershipError):
        kobayashi_royden_density(HalfPlane(), complex(math.inf, 1), 1.0)


def test_membership_errors():
    with pytest.raises(MembershipError):
        kobayashi_royden_density(UnitDisc(), 1.5, 1.0)
    with pytest.raises(MembershipError):
        bergman_density(UnitDisc()).evaluate(1.0, 1.0)


def test_vector_of_the_wrong_dimension_is_no_membership_error():
    # a caller reading MembershipError as "point outside the domain" would
    # blame the point for the vector
    for domain, z, X in ((UnitDisc(), 0.1, (1.0, 0.5)), (Ball(2), (0.1, 0.2j), 1.0)):
        with pytest.raises(DimensionMismatchError) as info:
            kobayashi_density(domain).evaluate(z, X)
        assert not isinstance(info.value, MembershipError)


def test_unsupported_variants():
    with pytest.raises(UnsupportedDomainError):
        kobayashi_density(ReinhardtEllipsoid((1.0, 2.0)))
    with pytest.raises(UnsupportedDomainError):
        bergman_density(HalfPlane())
    from invlab.geometry import BallIntersection

    cap = BallIntersection(UnitDisc(), (0j,), 0.5)
    with pytest.raises(UnsupportedDomainError):
        kobayashi_density(cap)
