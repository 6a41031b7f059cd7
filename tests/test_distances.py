import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab.distances import (
    OVERFLOW_EDGE,
    GapDecomposition,
    caratheodory_distance,
    disc_distance_batch,
    distance_batch,
    gap_term_boundary_leading,
    gap_term_separation_leading,
    gap_terms_batch,
    halfdisc_distance_batch,
    halfplane_distance_batch,
    _atanh_stable,
    ball_distance_batch,
    kobayashi_distance,
    localization_gap,
)
from invlab.geometry import (
    Ball,
    HalfDiscScaled,
    HalfPlane,
    MembershipError,
    Polydisc,
    Product,
    ReinhardtEllipsoid,
    UnitDisc,
    UnsupportedDomainError,
    contains,
)
from invlab.sampling import ball_points, halfdisc_pairs, halfplane_points
from test_shared_moduli import _halfdisc_core, _halfplane_core


def _halfplane_ratio(z, w):
    return _halfplane_core(z, w)[0]


def test_halfplane_ratio_examples():
    assert _halfplane_ratio(1j, 2j) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert _halfplane_ratio(0.3 + 0.7j, 0.3 + 0.7j) == 0.0
    assert _halfplane_ratio(0.5j, 0.25j) == pytest.approx(1.0 / 3.0, abs=1e-15)
    # the validated route refuses boundary and non-finite points on either side
    with pytest.raises(MembershipError):
        kobayashi_distance(HalfPlane(), 1.0, 1j)
    for bad in (complex(0, math.nan), complex(0, math.inf), complex(math.inf, 1)):
        with pytest.raises(MembershipError):
            kobayashi_distance(HalfPlane(), bad, 1j)
        with pytest.raises(MembershipError):
            kobayashi_distance(HalfPlane(), 1j, bad)


@pytest.mark.parametrize(
    "z",
    [np.int64(0), np.float32(0.25), np.complex64(0.25j), np.array(0.25), np.array(0.25j)],
    ids=["int64", "float32", "complex64", "0-d float", "0-d complex"],
)
def test_numpy_scalars_are_points(z):
    # numpy scalars and 0-d arrays are points like the Python scalar of the same value
    assert contains(UnitDisc(), z)
    want = kobayashi_distance(UnitDisc(), complex(z), 0.5).value
    assert kobayashi_distance(UnitDisc(), z, 0.5).value == want
    assert kobayashi_distance(UnitDisc(), 0.5, z).value == want


def test_kobayashi_distance_examples():
    assert kobayashi_distance(UnitDisc(), 0, 0.5).value == pytest.approx(
        math.atanh(0.5), abs=1e-15
    )
    assert kobayashi_distance(HalfPlane(), 0.5j, 0.25j).value == pytest.approx(
        0.5 * math.log(2.0), abs=1e-15
    )
    got = kobayashi_distance(HalfDiscScaled(1.0), 0.5j, 0.25j)
    assert got.value == pytest.approx(0.5 * math.log(2.5), abs=1e-14)
    assert kobayashi_distance(Polydisc((1.0, 1.0)), (0, 0), (0.5, 0.3)).value == (
        pytest.approx(math.atanh(0.5), abs=1e-15)
    )


def test_halfdisc_ratio_is_pullback_of_halfplane_ratio():
    from invlab import conformal

    f = conformal.HalfDiscToHalfPlane()
    z, w = halfdisc_pairs(13, 300, 0.9)
    m_direct = _halfdisc_core(z, w)[0]
    fz = np.array([conformal.apply(f, zz) for zz in z])
    fw = np.array([conformal.apply(f, ww) for ww in w])
    m_transfer = _halfplane_ratio(fz, fw)
    np.testing.assert_allclose(m_direct, m_transfer, rtol=1e-11)


def test_gap_term_examples():
    assert localization_gap(0.5j, 0.25j).term_boundary == pytest.approx(
        math.log(15.0 / 14.0), abs=1e-15
    )
    assert localization_gap(0.3j, 0.3j).term_boundary == 0.0
    assert localization_gap(0.5j, 0.25j).term_separation == pytest.approx(
        0.5 * math.log(49.0 / 45.0), abs=1e-15
    )
    assert localization_gap(0.1 + 0.2j, 0.1 + 0.2j).term_separation == 0.0


def test_gap_term_boundary_matches_ratio_route():
    # oracle route: half-disc ratio via the conformal transfer, not the formula
    from invlab import conformal

    f = conformal.HalfDiscToHalfPlane()
    z, w = halfdisc_pairs(17, 500, 0.9)
    tb = gap_terms_batch(z, w)[0]
    fz = f.image(z)
    fw = f.image(w)
    m_loc = _halfplane_ratio(fz, fw)
    m_glob = _halfplane_ratio(z, w)
    np.testing.assert_allclose(tb, np.log((1 + m_loc) / (1 + m_glob)), atol=1e-12)


def test_gap_term_separation_matches_classical_identity():
    z, w = halfdisc_pairs(19, 500, 0.9)
    ts = gap_terms_batch(z, w)[1]
    classical = -0.5 * np.log(
        (1 - np.abs(z) ** 2) * (1 - np.abs(w) ** 2) / np.abs(1 - z * np.conj(w)) ** 2
    )
    np.testing.assert_allclose(ts, classical, atol=1e-12)


def test_localization_gap_spot_pair():
    g = localization_gap(0.5j, 0.25j)
    assert g.gap == pytest.approx(0.5 * math.log(1.25), abs=1e-13)
    assert g.residual <= 1e-13
    assert g.k_local - g.k_global == pytest.approx(g.gap, abs=1e-13)
    same = localization_gap(0.3j, 0.3j)
    assert same.gap == 0.0


@pytest.mark.parametrize(
    "z, w",
    [
        ((0.5j,), (0.25j,)),
        (np.array([0.5j]), np.array([0.25j])),
        (np.complex128(0.5j), np.complex128(0.25j)),
    ],
    ids=["tuple", "array", "numpy-scalar"],
)
def test_localization_gap_takes_every_point_form_its_validation_accepts(z, w):
    assert localization_gap(z, w) == localization_gap(0.5j, 0.25j)
    assert localization_gap(z, w, 0.7) == localization_gap(0.5j, 0.25j, 0.7)


def test_localization_gap_random_pairs_residual():
    z, w = halfdisc_pairs(23, 2_000, 0.9)
    tb, ts = gap_terms_batch(z, w)
    res = np.abs(
        (tb + ts) - (halfdisc_distance_batch(z, w) - halfplane_distance_batch(z, w))
    )
    assert float(np.max(res)) <= 1e-10


def test_gap_scaled_halfdisc():
    # k on the r-scaled half-disc is the unit half-disc value at z/r
    r = 0.25
    z, w = 0.1j, 0.05j
    g = localization_gap(z, w, radius=r)
    unit = localization_gap(z / r, w / r)
    assert g.gap == pytest.approx(unit.gap, abs=1e-14)
    assert g.k_local == pytest.approx(unit.k_local, abs=1e-14)
    # while the half-plane distance is scale invariant
    assert g.k_global == pytest.approx(
        float(halfplane_distance_batch(z, w)), abs=1e-14
    )


def test_asymptotic_examples():
    z = 1e-3 * (1 + 1j)
    w = 1e-3 * (1 + 2j)
    tb = localization_gap(z, w).term_boundary
    assert tb / gap_term_boundary_leading(z, w) == pytest.approx(1.0, abs=0.01)
    assert gap_term_separation_leading(z, w) == 0.5 * abs(z - w) ** 2
    ts = localization_gap(0.5j, 0.25j).term_separation
    ratio = ts / gap_term_separation_leading(0.5j, 0.25j)
    expected = (0.5 * math.log(49.0 / 45.0)) / 0.03125
    assert ratio == pytest.approx(expected, abs=1e-12)
    assert ratio == pytest.approx(1.3625, abs=2e-4)  # asymptotics not yet valid here
    with pytest.raises(ValueError):
        gap_term_boundary_leading(0.5j, 0.5j)


def test_caratheodory_examples():
    assert caratheodory_distance(HalfPlane(), 1j, 2j).value == pytest.approx(
        math.atanh(1.0 / 3.0), abs=1e-15
    )
    for dom, z, w in [
        (UnitDisc(), 0.1, 0.5j),
        (Ball(2), (0, 0.2), (0.5, 0.3j)),
    ]:
        k = kobayashi_distance(dom, z, w).value
        assert caratheodory_distance(dom, z, w).value <= k + 1e-12


def test_unsupported_domains_raise():
    with pytest.raises(UnsupportedDomainError):
        kobayashi_distance(ReinhardtEllipsoid((1.0, 2.0)), (0.1, 0.1), (0.2, 0.2))
    with pytest.raises(UnsupportedDomainError):
        caratheodory_distance(ReinhardtEllipsoid((1.0, 2.0)), (0.1, 0.1), (0.2, 0.2))


def test_membership_enforced():
    with pytest.raises(MembershipError):
        kobayashi_distance(UnitDisc(), 0.0, 1.0)
    with pytest.raises(MembershipError):
        localization_gap(2j, 0.5j)


def test_complement_identity_resolution():
    """The complement of the half-plane ratio carries |z - conj w|^2, not |1 - z conj w|^2."""
    z, w = halfdisc_pairs(29, 400, 0.9)
    m = _halfplane_ratio(z, w)
    correct = 4.0 * z.imag * w.imag / np.abs(z - np.conj(w)) ** 2
    np.testing.assert_allclose(1.0 - m**2, correct, atol=1e-12)
    wrong = 4.0 * z.imag * w.imag / np.abs(1.0 - z * np.conj(w)) ** 2
    assert float(np.max(np.abs(1.0 - m**2 - wrong))) > 1e-3


def test_overflow_to_infinity_marker():
    v = kobayashi_distance(HalfPlane(), 1e-16j, 0.9j)
    assert v.value == math.inf


def _atanh_where(m, comp):
    """atanh m as log1p(m) - log(comp) / 2, marked +inf by np.where (reference)."""
    m, comp = np.asarray(m, dtype=float), np.asarray(comp, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log1p(m) - 0.5 * np.log(comp)
    return np.where(m >= OVERFLOW_EDGE, math.inf, vals)


def test_atanh_stable_keeps_the_bits_of_the_where_form():
    rng = np.random.default_rng(54)
    m = np.concatenate([rng.uniform(0.0, 1.0, 200), [0.0, OVERFLOW_EDGE, 1.0, math.nan]])
    comp = np.concatenate([rng.uniform(0.0, 1.0, 200), [1.0, 2e-15, 0.0, 0.5]])
    for args in ((m, comp), (m[:1], comp[:1]), (0.3, 0.91), (np.float64(1.0), 0.0)):
        got, want = _atanh_stable(*args), _atanh_where(*args)
        assert type(got) is np.ndarray and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_ball_distance_properties():
    dom = Ball(2)
    z, w = (0.1, 0.2j), (0.3 + 0.1j, -0.2)
    k = kobayashi_distance(dom, z, w)
    assert k.value == kobayashi_distance(dom, w, z).value == pytest.approx(
        k.value, abs=1e-14
    )
    assert kobayashi_distance(dom, (0, 0), (0.5, 0)).value == pytest.approx(
        math.atanh(0.5), abs=1e-15
    )


def _ball_mobius(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The ball automorphism sending a to 0, evaluated at x (per-row oracle)."""
    na2 = float(np.sum(np.abs(a) ** 2))
    if na2 == 0.0:
        return -x
    s = math.sqrt(max(0.0, 1.0 - na2))
    ip = complex(np.sum(x * np.conj(a)))
    proj = (ip / na2) * a
    orth = x - proj
    return (a - proj - s * orth) / (1.0 - ip)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_distance_batch_matches_per_row_automorphism(n):
    Z = ball_points(41 + n, 3_000, n, 1.0)
    W = ball_points(51 + n, 3_000, n, 0.95)
    Z[:20] = 0.0
    # 200 rows within 1e-3 .. 1e-12 of the sphere
    depth = 10.0 ** -np.random.default_rng(n).uniform(3.0, 12.0, 200)
    Z[20:220] *= ((1.0 - depth) / np.linalg.norm(Z[20:220], axis=1))[:, None]
    got = ball_distance_batch(Z, W)
    m = np.array([np.linalg.norm(_ball_mobius(z, w)) for z, w in zip(Z, W)])
    ip = np.sum(W * np.conj(Z), axis=1)
    comp = (
        (1.0 - np.sum(np.abs(Z) ** 2, axis=1))
        * (1.0 - np.sum(np.abs(W) ** 2, axis=1))
        / np.abs(1.0 - ip) ** 2
    )
    want = _atanh_stable(m, comp)
    assert np.all(np.isfinite(want))
    # 8 ulp, plus what one rounding of <w, z> moves through w - P w, which
    # cancels entirely in C^1: numpy's batched complex multiply may round that
    # inner product differently from the one-row product in the oracle
    eps = np.finfo(float).eps
    tol = 8.0 * eps * (want + np.linalg.norm(W, axis=1) / np.abs(1.0 - ip))
    assert np.all(np.abs(got - want) <= tol)
    assert np.all(np.abs(got[:220] - want[:220]) <= 8.0 * np.spacing(want[:220]))


def test_ball_of_dimension_one_is_the_disc():
    Z = ball_points(71, 4_000, 1, 0.95)
    W = ball_points(72, 4_000, 1, 0.95)
    # the first half short: 1e-9 .. 1e-3 apart
    scale = 10.0 ** np.random.default_rng(73).uniform(-9.0, -3.0, 2_000)
    W[:2_000] = Z[:2_000] + scale[:, None] * ball_points(74, 2_000, 1, 1.0)
    want = disc_distance_batch(Z[:, 0], W[:, 0])
    assert np.array_equal(distance_batch(Ball(1))(Z, W), want)
    for z, w, d in zip(Z[::400, 0], W[::400, 0], want[::400]):
        assert kobayashi_distance(Ball(1), z, w).value == d
    # the automorphism route cancels w - P w in C^1 and misses on short pairs
    assert not np.array_equal(ball_distance_batch(Z[:2_000], W[:2_000]), want[:2_000])


def test_product_distance_is_max_of_factors():
    dom = Product((Ball(2), HalfPlane()))
    Z = np.concatenate(
        [ball_points(61, 500, 2, 0.95), halfplane_points(62, 500)[:, None]], axis=1
    )
    W = np.concatenate(
        [ball_points(63, 500, 2, 0.95), halfplane_points(64, 500)[:, None]], axis=1
    )
    got = distance_batch(dom)(Z, W)
    expected = np.maximum(
        distance_batch(Ball(2))(Z[:, :2], W[:, :2]),
        distance_batch(HalfPlane())(Z[:, 2:], W[:, 2:]),
    )
    assert np.array_equal(got, expected)
    assert kobayashi_distance(dom, Z[0], W[0]).value == got[0]


@settings(max_examples=40, deadline=None)
@given(
    data=st.tuples(
        st.floats(0.05, 0.9),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.9),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.9),
        st.floats(0.05, 0.95),
    )
)
def test_symmetry_and_triangle_on_halfdisc(data):
    r1, t1_, r2, t2_, r3, t3_ = data
    z = complex(r1 * np.exp(1j * np.pi * t1_))
    v = complex(r2 * np.exp(1j * np.pi * t2_))
    w = complex(r3 * np.exp(1j * np.pi * t3_))
    dom = HalfDiscScaled(1.0)
    kzw = kobayashi_distance(dom, z, w).value
    assert kzw == pytest.approx(kobayashi_distance(dom, w, z).value, abs=1e-12)
    assert kzw <= (
        kobayashi_distance(dom, z, v).value + kobayashi_distance(dom, v, w).value + 1e-12
    )


def test_scaling_covariance_and_monotonicity():
    z, w = halfdisc_pairs(31, 300, 0.22)
    for r in (0.25, 0.8):
        inside = (np.abs(z) < r) & (np.abs(w) < r)
        zz, ww = z[inside], w[inside]
        scaled = halfdisc_distance_batch(zz, ww, r)
        unit = halfdisc_distance_batch(zz / r, ww / r, 1.0)
        np.testing.assert_allclose(scaled, unit, rtol=1e-12)
        gap = scaled - halfplane_distance_batch(zz, ww)
        assert float(np.min(gap)) >= 0.0


def test_gap_decomposition_invariant():
    # the builder sums the two terms; the dataclass itself checks nothing
    for z, w, r in ((0.5j, 0.25j, 1.0), (0.1 + 0.3j, -0.2 + 0.05j, 0.7), (0.3j, 0.3j, 1.0)):
        g = localization_gap(z, w, r)
        assert isinstance(g, GapDecomposition)
        assert g.gap == g.term_boundary + g.term_separation
