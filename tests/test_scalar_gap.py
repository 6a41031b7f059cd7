"""The planar scalar pass, and the half-plane complement across the double
range.

``localization_gap`` makes its one pass on Python floats; the tests check it
against the batch cores on one row and against the one-row reference of
``test_shared_moduli`` bit for bit, warnings included, on pairs drawn from the
interior and within 1e-12 of the segment and of the arc, at radii in
[2^-1022, 1].  The validated ``kobayashi_distance`` of the disc, the
half-plane and the half-discs runs on the same pass: it is checked against the
batch core on one row, the route it replaced, bit for bit and warnings
included, and both validated routes are checked to accept and refuse every
point form as ``member_coords`` does.  The complement is formed as
(2 Im z / |z - conj w|)(2 Im w / |z - conj w|), which forms no square: the
tests below check it where 4 Im z Im w or |z - conj w|^2 would under- or
overflow, and check that scaling both points by 2^k moves no bit.
"""

import cmath
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invlab import distances
from invlab.distances import (
    OVERFLOW_EDGE,
    GapDecomposition,
    _atanh_stable,
    _logs,
    distance_batch,
    gap_terms_batch,
    halfdisc_distance_batch,
    halfplane_distance_batch,
    kobayashi_distance,
    localization_gap,
)
from invlab.geometry import Ball, HalfDiscScaled, HalfPlane, UnitDisc, contains, member_coords
from test_shared_moduli import (
    FAMILIES,
    _fields,
    _halfplane_core,
    _pairs,
    _recorded,
    _ref_localization_gap,
    _same,
)

EPS = sys.float_info.epsilon

_angle = st.floats(1e-6, math.pi - 1e-6)
_offset = st.floats(1e-15, 1e-12)
UNIT_POINTS = st.one_of(
    st.builds(lambda rho, t: rho * cmath.exp(1j * t), st.floats(0.0, 1.0 - 1e-9), _angle),
    st.builds(complex, st.floats(-1.0 + 1e-6, 1.0 - 1e-6), _offset),
    st.builds(lambda d, t: (1.0 - d) * cmath.exp(1j * t), _offset, st.floats(0.01, math.pi - 0.01)),
)


@settings(max_examples=400, deadline=None)
@given(st.floats(2.0**-1022, 1.0), UNIT_POINTS, UNIT_POINTS)  # every radius HalfDiscScaled takes
def test_scalar_gap_matches_the_array_reference_bit_for_bit(radius, a, b):
    z, w = radius * a, radius * b
    domain = HalfDiscScaled(radius)
    assume(contains(domain, z) and contains(domain, w))
    got, got_warned = _recorded(localization_gap, z, w, radius)
    want, want_warned = _recorded(_ref_localization_gap, z, w, radius)
    assert _same(_fields(got), _fields(want))
    assert got_warned == want_warned


def _one_row_gap(z, w, radius):
    """The gap from the batch cores on one row: the terms of the pair scaled by
    1/radius, as ``halfdisc_distance_batch`` scales it, and the two distances."""
    Z, W = np.array([z]), np.array([w])
    s = 1.0 / radius
    tb, ts = (float(t[0]) for t in gap_terms_batch(Z * s, W * s))
    k_local = float(halfdisc_distance_batch(Z, W, radius)[0])
    k_global = float(halfplane_distance_batch(Z, W)[0])
    gap = tb + ts
    return GapDecomposition(gap, tb, ts, abs(gap - (k_local - k_global)), k_local, k_global)


@pytest.mark.parametrize("safe", [None, 1.0, 1.5], ids=["safe", "safe1", "safe1.5"])
@pytest.mark.parametrize("radius", [1.0, 0.37, 0.3, 0.77])
def test_scalar_gap_is_the_one_row_batch_route(monkeypatch, radius, safe):
    # a narrowed SAFE makes the pass decline about half the pairs, whose
    # arithmetic then runs on numpy scalars
    if safe is not None:
        monkeypatch.setattr(distances, "SAFE", safe)
    domain = HalfDiscScaled(radius)
    warned = 0
    for i, family in enumerate(FAMILIES):
        z, w = _pairs(family, 300, 4400 + i, radius)
        for a, b in zip(z.tolist(), w.tolist()):
            got, got_warned = _recorded(localization_gap, a, b, radius)
            want, want_warned = _recorded(_one_row_gap, a, b, radius)
            assert _same(_fields(got), _fields(want)), (a, b)
            assert got_warned == want_warned, (a, b)
            for value, dom in ((got.k_local, domain), (got.k_global, HalfPlane())):
                assert _same(np.float64(value), np.float64(kobayashi_distance(dom, a, b).value)), (a, b)
            warned += bool(want_warned)
    assert warned > 0


def test_scalar_atanh_keeps_the_bits_of_the_array_form():
    cases = [
        (0.3, 0.91), (0.0, 1.0), (OVERFLOW_EDGE, 2e-15), (1.0, 0.0), (0.5, 0.0),
        (0.5, -0.1), (math.nan, 0.5), (0.5, math.nan),
    ]
    want = _atanh_stable(*np.array(cases).T)
    # each pair alone and all in one stack, as Python floats and as numpy scalars
    for stacks in ([[c] for c in cases], [cases], [[tuple(map(np.float64, c)) for c in cases]]):
        got = []
        for pairs in stacks:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got += _logs([], pairs)[1]
        assert all(type(g) is float for g in got)
        assert _same(np.array(got), want), stacks


# --------------------------------------------------------------------------
# the validated planar distances against the one-row route
# --------------------------------------------------------------------------

PLANAR = [UnitDisc(), HalfPlane(), HalfDiscScaled(1.0), HalfDiscScaled(0.37), Ball(1)]


def _one_row(domain, z, w):
    """The validated distance's route before the scalar pass: the batch core on one row."""
    return float(distance_batch(domain)(np.array([[z]]), np.array([[w]]))[0])


def _planar_points(domain, rng, n):
    """n points of a planar member: a third inside, a third within 1e-12 of
    the boundary (down to 1e-16, where ratios cross the overflow edge), and a
    third anywhere in the disc, within 1e-12 of the half-discs' segment, or far
    out in the half-plane (Im z up to 1e12)."""
    third = n // 3
    depth = 10.0 ** rng.uniform(-16.0, -12.0, n - 2 * third)
    if isinstance(domain, HalfPlane):
        x = rng.uniform(-3.0, 3.0, n)
        y = np.concatenate([10.0 ** rng.uniform(-3.0, 1.0, third), depth, 10.0 ** rng.uniform(8.0, 12.0, third)])
        return x + 1j * y
    r = getattr(domain, "radius", 1.0)
    top = math.pi if hasattr(domain, "radius") else 2.0 * math.pi
    theta = rng.uniform(1e-3, top - 1e-3, n)
    rho = np.concatenate([np.sqrt(rng.uniform(0.0, 1.0, third)), 1.0 - depth, rng.uniform(0.0, 1.0, third)])
    pts = rho * np.exp(1j * theta)
    if top == math.pi:
        pts[-third:] = pts[-third:].real + 1j * 10.0 ** rng.uniform(-16.0, -12.0, third)
    return r * pts


@pytest.mark.parametrize("domain", PLANAR, ids=repr)
def test_validated_planar_distance_matches_the_one_row_route_bit_for_bit(domain):
    rng = np.random.default_rng(4100 + PLANAR.index(domain))
    z, w = _planar_points(domain, rng, 600), _planar_points(domain, rng, 600)
    pairs = [(a, b) for a, b in zip(z.tolist(), w[rng.permutation(600)].tolist())]
    pairs = [(a, b) for a, b in pairs if contains(domain, a) and contains(domain, b)]
    assert len(pairs) > 500
    edge = 0
    for a, b in pairs:
        got, got_warned = _recorded(lambda: kobayashi_distance(domain, a, b).value)
        want, want_warned = _recorded(_one_row, domain, a, b)
        assert _same(np.float64(got), np.float64(want)), (a, b)
        assert got_warned == want_warned, (a, b)
        if isinstance(domain, Ball):  # the disc's scalar pass gives the ball's bits
            assert _same(np.float64(kobayashi_distance(UnitDisc(), a, b).value), np.float64(want))
        edge += want == math.inf
    assert 0 < edge < len(pairs)  # pairs on both sides of the overflow edge


def test_validated_halfplane_distance_at_the_ends_of_the_double_range():
    # pairs from 2^500 on are declined by the pass, and keep numpy's overflow warnings
    ys = [5e-324, 1e-300, 1e-170, 1.0, 2.0**499, 2.0**500, 2.0**501, 1e200, 1e300, 1e308, 1.7e308]
    points = [complex(x, y) for y in ys for x in (0.0, -y, 0.5 * y)] + [1.5e308 + 1.5e308j, -1.7e308 + 1j]
    for a in points:
        for b in points[::3]:
            got, got_warned = _recorded(lambda: kobayashi_distance(HalfPlane(), a, b).value)
            want, want_warned = _recorded(_one_row, HalfPlane(), a, b)
            assert _same(np.float64(got), np.float64(want)), (a, b)
            assert got_warned == want_warned, (a, b)


@pytest.mark.parametrize("safe", [1.0, 1.5], ids=["safe1", "safe1.5"])
def test_declined_pairs_keep_the_one_row_bits(monkeypatch, safe):
    # a narrow range makes the pass decline about half the pairs: the
    # validated distance then takes the one-row route, and the gap runs its
    # arithmetic on numpy scalars
    monkeypatch.setattr(distances, "SAFE", safe)
    rng = np.random.default_rng(4200)
    for domain in PLANAR[:4]:
        z, w = _planar_points(domain, rng, 90), _planar_points(domain, rng, 90)
        for a, b in zip(z.tolist(), w.tolist()):
            if contains(domain, a) and contains(domain, b):
                want = _recorded(_one_row, domain, a, b)
                got = _recorded(lambda: kobayashi_distance(domain, a, b).value)
                assert _same(np.float64(got[0]), np.float64(want[0])) and got[1] == want[1]
    z, w = _pairs("arc", 200, 4201, 1.0)
    for a, b in zip(z.tolist(), w.tolist()):
        got, got_warned = _recorded(localization_gap, a, b)
        want, want_warned = _recorded(_ref_localization_gap, a, b)
        assert _same(_fields(got), _fields(want)) and got_warned == want_warned


# --------------------------------------------------------------------------
# validation: the scalar routes accept and refuse as member_coords does
# --------------------------------------------------------------------------

_VALUES = [
    0.1 + 0.2j, 0.3 + 0.5j, 0.25 + 0j, -0.2 + 0j, 0.36j, 2.0j, 1e300j,  # members of some planar members
    0j, 1 + 0j, -1 + 0j, 1j, 0.37j, 0.37 + 0j, 0.3 + 0j,  # boundary points
    1j * (1.0 - 2.0**-53), 0.37j * (1.0 - 2.0**-53), 0.3 + 5e-324j,  # just inside
    1j * (1.0 + 2.0**-52), 0.37j * (1.0 + 2.0**-52), 0.3 - 5e-324j, complex(1.0 + 2.0**-52),  # just outside
    complex(math.nan, 0.5), complex(0.5, math.nan), complex(math.inf, 0.5), complex(-math.inf, 0.5),
    complex(0.1, math.inf), complex(0.1, -math.inf), complex(math.nan, math.inf), 1.5e308 + 1.5e308j,
]


def _forms(v: complex) -> list:
    """Every form of the point v that ``as_coords`` takes, and some it refuses."""
    with np.errstate(over="ignore"):  # a huge v casts to an infinite 32-bit form
        forms = [v, np.complex128(v), np.complex64(v), np.array(v), np.array([v]), [v], (v,)]
        if v.imag == 0.0:
            forms += [v.real, np.float64(v.real), np.float32(v.real), np.array(v.real)]
    if v.imag == 0.0 and v.real.is_integer():
        forms += [int(v.real), np.int64(v.real)] + ([bool(v.real)] if v.real in (0.0, 1.0) else [])
    return forms + [np.array([v, v]), [v, 0.1j], (v, v, v)]


_ODD_FORMS = [[], (), np.array([]), np.zeros((1, 1)), "0.5", None, 10**400]


def _outcome(call, *args):
    """("ok", warnings) or (exception type, message, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call(*args)
            out = ("ok",)
        except Exception as exc:  # noqa: BLE001 - compared by type and message
            out = (type(exc), str(exc))
    return out + ([(w.category, str(w.message)) for w in caught],)


def _verdict(domain, p, name):
    """``member_coords``'s verdict on p: ("ok",), or its refusal with its warnings."""
    got = _outcome(member_coords, domain, p, name)
    return got if got[0] != "ok" else ("ok",)


@pytest.mark.parametrize("domain", PLANAR[:4], ids=repr)
def test_validated_distance_accepts_and_refuses_as_member_coords(domain):
    anchor = 0.1 + 0.2j
    checked = 0
    for p in [f for v in _VALUES for f in _forms(v)] + _ODD_FORMS:
        for args, name in (((p, anchor), "z"), ((anchor, p), "w")):
            want = _verdict(domain, p, name)
            got = _outcome(lambda: kobayashi_distance(domain, *args))
            assert got[0] == "ok" if want == ("ok",) else got == want, (p, name)
            checked += want[0] == "ok"
    assert checked > 20


@pytest.mark.parametrize("radius", [1.0, 0.37])
def test_validated_gap_accepts_and_refuses_as_member_coords(radius):
    domain, anchor = HalfDiscScaled(radius), 0.1 + 0.2j
    checked = 0
    for p in [f for v in _VALUES for f in _forms(v)] + _ODD_FORMS:
        for args, name in (((p, anchor), "z"), ((anchor, p), "w")):
            want = _verdict(domain, p, name)
            got = _outcome(localization_gap, *args, radius)
            assert got[0] == "ok" if want == ("ok",) else got == want, (p, name)
            checked += want[0] == "ok"
    assert checked > 10


# --------------------------------------------------------------------------
# the half-plane complement across the double range
# --------------------------------------------------------------------------
# Formed as 4 Im z Im w / |z - conj w|^2, the complement is 0/0 where the
# square underflows (|z - conj w| below ~1.5e-154) and inf/inf where it
# overflows (above ~1.3e154): a NaN and a RuntimeWarning either way.

def _quiet(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(*args)


@pytest.mark.parametrize("domain", [HalfPlane(), HalfDiscScaled(1.0)], ids=["halfplane", "halfdisc"])
def test_distance_survives_the_underflow_of_the_complement(domain):
    # m = 1/3 and 1 - m^2 = 8/9; the half-disc factor |1 - z w| / |1 - z conj w|
    # is 1 within 1e-300 here
    d = _quiet(kobayashi_distance, domain, 0.3 + 1e-170j, 0.3 + 2e-170j).value
    assert d == pytest.approx(math.atanh(1.0 / 3.0), rel=4 * EPS, abs=0.0)


@pytest.mark.parametrize("z, w, m", [(1e200j, 2e200j, 1.0 / 3.0), (1e160j, 3e160j, 0.5)])
def test_distance_survives_the_overflow_of_the_complement(z, w, m):
    d = _quiet(kobayashi_distance, HalfPlane(), z, w).value
    assert d == pytest.approx(math.atanh(m), rel=4 * EPS, abs=0.0)


def test_gap_survives_the_underflow_of_the_complement():
    g = _quiet(localization_gap, 0.3 + 1e-300j, 0.3 + 1e-300j)
    # z = w: both distances, both terms and the residual are 0
    assert all(math.isfinite(v) and abs(v) <= 4 * EPS for v in _fields(g))


def test_complement_is_within_4_eps_of_exact_across_the_range():
    # rows 0 and 2 take 4 Im z Im w below the normal range (4e-340, 4e-309),
    # rows 4 and 5 take |z - conj w|^2 past the largest double
    z = np.array([0.3 + 1e-170j, 0.5j, 0.2 + 1e-161j, -0.4 + 0.3j, 1e200j, 1e160j])
    w = np.array([0.3 + 2e-170j, 0.25j, 0.1 + 1e-148j, 0.1 + 0.6j, 2e200j, 3e160j])
    comp = _quiet(_halfplane_core, z, w)[1]
    with mpmath.workdps(50):
        exact = [
            float(4 * mpmath.mpf(a.imag) * mpmath.mpf(b.imag) / abs(mpmath.mpc(a) - mpmath.conj(b)) ** 2)
            for a, b in zip(z.tolist(), w.tolist())
        ]
    np.testing.assert_allclose(comp, exact, rtol=4 * EPS, atol=0.0)


_scale = st.floats(2.0**-20, 2.0**20)
_re = st.one_of(st.just(0.0), _scale, _scale.map(lambda x: -x))
HALFPLANE_POINTS = st.builds(complex, _re, _scale)


@settings(max_examples=400, deadline=None)
@given(st.integers(-990, 990), HALFPLANE_POINTS, HALFPLANE_POINTS)
def test_halfplane_distance_is_bit_identical_under_scaling_by_powers_of_two(k, z, w):
    # scaling by 2^k is exact while every modulus stays normal: |z - w| is 0 or
    # at least 2^-30, the coordinates 0 or in [2^-20, 2^20]
    assume(z == w or abs(z - w) >= 2.0**-30)
    z, w = np.array([z]), np.array([w])
    want = halfplane_distance_batch(z, w)
    got = _quiet(halfplane_distance_batch, math.ldexp(1.0, k) * z, math.ldexp(1.0, k) * w)
    assert got.tobytes() == want.tobytes()
