"""The scalar gap pass on numpy scalars, and the half-plane complement across
the double range.

``localization_gap`` makes its one pass on numpy scalars; the property test
checks it against the 0-d array reference of ``test_shared_moduli`` bit for
bit, warnings included, on pairs drawn from the interior and within 1e-12 of
the segment and of the arc, at radii in (0, 1].  The complement is formed as
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

from invlab.distances import (
    OVERFLOW_EDGE,
    _atanh_scalar,
    _atanh_stable,
    halfplane_distance_batch,
    kobayashi_distance,
    localization_gap,
)
from invlab.geometry import HalfDiscScaled, HalfPlane, contains
from test_shared_moduli import _fields, _halfplane_core, _recorded, _ref_localization_gap, _same

EPS = sys.float_info.epsilon

_angle = st.floats(1e-6, math.pi - 1e-6)
_offset = st.floats(1e-15, 1e-12)
UNIT_POINTS = st.one_of(
    st.builds(lambda rho, t: rho * cmath.exp(1j * t), st.floats(0.0, 1.0 - 1e-9), _angle),
    st.builds(complex, st.floats(-1.0 + 1e-6, 1.0 - 1e-6), _offset),
    st.builds(lambda d, t: (1.0 - d) * cmath.exp(1j * t), _offset, st.floats(0.01, math.pi - 0.01)),
)


@settings(max_examples=400, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True), UNIT_POINTS, UNIT_POINTS)
def test_scalar_gap_matches_the_array_reference_bit_for_bit(radius, a, b):
    z, w = radius * a, radius * b
    domain = HalfDiscScaled(radius)
    assume(contains(domain, z) and contains(domain, w))
    got, got_warned = _recorded(localization_gap, z, w, radius)
    want, want_warned = _recorded(_ref_localization_gap, z, w, radius)
    assert _same(_fields(got), _fields(want))
    assert got_warned == want_warned


def test_scalar_atanh_keeps_the_bits_of_the_array_form():
    cases = [(0.3, 0.91), (0.0, 1.0), (OVERFLOW_EDGE, 2e-15), (1.0, 0.0), (0.5, 0.0), (math.nan, 0.5), (0.5, math.nan)]
    for m, comp in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _atanh_scalar(np.float64(m), np.float64(comp))
        want = float(_atanh_stable(m, comp))
        assert type(got) is float
        assert _same(np.float64(got), np.float64(want)), (m, comp)


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
