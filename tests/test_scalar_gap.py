"""The scalar gap pass on numpy scalars, and the half-plane complement's
underflow repair.

``localization_gap`` makes its one pass on numpy scalars; the property test
checks it against the 0-d array reference of ``test_shared_moduli`` bit for
bit, warnings included, on pairs drawn from the interior and within 1e-12 of
the segment and of the arc, at radii in (0, 1].  Where 4 Im z Im w leaves the
normal range the complement is formed otherwise (and the reference gives
0/0), so the property test draws above it and the regression tests below
cover the repair.
"""

import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invlab.distances import (
    OVERFLOW_EDGE,
    _atanh_scalar,
    _atanh_stable,
    halfplane_complement,
    kobayashi_distance,
    localization_gap,
)
from invlab.geometry import HalfDiscScaled, HalfPlane, contains
from test_shared_moduli import _fields, _recorded, _ref_localization_gap, _same

EPS = sys.float_info.epsilon
TINY = sys.float_info.min

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
    assume(4.0 * z.imag * w.imag >= TINY)  # the repair's range has its own tests
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
# the half-plane complement below the normal range
# --------------------------------------------------------------------------
# |z - conj w|^2 underflows to 0 below |z - conj w| ~ 1.5e-154, and with it
# 4 Im z Im w: the complement was 0/0, a NaN and an "invalid value" warning.

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


def test_gap_survives_the_underflow_of_the_complement():
    g = _quiet(localization_gap, 0.3 + 1e-300j, 0.3 + 1e-300j)
    # z = w: both distances, both terms and the residual are 0
    assert all(math.isfinite(v) and abs(v) <= 4 * EPS for v in _fields(g))


def test_underflow_repair_leaves_the_other_rows_alone():
    z = np.array([0.3 + 1e-170j, 0.5j, 0.2 + 1e-161j, -0.4 + 0.3j])
    w = np.array([0.3 + 2e-170j, 0.25j, 0.1 + 1e-148j, 0.1 + 0.6j])
    comp = _quiet(halfplane_complement, z, w)
    zn, wn = z[[1, 3]], w[[1, 3]]
    assert comp[[1, 3]].tobytes() == (4.0 * zn.imag * wn.imag / np.abs(zn - np.conj(wn)) ** 2).tobytes()
    # 4 Im z Im w = 4e-309 leaves the normal range, |z - conj w|^2 = 0.01 does
    # not; the reference scales Im z by 2^200 (exactly) to stay normal
    exact = [8.0 / 9.0, 4.0 * (1e-161 * 2.0**200) * 1e-148 / abs(z[2] - w[2].conjugate()) ** 2 * 2.0**-200]
    np.testing.assert_allclose(comp[[0, 2]], exact, rtol=4 * EPS)
