import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab.conformal import (
    Cayley,
    Composition,
    HalfDiscToHalfPlane,
    Mobius,
    Scale,
    apply,
    derivative,
    invert_by_newton,
)
from invlab.geometry import MembershipError
from invlab.sampling import halfdisc_points

F = HalfDiscToHalfPlane()


def _difference_error(m, z, h):
    """Relative gap between the exact derivative and a central difference of step h."""
    exact = derivative(m, z)
    return abs((apply(m, z + h) - apply(m, z - h)) / (2 * h) - exact) / abs(exact)


def test_apply_examples():
    assert apply(F, 0.5j) == pytest.approx(-0.28 + 0.96j, abs=1e-15)
    exact = ((1 + 0.25j) / (-1 + 0.25j)) ** 2
    assert apply(F, 0.25j) == pytest.approx(exact, abs=1e-15)
    assert exact == pytest.approx(0.557093 + 0.830450j, abs=1e-5)
    assert apply(Scale(1), 0.3 + 0.1j) == 0.3 + 0.1j


def test_derivative_examples():
    assert derivative(F, 0.0) == pytest.approx(4.0, abs=1e-15)
    assert derivative(Scale(1), 123.0) == 1.0
    assert derivative(Scale(2 + 1j), 0.1) == 2 + 1j


def test_derivative_matches_central_difference_examples():
    assert _difference_error(F, 0.5j, 1e-5) <= 1e-8
    assert _difference_error(Scale(2 + 1j), 0.1, 1e-5) <= 1e-12
    assert _difference_error(Mobius(1, 2, 3, 4), 0.2 + 0.1j, 1e-6) <= 1e-7
    assert _difference_error(Scale(1), 0.0, 1e-5) <= 1e-12


def test_halfdisc_map_lands_in_halfplane():
    pts = halfdisc_points(7, 10_000, 1.0)
    images = np.array([apply(F, z) for z in pts[:200]])
    assert np.all(images.imag > 0)
    # full batch through the unvalidated method
    assert np.all(F.image(pts).imag > 0)


@settings(max_examples=60, deadline=None)
@given(rr=st.floats(0.05, 0.9), th=st.floats(0.08, 0.92))
def test_derivative_matches_central_difference(rr, th):
    z = complex(rr * cmath.exp(1j * cmath.pi * th))
    # keep a 0.05 margin from the half-disc boundary
    if min(z.imag, 1 - abs(z)) < 0.05:
        return
    assert _difference_error(F, z, 1e-6) <= 1e-7


def test_composition_associativity():
    g = Scale(2.0)
    comp = Composition((g, F))
    for z in (0.5j, 0.1 + 0.2j, -0.3 + 0.4j):
        # the same arithmetic as the map-by-map route, so the same bits
        assert apply(comp, z) == apply(g, apply(F, z))
        assert derivative(comp, z) == derivative(g, apply(F, z)) * derivative(F, z)


def test_cayley_convention():
    assert apply(Cayley(), 0.0) == pytest.approx(1j, abs=1e-15)
    assert apply(Cayley(), 0.5).imag > 0
    assert derivative(Cayley(), 0.0) == pytest.approx(-2j, abs=1e-15)


def test_source_domain_enforced():
    with pytest.raises(MembershipError):
        apply(F, 2j)
    with pytest.raises(MembershipError):
        apply(F, -0.5j)
    with pytest.raises(MembershipError):
        apply(Cayley(), 2.0)
    with pytest.raises(MembershipError):
        apply(Mobius(1, 0, 1, -1), 1.0)  # pole
    outer = Composition((Cayley(), Scale(3.0)))  # 0.5 -> 1.5, outside Cayley's disc
    for fn in (apply, derivative):
        with pytest.raises(MembershipError):
            fn(outer, 0.5)


def test_mobius_validation():
    with pytest.raises(ValueError):
        Mobius(1, 2, 2, 4)  # ad - bc = 0
    with pytest.raises(ValueError):
        Scale(0)


def test_newton_inverse_recovers_preimage():
    z0 = 0.3 + 0.4j
    target = apply(F, z0)
    back = invert_by_newton(F, target, seed=z0 + 0.01)
    assert back == pytest.approx(z0, abs=1e-10)
