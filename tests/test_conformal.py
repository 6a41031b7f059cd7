import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab.conformal import (
    NEWTON_TOL,
    Cayley,
    Composition,
    HalfDiscToHalfPlane,
    Mobius,
    Scale,
    apply,
    derivative,
    invert_by_newton,
)
from invlab.geometry import HalfPlane, MembershipError, _masked, contains_batch
from invlab.metrics import kobayashi_density, pullback
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


def test_newton_refuses_a_critical_point_short_of_the_target():
    # f'(-1) = 0 and -1 lies in the closed half-disc, so the step would divide by zero
    with pytest.raises(RuntimeError, match="critical point"):
        invert_by_newton(F, 0.5 + 0.5j, -1 + 0j)
    with pytest.raises(RuntimeError, match="critical point"):
        invert_by_newton(F, np.complex128(0.5 + 0.5j), -1 + 0j)
    assert invert_by_newton(F, 0.0, -1 + 0j) == -1  # f(-1) = 0: already there


NOT_FINITE = [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0), complex(0.5, -math.inf)]
ALL_MAPS = [
    Scale(2.0),
    Mobius(2.0, 1j, -0.5j, 3.0),
    Cayley(),
    F,
    Composition((Scale(2.0), F)),
    Composition((Mobius(2.0, 1j, -0.5j, 3.0), Scale(0.5 - 0.25j), F)),
]


@pytest.mark.parametrize("m", ALL_MAPS, ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("z", NOT_FINITE, ids=str)
def test_a_point_that_is_not_finite_is_refused(m, z):
    for fn in (apply, derivative):
        with pytest.raises(MembershipError):
            fn(m, z)
    with pytest.raises(MembershipError):
        invert_by_newton(m, 0.5j, z)
    # a NaN target sends the first step to NaN, which the next check refuses
    with pytest.raises(MembershipError):
        invert_by_newton(m, complex(math.nan, 1.0), 0.5j)


def test_the_halfdisc_and_cayley_checks_refuse_nan():
    for m in (F, Cayley()):
        for z in NOT_FINITE:
            with pytest.raises(MembershipError, match="outside the closed"):
                m.check(z)


def test_a_composition_refuses_an_image_that_is_not_finite():
    m = Composition((Mobius(2.0, 1j, -0.5j, 3.0), Scale(1e300)))
    assert apply(m, 1e7) == apply(m.maps[0], apply(m.maps[1], 1e7))
    for fn in (apply, derivative):
        with pytest.raises(MembershipError, match="not finite"):
            fn(m, 1e10)  # Scale sends it to inf, which the Mobius part receives


# --------------------------------------------------------------------------
# bit pins: frozen copies of the bodies that computed image and derivative in
# separate walks and checked each Newton iterate twice
# --------------------------------------------------------------------------

_REF_BODIES = {
    Scale: (lambda m, z: m.factor * z, lambda m, z: m.factor * np.ones_like(z)),
    Mobius: (
        lambda m, z: (m.a * z + m.b) / (m.c * z + m.d),
        lambda m, z: (m.a * m.d - m.b * m.c) / (m.c * z + m.d) ** 2,
    ),
    Cayley: (lambda m, z: 1j * (1 - z) / (1 + z), lambda m, z: -2j / (1 + z) ** 2),
    HalfDiscToHalfPlane: (lambda m, z: ((z + 1) / (z - 1)) ** 2, lambda m, z: -4 * (z + 1) / (z - 1) ** 3),
}


def _ref_image(m, z):
    if isinstance(m, Composition):
        for part in reversed(m.maps):
            z = _ref_image(part, z)
        return z
    return _REF_BODIES[type(m)][0](m, z)


def _ref_derivative(m, z):
    if isinstance(m, Composition):
        deriv = 1.0 + 0j
        for part in reversed(m.maps):
            deriv = deriv * _ref_derivative(part, z)
            z = _ref_image(part, z)
        return deriv
    return _REF_BODIES[type(m)][1](m, z)


def _ref_check(m, z):
    if isinstance(m, Composition):
        for part in reversed(m.maps):
            _ref_check(part, z)
            z = _ref_image(part, z)
    elif isinstance(m, Mobius):
        if abs(m.c * z + m.d) == 0.0:
            raise MembershipError("point is the pole of the Mobius map")
    elif isinstance(m, Cayley):
        if abs(z) > 1.0 or z == -1.0:
            raise MembershipError(f"point {z} is outside the closed unit disc")
    elif isinstance(m, HalfDiscToHalfPlane):
        if z.imag < 0.0 or abs(z) > 1.0 or z == 1.0:
            raise MembershipError(f"point {z} is outside the closed upper half-disc")


def _ref_newton(m, target, seed):
    def checked(body, z):
        z = complex(z)
        _ref_check(m, z)
        return complex(body(m, z))

    z = complex(seed)
    for _ in range(100):
        fz = checked(_ref_image, z)
        if abs(fz - target) <= NEWTON_TOL * max(1.0, abs(target)):
            return z
        z = z - (fz - target) / checked(_ref_derivative, z)
    raise RuntimeError("Newton inversion did not converge")


def _ref_pullback_core(m, density, Z, X):
    z = Z[:, 0]
    inside = contains_batch(m.source, Z)
    zsafe = np.where(inside, z, 0.5j)
    w = _ref_image(m, zsafe)
    d = _ref_derivative(m, zsafe) * X[:, 0]
    return _masked(density.core(w[:, None], d[:, None]), inside)


def _bits(v):
    return type(v), np.asarray(v).tobytes()


PIN_MAPS = ALL_MAPS + [
    Scale(2 + 1j),
    Composition((Cayley(), Composition((Scale(0.25), Mobius(1, 0.5, 0.2j, 2))))),
]


def _plane_points(n, seed):
    """Seeded points of [-1.5, 1.5]^2, a tenth of them on the real and imaginary axes."""
    g = np.random.default_rng(seed)
    z = g.uniform(-1.5, 1.5, n) + 1j * g.uniform(-1.5, 1.5, n)
    z[::20] = z[::20].real
    z[1::20] = 1j * z[1::20].imag
    return z


SCALARS = [0j, 0.5j, 1j, -0.0 + 0j, 0.3 - 0.0j, 1e-300 + 1e-300j, 1e60 - 1e60j] + [
    complex(z) for z in _plane_points(300, 11)
]


@pytest.mark.parametrize("m", PIN_MAPS, ids=lambda m: type(m).__name__)
def test_jet_keeps_the_bits_of_the_separate_walks_on_scalars(m):
    for z in SCALARS:
        img, der = _ref_image(m, z), _ref_derivative(m, z)
        assert _bits(m.image(z)) == _bits(img)
        jet = m.jet(z)
        assert (_bits(jet[0]), _bits(jet[1])) == (_bits(img), _bits(der))


@pytest.mark.parametrize("rows", [1, 2048, 20_000])
@pytest.mark.parametrize("m", PIN_MAPS, ids=lambda m: type(m).__name__)
def test_jet_keeps_the_bits_of_the_separate_walks_on_arrays(m, rows):
    z = _plane_points(rows, 12 + rows)
    img, der = _ref_image(m, z), _ref_derivative(m, z)
    jet = m.jet(z)
    for got, want in ((m.image(z), img), (jet[0], img), (jet[1], der)):
        assert type(got) is np.ndarray and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _pullback_mix(n, seed):
    """Half-disc points as the density benchmark draws them: a fifth within
    1e-12 of the boundary, every tenth point outside (reflected or scaled by 1.5)."""
    g = np.random.default_rng(seed)
    near = n // 5
    inner = g.uniform(0.05, 0.95, n - near) * np.exp(1j * g.uniform(0.05, np.pi - 0.05, n - near))
    delta = 10.0 ** g.uniform(np.log10(2e-15), -12.0, near)
    segment = g.uniform(-0.9, 0.9, near) + 1j * 10.0 ** g.uniform(-15.0, -12.0, near)
    arc = (1 - delta) * np.exp(1j * g.uniform(0.01, np.pi - 0.01, near))
    z = np.concatenate([inner, np.where(g.random(near) < 0.5, segment, arc)])
    z[::10] = np.where(np.arange(len(z[::10])) % 2 == 0, np.conj(z[::10]), 1.5 * z[::10])
    X = 10.0 ** g.uniform(-3.0, 1.0, n) * (g.standard_normal(n) + 1j * g.standard_normal(n))
    return z[:, None], X[:, None]


@pytest.mark.parametrize("rows, seed", [(2048, 41), (2048, 42), (2048, 43), (20_000, 44)])
@pytest.mark.parametrize("m", [F, PIN_MAPS[4], PIN_MAPS[5]], ids=["halfdisc", "scaled", "three_deep"])
def test_pullback_keeps_the_bits_of_the_separate_walks(m, rows, seed):
    density = kobayashi_density(HalfPlane())
    Z, X = _pullback_mix(rows, seed)
    got = pullback(m, density).evaluate_batch(Z, X)
    want = _ref_pullback_core(m, density, Z, X)
    assert got.tobytes() == want.tobytes()
    outside = ~contains_batch(F.source, Z)
    assert outside.sum() > rows // 40 and np.isinf(got[outside]).all()


def _outcome(fn, *args):
    try:
        v = fn(*args)
    except (MembershipError, RuntimeError, OverflowError) as exc:
        return type(exc), str(exc)
    return np.asarray(complex(v)).tobytes()


def _newton_cases(seed):
    """(map, target, seed) triples: the benchmark's near starts, far starts that
    converge, stall or leave the source, numpy targets, and the other maps."""
    g = np.random.default_rng(seed)
    cases = []
    for _ in range(200):
        z0 = complex(g.uniform(0.2, 0.9) * np.exp(1j * g.uniform(0.2, np.pi - 0.2)))
        start = complex(z0 * (1 + 0.01 * np.exp(2j * np.pi * g.random())))
        cases.append((F, ((z0 + 1) / (z0 - 1)) ** 2, start))
        far = complex(g.uniform(0.0, 1.0) * np.exp(1j * g.uniform(0.0, np.pi)))
        cases.append((F, np.complex128(((z0 + 1) / (z0 - 1)) ** 2), far))
    # near the pole of the Mobius map at -6i: a case that never meets the tolerance
    mobius = PIN_MAPS[1]
    cases.append((mobius, -47823.316295417775 - 9908.171070476737j, -7.643115118933931e-06 - 5.999954889151302j))
    pts = _plane_points(400, seed)
    for m in PIN_MAPS:
        for a, b in zip(pts[::2], pts[1::2]):
            cases.append((m, complex(_ref_image(m, complex(0.6 * a))), complex(0.6 * b)))
    return cases


@pytest.mark.parametrize("seed", [5, 6])
def test_newton_keeps_the_bits_and_exceptions_of_the_two_check_loop(seed):
    kinds = set()
    for m, target, start in _newton_cases(seed):
        want = _outcome(_ref_newton, m, target, start)
        assert _outcome(invert_by_newton, m, target, start) == want, (m, target, start)
        kinds.add(want[0] if isinstance(want, tuple) else bytes)
    assert kinds == {bytes, MembershipError, RuntimeError}  # every outcome is exercised


def test_mobius_derivative_stays_finite_past_the_square_of_a_python_complex():
    # c z + d beyond about 1e154: the frozen (c z + d) ** 2 raised OverflowError
    # there; q * q overflows to inf and the derivative to 0
    m = Mobius(2, 1j, -0.5j, 3)
    assert cmath.isfinite(derivative(m, 1e160))
    assert cmath.isfinite(apply(m, 1e160))
    with pytest.raises(OverflowError):
        _ref_derivative(m, 1e160)
    # so Newton from near the pole now stalls where its step overflowed
    target, start = 9185602160284.69 - 10194976157977.256j, -0.03735911193096763 - 5.984356340797053j
    with pytest.raises(OverflowError):
        _ref_newton(m, target, start)
    with pytest.raises(RuntimeError, match="critical point"):
        invert_by_newton(m, target, start)
