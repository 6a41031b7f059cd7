import math

import numpy as np
import pytest

from invlab.distances import (
    gap_term_boundary_leading,
    gap_term_separation_leading,
    gap_terms_batch,
    localization_gap,
)
from invlab.localization import (
    AdmissibleWeight,
    VIOLATION_INTEGRAL_DIVERGES,
    VIOLATION_NOT_UNBOUNDED,
    VIOLATION_RATIO_NOT_DECREASING,
    check_admissible,
    empirical_constant,
    fit_exponent,
    integrated_weight_bound,
    near_boundary_lower_bound,
    near_boundary_upper_bound,
    planar_gap_bound,
    ratio_weight_bound,
    refined_excursion_bound,
    SweepRow,
    sharpness_sweep,
    two_term_gap_bound,
    weight_integral,
)
from invlab.sampling import halfdisc_pairs


def test_admissibility_examples():
    assert check_admissible(AdmissibleWeight(1.0, 0.5)) == []
    assert check_admissible(AdmissibleWeight(3.0)) == []
    assert check_admissible(AdmissibleWeight(2.0, 0.3)) == []
    square = check_admissible(lambda x: x**2)
    assert VIOLATION_RATIO_NOT_DECREASING in square
    const = check_admissible(lambda x: 1.0)
    assert VIOLATION_NOT_UNBOUNDED in const
    assert VIOLATION_INTEGRAL_DIVERGES in const


def test_weight_integral_examples():
    assert weight_integral(AdmissibleWeight(1.0, 0.5), 0.04) == pytest.approx(
        0.4, abs=1e-15
    )
    assert weight_integral(AdmissibleWeight(2.5), 0.3) == pytest.approx(0.75, abs=1e-15)
    assert weight_integral(AdmissibleWeight(1.0, 0.5), 0.0) == 0.0
    assert weight_integral(AdmissibleWeight(1.0, 0.03), 1.0) == 1.0 / 0.03


def test_weight_integral_quadrature_matches_closed_form():
    # down to x^0.04, near the smallest power exponent the rule accepts
    cases = [(1.0, 0.5, 0.04), (3.0, 0.25, 0.7), (0.2, 1.0, 1e-3), (1.0, 0.04, 1.0)]
    for c, alpha, T in cases:
        closed = c * T**alpha / alpha
        quadrature = weight_integral(lambda x: c * x**alpha, T)
        assert quadrature == pytest.approx(closed, rel=1e-13)
    # a constant weight has no finite integral of f(x)/x near zero, and x^0.03
    # has not decayed at the smallest normal double (AdmissibleWeight has no
    # such limit)
    for f in (lambda x: 1.0, lambda x: x**0.03):
        with pytest.raises(ValueError):
            weight_integral(f, 0.5)


def _log_weight(x):
    """1/log^2(1/x) up to 0.1, continued above by the power with the same value
    and slope there; its integral of f(x)/x over (0, T] is 1/log(1/T)."""
    if x <= 0.1:
        return 1.0 / math.log(1.0 / x) ** 2
    return (x / 0.1) ** (2.0 / math.log(10.0)) / math.log(10.0) ** 2


@pytest.mark.parametrize("T", [1e-2, 1e-6])
def test_weight_integral_refuses_a_log_weight(T):
    # admissible, but f at the smallest normal double is still 1e-5 of the
    # integral 1/log(1/T), which no sum over doubles can then reach
    assert check_admissible(_log_weight) == []
    with pytest.raises(ValueError):
        weight_integral(_log_weight, T)


def test_integrated_weight_bound_example():
    got = integrated_weight_bound(AdmissibleWeight(1.0, 0.5), 0.0, 1e-4)
    assert got == pytest.approx(0.2, abs=1e-12)
    assert integrated_weight_bound(AdmissibleWeight(1.0, 0.5), 0.3j, 0.3j) == 0.0
    # monotone in the separation
    seps = np.geomspace(1e-6, 1e-2, 12)
    vals = [integrated_weight_bound(AdmissibleWeight(1.0, 0.5), 0.0, s) for s in seps]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_ratio_weight_bound_example():
    got = ratio_weight_bound(AdmissibleWeight(1.0), 0.0, 0.04, 0.01)
    assert got == pytest.approx(1.21, abs=1e-12)
    assert ratio_weight_bound(AdmissibleWeight(1.0), 0.2, 0.2, 0.0) == 1.0
    got = ratio_weight_bound(AdmissibleWeight(1.0, 0.5), 0.0, 1e-4, 0.0)
    assert got == pytest.approx(1.1, abs=1e-12)


def test_refined_excursion_bound_example():
    assert refined_excursion_bound(0.0, 0.01, 0.04, 0.04, 1.0, 1) == pytest.approx(
        0.02, abs=1e-15
    )
    assert refined_excursion_bound(0.3, 0.3, 0.1, 0.2, 1.0, 1) == 0.0
    a = refined_excursion_bound(0.0, 0.01, 0.04, 0.09, 2.0, 2)
    b = refined_excursion_bound(0.0, 0.01, 0.09, 0.04, 2.0, 2)
    assert a == b  # symmetric in the two boundary distances


def test_planar_gap_bound_example():
    got = planar_gap_bound(1.0, 0.5j, 0.25j, 0.5, 0.25)
    assert got == pytest.approx(0.25 * (0.25 + math.sqrt(0.125)), abs=1e-15)
    assert got == pytest.approx(0.1508883, abs=1e-7)
    assert planar_gap_bound(3.0, 0.5j, 0.25j, 0.5, 0.25) == pytest.approx(
        3 * got, rel=1e-15
    )
    assert planar_gap_bound(1.0, 0.2j, 0.2j, 0.2, 0.2) == 0.0


def test_near_boundary_bounds():
    got = near_boundary_upper_bound(0.5j, 0.25j, 0.5, 0.25, 2.0)
    assert got == pytest.approx(math.log(2.4142136), abs=1e-7)
    assert near_boundary_upper_bound(0.3j, 0.3j, 0.3, 0.3, 2.0) == 0.0
    low = near_boundary_lower_bound(0.5j, 0.25j, 0.5, 1.0, 1)
    assert low == pytest.approx(math.log(1 + 0.25 / math.sqrt(0.5)), abs=1e-15)
    with pytest.raises(ValueError):
        near_boundary_upper_bound(0.5j, 0.25j, 0.0, 0.25, 1.0)


def test_empirical_constant_examples():
    report = empirical_constant(
        [(0.5j, 0.25j)],
        lambda z, w: localization_gap(z, w).gap,
        lambda z, w: planar_gap_bound(1.0, z, w, z.imag, w.imag),
    )
    expected = (0.5 * math.log(1.25)) / (0.25 * (0.25 + math.sqrt(0.125)))
    assert report.max_ratio == pytest.approx(expected, abs=1e-12)
    assert report.max_ratio == pytest.approx(0.7394, abs=1e-4)
    assert report.argmax_pair == (0.5j, 0.25j)
    assert report.sample_count == 1

    same = empirical_constant([(1j, 2j)], lambda z, w: 3.0, lambda z, w: 3.0)
    assert same.max_ratio == 1.0
    zero = empirical_constant([(1j, 2j)], lambda z, w: 0.0, lambda z, w: 3.0)
    assert zero.max_ratio == 0.0
    with pytest.raises(ValueError):
        empirical_constant([], lambda z, w: 1.0, lambda z, w: 1.0)
    with pytest.raises(ValueError):
        empirical_constant([(1j, 1j)], lambda z, w: 1.0, lambda z, w: 1.0)


def test_fit_exponent_examples():
    h = np.geomspace(1e-4, 1.0, 9)
    assert fit_exponent(list(zip(h, h**2))) == pytest.approx(2.0, abs=1e-12)
    assert fit_exponent([(x, 5.0) for x in h]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_exponent([(1.0, 1.0), (2.0, 4.0)])
    with pytest.raises(ValueError):
        fit_exponent([(1.0, 1.0), (2.0, -4.0), (3.0, 9.0)])


def test_dyadic_gap_slope_is_two():
    samples = []
    for k in range(6, 15):
        h = 2.0**-k
        samples.append((h, localization_gap(2j * h, 1j * h).gap))
    assert fit_exponent(samples) == pytest.approx(2.0, abs=0.05)


def test_sharpness_sweep_families():
    rows = sharpness_sweep([1e-3])
    by_family = {r.family: r for r in rows}
    assert by_family["balanced"].ratio == pytest.approx(1.0, abs=0.02)
    assert by_family["drop-boundary"].ratio > 10.0
    assert by_family["drop-separation"].ratio > 10.0

    finite = sharpness_sweep([0.05])
    assert all(math.isfinite(r.ratio) for r in finite)
    with pytest.raises(ValueError):
        sharpness_sweep([0.5])
    with pytest.raises(ValueError):
        sharpness_sweep([0.0])


# the row-at-a-time sweep that the batched one replaced, kept as its reference
def _reference_two_term_gap_bound(z: complex, w: complex) -> float:
    sep = abs(z - w)
    return sep * (0.5 * sep + min(z.imag, w.imag))


def _gap(z, w) -> float:
    tb, ts = gap_terms_batch(np.asarray([z]), np.asarray([w]))
    return float(tb[0] + ts[0])


def _reference_sharpness_sweep(t_values):
    rows = []
    for t in t_values:
        t = float(t)
        if not (0.0 < t <= 0.1):
            raise ValueError("sweep parameters must lie in (0, 0.1]")
        z = 1j * t
        cases = (
            ("balanced", 0.5j * t, lambda zz, ww: _reference_two_term_gap_bound(zz, ww)),
            (
                "drop-boundary",
                1j * t * (1.0 - 1e-6),
                lambda zz, ww: abs(zz - ww) * 0.5 * abs(zz - ww),
            ),
            (
                "drop-separation",
                1j * t * t,
                lambda zz, ww: abs(zz - ww) * min(zz.imag, ww.imag),
            ),
        )
        for family, w, bound_fn in cases:
            gap = _gap(z, w)
            bound = bound_fn(z, w)
            rows.append(SweepRow(family, t, z, w, gap, bound, gap / bound))
    return rows


def test_sharpness_sweep_matches_the_row_at_a_time_reference():
    grid = np.geomspace(1e-5, 0.1, 61)
    got = sharpness_sweep(grid)
    want = _reference_sharpness_sweep(grid)
    assert len(got) == len(want) == 3 * len(grid)
    for g, r in zip(got, want):
        for name in SweepRow.__dataclass_fields__:
            a, b = getattr(g, name), getattr(r, name)
            assert type(a) is type(b) and a == b, (name, a, b)
    # a bad value anywhere in the grid rejects the whole sweep, as row by row
    with pytest.raises(ValueError):
        sharpness_sweep([0.05, 0.0])


def test_shapes_agree_on_scalars_and_arrays():
    z, w = halfdisc_pairs(41, 300, 0.5)
    shapes = {
        "two_term": two_term_gap_bound,
        "planar": lambda a, b: planar_gap_bound(1.7, a, b, a.imag, b.imag),
        "boundary_leading": gap_term_boundary_leading,
        "separation_leading": gap_term_separation_leading,
    }
    for name, shape in shapes.items():
        batch = shape(z, w)
        single = [shape(complex(a), complex(b)) for a, b in zip(z, w)]
        assert np.array_equal(batch, single), name
        assert all(isinstance(v, float) for v in single), name
    # the scalar shape is the one the row-at-a-time sweep used
    assert [_reference_two_term_gap_bound(complex(a), complex(b)) for a, b in zip(z, w)] == list(
        two_term_gap_bound(z, w)
    )
    for leading in (gap_term_boundary_leading, gap_term_separation_leading):
        with pytest.raises(ValueError):
            leading(z, np.concatenate([w[:-1], z[-1:]]))


def test_one_term_families_with_both_term_bound_stay_tame():
    # with both terms kept, the same families do not blow up
    for t in (1e-3, 1e-2):
        for w in (1j * t * (1 - 1e-6), 1j * t * t):
            gap = localization_gap(1j * t, w).gap
            assert gap / two_term_gap_bound(1j * t, w) <= 1.1


def test_gap_under_planar_shape_on_cap():
    z, w = halfdisc_pairs(37, 2_000, 0.05)
    worst = 0.0
    for zz, ww in zip(z, w):
        gap = localization_gap(complex(zz), complex(ww)).gap
        shape = planar_gap_bound(1.0, complex(zz), complex(ww), zz.imag, ww.imag)
        if shape > 0:
            worst = max(worst, gap / shape)
    assert worst <= 2.0


def test_ratio_shape_report_records_constant_and_exponent():
    # ratio bound: k_loc/k_glob - 1 against delta(z) + |z-w|^(1/2)
    pairs = []
    for k in range(6, 15):
        h = 2.0**-k
        pairs.append((2j * h, 1j * h))
    report = empirical_constant(
        pairs,
        lambda z, w: localization_gap(z, w).gap
        / localization_gap(z, w).k_global,
        lambda z, w: z.imag + abs(z - w) ** 0.5,
    )
    assert 0.0 < report.max_ratio < 5.0
    # the fitted rate on this family beats the conservative 1/2 guarantee
    slope = fit_exponent(
        [
            (abs(z - w), localization_gap(z, w).gap / localization_gap(z, w).k_global)
            for z, w in pairs
        ]
    )
    assert slope > 1.0


def test_bound_shape_validation():
    with pytest.raises(ValueError):
        integrated_weight_bound(AdmissibleWeight(1.0, 0.5), 0.0, 1e-4, m=0)
    with pytest.raises(ValueError):
        ratio_weight_bound(AdmissibleWeight(1.0), 0.0, 0.04, 0.01, m=0)
    with pytest.raises(ValueError):
        AdmissibleWeight(1.0, 2.0)
    with pytest.raises(ValueError):
        AdmissibleWeight(0.0)
