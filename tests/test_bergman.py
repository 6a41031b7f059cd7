import math
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import bergman, geometry
from invlab.bergman import (
    bergman_kernel_diag,
    bergman_metric_numeric,
    moment_table,
    monomial_moment,
)
from invlab.geometry import (
    Ball,
    BallIntersection,
    DimensionMismatchError,
    HalfPlane,
    MembershipError,
    Polydisc,
    ReinhardtEllipsoid,
    UnitDisc,
    UnsupportedDomainError,
    _modulus,
    as_coords,
    boundary_distance,
    contains,
    dimension,
    member_coords,
)
from test_bergman_bits import METRIC_DOMAINS, _ref_kernel_rows


def test_moment_examples():
    assert monomial_moment(UnitDisc(), 0) == pytest.approx(math.pi, abs=1e-15)
    for m in (1, 3, 7):
        assert monomial_moment(UnitDisc(), m) == pytest.approx(
            math.pi / (m + 1), abs=1e-15
        )
    assert monomial_moment(Ball(2), (0, 0)) == pytest.approx(
        math.pi**2 / 2, abs=1e-12
    )


def _quadrature_moment(alpha, p):
    """Reinhardt ellipsoid moment, one 30-digit quadrature per radial factor
    int_0^1 rho^(2a+1) (1 - rho^(2p))^s d rho over 32 equal pieces, which
    resolve the narrow peak of the high rows (test oracle)."""
    with mpmath.workdps(30):
        out = (2 * mpmath.pi) ** len(alpha)
        for j, (a, pj) in enumerate(zip(alpha, p)):
            s = sum(mpmath.mpf(alpha[k] + 1) / p[k] for k in range(j + 1, len(alpha)))
            out *= mpmath.quad(
                lambda rho: rho ** (2 * a + 1) * (1 - rho ** (2 * mpmath.mpf(pj))) ** s,
                mpmath.linspace(0, 1, 33),
            )
        return float(out)


@pytest.mark.parametrize("alpha", [(0, 0), (1, 0), (0, 2), (3, 1), (2, 3)])
def test_ellipsoid_moment_against_gamma_oracle(alpha):
    # the library's Dirichlet form is the Gamma formula, so the independent side
    # is quadrature
    p = (1.0, 2.0)
    got = monomial_moment(ReinhardtEllipsoid(p), alpha)
    exact = _quadrature_moment(alpha, p)
    assert got == pytest.approx(exact, rel=1e-10)


def test_ellipsoid_moment_past_the_gamma_overflow():
    # (a + 1)/p = 202 and s + 1 = 203: each Gamma alone overflows a double
    alpha, p = (100, 100), (0.5, 0.5)
    got = monomial_moment(ReinhardtEllipsoid(p), alpha)
    assert 0.0 < got < 1e-120
    assert got == pytest.approx(_quadrature_moment(alpha, p), rel=1e-10)


def test_ball_moments_match_ellipsoid_route():
    ball = Ball(2)
    ell = ReinhardtEllipsoid((1.0, 1.0))
    for alpha in [(0, 0), (2, 1), (4, 0)]:
        assert monomial_moment(ball, alpha) == pytest.approx(
            monomial_moment(ell, alpha), rel=1e-10
        )


def test_kernel_examples():
    kr = bergman_kernel_diag(UnitDisc(), 0.0, 50)
    assert kr.kernel_diag == pytest.approx(1 / math.pi, abs=1e-15)
    assert kr.kernel_sqrt == pytest.approx(1 / math.sqrt(math.pi), abs=1e-15)
    assert kr.tail_estimate == 0.0

    kr = bergman_kernel_diag(UnitDisc(), 0.5, 50)
    assert kr.kernel_diag == pytest.approx(16 / (9 * math.pi), abs=1e-8)
    assert kr.kernel_sqrt**2 == pytest.approx(kr.kernel_diag, rel=1e-15)

    kr2 = bergman_kernel_diag(Polydisc((1.0, 1.0)), (0.5, 0.0), 50)
    factor = 1 / (math.pi * (1 - 0.25) ** 2)
    assert kr2.kernel_diag == pytest.approx(factor * (1 / math.pi), abs=1e-8)


def test_kernel_monotone_in_truncation():
    prev = 0.0
    for N in (10, 15, 20, 25, 30):
        k = bergman_kernel_diag(UnitDisc(), 0.6, N).kernel_diag
        assert k >= prev
        prev = k


def test_metric_examples():
    assert bergman_metric_numeric(UnitDisc(), 0.0, 1.0, 50, 1e-3) == pytest.approx(
        math.sqrt(2.0), abs=1e-4
    )
    assert bergman_metric_numeric(Ball(2), (0, 0), (1, 0), 20, 1e-3) == pytest.approx(
        math.sqrt(3.0), abs=1e-4
    )
    assert bergman_metric_numeric(
        Polydisc((1.0, 1.0)), (0.5, 0.0), (1.0, 0.0), 50, 1e-3
    ) == pytest.approx(math.sqrt(2.0) / 0.75, abs=1e-3)


def test_metric_numeric_homogeneity():
    # homogeneity holds up to the step bias, which scales with |lambda|^2
    lam = 2.0 - 1.5j
    base = bergman_metric_numeric(UnitDisc(), 0.0, 1.0, 50, 1e-3)
    scaled = bergman_metric_numeric(UnitDisc(), 0.0, lam, 50, 1e-3)
    assert scaled == pytest.approx(abs(lam) * base, rel=1e-5)


def test_zero_vector_has_metric_zero():
    assert bergman_metric_numeric(UnitDisc(), 0.5, 0, 50, 1e-3) == 0.0
    assert bergman_metric_numeric(Ball(2), (0.5, 0.1j), (0, 0), 20, 1e-3) == 0.0


def test_normalized_ratio_near_one_on_disc():
    for z in (0.0, 0.2, 0.4 + 0.3j, 0.7, -0.69j):
        beta = bergman_metric_numeric(UnitDisc(), z, 1.0, 50, 1e-3)
        kappa = 1.0 / (1.0 - abs(z) ** 2)
        assert beta / math.sqrt(2.0) / kappa == pytest.approx(1.0, abs=1e-3)


def test_richardson_step_consistency():
    vals = {
        h: bergman_metric_numeric(UnitDisc(), 0.5, 1.0, 50, h)
        for h in (1e-3, 5e-4, 2.5e-4)
    }
    coarse = abs(vals[1e-3] - vals[5e-4])
    fine = abs(vals[5e-4] - vals[2.5e-4])
    assert coarse <= 10 * fine


def test_moment_table_structure():
    table = moment_table(Polydisc((1.0, 1.0)), 5)
    assert table.truncation_degree == 5
    assert len(table.moments) == 21  # multi-indices with |alpha| <= 5 in dim 2
    assert all(v > 0 for v in table.moments.values())


def test_tables_of_one_shape_share_a_read_only_grid():
    a = moment_table(Polydisc((0.7, 1.3)), 12)
    b = moment_table(ReinhardtEllipsoid((1.0, 2.0)), 12)
    assert a.alphas is b.alphas and a.degrees is b.degrees
    assert list(a.moments) == list(b.moments)
    with pytest.raises(ValueError, match="read-only"):
        a.alphas[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        b.degrees[0] = 1


def test_errors():
    with pytest.raises(UnsupportedDomainError):
        monomial_moment(HalfPlane(), 0)
    with pytest.raises(ValueError):
        monomial_moment(UnitDisc(), -1)
    with pytest.raises(ValueError):
        monomial_moment(Ball(2), (0,))
    with pytest.raises(MembershipError):
        bergman_kernel_diag(UnitDisc(), 1.5, 10)
    with pytest.raises(MembershipError):
        # the stencil point 0.9999 + 1e-3 lies outside
        bergman_metric_numeric(UnitDisc(), 0.9999, 1.0, 10, 1e-3)


@pytest.mark.parametrize(
    "domain, z, X",
    [
        (UnitDisc(), 0.5, 1e308 + 1e308j),
        (Ball(2), (0.1, 0.1), (1e308 + 1e308j, 0.0)),
        (Polydisc((1.0, 0.5)), (0.1, 0.1), (1e308 + 1e308j, 0.0)),
        (ReinhardtEllipsoid((1.0, 2.0)), (0.1, 0.1), (1e308 + 1e308j, 0.0)),
    ],
    ids=repr,
)
def test_a_stencil_past_the_double_range_is_refused_without_overflow(domain, z, X):
    # the product h X and the membership squares overflow to inf, which is no
    # member; a RuntimeWarning on the way is an error under tier-1's filter
    with pytest.raises(MembershipError, match="stencil"):
        bergman_metric_numeric(domain, z, X, 10)


def test_vector_of_the_wrong_dimension_is_no_membership_error():
    # cmd_bergman reads MembershipError as a point too close to the boundary
    for domain, z, X in ((UnitDisc(), 0.1, (1.0, 0.5)), (Ball(2), (0.1, 0.2j), 1.0)):
        with pytest.raises(DimensionMismatchError) as info:
            bergman_metric_numeric(domain, z, X, 10, 1e-3)
        assert not isinstance(info.value, MembershipError)


@pytest.mark.parametrize(
    "domain", [UnitDisc(), Polydisc((0.7, 1.3)), Ball(2), ReinhardtEllipsoid((1.0, 2.0))], ids=repr
)
def test_an_empty_moment_stack_gives_an_empty_array(domain):
    out = monomial_moment(domain, np.zeros((0, dimension(domain)), dtype=int))
    assert isinstance(out, np.ndarray) and out.shape == (0,) and out.dtype == float


def test_an_empty_moment_stack_still_refuses_a_non_reinhardt_domain():
    with pytest.raises(UnsupportedDomainError):
        monomial_moment(HalfPlane(), np.zeros((0, 1), dtype=int))


def _oracle_moment(domain, alpha):
    """One moment by the per-index closed forms in Python scalars (test oracle)."""
    alpha = tuple(int(a) for a in np.atleast_1d(alpha))
    if isinstance(domain, UnitDisc):
        return math.pi / (alpha[0] + 1)
    if isinstance(domain, Polydisc):
        out = 1.0
        for a, r in zip(alpha, domain.radii):
            out *= math.pi * r ** (2 * a + 2) / (a + 1)
        return out
    if isinstance(domain, Ball):
        n = domain.n
        out = math.pi**n
        for a in alpha:
            out *= math.factorial(a)
        return out / math.factorial(n + sum(alpha))
    # Dirichlet's form prod_j (pi / p_j) Gamma(a_j) / Gamma(1 + sum a_j), a_j =
    # (alpha_j + 1) / p_j, with Gamma at a whole number the factorial; through
    # lgamma from 1 + sum a_j = 171 on, where Gamma nears the double's range
    p = domain.exponents
    a = [(k + 1) / pj for k, pj in zip(alpha, p)]
    top = 1.0 + sum(a)
    scale = [math.pi / pj for pj in p]
    if top >= 171.0:
        log = sum(math.lgamma(x) for x in a) - math.lgamma(top) + math.log(math.prod(scale))
        return math.exp(log)

    def gamma(x):
        return float(math.factorial(int(x) - 1)) if x.is_integer() else math.gamma(x)

    out = gamma(a[0]) / gamma(top)
    for x in a[1:]:
        out *= gamma(x)
    for s in scale:
        out *= s
    return out


def _oracle_table(domain, N):
    """(moments, alphas, inv_moments, degrees), one moment call per multi-index in
    (degree, alpha) order (test oracle)."""
    indices = product(range(N + 1), repeat=dimension(domain))
    alphas = sorted((a for a in indices if sum(a) <= N), key=lambda a: (sum(a), a))
    moments = {a: _oracle_moment(domain, a) for a in alphas}
    arr = np.array(alphas, dtype=float)
    inv = np.array([1.0 / moments[a] for a in alphas])
    return moments, arr, inv, arr.sum(axis=1).astype(int)


def _bits(x):
    """Everything that tells two values apart: repr of the key types and the exact
    float bits."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    return [(repr(k), type(v), float.hex(v)) for k, v in x.items()]


ORACLE_TABLES = [
    (UnitDisc(), 50),
    (UnitDisc(), 300),
    (Ball(2), 20),
    (Ball(2), 160),
    (Ball(3), 12),
    (Polydisc((0.7, 1.3)), 20),
    (Polydisc((1.2, 0.9)), 20),
    (Polydisc((0.5, 0.5)), 40),
    (ReinhardtEllipsoid((1.0, 2.0)), 20),
    (ReinhardtEllipsoid((0.6, 2.7)), 20),
    (ReinhardtEllipsoid((2.5, 1.5)), 20),
    (ReinhardtEllipsoid((1.0, 1.0)), 20),
    (ReinhardtEllipsoid((0.5, 0.5)), 60),
    (ReinhardtEllipsoid((1.0, 2.0, 0.7)), 10),
    # rows on both sides of 1 + sum a_j = 171
    (ReinhardtEllipsoid((0.15, 0.3)), 30),
    (ReinhardtEllipsoid((0.12, 2.0)), 20),
]


@pytest.mark.parametrize("domain, N", ORACLE_TABLES, ids=repr)
def test_moment_table_matches_the_per_index_oracle_bit_for_bit(domain, N):
    table = moment_table(domain, N)
    want = _oracle_table(domain, N)
    got = (table.moments, table.alphas, table.inv_moments, table.degrees)
    for g, w in zip(got, want):
        assert _bits(g) == _bits(w)


@pytest.mark.parametrize("domain, N", ORACLE_TABLES, ids=repr)
def test_array_and_scalar_moments_agree_bit_for_bit(domain, N):
    rng = np.random.default_rng([808, ORACLE_TABLES.index((domain, N))])
    stack = rng.integers(0, N // dimension(domain) + 1, size=(30, dimension(domain)))
    got = monomial_moment(domain, stack)
    assert isinstance(got, np.ndarray) and got.shape == (30,)
    for alpha, value in zip(stack, got):
        one = monomial_moment(domain, alpha)
        assert type(one) is float and one.hex() == float(value).hex()
        assert one.hex() == _oracle_moment(domain, alpha).hex()


def _mpmath_moment(alpha, p):
    """(2 pi)^n prod_j B((a_j + 1)/p_j, s_j + 1) / (2 p_j), s_j = sum_{k>j} (a_k + 1)/p_k,
    at 40 digits on the exact double exponents (test oracle)."""
    with mpmath.workdps(40):
        p = [mpmath.mpf(x) for x in p]
        out = (2 * mpmath.pi) ** len(alpha)
        for j, a in enumerate(alpha):
            s = mpmath.fsum((alpha[k] + 1) / p[k] for k in range(j + 1, len(alpha)))
            out *= mpmath.beta((a + 1) / p[j], s + 1) / (2 * p[j])
        return out


def _relative_error(got, want):
    with mpmath.workdps(40):
        return float(abs((mpmath.mpf(got) - want) / want))


# each bound at or below the largest relative error of the Beta-function
# product the moments were once taken from, on that table
MPMATH_TABLES = [
    (ReinhardtEllipsoid((1.0, 2.0)), 20, 5.7e-16),
    (ReinhardtEllipsoid((0.6, 2.7)), 20, 1.35e-14),
    (ReinhardtEllipsoid((2.5, 1.5)), 20, 3.6e-15),
    (ReinhardtEllipsoid((1.0, 1.0)), 20, 3.6e-16),
    (ReinhardtEllipsoid((0.5, 0.5)), 60, 7.1e-16),
    (ReinhardtEllipsoid((1.0, 2.0, 0.7)), 10, 5.28e-15),
    (ReinhardtEllipsoid((0.15, 0.3)), 30, 3.9e-13),
    (ReinhardtEllipsoid((0.12, 2.0)), 20, 1.6e-13),
]


@pytest.mark.parametrize("domain, N, bound", MPMATH_TABLES, ids=repr)
def test_ellipsoid_moments_match_mpmath(domain, N, bound):
    table = moment_table(domain, N)
    worst = max(
        _relative_error(m, _mpmath_moment(a, domain.exponents)) for a, m in table.moments.items()
    )
    assert worst <= bound


@settings(max_examples=40, deadline=None)
@given(
    p=st.lists(st.floats(0.12, 4.0), min_size=1, max_size=3),
    weights=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    below=st.floats(0.0, 140.0),
    above=st.floats(170.0, 340.0),
)
def test_ellipsoid_moments_match_mpmath_across_the_lgamma_edge(p, weights, below, above):
    # alpha_j = floor(T w_j p_j) puts 1 + sum a_j in (1 + T, 1 + T + sum 1/p_j]:
    # below 171 for the first row, above it for the second
    w = np.array(weights[: len(p)]) / sum(weights[: len(p)])
    stack = np.array([[math.floor(T * wj * pj) for wj, pj in zip(w, p)] for T in (below, above)])
    a = (stack + 1) / np.array(p)
    tops = 1.0 + a.sum(axis=1)
    assert tops[0] < bergman.GAMMA_EDGE <= tops[1]
    got = monomial_moment(ReinhardtEllipsoid(tuple(p)), stack)
    for alpha, value, top in zip(stack.tolist(), got, tops):
        # Gamma's condition number at a rounded argument x is about x log x
        bound = 4 * np.finfo(float).eps * top * math.log(top + 1)
        assert _relative_error(value, _mpmath_moment(alpha, p)) <= bound


def test_non_integer_indices_and_degrees_are_refused():
    for bad in (2.7, 2.5, math.nan):
        with pytest.raises(ValueError, match="whole"):
            monomial_moment(UnitDisc(), bad)
        with pytest.raises(ValueError, match="whole"):
            moment_table(UnitDisc(), bad)
        with pytest.raises(ValueError, match="whole"):
            bergman_kernel_diag(UnitDisc(), 0.1, bad)
        with pytest.raises(ValueError, match="whole"):
            bergman_metric_numeric(UnitDisc(), 0.1, 1.0, bad, 1e-3)
    with pytest.raises(ValueError, match="whole"):
        monomial_moment(Ball(2), (1, 0.5))
    # a whole float is a degree
    assert bergman_kernel_diag(UnitDisc(), 0.1, 20.0) == bergman_kernel_diag(UnitDisc(), 0.1, 20)


@pytest.mark.parametrize(
    "domain, N, alpha",
    [
        (Ball(2), 169, (200, 0)),
        (Polydisc((0.5, 0.5)), 600, (600, 600)),
        (Polydisc((1.3,)), 2000, 2000),
    ],
    ids=repr,
)
def test_too_deep_truncation_is_a_value_error(domain, N, alpha):
    # 171! overflows a double, 0.5^1200 underflows it, 1.3^4002 overflows it
    with pytest.raises(ValueError, match="too deep"):
        moment_table(domain, N)
    # so does one such multi-index, asked for directly
    with pytest.raises(ValueError, match="too deep"):
        monomial_moment(domain, alpha)


def _oracle_kernel_value(table, coords):
    """(kernel diagonal, tail estimate) at one point, the series summed per point
    (test oracle)."""
    r2 = np.abs(coords) ** 2
    terms = np.prod(r2[None, :] ** table.alphas, axis=1) * table.inv_moments
    degree_sums = np.bincount(table.degrees, weights=terms)
    kernel = float(np.sum(terms))
    tail = 0.0
    last = degree_sums[-5:]
    if len(last) >= 2 and last[-1] > 0.0:
        ratios = [
            last[i + 1] / last[i]
            for i in range(len(last) - 1)
            if last[i] > 0.0 and last[i + 1] > 0.0
        ]
        if ratios:
            r = max(ratios)
            tail = math.inf if r >= 1.0 else float(last[-1] * r / (1.0 - r))
    return kernel, tail


def _oracle_metric(domain, z, X, N, h):
    """The metric with scalar membership of each stencil point as its check and
    one series evaluation per difference point (test oracle)."""
    coords = as_coords(z)
    vec = as_coords(X)
    if len(coords) != len(vec):
        raise DimensionMismatchError("point and vector dimensions differ")
    member_coords(domain, coords)
    table = moment_table(domain, int(N))
    if not vec.any():
        return 0.0
    steps = [h * unit * vec for unit in (1.0, 1j)]
    if not all(contains(domain, coords + sign * step) for step in steps for sign in (1, -1)):
        raise MembershipError(f"a stencil point of step {h:g} leaves the domain")

    def logk(p):
        return math.log(_oracle_kernel_value(table, p)[0])

    center = logk(coords)
    quad_form = 0.0
    for step in steps:
        quad_form += logk(coords + step) + logk(coords - step) - 2.0 * center
    quad_form /= 4.0 * h * h
    if quad_form <= 0.0:
        raise ValueError("log-kernel Hessian is not positive here")
    return math.sqrt(quad_form)


def _reach_metric(domain, z, X, N, h):
    """The metric under the former reach rule, a copy of its library body: the
    point must lie 2 h |X| inside, by a test on its moduli pushed out by twice
    that or else by the exact boundary projection (reference).  It sums the
    series with the frozen core, so it sees a change to the library's bits."""
    coords = as_coords(z)
    vec = as_coords(X)
    if len(coords) != len(vec):
        raise DimensionMismatchError("point and vector dimensions differ")
    member_coords(domain, coords)
    table = moment_table(domain, N)
    if not vec.any():
        return 0.0
    reach = 2.0 * h * float(np.linalg.norm(vec))
    screened = contains(domain, _modulus(coords) + 2.0 * reach)
    if not screened and boundary_distance(domain, coords) < reach:
        raise MembershipError(
            f"point is within {reach:g} of the boundary, the reach of the difference stencil"
        )
    rows = [coords]
    for unit in (1.0, 1j):
        step = h * unit * vec
        rows += [coords + step, coords - step]
    logk = [math.log(k) for k in _ref_kernel_rows(table, np.stack(rows))[1]]
    quad_form = 0.0
    for i in (1, 3):
        quad_form += logk[i] + logk[i + 1] - 2.0 * logk[0]
    quad_form /= 4.0 * h * h
    if quad_form <= 0.0:
        raise ValueError(
            "log-kernel Hessian is not positive here; increase the truncation degree"
        )
    return math.sqrt(quad_form)


def _level(domain, z):
    """sum |z_j|^(2 p_j) on discs, balls and ellipsoids; max (|z_j|/r_j)^2 on
    polydiscs."""
    x = np.abs(as_coords(z))
    if isinstance(domain, Polydisc):
        return float(np.max(x / np.asarray(domain.radii)) ** 2)
    p = np.asarray(getattr(domain, "exponents", (1.0,) * len(x)))
    return float(np.sum(x ** (2 * p)))


def _member_points(domain, rng, m, max_level=1.0):
    """m seeded points of the domain with level below max_level, by rejection
    from the box of side 2 max r."""
    n = dimension(domain)
    box = max(domain.radii) if isinstance(domain, Polydisc) else 1.0
    out = []
    while len(out) < m:
        z = box * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        if contains(domain, z) and _level(domain, z) <= max_level:
            out.append(z)
    return out


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:  # the invlab errors are ValueErrors
        return type(exc)


@pytest.mark.parametrize("domain", METRIC_DOMAINS, ids=repr)
def test_metric_and_kernel_match_per_point_oracle(domain):
    rng = np.random.default_rng([5150, METRIC_DOMAINS.index(domain)])
    N = 50 if domain == UnitDisc() else 20  # the CLI's 50 in C; 20 keeps C^2 tables small
    table = moment_table(domain, N)
    raises = 0
    points = _member_points(domain, rng, 40)
    for z in points:
        X = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
        h = 10.0 ** rng.uniform(-4.5, -0.5)
        want = _outcome(_oracle_metric, domain, z, X, N, h)
        got = _outcome(bergman_metric_numeric, domain, z, X, N, h)
        assert got == want, (z, X, h)
        raises += isinstance(want, type)
        # the same floats wherever the former reach rule accepted
        former = _outcome(_reach_metric, domain, z, X, N, h)
        if not isinstance(former, type):
            assert type(got) is float and got.hex() == former.hex(), (z, X, h)
        kr = bergman_kernel_diag(domain, z, N)
        assert (kr.kernel_diag, kr.tail_estimate) == _oracle_kernel_value(table, z)
    assert 0 < raises < len(points)


def _refuse(*args):
    raise AssertionError("the exact boundary projection was called")


@pytest.mark.parametrize("domain", METRIC_DOMAINS, ids=repr)
def test_deep_points_skip_the_boundary_projection(domain, monkeypatch):
    rng = np.random.default_rng(77)
    points = _member_points(domain, rng, 25, max_level=0.3)
    # raising=False: bergman no longer imports it, and a re-import would be caught
    monkeypatch.setattr(bergman, "boundary_distance", _refuse, raising=False)
    monkeypatch.setattr(geometry, "boundary_distance", _refuse)
    if isinstance(domain, ReinhardtEllipsoid):
        monkeypatch.setattr(geometry, "_ellipsoid_delta", _refuse)
    for z in points:
        X = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
        X /= np.linalg.norm(X)
        got = bergman_metric_numeric(domain, z, X, 12, 1e-3)
        assert 0.0 < got < math.inf
        assert got == _oracle_metric(domain, z, X, 12, 1e-3)


@pytest.mark.parametrize("domain", METRIC_DOMAINS[3:], ids=repr)
def test_no_metric_call_reaches_the_ellipsoid_projection(domain, monkeypatch):
    rng = np.random.default_rng([78, METRIC_DOMAINS.index(domain)])
    p = np.asarray(domain.exponents)
    cases = [(z, 1e-3) for z in _member_points(domain, rng, 10, max_level=0.3)]
    for depth in (1e-3, 1e-6):
        # level 1 - depth, shared between the coordinates by seeded weights
        share = rng.dirichlet(np.ones(len(p)))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, len(p)))
        z = (share * (1.0 - depth)) ** (1.0 / (2.0 * p)) * phases
        # a step of a third of the boundary distance: the former rule accepted
        # it (reach 2 h < distance), but its screen failed and the projection decided
        h = boundary_distance(domain, z) / 3.0
        assert not contains(domain, _modulus(z) + 4.0 * h)
        cases.append((z, h))
    monkeypatch.setattr(geometry, "_ellipsoid_delta", _refuse)
    for z, h in cases:
        X = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
        X /= np.linalg.norm(X)
        got = bergman_metric_numeric(domain, z, X, 12, h)
        assert 0.0 < got < math.inf
        assert got == _oracle_metric(domain, z, X, 12, h)


def test_the_rule_is_membership_of_the_stencil_points():
    # Ball(2) at (0.7, 0), 0.3 from the sphere, in the direction (1, 0)
    z, X = (0.7, 0.0), (1.0, 0.0)
    # step 0.155: the stencil reaches 0.855, inside, though the point is less
    # than the former reach 2 h |X| = 0.31 from the boundary
    got = bergman_metric_numeric(Ball(2), z, X, 20, 0.155)
    assert got > 0.0 and got == _oracle_metric(Ball(2), z, X, 20, 0.155)
    with pytest.raises(MembershipError):
        _reach_metric(Ball(2), z, X, 20, 0.155)
    # step 0.31 puts the stencil point 0.7 + 0.31 = 1.01 outside
    with pytest.raises(MembershipError):
        bergman_metric_numeric(Ball(2), z, X, 20, 0.31)


def test_metric_rejects_non_reinhardt_domains_before_the_stencil_check():
    cap = BallIntersection(UnitDisc(), (0j,), 0.5)
    for domain, z in ((cap, 0.4999), (HalfPlane(), 1e-4j), (HalfPlane(), 1j)):
        with pytest.raises(UnsupportedDomainError):
            bergman_metric_numeric(domain, z, 1.0, 10, 1e-3)


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
def test_metric_numeric_refuses_a_step_that_is_not_finite_and_positive(h):
    with pytest.raises(ValueError, match="finite and positive"):
        bergman_metric_numeric(UnitDisc(), 0.5, 1.0, 50, h)
