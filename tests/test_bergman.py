import math

import numpy as np
import pytest
from scipy.integrate import quad

from invlab.bergman import (
    bergman_derivative_sup,
    bergman_kernel_diag,
    bergman_metric_numeric,
    default_truncation,
    moment_table,
    monomial_moment,
)
from invlab.geometry import (
    Ball,
    HalfPlane,
    MembershipError,
    Polydisc,
    ReinhardtEllipsoid,
    UnitDisc,
    UnsupportedDomainError,
)


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
    """Reinhardt ellipsoid moment, one adaptive quadrature per radial factor
    int_0^1 rho^(2a+1) (1 - rho^(2p))^s d rho (test oracle)."""
    out = (2.0 * math.pi) ** len(alpha)
    for j, (a, pj) in enumerate(zip(alpha, p)):
        s = sum((alpha[k] + 1) / p[k] for k in range(j + 1, len(alpha)))
        val, _ = quad(
            lambda rho: rho ** (2 * a + 1) * (1.0 - rho ** (2 * pj)) ** s,
            0.0,
            1.0,
            epsabs=0.0,
            epsrel=1e-12,
            limit=200,
        )
        out *= val
    return out


@pytest.mark.parametrize("alpha", [(0, 0), (1, 0), (0, 2), (3, 1), (2, 3)])
def test_ellipsoid_moment_against_gamma_oracle(alpha):
    # the library's Beta product is the Gamma formula in another guise, so the
    # independent side is quadrature
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


def test_derivative_sup_examples():
    assert bergman_derivative_sup(UnitDisc(), 0.0, 1.0, 50, 1e-3) == pytest.approx(
        math.sqrt(2 / math.pi), abs=1e-4
    )
    assert bergman_derivative_sup(Ball(2), (0, 0), (1, 0), 20, 1e-3) == pytest.approx(
        math.sqrt(6.0) / math.pi, abs=1e-4
    )
    # homogeneity holds up to the step bias, which scales with |lambda|^2
    lam = 2.0 - 1.5j
    base = bergman_derivative_sup(UnitDisc(), 0.0, 1.0, 50, 1e-3)
    scaled = bergman_derivative_sup(UnitDisc(), 0.0, lam, 50, 1e-3)
    assert scaled == pytest.approx(abs(lam) * base, rel=1e-5)


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


def test_default_truncation():
    assert default_truncation(UnitDisc()) == 50
    assert default_truncation(Ball(2)) == 20


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
        # closer to the boundary than twice the step
        bergman_metric_numeric(UnitDisc(), 0.9999, 1.0, 10, 1e-3)
