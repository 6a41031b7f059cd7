"""Independent references for the benchmark's checks, written with mpmath.

Nothing here imports invlab or numpy.  Every formula is the textbook one,
evaluated at 30 significant digits on the exact double inputs the program
received, so a disagreement measures the program's floating-point error (or
a bug), never a shared mistake.

Conventions match invlab's: every distance is atanh of a Moebius-invariant
ratio, i.e. half the Poincare distance on the half-plane, and densities are
the matching infinitesimal forms.

Run ``python3 perfbench/reference.py`` to execute the hand-value self-check.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpc, mpf

# the benchmark owns its process; invlab does not use mpmath
mp.dps = 30

OVERFLOW_EDGE = mpf(1) - mpf("1e-15")  # ratios at or past it read +inf


def _c(z) -> mpc:
    if isinstance(z, (mpc, mpf)):
        return mpc(z)
    z = complex(z)
    return mpc(z.real, z.imag)


def _norm2(v) -> mpf:
    return mpmath.fsum(abs(x) ** 2 for x in v)


# --------------------------------------------------------------------------
# ratios and distances
# --------------------------------------------------------------------------

def disc_ratio(z, w, radius=1.0) -> mpf:
    z, w = _c(z) / radius, _c(w) / radius
    return abs(z - w) / abs(1 - z * mpmath.conj(w))


def disc_distance(z, w, radius=1.0) -> mpf:
    return mpmath.atanh(disc_ratio(z, w, radius))


def halfplane_ratio(z, w) -> mpf:
    z, w = _c(z), _c(w)
    return abs(z - w) / abs(z - mpmath.conj(w))


def halfplane_distance(z, w) -> mpf:
    """1/2 arccosh(1 + x), x = |z - w|^2 / (2 Im z Im w).

    Written as 1/2 log1p(x + sqrt(x (2 + x))) so that nearly coincident
    points keep every digit (1 + x would round x away).
    """
    z, w = _c(z), _c(w)
    x = abs(z - w) ** 2 / (2 * z.imag * w.imag)
    return mpmath.log1p(x + mpmath.sqrt(x * (2 + x))) / 2


def halfdisc_map(z) -> mpc:
    """((z + 1)/(z - 1))^2, the unit upper half-disc onto the half-plane."""
    return ((z + 1) / (z - 1)) ** 2


def halfdisc_ratio(z, w, radius=1.0) -> mpf:
    return halfplane_ratio(
        halfdisc_map(_c(z) / radius), halfdisc_map(_c(w) / radius)
    )


def halfdisc_distance(z, w, radius=1.0) -> mpf:
    return halfplane_distance(
        halfdisc_map(_c(z) / radius), halfdisc_map(_c(w) / radius)
    )


def ball_automorphism(a, x) -> list:
    """The involution of the unit ball exchanging a and 0, evaluated at x."""
    a = [_c(c) for c in a]
    x = [_c(c) for c in x]
    na2 = _norm2(a)
    if na2 == 0:
        return [-c for c in x]
    ip = mpmath.fsum(xc * mpmath.conj(ac) for xc, ac in zip(x, a))
    s = mpmath.sqrt(1 - na2)
    proj = [ip / na2 * ac for ac in a]
    return [
        (ac - pc - s * (xc - pc)) / (1 - ip) for ac, pc, xc in zip(a, proj, x)
    ]


def ball_ratio(Z, W) -> mpf:
    return mpmath.sqrt(_norm2(ball_automorphism(Z, W)))


def ball_distance(Z, W) -> mpf:
    return mpmath.atanh(ball_ratio(Z, W))


def polydisc_ratio(Z, W, radii) -> mpf:
    return max(disc_ratio(z, w, r) for z, w, r in zip(Z, W, radii))


def polydisc_distance(Z, W, radii) -> mpf:
    return mpmath.atanh(polydisc_ratio(Z, W, radii))


def gap(z, w) -> mpf:
    """Half-disc minus half-plane distance, each from its own formula.

    The difference cancels about log10(distance / gap) digits (up to ~25 for
    the smallest sweep rows), so it is taken at 80 digits.
    """
    with mp.workdps(80):
        return +(halfdisc_distance(z, w) - halfplane_distance(z, w))


def gap_conditioning(z, w) -> mpf:
    """How far the exact gap can move when z and w each move by one unit roundoff.

    First order: 2^-52 times the sum, over the real and imaginary parts of
    each point, of |d gap / d part| times the modulus of that point.  The
    derivatives are central differences with a step of 1e-40 relative, the
    gap itself taken at 80 digits.
    """
    with mp.workdps(80):
        zw = [_c(z), _c(w)]
        total = mpf(0)
        for i, p in enumerate(zw):
            h = abs(p) * mpf(10) ** -40
            for unit in (1, 1j):
                up, down = list(zw), list(zw)
                up[i], down[i] = p + h * unit, p - h * unit
                total += abs(gap(*up) - gap(*down)) / (2 * h) * abs(p)
        return +(total * mpf(2) ** -52)


# --------------------------------------------------------------------------
# membership and boundary distance on the doubles themselves
# --------------------------------------------------------------------------

def in_disc(z, radius=1.0) -> bool:
    return abs(_c(z)) < radius


def in_halfplane(z) -> bool:
    return _c(z).imag > 0


def in_halfdisc(z, radius=1.0) -> bool:
    return _c(z).imag > 0 and abs(_c(z)) < radius


def in_ball(Z) -> bool:
    return _norm2([_c(c) for c in Z]) < 1


def in_polydisc(Z, radii) -> bool:
    return all(abs(_c(z)) < r for z, r in zip(Z, radii))


# --------------------------------------------------------------------------
# densities
# --------------------------------------------------------------------------

def disc_density(z, X, radius=1.0) -> mpf:
    z, X = _c(z), _c(X)
    return radius * abs(X) / (radius**2 - abs(z) ** 2)


def halfplane_density(z, X) -> mpf:
    return abs(_c(X)) / (2 * _c(z).imag)


def halfdisc_density(z, X) -> mpf:
    """Half-plane density pushed through ((z+1)/(z-1))^2, derivative by hand."""
    z, X = _c(z), _c(X)
    deriv = 2 * (z + 1) / (z - 1) * (-2) / (z - 1) ** 2
    return abs(deriv * X) / (2 * halfdisc_map(z).imag)


def ball_density(Z, X) -> mpf:
    """sqrt(|X|^2 / (1 - |z|^2) + |<X, z>|^2 / (1 - |z|^2)^2)."""
    Z = [_c(c) for c in Z]
    X = [_c(c) for c in X]
    s = 1 - _norm2(Z)
    ip = mpmath.fsum(x * mpmath.conj(z) for x, z in zip(X, Z))
    return mpmath.sqrt(_norm2(X) / s + abs(ip) ** 2 / s**2)


def polydisc_density(Z, X, radii) -> mpf:
    return max(disc_density(z, x, r) for z, x, r in zip(Z, X, radii))


def bergman_disc_density(z, X) -> mpf:
    return mpmath.sqrt(2) * disc_density(z, X)


# --------------------------------------------------------------------------
# Bergman kernels and moments
# --------------------------------------------------------------------------

def disc_kernel(z) -> mpf:
    return 1 / (mpmath.pi * (1 - abs(_c(z)) ** 2) ** 2)


def ball_kernel(Z) -> mpf:
    n = len(Z)
    return mpmath.factorial(n) / (
        mpmath.pi**n * (1 - _norm2([_c(c) for c in Z])) ** (n + 1)
    )


def polydisc_kernel(Z, radii) -> mpf:
    out = mpf(1)
    for z, r in zip(Z, radii):
        r2 = mpf(r) ** 2
        out *= r2 / (mpmath.pi * (r2 - abs(_c(z)) ** 2) ** 2)
    return out


def disc_moment(a: int) -> mpf:
    return mpmath.pi / (a + 1)


def ball_moment(alpha) -> mpf:
    out = mpmath.pi ** len(alpha)
    for a in alpha:
        out *= mpmath.factorial(a)
    return out / mpmath.factorial(len(alpha) + sum(alpha))


def polydisc_moment(alpha, radii) -> mpf:
    out = mpf(1)
    for a, r in zip(alpha, radii):
        out *= mpmath.pi * mpf(r) ** (2 * a + 2) / (a + 1)
    return out


def ellipsoid_moment(alpha, exponents) -> mpf:
    """(2 pi)^n prod_j B((a_j + 1)/p_j, s_j + 1) / (2 p_j), s_j = sum_{k>j} (a_k + 1)/p_k."""
    p = [mpf(x) for x in exponents]
    out = (2 * mpmath.pi) ** len(alpha)
    for j, a in enumerate(alpha):
        s = mpmath.fsum((alpha[k] + 1) / p[k] for k in range(j + 1, len(alpha)))
        out *= mpmath.beta((a + 1) / p[j], s + 1) / (2 * p[j])
    return out


def ellipsoid_moment_double(alpha, exponents) -> float:
    """The same Beta form in doubles through lgamma, for checking many tables quickly.

    Good to ~1e-13 relative; the self-check holds it to the mpmath value.
    """
    p = [float(x) for x in exponents]
    log = len(alpha) * math.log(2 * math.pi)
    for j, a in enumerate(alpha):
        s = math.fsum((alpha[k] + 1) / p[k] for k in range(j + 1, len(alpha)))
        x, y = (a + 1) / p[j], s + 1
        log += math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y) - math.log(2 * p[j])
    return math.exp(log)


def truncated_metric(moments: dict, Z, X) -> float:
    """sqrt of the complex Hessian of log K_N in direction X, K_N the truncated kernel.

    K = sum_alpha c_alpha prod_j |z_j|^(2 a_j) with c_alpha = 1/moment; the
    form is X* (K_{j kbar} / K - K_j conj(K_k) / K^2) X with every derivative
    taken term by term.  Evaluated in doubles with fsum (the finite-difference
    metric it checks is itself only good to about h^2).
    """
    Z = [complex(z) for z in Z]
    X = [complex(x) for x in X]
    n = len(Z)
    r2 = [abs(z) ** 2 for z in Z]
    K, grad, hess = [], [[] for _ in range(n)], [[[] for _ in range(n)] for _ in range(n)]
    for alpha, m in moments.items():
        c = 1.0 / float(m)
        mono = c
        for x, a in zip(r2, alpha):
            mono *= x**a
        K.append(mono)
        for j in range(n):
            a = alpha[j]
            if a == 0:
                continue
            # d/dz_j |z_j|^(2a) = a z_j^(a-1) conj(z_j)^a
            rest_j = c
            for q in range(n):
                if q != j:
                    rest_j *= r2[q] ** alpha[q]
            grad[j].append(rest_j * a * Z[j] ** (a - 1) * Z[j].conjugate() ** a)
            for k in range(n):
                b = alpha[k]
                if b == 0:
                    continue
                if k == j:
                    hess[j][j].append(rest_j * a * a * r2[j] ** (a - 1))
                else:
                    rest = c
                    for q in range(n):
                        if q != j and q != k:
                            rest *= r2[q] ** alpha[q]
                    hess[j][k].append(
                        rest * a * b * Z[j] ** (a - 1) * Z[j].conjugate() ** a
                        * Z[k] ** b * Z[k].conjugate() ** (b - 1)
                    )
    Kv = math.fsum(K)

    def csum(vals):
        return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))

    g = [csum(v) for v in grad]
    form = 0j
    for j in range(n):
        for k in range(n):
            L = csum(hess[j][k]) / Kv - g[j] * g[k].conjugate() / Kv**2
            form += L * X[j] * X[k].conjugate()
    return math.sqrt(form.real)


# --------------------------------------------------------------------------
# localization shapes and fits
# --------------------------------------------------------------------------

def two_term_bound(z, w) -> float:
    z, w = complex(z), complex(w)
    sep = abs(z - w)
    return sep * (0.5 * sep + min(z.imag, w.imag))


def planar_bound(z, w) -> float:
    z, w = complex(z), complex(w)
    sep = abs(z - w)
    return sep * (sep + math.sqrt(z.imag * w.imag))


def loglog_slope(samples) -> float:
    """Least-squares slope of log(value) on log(scale), in plain floats."""
    xs = [math.log(h) for h, _ in samples]
    ys = [math.log(g) for _, g in samples]
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    num = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.fsum((x - mx) ** 2 for x in xs)
    return num / den


# --------------------------------------------------------------------------
# self-check against hand values
# --------------------------------------------------------------------------

def self_check() -> list[str]:
    """Problems found by comparing the references with values known by hand."""
    problems = []

    def expect(name, got, want, tol):
        if abs(mpf(got) - mpf(want)) > tol:
            problems.append(f"{name}: got {mpmath.nstr(got, 20)}, want {want}")

    # the double nearest atanh(1/2), as invlab's README prints it
    expect("disc distance(0, 0.5)", disc_distance(0, 0.5), "0.54930614433405478", 1.2e-16)
    # the spot gap 1/2 log 1.25 = log(15/14) + 1/2 log(49/45)
    g = gap(0.5j, 0.25j)
    expect("spot gap", g, mpmath.log(mpf(5) / 4) / 2, 1e-25)
    expect(
        "spot gap terms",
        g,
        mpmath.log(mpf(15) / 14) + mpmath.log(mpf(49) / 45) / 2,
        1e-25,
    )
    # half-plane i -> 2i: half of log 2
    # on the imaginary axis the gap is 1/2 log((1 - v^2)/(1 - y^2)), even in each
    # real part: d/dy = y/(1 - y^2) = 2/3, d/dv = -v/(1 - v^2) = -4/15, so the
    # conditioning is 2^-52 (2/3 * 0.5 + 4/15 * 0.25) = 0.4 * 2^-52
    expect("gap conditioning at (0.5i, 0.25i)", gap_conditioning(0.5j, 0.25j) * 2**52, "0.4", 1e-20)
    expect("halfplane distance(i, 2i)", halfplane_distance(1j, 2j), mpmath.log(2) / 2, 1e-25)
    expect(
        "halfplane distance is arccosh",
        halfplane_distance(0.3 + 0.2j, -0.1 + 0.9j),
        mpmath.acosh(1 + mpf("0.65") / (2 * mpf(0.2) * mpf(0.9))) / 2,
        1e-15,
    )
    # the ball restricted to a complex line through 0 is the disc
    expect("ball = disc on a line", ball_distance((0.3, 0), (0.1j, 0)), disc_distance(0.3, 0.1j), 1e-25)
    expect("polydisc radius", polydisc_distance((0.5,), (0,), (2.0,)), disc_distance(0.25, 0), 1e-25)
    expect("disc density at 0.5", disc_density(0.5, 1), mpf(4) / 3, 1e-25)
    expect("ball density at 0", ball_density((0, 0), (0.75, 1j)), 1.25, 1e-25)
    expect("disc kernel at 0", disc_kernel(0), 1 / mpmath.pi, 1e-25)
    # ellipsoid with p = (1, 1) is the ball: the Beta form must give ball moments
    expect("ellipsoid(1,1) moment", ellipsoid_moment((2, 3), (1, 1)), ball_moment((2, 3)), 1e-25)
    expect("ellipsoid(1) moment", ellipsoid_moment((4,), (1,)), disc_moment(4), 1e-25)
    for alpha, p in (((0, 0), (0.6, 2.7)), ((7, 13), (2.5, 1.5)), ((20, 0), (1.0, 2.0))):
        exact = ellipsoid_moment(alpha, p)
        expect(f"double Beta form {alpha} {p}", ellipsoid_moment_double(alpha, p) / exact, 1, 1e-12)
    # log-kernel Hessian of the full disc series at 0 is 2 (metric sqrt 2)
    moments = {(a,): disc_moment(a) for a in range(60)}
    expect("disc metric at 0", truncated_metric(moments, (0,), (1,)), mpmath.sqrt(2), 1e-14)
    expect("disc metric at 0.5", truncated_metric(moments, (0.5,), (1,)), mpmath.sqrt(2) / 0.75, 1e-12)
    return problems


if __name__ == "__main__":
    found = self_check()
    for line in found:
        print("FAIL", line)
    print("reference self-check:", "FAIL" if found else "ok")
    raise SystemExit(1 if found else 0)
