"""Admissible weights, bound-shape evaluators, and empirical sharpness sweeps.

A weight f: (0, inf) -> (0, inf) is admissible when it is increasing,
unbounded, x -> f(x)/x is decreasing, and integral_0^1 f(x)/x dx converges.
``check_admissible`` tests the four conditions on one fixed geometric grid,
64 points a decade on [1e-8, 1] (the first two also on 40 doublings above it,
the integral by decay of per-octave shell sums near zero), so its verdicts are
grid heuristics, exact for the power-law weights used throughout.
``AdmissibleWeight`` is the power weight c x^alpha, integrated in closed form;
any other callable goes through one exp-sinh rule, which refuses a weight not
yet decayed at the smallest normal double: log-type weights such as
1/log^2(1/x), and powers x^alpha with alpha below about 0.035.

The bound evaluators are plain formula shapes.  The weight bounds fix their
constants at 1 and keep only the contact order m; the excursion, planar and
near-boundary shapes take one constant C from the caller.  No constant is
asserted: ``empirical_constant`` estimates it and reports it.
``sharpness_sweep`` produces the tables showing that the two-term gap bound
|z-w| (|z-w|/2 + min(Im z, Im w)) is tight on the imaginary axis and that
neither additive term can be dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import distances
from .geometry import _modulus

WeightLike = Callable[[float], float]


@dataclass(frozen=True)
class AdmissibleWeight:
    """The power weight c x^alpha, with c > 0 and 0 < alpha <= 1."""

    c: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.c <= 0 or not (0.0 < self.alpha <= 1.0):
            raise ValueError("power weight needs c > 0 and alpha in (0, 1]")

    def __call__(self, x: float) -> float:
        if x <= 0:
            raise ValueError("weights are defined on (0, inf)")
        return self.c * x**self.alpha


# the admissibility grid: 64 points a decade on [1e-8, 1], and its upward
# extension by 40 doublings for the unboundedness check
ADMISSIBILITY_GRID = np.geomspace(1e-8, 1.0, 513)
GROWTH_GRID = 2.0 ** np.arange(1, 41)

VIOLATION_NOT_INCREASING = "not increasing"
VIOLATION_NOT_UNBOUNDED = "not unbounded"
VIOLATION_RATIO_NOT_DECREASING = "f(x)/x not decreasing"
VIOLATION_INTEGRAL_DIVERGES = "integral of f(x)/x near 0 diverges"

_SLACK = 1e-12


def check_admissible(f: WeightLike) -> list[str]:
    """Empty list iff all four admissibility conditions hold on the grid."""
    xs, ext = ADMISSIBILITY_GRID, GROWTH_GRID
    vals = np.array([f(float(x)) for x in xs])
    ext_vals = np.array([f(float(x)) for x in ext])
    violations = []
    joined = np.concatenate([vals, ext_vals])
    if np.any(joined[1:] < joined[:-1] * (1.0 - _SLACK)):
        violations.append(VIOLATION_NOT_INCREASING)
    if ext_vals[-1] < 10.0 * max(vals[-1], 1e-300):
        violations.append(VIOLATION_NOT_UNBOUNDED)
    ratio = vals / xs
    if np.any(ratio[1:] > ratio[:-1] * (1.0 + _SLACK)):
        violations.append(VIOLATION_RATIO_NOT_DECREASING)
    # per-octave trapezoid shells of f(x)/x must decay toward zero, over the
    # 26 whole octaves of the grid
    shells = []
    for k in range(26):
        t = np.geomspace(2.0 ** -(k + 1), 2.0**-k, 9)
        y = np.array([f(float(x)) for x in t]) / t
        shells.append(float(0.5 * np.sum((y[1:] + y[:-1]) * np.diff(t))))
    tail = shells[-6:]  # the six octaves closest to zero, upper one first
    ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1) if tail[i] > 0]
    if ratios and min(ratios) > 0.995:
        violations.append(VIOLATION_INTEGRAL_DIVERGES)
    return violations


# the exp-sinh rule (Takahasi and Mori, 1974) for integral_0^inf g(v) dv:
# v = exp((pi/2) sinh s) on the 289 nodes s in [-4.5, 4.5] at step 1/32
_DE_S = np.arange(-144, 145) / 32.0
_DE_V = np.exp(0.5 * np.pi * np.sinh(_DE_S))
_DE_W = (np.pi / 64.0) * np.cosh(_DE_S) * _DE_V


def weight_integral(f: WeightLike, T: float) -> float:
    """integral_0^T f(x)/x dx; closed form for power weights, else the exp-sinh
    rule on integral_0^inf f(T e^-v) dv at the nodes x = T e^-v of normal size.
    ValueError when f at the deepest one exceeds 1e-12 of the sum."""
    if T < 0:
        raise ValueError("T must be nonnegative")
    if T == 0:
        return 0.0
    if isinstance(f, AdmissibleWeight):
        return f.c * T**f.alpha / f.alpha
    x = np.exp(math.log(T) - _DE_V)
    keep = x >= np.finfo(float).tiny
    fx = np.array([f(float(t)) for t in x[keep]])
    total = float(np.dot(_DE_W[keep], fx))
    if not (fx.size and fx[-1] <= 1e-12 * total):
        raise ValueError("f(x)/x does not decay inside the double range")
    return total


def integrated_weight_bound(f: WeightLike, z: complex, w: complex, m: int = 1) -> float:
    """integral_0^(|z-w|^(1/2m)) f(x)/x dx, for a contact order m >= 1."""
    if m < 1:
        raise ValueError("contact order m must be >= 1")
    sep = abs(complex(z) - complex(w))
    if sep == 0.0:
        return 0.0
    return weight_integral(f, sep ** (1.0 / (2 * m)))


def ratio_weight_bound(
    f: WeightLike, z: complex, w: complex, delta_z: float, m: int = 1
) -> float:
    """1 + f(delta_z + |z-w|^(1/2m)), for a contact order m >= 1."""
    if m < 1:
        raise ValueError("contact order m must be >= 1")
    sep = abs(complex(z) - complex(w))
    arg = delta_z + sep ** (1.0 / (2 * m))
    if arg == 0.0:
        return 1.0
    return 1.0 + f(arg)


def refined_excursion_bound(
    z: complex, w: complex, delta_z: float, delta_w: float, C: float, m: int
) -> float:
    """C (|z-w| / (|z-w|^(1/2) + delta_z^(1/2) + delta_w^(1/2)))^(1/m)."""
    if min(delta_z, delta_w) < 0:
        raise ValueError("boundary distances must be nonnegative")
    sep = abs(complex(z) - complex(w))
    if sep == 0.0:
        return 0.0
    return C * (sep / (math.sqrt(sep) + math.sqrt(delta_z) + math.sqrt(delta_w))) ** (
        1.0 / m
    )


def planar_gap_bound(C: float, z, w, delta_z, delta_w):
    """C |z-w| (|z-w| + delta_z^(1/2) delta_w^(1/2)), the sharp planar shape,
    for scalars or arrays."""
    sep = _modulus(np.asarray(z, dtype=complex) - np.asarray(w, dtype=complex))
    return C * sep * (sep + np.sqrt(delta_z * delta_w))


def near_boundary_upper_bound(
    z: complex, w: complex, delta_z: float, delta_w: float, C: float
) -> float:
    """log(1 + C |z-w| / (delta_z delta_w)^(1/2)), an upper shape for the distance."""
    if min(delta_z, delta_w) <= 0:
        raise ValueError("boundary distances must be positive")
    sep = abs(complex(z) - complex(w))
    return math.log1p(C * sep / math.sqrt(delta_z * delta_w))


def near_boundary_lower_bound(
    z: complex, w: complex, delta_z: float, C: float, m: int = 1
) -> float:
    """m log(1 + C |z-w| / delta_z^(1/2m)), the companion lower shape."""
    if delta_z <= 0:
        raise ValueError("boundary distance must be positive")
    sep = abs(complex(z) - complex(w))
    return m * math.log1p(C * sep / delta_z ** (1.0 / (2 * m)))


@dataclass(frozen=True)
class BoundReport:
    """Empirical max of lhs/rhs over a pair family, with its witness."""

    max_ratio: float
    argmax_pair: tuple[complex, complex]
    sample_count: int


def empirical_constant(
    pairs: Sequence[tuple[complex, complex]],
    lhs: Callable[[complex, complex], float],
    rhs_shape: Callable[[complex, complex], float],
) -> BoundReport:
    """Largest lhs/rhs over the pairs (coincident pairs are skipped)."""
    if len(pairs) == 0:
        raise ValueError("empty pair list")
    best, witness, used = -math.inf, None, 0
    for z, w in pairs:
        if z == w:
            continue
        used += 1
        ratio = lhs(z, w) / rhs_shape(z, w)
        if ratio > best:
            best, witness = ratio, (z, w)
    if witness is None:
        raise ValueError("all pairs were coincident")
    return BoundReport(best, witness, used)


def fit_exponent(samples: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(value) against log(scale)."""
    if len(samples) < 3:
        raise ValueError("need at least three samples")
    h = np.array([s[0] for s in samples], dtype=float)
    g = np.array([s[1] for s in samples], dtype=float)
    if np.any(h <= 0) or np.any(g <= 0):
        raise ValueError("samples must be positive")
    slope, _ = np.polyfit(np.log(h), np.log(g), 1)
    return float(slope)


# --------------------------------------------------------------------------
# sharpness sweeps on the imaginary axis
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    family: str
    t: float
    z: complex
    w: complex
    gap: float
    bound: float
    ratio: float


def two_term_gap_bound(z, w):
    """|z-w| (|z-w|/2 + min(Im z, Im w)), the two-term gap shape, for scalars or arrays."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    sep = _modulus(z - w)
    return sep * (0.5 * sep + np.minimum(z.imag, w.imag))


_FAMILIES = ("balanced", "drop-boundary", "drop-separation")


def sharpness_sweep(t_values: Sequence[float]) -> list[SweepRow]:
    """Gap-versus-bound rows for three imaginary-axis families, one row per
    family for each t in turn.

    * ``balanced``: w = i t / 2, ratio against the full two-term bound; the
      ratio tends to 1 as t -> 0, so the bound is tight with constant 1.
    * ``drop-boundary``: w = i t (1 - 1e-6), nearly coincident points, ratio
      against the separation-only bound |z-w|^2 / 2; the ratio blows up, so
      the min(Im) term cannot be removed.
    * ``drop-separation``: w = i t^2, one point much deeper toward the
      boundary, ratio against the min(Im)-only bound |z-w| min(Im); the ratio
      blows up, so the |z-w|/2 term cannot be removed.
    """
    ts = [float(t) for t in t_values]
    if not all(0.0 < t <= 0.1 for t in ts):
        raise ValueError("sweep parameters must lie in (0, 0.1]")
    z = np.array([1j * t for t in ts for _ in _FAMILIES])
    w = np.array([v for t in ts for v in (0.5j * t, 1j * t * (1.0 - 1e-6), 1j * t * t)])
    tb, tsep = distances.gap_terms_batch(z, w)
    gap = tb + tsep
    bound = np.empty_like(gap)
    bound[0::3] = two_term_gap_bound(z[0::3], w[0::3])
    bound[1::3] = distances.gap_term_separation_leading(z[1::3], w[1::3])
    bound[2::3] = _modulus(z[2::3] - w[2::3]) * np.minimum(z[2::3].imag, w[2::3].imag)
    columns = (np.repeat(ts, 3), z, w, gap, bound)
    rows = zip(_FAMILIES * len(ts), *(c.tolist() for c in columns))
    return [SweepRow(f, t, zz, ww, g, b, g / b) for f, t, zz, ww, g, b in rows]
