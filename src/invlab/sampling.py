"""Deterministic, counter-based sampling of points in catalog domains.

All samplers draw from a Philox counter-based generator keyed by the seed and
consume a fixed number of draws per sample in input order, so the i-th sample
is a pure function of (seed, i): concurrent evaluation downstream can never
change the sample set.  A tiny edge margin keeps samples strictly interior.
"""

from __future__ import annotations

import numpy as np

from .geometry import _across, formula

EDGE = 1e-9
SHRINK = 0.9  # domain_points samples the member shrunk by this factor


def generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _unit(u: np.ndarray) -> np.ndarray:
    # map [0,1) draws into (0,1) with a fixed margin
    return EDGE + (1.0 - 2.0 * EDGE) * u


def halfdisc_points(seed: int, count: int, radius: float = 1.0) -> np.ndarray:
    """Uniform points of the open upper half-disc of the given radius."""
    rng = generator(seed)
    u = _unit(rng.random((2, count)))
    r = radius * np.sqrt(u[0])
    theta = np.pi * u[1]
    return r * np.exp(1j * theta)


def halfdisc_pairs(seed: int, count: int, radius: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    pts = halfdisc_points(seed, 2 * count, radius)
    return pts[:count], pts[count:]


def disc_points(seed: int, count: int, radius: float = 1.0) -> np.ndarray:
    rng = generator(seed)
    u = _unit(rng.random((2, count)))
    r = radius * np.sqrt(u[0])
    return r * np.exp(2j * np.pi * u[1])


def halfplane_points(
    seed: int,
    count: int,
    re_range: tuple[float, float] = (-1.0, 1.0),
    im_range: tuple[float, float] = (0.05, 2.0),
) -> np.ndarray:
    rng = generator(seed)
    u = rng.random((2, count))
    x = re_range[0] + (re_range[1] - re_range[0]) * u[0]
    y = im_range[0] + (im_range[1] - im_range[0]) * u[1]
    return x + 1j * y


def ball_points(seed: int, count: int, n: int, radius: float = 1.0) -> np.ndarray:
    """Uniform points of the ball of the given radius in C^n, shape (count, n)."""
    rng = generator(seed)
    g = rng.standard_normal((count, 2 * n))
    direction = g / np.sqrt(_across(np.add, g * g))[:, None]
    r = radius * _unit(rng.random(count)) ** (1.0 / (2 * n))
    pts = r[:, None] * direction
    return pts[:, :n] + 1j * pts[:, n:]


def polydisc_points(seed: int, count: int, radii, shrink: float = 1.0) -> np.ndarray:
    rng = generator(seed)
    radii_arr = np.asarray(radii, dtype=float) * shrink
    n = len(radii_arr)
    u = _unit(rng.random((count, 2 * n)))
    r = radii_arr * np.sqrt(u[:, :n])
    return r * np.exp(2j * np.pi * u[:, n:])


def domain_points(seed: int, count: int, domain) -> np.ndarray:
    """Seeded interior samples for the axiom sweeps, shape (count, n).

    Points are drawn inside the domain shrunk by ``SHRINK`` so that
    distances stay well conditioned.
    """
    return formula(domain, "sample")(seed, count, SHRINK)
