"""Shared moduli in the planar cores: |z - w|, |z - conj w|, |1 - z w| and
|1 - z conj w| are each formed once per call, and every core returns the bits
it returned when each ratio and complement formed its own.

The reference copies below are those earlier bodies, with the half-plane
complement in its product form (2 Im z / |z - conj w|)(2 Im w / |z - conj w|).
They are checked on seeded batches and on scalar calls: interior pairs, pairs
within 1e-12 of the real segment, and pairs within 1e-12 of the arc, where the
separation term gives NaN with a RuntimeWarning, at radius 1 and 0.3.

Batches of 16384 complex rows (256 KiB) and more are where numpy elides
temporaries: there ``z * np.conj(w)`` multiplies into the conjugate's buffer
as ``conj(w) * z``, which rounds otherwise than ``z * wb`` with
``wb = np.conj(w)`` on about a third of the rows (numpy 2.4.6).  So the cores
keep the product written inline, and the 20,000-row batches below catch a
core that binds ``np.conj(w)`` to a name.
"""

import math
import warnings

import numpy as np
import pytest

from invlab import distances
from invlab.distances import GapDecomposition, _atanh_stable
from invlab.geometry import HalfDiscScaled, _across, member_coords

ROWS = (2048, 20_000)
RADII = (1.0, 0.3)


# --------------------------------------------------------------------------
# reference copies: each formula forms its own moduli
# --------------------------------------------------------------------------

def _ref_halfplane_ratio(z, w):
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return np.abs(z - w) / np.abs(z - np.conj(w))


def _ref_halfplane_complement(z, w):
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    zwbar = np.abs(z - np.conj(w))
    return (2.0 * z.imag / zwbar) * (2.0 * w.imag / zwbar)


def _ref_halfplane_distance_batch(z, w):
    return _atanh_stable(_ref_halfplane_ratio(z, w), _ref_halfplane_complement(z, w))


def _ref_disc_ratio(z, w):
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return np.abs(z - w) / np.abs(1.0 - z * np.conj(w))


def _ref_disc_complement(z, w):
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    a2 = np.abs(z) ** 2
    b2 = np.abs(w) ** 2
    return (1.0 - a2) * (1.0 - b2) / np.abs(1.0 - z * np.conj(w)) ** 2


def _ref_disc_distance_batch(z, w):
    return _atanh_stable(_ref_disc_ratio(z, w), _ref_disc_complement(z, w))


def _ref_halfdisc_ratio_parts(z, w):
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    mu = np.abs(1.0 - z * w) / np.abs(1.0 - z * np.conj(w))
    m = mu * _ref_halfplane_ratio(z, w)
    comp = _ref_halfplane_complement(z, w) * _ref_disc_complement(z, w)
    return m, comp


def _ref_halfdisc_distance_batch(z, w, radius=1.0):
    m, comp = _ref_halfdisc_ratio_parts(
        np.asarray(z, dtype=complex) / radius, np.asarray(w, dtype=complex) / radius
    )
    return _atanh_stable(m, comp)


def _ref_gap_terms_batch(z, w):
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    zw = np.abs(z - w)
    zwbar = np.abs(z - np.conj(w))
    d1 = np.abs(1.0 - z * w)
    d2 = np.abs(1.0 - z * np.conj(w))
    amount = zw * (z.imag * w.imag / (zw + zwbar)) * 4.0 / ((d1 + d2) * d2)
    t_boundary = np.log1p(amount)
    q = zw**2 / d2**2
    t_separation = -0.5 * np.log1p(-q)
    return t_boundary, t_separation


def _ref_polydisc_distance_batch(Z, W, radii):
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    W = np.atleast_2d(np.asarray(W, dtype=complex))
    r = np.asarray(radii, dtype=float)
    Zr, Wr = Z / r, W / r
    return _across(np.maximum, _atanh_stable(_ref_disc_ratio(Zr, Wr), _ref_disc_complement(Zr, Wr)))


def _ref_localization_gap(z, w, radius=1.0):
    """The gap from the references on one row: the terms of the pair scaled
    by 1/radius, the distances of the pair as given."""
    dom = HalfDiscScaled(radius)
    member_coords(dom, z, "z")
    member_coords(dom, w, "w")
    Z, W = np.array([complex(z)]), np.array([complex(w)])
    s = 1.0 / radius
    tb, ts = (float(t[0]) for t in _ref_gap_terms_batch(Z * s, W * s))
    k_local = float(_ref_halfdisc_distance_batch(Z, W, radius)[0])
    k_global = float(_ref_halfplane_distance_batch(Z, W)[0])
    gap = tb + ts
    residual = abs(gap - (k_local - k_global))
    return GapDecomposition(gap, tb, ts, residual, k_local, k_global)


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

def _interior(rng, n):
    rho = np.sqrt(rng.uniform(0.0, 1.0, n)) * (1.0 - 1e-9)
    theta = rng.uniform(1e-6, math.pi - 1e-6, n)
    return rho * np.exp(1j * theta)


def _near_segment(rng, n):
    return rng.uniform(-1.0 + 1e-6, 1.0 - 1e-6, n) + 1j * rng.uniform(1e-15, 1e-12, n)


def _near_arc(rng, n):
    theta = rng.uniform(0.01, math.pi - 0.01, n)
    return (1.0 - rng.uniform(1e-15, 1e-12, n)) * np.exp(1j * theta)


FAMILIES = {"interior": _interior, "segment": _near_segment, "arc": _near_arc}


def _pairs(family, n, seed, radius):
    """n half-disc pairs of one family in the half-disc of the given radius."""
    rng = np.random.default_rng(seed)
    z, w = FAMILIES[family](rng, n), FAMILIES[family](rng, n)
    return radius * z, radius * w


def _same(a, b) -> bool:
    """Equal shape and values, NaN equal to NaN, zeros equal only by sign."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    num = ~np.isnan(a)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(
        np.signbit(a[num]), np.signbit(b[num])
    )


CASES = [(f, r) for f in FAMILIES for r in RADII]


def _ids(case):
    return f"{case[0]}-r{case[1]}"


@pytest.fixture(params=[(c, n) for c in CASES for n in ROWS], ids=lambda p: f"{_ids(p[0])}-{p[1]}")
def batch(request):
    (family, radius), rows = request.param
    seed = list(FAMILIES).index(family) * 10 + RADII.index(radius)
    z, w = _pairs(family, rows, 9100 + seed, radius)
    return z, w, radius


# --------------------------------------------------------------------------
# batch cores
# --------------------------------------------------------------------------
# the private cores the batch distances call: (m, 1 - m^2) of the half-plane
# and of the half-disc, and the disc complement

def _halfplane_core(z, w):
    z, w, zw, zwbar = distances._halfplane_moduli(z, w)
    return distances._halfplane_parts(z.imag, w.imag, zw, zwbar)


def _ref_halfplane_parts(z, w):
    return _ref_halfplane_ratio(z, w), _ref_halfplane_complement(z, w)


def _disc_comp_core(z, w):
    z, w, *_, d2 = distances._moduli(z, w)
    return distances._disc_comp(np.abs(z) ** 2, np.abs(w) ** 2, d2**2)


def _halfdisc_core(z, w):
    z, w, zw, zwbar, d1, d2 = distances._moduli(z, w)
    parts = distances._halfplane_parts(z.imag, w.imag, zw, zwbar)
    disc = distances._disc_comp(np.abs(z) ** 2, np.abs(w) ** 2, d2**2)
    return distances._halfdisc_parts(*parts, d1, d2, disc)


def test_planar_cores_match_their_reference_bit_for_bit(batch):
    z, w, radius = batch
    flip = np.random.default_rng(7).random(len(z)) < 0.5
    zd, wd = np.where(flip, np.conj(z), z), np.where(flip[::-1], np.conj(w), w)
    pairs = [
        (_halfplane_core, _ref_halfplane_parts, (z, w)),
        (distances.halfplane_distance_batch, _ref_halfplane_distance_batch, (z, w)),
        (_disc_comp_core, _ref_disc_complement, (zd, wd)),
        (distances.disc_distance_batch, _ref_disc_distance_batch, (zd, wd)),
        (distances.halfdisc_distance_batch, _ref_halfdisc_distance_batch, (z, w, radius)),
        (distances.gap_terms_batch, _ref_gap_terms_batch, (z / radius, w / radius)),
        (_halfdisc_core, _ref_halfdisc_ratio_parts, (z / radius, w / radius)),
    ]
    with np.errstate(divide="ignore", invalid="ignore"):
        for core, ref, args in pairs:
            got, want = core(*args), ref(*args)
            if isinstance(want, tuple):
                assert len(got) == len(want), core.__name__
                assert all(_same(g, v) for g, v in zip(got, want)), core.__name__
            else:
                assert _same(got, want), core.__name__


def test_polydisc_core_matches_its_reference_bit_for_bit(batch):
    z, w, radius = batch
    Z = np.stack([z / radius, z[::-1]], axis=1)
    W = np.stack([w / radius, np.conj(w)], axis=1)
    radii = (1.0, radius)
    with np.errstate(divide="ignore", invalid="ignore"):
        got = distances.polydisc_distance_batch(Z, W, radii)
        want = _ref_polydisc_distance_batch(Z, W, radii)
    assert _same(got, want)


# --------------------------------------------------------------------------
# the scalar gap: one pass over the moduli
# --------------------------------------------------------------------------

def _fields(g: GapDecomposition):
    return np.array([g.gap, g.term_boundary, g.term_separation, g.residual, g.k_local, g.k_global])


def _recorded(call, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args)
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_localization_gap_matches_its_reference_bit_for_bit(case):
    family, radius = case
    z, w = _pairs(family, 100, 9200 + len(family), radius)
    warned = 0
    for a, b in zip(z.tolist(), w.tolist()):
        got, got_warned = _recorded(distances.localization_gap, a, b, radius)
        want, want_warned = _recorded(_ref_localization_gap, a, b, radius)
        assert _same(_fields(got), _fields(want)), (a, b)
        # the near-arc NaN keeps its warning: no errstate reaches the separation term
        assert got_warned == want_warned, (a, b)
        warned += bool(want_warned)
    assert warned > 0 if family == "arc" else warned == 0
