"""Negative controls: one deliberately broken input per verification suite.

Each test breaks one thing a suite relies on and asserts that the suite then
reports ``pass`` False, so no suite can pass whatever the code computes.
"""

import numpy as np
import pytest

from invlab import bergman, distances, geodesics, localization, verify

SEED = 42


def _scale_gap_terms(monkeypatch, boundary, separation):
    original = distances.gap_terms_batch

    def broken(z, w):
        tb, ts = original(z, w)
        return boundary * tb, separation * ts

    monkeypatch.setattr(distances, "gap_terms_batch", broken)


def _chord(density, z, w, config=geodesics.SolverConfig()):
    t = np.linspace(0.0, 1.0, 9)[:, None]
    nodes = (1 - t) * np.atleast_1d(z)[None, :] + t * np.atleast_1d(w)[None, :]
    curve = geodesics.Polyline(density.domain, nodes)
    return curve, geodesics.finsler_length(density, curve)


def _bulge(density, z, w, config=geodesics.SolverConfig()):
    curve = geodesics.Polyline(density.domain, np.array([[z], [1j], [w]]))
    return curve, geodesics.finsler_length(density, curve)


@pytest.fixture
def fresh_moments():
    bergman.moment_table.cache_clear()
    yield
    bergman.moment_table.cache_clear()


def test_gap_decomposition_fails_without_the_separation_term(monkeypatch):
    _scale_gap_terms(monkeypatch, 1.0, 0.0)
    assert not verify.suite_gap_decomposition(SEED)["pass"]


def test_gap_asymptotics_fails_with_the_boundary_term_doubled(monkeypatch):
    _scale_gap_terms(monkeypatch, 2.0, 1.0)
    assert not verify.suite_gap_asymptotics(SEED)["pass"]


def test_planar_bound_shape_fails_with_both_terms_tripled(monkeypatch):
    _scale_gap_terms(monkeypatch, 3.0, 3.0)
    assert not verify.suite_planar_bound_shape(SEED)["pass"]


def _gap_terms(gap):
    """A gap_terms_batch whose whole gap is ``gap(z, w)``, held in the first term."""
    return lambda z, w: (gap(z, w), np.zeros(np.shape(z)))


def test_term_necessity_fails_on_a_pure_separation_gap(monkeypatch):
    monkeypatch.setattr(distances, "gap_terms_batch", _gap_terms(lambda z, w: np.abs(z - w) ** 2))
    assert not verify.suite_term_necessity(SEED)["pass"]


def test_geodesic_solver_fails_on_the_straight_chord(monkeypatch):
    monkeypatch.setattr(geodesics, "minimize_curve", _chord)
    assert not verify.suite_geodesic_solver(SEED)["pass"]


def test_excursion_fails_on_a_curve_that_bulges_too_high(monkeypatch):
    # only a curve that rises too far is caught; one that stays too low
    # still passes, because the measured radius is |z - w| for any curve
    monkeypatch.setattr(geodesics, "minimize_curve", _bulge)
    result = verify.suite_excursion(SEED)
    assert not result["pass"]
    assert result["measured"]["max_excursion_ratio"] > 20.0


def test_bergman_oracle_fails_on_perturbed_moments(monkeypatch, fresh_moments):
    original = bergman.monomial_moment
    monkeypatch.setattr(
        bergman, "monomial_moment", lambda domain, alpha: 1.001 * original(domain, alpha)
    )
    assert not verify.suite_bergman_oracle(SEED)["pass"]


def test_ordering_axioms_fails_when_caratheodory_exceeds_kobayashi(monkeypatch):
    original = distances.caratheodory_distance

    def broken(domain, z, w):
        value = original(domain, z, w)
        return value._replace(value=value.value * (1.0 + 1e-9))

    monkeypatch.setattr(distances, "caratheodory_distance", broken)
    assert not verify.suite_ordering_axioms(SEED)["pass"]


def test_weight_bounds_fails_on_a_constant_planar_bound(monkeypatch):
    monkeypatch.setattr(localization, "planar_gap_bound", lambda *args: 1.0)
    assert not verify.suite_weight_bounds(SEED)["pass"]


def test_exponent_fits_fails_on_a_gap_linear_in_h(monkeypatch):
    monkeypatch.setattr(distances, "gap_terms_batch", _gap_terms(lambda z, w: np.abs(z - w)))
    assert not verify.suite_exponent_fits(SEED)["pass"]
