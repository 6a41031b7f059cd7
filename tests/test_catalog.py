"""The catalog contract: every domain class answers the same questions the same way.

Membership is asked four ways (dimension, scalar ``contains``, the
``contains_batch`` row, the sign of the signed boundary distance), and each
closed form is either built and evaluated or refused with
``UnsupportedDomainError`` when it is looked up, never at its first evaluation.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import invlab
from invlab import bergman, distances, metrics, sampling
from invlab.geometry import (
    Ball,
    DimensionMismatchError,
    HalfDiscScaled,
    HalfPlane,
    Polydisc,
    Product,
    ReinhardtEllipsoid,
    UnitDisc,
    UnsupportedDomainError,
    as_coords,
    boundary_distance,
    contains,
    contains_batch,
    dimension,
    intersect_with_ball,
)

ALL = {"distance", "kobayashi", "bergman", "moments", "sample"}

# one instance of each class, with the closed forms the catalog has for it
CATALOG = [
    (UnitDisc(), ALL),
    (HalfPlane(), {"distance", "kobayashi", "sample"}),
    (HalfDiscScaled(0.7), {"distance", "kobayashi", "sample"}),
    (Ball(2), ALL),
    (Polydisc((1.0, 0.5)), ALL),
    (Product((Ball(2), HalfPlane())), {"distance", "kobayashi"}),
    # the ellipsoid factor has neither closed form, so the product has none;
    # either factor order, so that neither factor's signed value masks the other's
    (Product((ReinhardtEllipsoid((1.0, 2.0)), UnitDisc())), set()),
    (Product((UnitDisc(), ReinhardtEllipsoid((1.0, 2.0)))), set()),
    (intersect_with_ball(UnitDisc(), 0.5, 0.7), set()),
    (ReinhardtEllipsoid((0.75, 1.5)), {"moments"}),
]
IDS = [repr(domain) for domain, _ in CATALOG]


def _points(domain, seed, count=400):
    """Seeded points of the box [-1.3, 1.3]^(2n), some inside the domain and some not."""
    rng = np.random.default_rng(seed)
    n = dimension(domain)
    return rng.uniform(-1.3, 1.3, (count, n)) + 1j * rng.uniform(-1.3, 1.3, (count, n))


def _builds(build, domain) -> bool:
    try:
        build(domain)
    except UnsupportedDomainError:
        return False
    return True


@pytest.mark.parametrize("domain, _", CATALOG, ids=IDS)
def test_membership_is_answered_alike(domain, _):
    pts = _points(domain, 11)
    rows = contains_batch(domain, pts)
    assert 0 < rows.sum() < len(pts)
    assert pts.shape[1] == dimension(domain) == domain.dim
    with pytest.raises(DimensionMismatchError):
        contains(domain, np.append(pts[0], 0j))
    for p, row in zip(pts, rows):
        assert contains(domain, p) == row
        # positive exactly on members, and finite
        signed = domain.signed(as_coords(p))
        assert np.isfinite(signed) and (signed > 0.0) == row
        if row:
            assert boundary_distance(domain, p) > 0.0


@pytest.mark.parametrize("domain, supported", CATALOG, ids=IDS)
def test_closed_forms_build_or_are_refused_at_lookup(domain, supported):
    n = dimension(domain)
    builders = {
        "distance": distances.distance_batch,
        "kobayashi": metrics.kobayashi_density,
        "bergman": metrics.bergman_density,
        "moments": lambda d: bergman.moment_table(d, 4),
        "sample": lambda d: sampling.domain_points(3, 50, d),
    }
    assert {name for name, build in builders.items() if _builds(build, domain)} == supported
    pts = _points(domain, 12)
    Z = pts[contains_batch(domain, pts)][:20]
    W, X = Z[::-1], _points(domain, 13, len(Z))
    if "distance" in supported:
        d = distances.distance_batch(domain)(Z, W)
        assert d.shape == (len(Z),) and np.all(np.isfinite(d) & (d >= 0.0))
    for name in {"kobayashi", "bergman"} & supported:
        v = builders[name](domain).evaluate_batch(Z, X)
        assert v.shape == (len(Z),) and np.all(np.isfinite(v) & (v > 0.0))
    if "moments" in supported:
        table = bergman.moment_table(domain, 4)
        assert table.alphas.shape[1] == n and np.all(table.inv_moments > 0.0)
    if "sample" in supported:
        samples = sampling.domain_points(3, 50, domain)
        assert samples.shape == (50, n) and contains_batch(domain, samples).all()


MODULES = sorted(
    name[:-3]
    for name in os.listdir(os.path.dirname(invlab.__file__))
    if name.endswith(".py") and name != "__init__.py"
)


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    # geometry imports bergman, distances and sampling at its foot and they
    # import geometry; a fresh interpreter per module, with a bare package
    # object in place of the package's __init__, finds any import cycle that a
    # later top-level import would reopen
    package = os.path.dirname(invlab.__file__)
    code = (
        "import sys, types\n"
        "package = types.ModuleType('invlab')\n"
        f"package.__path__ = [{package!r}]\n"
        "sys.modules['invlab'] = package\n"
        f"import invlab.{module}\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
