"""The benchmark's operation groups: geodesic solves, closed-form queries, Bergman sweep.

Each group makes its inputs from a seed, warms up every layer it calls on an
input outside its measured set, runs whole rounds of timed calls through a
``Recorder``, and checks what the calls returned against the independent
references in ``reference.py`` (imported only when checking, so mpmath stays
out of set-up time) or against properties the method must have.

A workload runs its own group at full size, seeded from the command line,
and every other group as a small fixed probe (or, for the group it carries,
at full size too), so that each workload reports every end-to-end metric
while each layer keeps most of its work in one workload.  A traced run adds
a census of the other groups so that every per-layer metric has a value.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np

from invlab import (
    bergman,
    conformal,
    distances,
    geodesics,
    geometry,
    localization,
    metrics,
    sampling,
)
from invlab.geometry import (
    Ball,
    HalfDiscScaled,
    HalfPlane,
    Polydisc,
    Product,
    ReinhardtEllipsoid,
    UnitDisc,
)

EPS = 2.0**-52
PROBE_SEED = 20_211_104  # probes and censuses use fixed inputs, whatever --seed is


def rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


# ==========================================================================
# geodesics
# ==========================================================================

GEODESIC_FAMILIES = ("disc", "halfplane", "halfdisc", "ball2", "bergman-disc", "edge")
EDGE_T = (1e-3,)  # stalls on every run (t = 1e-2 too; t = 0.1 passes); longer ones are left out
CERT_LIMIT = 1e-3
# relative length tolerance against the mpmath distance, per family
LENGTH_TOL = {
    "disc": 1e-4,
    "halfplane": 1e-4,
    "halfdisc": 1e-4,
    "ball2": 1e-4,
    "bergman-disc": 1e-4,
    "edge": 1e-3,
}
SOLVER = geodesics.SolverConfig()  # 65 nodes, 3 refinement levels
WARM_SOLVER = geodesics.SolverConfig(node_count=3, refinement_levels=0, max_iterations=2)


def _geodesic_setup(family: str):
    """(domain, density, oracle) for a family; the oracle matches the density."""
    if family in ("disc", "bergman-disc"):
        domain = UnitDisc()
    elif family in ("halfplane", "edge"):
        domain = HalfPlane()
    elif family == "halfdisc":
        domain = HalfDiscScaled(1.0)
    else:
        domain = Ball(2)
    base = distances.distance_batch(domain)
    if family == "bergman-disc":
        root2 = math.sqrt(2.0)
        return domain, metrics.bergman_density(domain), lambda Z, W: root2 * base(Z, W)
    return domain, metrics.kobayashi_density(domain), base


# One base pair per seeded family, in the family's range and a moderate
# hyperbolic distance apart.  A run moves it by seeded isometries of the
# family's domain, so the inputs change with the seed and the round while the
# solver's work stays within ~3 %: unrelated pairs differ by 25-45 % in
# descent cost, and a run holds too few solves for that to average out.
BASE_PAIRS = {
    "disc": (-0.45 + 0.2j, 0.3 - 0.35j),
    "halfplane": (-0.3 + 0.5j, 0.2 + 0.9j),
    "halfdisc": (-0.5 + 0.3j, 0.4 + 0.45j),
    "ball2": ((0.35 - 0.1j, 0.2j), (-0.3 + 0j, 0.25 + 0.3j)),
    "bergman-disc": (-0.2 - 0.4j, 0.5 + 0.25j),
}


def _geodesic_pair(family: str, base: dict, g: np.random.Generator):
    """The family's base pair moved by a seeded isometry of its domain."""
    z, w = base[family]
    if family in ("disc", "bergman-disc"):  # rotation
        u = np.exp(2j * np.pi * g.random())
        return complex(u * z), complex(u * w)
    if family == "halfplane":  # translation and dilation; stays in Re (-0.5, 0.5), Im (0.2, 1.5)
        a, lam = g.uniform(-0.15, 0.15), g.uniform(0.9, 1.1)
        return complex(lam * z + a), complex(lam * w + a)
    if family == "halfdisc":  # reflection in the imaginary axis, endpoint order
        if g.random() < 0.5:
            z, w = -z.conjugate(), -w.conjugate()
        return (z, w) if g.random() < 0.5 else (w, z)
    # ball2: a unitary map of C^2
    q, _ = np.linalg.qr(g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2)))
    return tuple(complex(c) for c in q @ z), tuple(complex(c) for c in q @ w)


def _no_tick() -> None:
    pass


class GeodesicGroup:
    """minimize_curve then epsilon_certificate on seeded pairs per family.

    A round is one seeded pair of each seeded family (the base pair under a
    seeded isometry, fresh each round) plus the fixed edge pairs
    z = -t + i t^2, w = t + i t^2.  Every round therefore does the same work.
    """

    name = "geodesics"

    def __init__(self, seed: int, families=GEODESIC_FAMILIES, edge_t=EDGE_T, base=BASE_PAIRS):
        self.seed = seed
        self.base = base
        self.rounds_done = 0
        self.tick = _no_tick
        self.families = [f for f in families if f != "edge"]
        self.edge_t = tuple(edge_t) if "edge" in families else ()
        self.setups = {f: _geodesic_setup(f) for f in set(self.families) | ({"edge"} if self.edge_t else set())}
        self.outputs: list[dict] = []

    def attach(self, rec) -> None:
        """Route density and oracle calls through the recorder (spans when tracing)."""
        self.rec = rec
        self.traced = {}
        for fam, (domain, density, oracle) in self.setups.items():
            wrapped = metrics.FinslerDensity(density.source, domain, rec.wrap_core(density.core))
            self.traced[fam] = (wrapped, rec.wrap_oracle(oracle))

    def pairs(self, r: int):
        g = rng(self.seed, 1, r)
        out = [(f, *_geodesic_pair(f, self.base, g)) for f in self.families]
        out += [("edge", complex(-t, t * t), complex(t, t * t)) for t in self.edge_t]
        return out

    def warm_up(self, rec) -> None:
        for fam, (domain, density, oracle) in self.setups.items():
            z, w = (0.35j, 0.1 + 0.4j) if fam != "ball2" else ((0.1, 0.05j), (-0.1j, 0.2))
            if fam == "edge":
                z, w = -0.2 + 0.05j, 0.2 + 0.05j
            curve, _ = geodesics.minimize_curve(density, z, w, WARM_SOLVER)
            geodesics.epsilon_certificate(curve, density, oracle)
            geodesics.finsler_length(density, curve)

    def round(self, r: int) -> int:
        rec = self.rec
        ops = 0
        for fam, z, w in self.pairs(r):
            density, oracle = self.traced[fam]
            # unkeyed: a run repeats these long solves too few times for a floor
            curve, length = rec.run(
                "geodesics.minimize_curve:" + fam, geodesics.minimize_curve, density, z, w, SOLVER
            )
            cert = rec.run(
                "geodesics.epsilon_certificate:" + fam,
                geodesics.epsilon_certificate,
                curve,
                density,
                oracle,
            )
            again = rec.run("geodesics.finsler_length", geodesics.finsler_length, density, curve)
            ops += 2
            if rec.trace and fam in ("halfplane", "halfdisc", "ball2"):
                self._solver_batch(fam, curve)
            self.outputs.append(
                {
                    "family": fam,
                    "z": z,
                    "w": w,
                    "nodes": curve.nodes.copy(),
                    "length": float(length),
                    "finsler_length": float(again),
                    "epsilon": float(cert.epsilon),
                }
            )
            self.tick()
        self.rounds_done += 1
        return ops

    def _solver_batch(self, fam: str, curve) -> None:
        """63-row evaluate_batch calls, the size descent makes, at the curve's
        nodes with the chords scaled by fresh seeded factors in every call."""
        density = self.setups[fam][1]
        nodes = curve.nodes
        Z, X = nodes[1:-1], nodes[2:] - nodes[1:-1]
        g = rng(self.seed, 5, self.rounds_done)
        for _ in range(60):
            Xk = X * g.uniform(0.5, 2.0, (len(X), 1))
            self.rec.run("metrics.solver_batch:" + fam, density.evaluate_batch, Z, Xk, items=len(Z))

    # -- checks ----------------------------------------------------------------

    def check(self) -> tuple[list[str], int]:
        import reference as ref

        problems, failed = [], 0
        for out in self.outputs:
            bad, ok = check_geodesic(out, ref)
            problems += bad
            failed += 0 if ok else 1
        return problems, failed


def _ref_geodesic(family: str, ref):
    """(distance, density, membership) references for a family, on coordinate tuples."""
    root2 = ref.mpmath.sqrt(2)
    if family == "disc":
        return (lambda a, b: ref.disc_distance(a[0], b[0]),
                lambda z, X: ref.disc_density(z[0], X[0]),
                lambda z: ref.in_disc(z[0]))
    if family == "bergman-disc":
        return (lambda a, b: root2 * ref.disc_distance(a[0], b[0]),
                lambda z, X: ref.bergman_disc_density(z[0], X[0]),
                lambda z: ref.in_disc(z[0]))
    if family in ("halfplane", "edge"):
        return (lambda a, b: ref.halfplane_distance(a[0], b[0]),
                lambda z, X: ref.halfplane_density(z[0], X[0]),
                lambda z: ref.in_halfplane(z[0]))
    if family == "halfdisc":
        return (lambda a, b: ref.halfdisc_distance(a[0], b[0]),
                lambda z, X: ref.halfdisc_density(z[0], X[0]),
                lambda z: ref.in_halfdisc(z[0]))
    return (ref.ball_distance, ref.ball_density, ref.in_ball)


def check_geodesic(out: dict, ref) -> tuple[list[str], bool]:
    """Problems with one solve, and whether it succeeded.

    Correctness: nodes inside the domain by the benchmark's own test, fixed
    endpoints, reported length equal to the reference two-point Gauss length
    of the returned polyline, no undercut of the true distance, and the
    program's certificate equal to the reference certificate.  Success: the
    reference certificate is at most CERT_LIMIT and the length is within the
    family's tolerance of the mpmath distance.
    """
    mp = ref.mpmath
    fam = out["family"]
    dist, dens, inside = _ref_geodesic(fam, ref)
    nodes = [tuple(complex(c) for c in row) for row in np.atleast_2d(out["nodes"])]
    tag = f"geodesic {fam} {out['z']}->{out['w']}"
    problems = []
    if not all(inside(p) for p in nodes):
        problems.append(f"{tag}: a node lies outside the domain")
        return problems, False
    z = out["z"] if isinstance(out["z"], tuple) else (out["z"],)
    w = out["w"] if isinstance(out["w"], tuple) else (out["w"],)
    if nodes[0] != tuple(complex(c) for c in z) or nodes[-1] != tuple(complex(c) for c in w):
        problems.append(f"{tag}: endpoints moved")
    exact = dist(z, w)
    lo = mp.mpf(0.5) - 1 / (2 * mp.sqrt(3))
    hi = mp.mpf(0.5) + 1 / (2 * mp.sqrt(3))
    seg = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        a_ = [ref._c(c) for c in a]
        d_ = [ref._c(cb) - ca for ca, cb in zip(a_, (ref._c(c) for c in b))]
        if all(c == 0 for c in d_):
            seg.append(mp.mpf(0))
            continue
        v1 = dens([ca + lo * cd for ca, cd in zip(a_, d_)], d_)
        v2 = dens([ca + hi * cd for ca, cd in zip(a_, d_)], d_)
        seg.append((v1 + v2) / 2)
    cum = [mp.mpf(0)]
    for s in seg:
        cum.append(cum[-1] + s)
    length = out["length"]
    if abs(length - cum[-1]) > 1e-9 * cum[-1]:
        problems.append(f"{tag}: length {length} is not the Gauss length {mp.nstr(cum[-1], 17)}")
    if abs(out["finsler_length"] - length) > 1e-12 * length:
        problems.append(f"{tag}: finsler_length disagrees with the solver's length")
    if length < exact * (1 - 1e-6):
        problems.append(f"{tag}: length {length} undercuts the distance {mp.nstr(exact, 17)}")
    worst = mp.mpf(0)
    k, step = len(nodes), 1
    while step <= k - 1:
        for i in range(k - step):
            worst = max(worst, cum[i + step] - cum[i] - dist(nodes[i], nodes[i + step]))
        step *= 2
    if abs(out["epsilon"] - worst) > 1e-8:
        problems.append(
            f"{tag}: certificate {out['epsilon']} differs from the reference {mp.nstr(worst, 17)}"
        )
    ok = worst <= CERT_LIMIT and abs(length - exact) <= LENGTH_TOL[fam] * exact
    return problems, bool(ok)


# ==========================================================================
# closed forms
# ==========================================================================

CATALOG = {
    "disc": UnitDisc(),
    "halfplane": HalfPlane(),
    "halfdisc": HalfDiscScaled(1.0),
    "ball2": Ball(2),
    "polydisc2": Polydisc((1.0, 0.5)),
    "product": Product((UnitDisc(), HalfPlane())),
}
PULLBACK_MAP = conformal.Composition((conformal.Scale(2.0), conformal.HalfDiscToHalfPlane()))
DENSITY_KINDS = ("disc", "halfplane", "halfdisc", "ball2", "polydisc2", "pullback")
MAPS = {
    "halfdisc2halfplane": conformal.HalfDiscToHalfPlane(),
    "cayley": conformal.Cayley(),
    "mobius": conformal.Mobius(2.0, 1j, -0.5j, 3.0),
    "composition": PULLBACK_MAP,
}
SCALAR_KINDS = (
    "distances.kobayashi_distance",
    "distances.localization_gap",
    "metrics.kobayashi_royden_density",
    "geometry.contains",
    "geometry.boundary_distance",
    "conformal.apply",
    "conformal.invert_by_newton",
)
NEAR_SHARE = 5  # one pair in five sits within 1e-12 of the boundary
ARC_SEED = 20_211_105  # the near-arc gap pairs do not depend on --seed
OVERFLOW_BAND = 8 * EPS  # how far from OVERFLOW_EDGE rounding may move a ratio


def _delta(g, count):
    """Boundary offsets, log-uniform in [2e-15, 1e-12]."""
    return 10.0 ** g.uniform(math.log10(2e-15), -12.0, count)


def _disc_pts(g, count, near, radius=1.0):
    th = 2 * np.pi * g.random(count)
    r = radius * (1 - _delta(g, count)) if near else 0.95 * radius * np.sqrt(g.random(count))
    return r * np.exp(1j * th)


def _halfplane_pts(g, count, near):
    x = g.uniform(-2.0, 2.0, count)
    y = 10.0 ** g.uniform(-15.0, -12.0, count) if near else 10.0 ** g.uniform(-3.0, 0.5, count)
    return x + 1j * y


def _halfdisc_pts(g, count, near):
    if not near:
        r = g.uniform(0.05, 0.95, count)
        return r * np.exp(1j * g.uniform(0.05, np.pi - 0.05, count))
    low = g.random(count) < 0.5
    return np.where(low, _segment_pts(g, count), _arc_pts(g, count))


def _segment_pts(g, count):
    """Half-disc points within 1e-12 of the real segment, away from the corners."""
    return g.uniform(-0.9, 0.9, count) + 1j * 10.0 ** g.uniform(-15.0, -12.0, count)


def _arc_pts(g, count, lo=0.01, hi=np.pi - 0.01):
    """Half-disc points within 1e-12 of the unit arc, at angles in (lo, hi)."""
    return (1 - _delta(g, count)) * np.exp(1j * g.uniform(lo, hi, count))


def _ball_pts(g, count, near):
    v = g.standard_normal((count, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = 1 - _delta(g, count) if near else 0.95 * g.random(count) ** 0.25
    v *= r[:, None]
    return v[:, :2] + 1j * v[:, 2:]


def catalog_points(kind: str, g, count: int, near: bool) -> np.ndarray:
    """(count, n) points of a catalog member; near puts each within 1e-12 of the boundary."""
    if kind == "disc":
        return _disc_pts(g, count, near)[:, None]
    if kind == "halfplane":
        return _halfplane_pts(g, count, near)[:, None]
    if kind in ("halfdisc", "pullback"):
        return _halfdisc_pts(g, count, near)[:, None]
    if kind == "ball2":
        return _ball_pts(g, count, near)
    if kind == "polydisc2":
        radii = CATALOG["polydisc2"].radii
        pts = np.stack([_disc_pts(g, count, False, r) for r in radii], axis=1)
        if near:
            j = g.integers(0, 2, count)
            edge = np.stack([_disc_pts(g, count, True, r) for r in radii], axis=1)
            pts[np.arange(count), j] = edge[np.arange(count), j]
        return pts
    # product: unit disc x half-plane, one factor near the boundary when near
    disc = _disc_pts(g, count, False)
    half = _halfplane_pts(g, count, False)
    if near:
        first = g.random(count) < 0.5
        disc = np.where(first, _disc_pts(g, count, True), disc)
        half = np.where(first, half, _halfplane_pts(g, count, True))
    return np.stack([disc, half], axis=1)


def catalog_pairs(kind: str, g, count: int):
    """count pairs; a fifth of them near the boundary, half of those with both points near."""
    n_near = count // NEAR_SHARE
    regular = count - n_near
    Z = np.concatenate(
        [catalog_points(kind, g, regular, False), catalog_points(kind, g, n_near, True)]
    )
    half = n_near // 2
    W = np.concatenate(
        [
            catalog_points(kind, g, regular + half, False),
            catalog_points(kind, g, n_near - half, True),
        ]
    )
    return Z, W


def arc_pairs(count: int):
    """count fixed half-disc pairs near the unit arc, the same on every seed.

    The first half have both points within 1e-12 of the arc, at angles at
    least 0.1 apart: there 1 - q < 1e-20 (q = |z - w|^2 / |1 - z conj w|^2),
    so gap_terms_batch, which forms -log1p(-q)/2 from q, returns +inf, nan or
    a sum 34-47 % short on every one of them.  The rest have one point near
    the arc and the other inside; the program gets some of them wrong and
    some right, the same ones on every run (finding f in the README).
    """
    g = rng(ARC_SEED, count)
    both = count // 2
    z = _arc_pts(g, both, 0.01, np.pi / 2 - 0.05)
    w = _arc_pts(g, both, np.pi / 2 + 0.05, np.pi - 0.01)
    one = count - both
    z1, w1 = _arc_pts(g, one), _halfdisc_pts(g, one, False)
    swap = g.random(count) < 0.5
    Z, W = np.concatenate([z, z1]), np.concatenate([w, w1])
    return np.where(swap, W, Z), np.where(swap, Z, W)


def gap_pairs(g, count: int, n_arc: int):
    """count half-disc pairs: seeded ones, a tenth of them near the real
    segment, followed by the n_arc fixed pairs of arc_pairs."""
    n_seg = count // NEAR_SHARE - n_arc
    regular = count - n_arc - n_seg
    half = n_seg // 2
    z = np.concatenate([_halfdisc_pts(g, regular, False), _segment_pts(g, n_seg)])
    w = np.concatenate([_halfdisc_pts(g, regular + half, False), _segment_pts(g, n_seg - half)])
    az, aw = arc_pairs(n_arc)
    return np.concatenate([z, az]), np.concatenate([w, aw])


def _vectors(g, count, n):
    mag = 10.0 ** g.uniform(-3.0, 1.0, (count, 1))
    v = g.standard_normal((count, n)) + 1j * g.standard_normal((count, n))
    return mag * v


def _unit(g, n):
    v = g.standard_normal(n) + 1j * g.standard_normal(n)
    return v / np.linalg.norm(v)


def _as_point(row: np.ndarray):
    return complex(row[0]) if len(row) == 1 else tuple(complex(c) for c in row)


class ClosedFormGroup:
    """Batch distances, gap terms, densities, validated scalar calls and sweep rows.

    Every round draws fresh inputs from (seed, round), so no call repeats an
    earlier one, apart from the fixed near-arc gap pairs: a tenth of the gap
    batch and every fourth scalar gap call.  The program gets some of those
    wrong, the same ones on every run, and each counts as a failed operation.
    The last round is checked in full, and the near-arc outputs of every round.
    """

    name = "closed-forms"

    def __init__(
        self, seed: int, pairs: int = 2048, evals: int = 2048, scalars: int = 24, rows: int = 32, arc: bool = True
    ):
        self.seed = seed
        self.rounds_done = 0
        self.tick = _no_tick
        self.sizes = (pairs, evals, scalars, rows)
        self.n_arc = pairs // (2 * NEAR_SHARE) if arc else 0
        self.arc = arc_pairs(self.n_arc)
        self.evaluators = {k: distances.distance_batch(d) for k, d in CATALOG.items()}
        self.densities = {k: metrics.kobayashi_density(CATALOG[k]) for k in DENSITY_KINDS[:-1]}
        self.densities["pullback"] = metrics.pullback(PULLBACK_MAP, metrics.kobayashi_density(HalfPlane()))
        self.last = None  # (inputs, outputs) of the last round
        self.arc_outputs: dict[bytes, list] = {}  # near-arc outputs -> [outputs..., rounds]

    def draw(self, r: int) -> dict:
        """The inputs of round r."""
        pairs, evals, scalars, rows = self.sizes
        g = rng(self.seed, 2, r)
        inp = {"dist": {k: catalog_pairs(k, g, pairs) for k in CATALOG}, "gap": gap_pairs(g, pairs, self.n_arc)}
        inp["density"] = {}
        for k in DENSITY_KINDS:
            n_near = evals // NEAR_SHARE
            Z = np.concatenate(
                [catalog_points(k, g, evals - n_near, False), catalog_points(k, g, n_near, True)]
            )
            if k == "pullback":  # every tenth point outside, where the masks must give +inf
                Z[::10, 0] = np.where(np.arange(len(Z[::10])) % 2 == 0, np.conj(Z[::10, 0]), 1.5 * Z[::10, 0])
            inp["density"][k] = (Z, _vectors(g, evals, Z.shape[1]))
        inp["scalar"], inp["arc_scalar"] = self._scalar_calls(g, scalars, inp)
        inp["sweep"] = {
            "imaginary-axis": g.uniform(0.05, 0.5),
            "random-cap": g.uniform(0.05, 0.5),
            "normal": g.uniform(0.25, 1.0),
            "sharpness_lo": 10.0 ** g.uniform(-5.0, -3.5),
            "cap_seed": int(g.integers(0, 2**31)),
            "rows": rows,
        }
        return inp

    def _scalar_calls(self, g, count: int, inp: dict):
        """The round's scalar calls, and the indices of those on fixed near-arc pairs."""
        calls, arc = [], []
        kinds = list(CATALOG)
        hz, hw = inp["gap"]
        seeded = len(hz) - self.n_arc
        for i in range(count):
            kind = kinds[i % len(kinds)]
            Z, W = inp["dist"][kind]
            j = int(g.integers(0, min(len(Z), seeded)))
            z, w = _as_point(Z[j]), _as_point(W[j])
            domain = CATALOG[kind]
            X = _as_point(_vectors(g, 1, Z.shape[1])[0])
            calls.append(("distances.kobayashi_distance", (domain, z, w)))
            if self.n_arc and i % 4 == 3:  # both kinds of near-arc pair, the same every round
                k = (i // 4) * 37 % self.n_arc
                arc.append(len(calls))
                calls.append(("distances.localization_gap", (complex(self.arc[0][k]), complex(self.arc[1][k]))))
            else:
                calls.append(("distances.localization_gap", (complex(hz[j]), complex(hw[j]))))
            calls.append(("metrics.kobayashi_royden_density", (domain, z, X)))
            outside = _as_point(Z[j] * (1.5 if i % 2 else 1.0))
            calls.append(("geometry.contains", (domain, outside)))
            calls.append(("geometry.boundary_distance", (domain, z)))
            mname = list(MAPS)[i % len(MAPS)]
            src = hz[j] if mname in ("halfdisc2halfplane", "composition") else inp["dist"]["disc"][0][j, 0]
            calls.append(("conformal.apply", (mname, complex(src))))
            z0 = complex(g.uniform(0.2, 0.9) * np.exp(1j * g.uniform(0.2, np.pi - 0.2)))
            start = complex(z0 * (1 + 0.01 * np.exp(2j * np.pi * g.random())))
            # the target is the benchmark's own double evaluation of ((z+1)/(z-1))^2
            target = ((z0 + 1) / (z0 - 1)) ** 2
            calls.append(("conformal.invert_by_newton", (z0, target, start)))
        return calls, arc

    def attach(self, rec) -> None:
        self.rec = rec

    def warm_up(self, rec) -> None:
        for k, ev in self.evaluators.items():
            Z, W = catalog_points(k, rng(1), 2, False), catalog_points(k, rng(2), 2, False)
            ev(Z, W)
        distances.gap_terms_batch(np.array([0.5j]), np.array([0.25j]))
        distances.halfdisc_distance_batch(np.array([0.5j]), np.array([0.25j]))
        distances.halfplane_distance_batch(np.array([0.5j]), np.array([0.25j]))
        for k, d in self.densities.items():
            Z = catalog_points(k, rng(3), 2, False)
            d.evaluate_batch(Z, np.ones_like(Z))
        geometry.contains_batch(CATALOG["halfdisc"], np.array([[0.5j]]))
        distances.kobayashi_distance(UnitDisc(), 0.1, 0.2)
        distances.localization_gap(0.3j, 0.2j)
        metrics.kobayashi_royden_density(UnitDisc(), 0.1, 1.0)
        geometry.contains(UnitDisc(), 0.1)
        geometry.boundary_distance(UnitDisc(), 0.1)
        conformal.apply(MAPS["cayley"], 0.1)
        conformal.invert_by_newton(MAPS["halfdisc2halfplane"], conformal.apply(MAPS["halfdisc2halfplane"], 0.5j), 0.49j)
        localization.two_term_gap_bound(0.3j, 0.2j)
        localization.planar_gap_bound(1.0, 0.3j, 0.2j, 0.3, 0.2)
        localization.sharpness_sweep([0.05])
        localization.fit_exponent([(1.0, 1.0), (2.0, 4.0), (3.0, 9.0)])
        sampling.halfdisc_pairs(1, 2, 0.1)

    # -- one round ---------------------------------------------------------------

    def _run(self, name, fn, *args, items=1):
        """A timed call keyed by its place in the round: every round makes it
        on fresh inputs of the same size and kind."""
        self._place += 1
        return self.rec.run(name, fn, *args, items=items, key=self._place)

    def round(self, r: int) -> int:
        inp = self.draw(r)
        self._place = 0
        out = {}
        ops = 0
        for k, (Z, W) in inp["dist"].items():
            out["d:" + k] = self._run("distances.batch:" + k, self.evaluators[k], Z, W, items=len(Z))
            ops += len(Z)
        z, w = inp["gap"]
        out["gap"] = self._run("distances.gap_pairs", _gap_both_routes, z, w, items=len(z))
        ops += len(z)
        for k, (Z, X) in inp["density"].items():
            out["rho:" + k] = self._run(
                "metrics.evaluate_batch:" + k, self.densities[k].evaluate_batch, Z, X, items=len(Z)
            )
            ops += len(Z)
        Zp = inp["density"]["pullback"][0]
        out["mask"] = self._run(
            "geometry.contains_batch:pullback", geometry.contains_batch, CATALOG["halfdisc"], Zp, items=len(Zp)
        )
        out["scalar"] = self._scalars(inp["scalar"])
        ops += len(inp["scalar"])
        out["sweep"], rows = self._sweep(inp["sweep"])
        ops += rows
        self._file_arc(inp, out)
        self.last = (inp, out)
        self.rounds_done += 1
        self.tick()
        return ops

    def _file_arc(self, inp, out) -> None:
        """Keep each distinct set of near-arc outputs once, with the rounds that gave it."""
        if not self.n_arc:
            return
        tb, ts, diff = out["gap"]
        gap = np.stack([tb, ts, diff])[:, -self.n_arc :]
        results = [out["scalar"][i] for i in inp["arc_scalar"]]
        key = gap.tobytes() + repr(results).encode()
        entry = self.arc_outputs.setdefault(key, [gap, [inp["scalar"][i] for i in inp["arc_scalar"]], results, 0])
        entry[-1] += 1

    def _scalars(self, calls):
        run = self._run
        results = []
        newton_map = MAPS["halfdisc2halfplane"]
        for name, args in calls:
            if name == "distances.kobayashi_distance":
                v = run(name, distances.kobayashi_distance, *args).value
            elif name == "distances.localization_gap":
                d = run(name, distances.localization_gap, *args)
                v = (d.gap, d.term_boundary, d.term_separation, d.residual, d.k_local, d.k_global)
            elif name == "metrics.kobayashi_royden_density":
                v = run(name, metrics.kobayashi_royden_density, *args)
            elif name == "geometry.contains":
                v = run(name, geometry.contains, *args)
            elif name == "geometry.boundary_distance":
                v = run(name, geometry.boundary_distance, *args)
            elif name == "conformal.apply":
                v = run(name, conformal.apply, MAPS[args[0]], args[1])
            else:
                v = run(name, conformal.invert_by_newton, newton_map, args[1], args[2])
            results.append(v)
        return results

    def _sweep(self, s):
        """Rows as the CLI sweep families build them, plus sharpness_sweep and fit_exponent."""
        run, n = self._run, s["rows"]
        rows = {}
        ts = np.geomspace(s["imaginary-axis"] * 1e-3, s["imaginary-axis"], n)
        rows["imaginary-axis"] = [
            self._row("imaginary-axis", float(t), 1j * t, 0.5j * t, localization.two_term_gap_bound) for t in ts
        ]
        z, w = run("sampling.halfdisc_pairs", sampling.halfdisc_pairs, s["cap_seed"], n, s["random-cap"], items=2 * n)
        rows["random-cap"] = [
            self._row("random-cap", float(abs(a - b)), complex(a), complex(b), _planar_shape) for a, b in zip(z, w)
        ]
        ts = s["normal"] * 2.0 ** -(np.arange(n) + 6.0)
        rows["normal"] = [
            self._row("normal", float(t), 2j * t, 1j * t, localization.two_term_gap_bound) for t in ts
        ]
        grid = np.geomspace(s["sharpness_lo"], 0.1, 16)
        sharp = run("localization.sharpness_sweep", localization.sharpness_sweep, grid, items=3 * len(grid))
        samples = [(row[0], row[3]) for row in rows["normal"]]
        slope = run("localization.fit_exponent", localization.fit_exponent, samples)
        out = {
            "rows": rows,
            "sharp": [(x.family, x.t, x.z, x.w, x.gap, x.bound, x.ratio) for x in sharp],
            "slope": slope,
            "cap": (z.copy(), w.copy()),
        }
        return out, 3 * n + 3 * len(grid)

    def _row(self, family, t, z, w, shape):
        run = self._run

        def build():
            g = run("distances.localization_gap:row", distances.localization_gap, z, w)
            rhs = run("localization.bound_eval", shape, z, w)
            return (t, z, w, g.gap, rhs, g.gap / rhs)

        return run("localization.row:" + family, build)

    # -- checks ----------------------------------------------------------------

    def check(self) -> tuple[list[str], int]:
        """Problems in the last round, and the failed near-arc operations of every round."""
        import reference as ref

        problems = check_round(*self.last, self.evaluators, self.n_arc, ref)
        failed = 0
        z, w = self.arc
        for gap, calls, results, rounds in self.arc_outputs.values():
            bad = {i for i, _ in gap_problems(z, w, *gap, ref)}
            bad_calls = {i for i, _ in scalar_problems(calls, results, ref)}
            failed += rounds * (len(bad) + len(bad_calls))
        return problems, failed


def check_round(inp: dict, out: dict, evaluators: dict, n_arc: int, ref) -> list[str]:
    """Problems in one closed-form round's outputs, leaving out its fixed near-arc calls."""
    problems = []
    for k, (Z, W) in inp["dist"].items():
        problems += check_distances(k, Z, W, out["d:" + k], evaluators[k](W, Z), ref)
    z, w = inp["gap"]
    m = len(z) - n_arc
    problems += check_gap(z[:m], w[:m], *(a[:m] for a in out["gap"]), ref)
    for k, (Z, X) in inp["density"].items():
        problems += check_densities(k, Z, X, out["rho:" + k], ref)
    inside = [ref.in_halfdisc(p) for p in inp["density"]["pullback"][0][:, 0]]
    if list(map(bool, out["mask"])) != inside:
        problems.append("contains_batch: pullback mask disagrees with the membership test")
    keep = [i for i in range(len(inp["scalar"])) if i not in inp["arc_scalar"]]
    problems += check_scalars([inp["scalar"][i] for i in keep], [out["scalar"][i] for i in keep], ref)
    problems += check_sweep(out["sweep"], inp["sweep"], ref)
    return problems


def _gap_both_routes(z, w):
    tb, ts = distances.gap_terms_batch(z, w)
    with np.errstate(invalid="ignore"):  # +inf - +inf where both distances overflow
        diff = distances.halfdisc_distance_batch(z, w) - distances.halfplane_distance_batch(z, w)
    return tb, ts, diff


def _planar_shape(z, w):
    return localization.planar_gap_bound(1.0, z, w, z.imag, w.imag)


# tolerance models: |got - ref| <= REL * |ref| + COND * eps * sum over points of 1/delta,
# where delta is the relative distance of a point to the boundary that the
# formula feeds through 1 - |z|^2 (disc-type factors only).  Distances also
# get DIST_ABS: a distance is half the log of a ratio, and the log of a ratio
# that is exact to a few units of roundoff is exact to a few eps absolute,
# which on a short distance is many eps relative (235 eps at d = 2.6e-3 on a
# half-plane pair).  The disc-type members already get it from 1/delta >= 1.
DIST_REL = 64 * EPS
DIST_ABS = 8 * EPS
COND = 4.0


def _conditioning(kind: str, P: np.ndarray) -> np.ndarray:
    """Sum over coordinates of eps-scaled 1/(1 - |z|/r) for disc-type factors; 0 elsewhere."""
    if kind in ("disc", "ball2"):
        r = np.linalg.norm(P, axis=1)
        return 1.0 / (1.0 - r)
    if kind == "polydisc2":
        radii = np.asarray(CATALOG["polydisc2"].radii)
        return np.sum(1.0 / (1.0 - np.abs(P) / radii), axis=1)
    if kind == "product":
        return 1.0 / (1.0 - np.abs(P[:, 0]))
    if kind in ("halfdisc", "pullback"):
        return 1.0 / (1.0 - np.abs(P[:, 0]))
    return np.zeros(len(P))


def _ref_ratio_distance(kind: str, z, w, ref):
    if kind == "disc":
        return ref.disc_ratio(z[0], w[0]), lambda: ref.disc_distance(z[0], w[0])
    if kind == "halfplane":
        return ref.halfplane_ratio(z[0], w[0]), lambda: ref.halfplane_distance(z[0], w[0])
    if kind == "halfdisc":
        return ref.halfdisc_ratio(z[0], w[0]), lambda: ref.halfdisc_distance(z[0], w[0])
    if kind == "ball2":
        return ref.ball_ratio(z, w), lambda: ref.ball_distance(z, w)
    if kind == "polydisc2":
        radii = CATALOG["polydisc2"].radii
        return ref.polydisc_ratio(z, w, radii), lambda: ref.polydisc_distance(z, w, radii)
    m = max(ref.disc_ratio(z[0], w[0]), ref.halfplane_ratio(z[1], w[1]))
    return m, lambda: ref.mpmath.atanh(m)


def distance_errors(kind: str, Z, W, got, ref):
    """Per pair: (normalized error or None, overflow violation) against the reference."""
    cond = COND * EPS * (_conditioning(kind, Z) + _conditioning(kind, W))
    edge = ref.OVERFLOW_EDGE
    out = []
    for z, w, v, c in zip(Z, W, got, cond):
        z = tuple(complex(x) for x in z)
        w = tuple(complex(x) for x in w)
        m, exact = _ref_ratio_distance(kind, z, w, ref)
        if math.isinf(v):
            out.append((None, m < edge - OVERFLOW_BAND))
            continue
        if not math.isfinite(v) or m >= edge + OVERFLOW_BAND:
            out.append((math.inf, True))
            continue
        d = exact()
        out.append((float(abs(v - d) / (DIST_REL * d + DIST_ABS + c)), False))
    return out


def check_distances(kind, Z, W, got, got_swapped, ref) -> list[str]:
    problems = []
    for i, (err, overflow) in enumerate(distance_errors(kind, Z, W, got, ref)):
        if overflow:
            problems.append(f"distance {kind} pair {i}: +inf marker disagrees with the reference ratio")
        elif err is not None and err > 1.0:
            problems.append(f"distance {kind} pair {i}: off the reference by {err:.3g} tolerances")
    a, b = np.asarray(got), np.asarray(got_swapped)
    for i in np.flatnonzero(np.isinf(a) != np.isinf(b)):
        # rounding may put the two orders on either side of the edge, nothing more
        z = tuple(complex(x) for x in Z[i])
        w = tuple(complex(x) for x in W[i])
        m, _ = _ref_ratio_distance(kind, z, w, ref)
        if abs(m - ref.OVERFLOW_EDGE) > OVERFLOW_BAND:
            problems.append(f"distance {kind} pair {i}: +inf marker is not symmetric")
    fin = np.isfinite(a) & np.isfinite(b)
    cond = COND * EPS * (_conditioning(kind, Z) + _conditioning(kind, W))
    asym = np.abs(a[fin] - b[fin]) > 2 * (DIST_REL * np.abs(a[fin]) + DIST_ABS + cond[fin])
    if np.any(asym):
        problems.append(f"distance {kind}: d(z, w) != d(w, z) on {int(asym.sum())} pairs")
    return problems


# term sum against the reference gap: 16 eps relative, plus GAP_COND times the
# exact gap's own conditioning (how far it moves when z and w move by one unit
# roundoff), which is large only near the unit arc and the corners.  The
# two-term formula takes about 50 floating-point operations, and an evaluation
# that is backward stable errs by at most that many units of the conditioning.
GAP_TOL = 16 * EPS
GAP_COND = 50


def gap_sum_ok(total: float, z: complex, w: complex, g, ref) -> bool:
    err = abs(total - g)
    if err <= GAP_TOL * g:
        return True
    # the conditioning costs eight 80-digit gaps, so it is taken only when needed
    return math.isfinite(total) and err <= GAP_TOL * g + GAP_COND * ref.gap_conditioning(z, w)


def gap_problems(z, w, tb, ts, diff, ref) -> list[tuple[int, str]]:
    """(pair index, problem) for each gap pair whose terms or distance difference are off."""
    problems = []
    cond = COND * EPS * (1.0 / (1.0 - np.abs(z)) + 1.0 / (1.0 - np.abs(w)))
    for i in range(len(z)):
        zi, wi = complex(z[i]), complex(w[i])
        g = ref.gap(zi, wi)
        if not gap_sum_ok(tb[i] + ts[i], zi, wi, g, ref):
            problems.append((i, f"gap pair {i}: term sum off the reference gap"))
        if math.isfinite(diff[i]) and abs(diff[i] - g) > DIST_REL * 2 * ref.halfdisc_distance(zi, wi) + 2 * cond[i]:
            problems.append((i, f"gap pair {i}: distance difference off the reference gap"))
    return problems


def check_gap(z, w, tb, ts, diff, ref) -> list[str]:
    return [p for _, p in gap_problems(z, w, tb, ts, diff, ref)]


DENSITY_REL = 16 * EPS


def check_densities(kind, Z, X, got, ref) -> list[str]:
    problems = []
    cond = COND * EPS * _conditioning(kind, Z)
    radii = CATALOG["polydisc2"].radii
    for i, (z, x, v, c) in enumerate(zip(Z, X, got, cond)):
        z = tuple(complex(a) for a in z)
        x = tuple(complex(a) for a in x)
        if kind == "pullback" and not ref.in_halfdisc(z[0]):
            if v != math.inf:
                problems.append(f"density pullback point {i}: outside point did not give +inf")
            continue
        if kind == "disc":
            d = ref.disc_density(z[0], x[0])
        elif kind == "halfplane":
            d = ref.halfplane_density(z[0], x[0])
        elif kind in ("halfdisc", "pullback"):
            d = ref.halfdisc_density(z[0], x[0])
        elif kind == "ball2":
            d = ref.ball_density(z, x)
        else:
            d = ref.polydisc_density(z, x, radii)
        if not abs(v - d) <= (DENSITY_REL + c) * d:
            problems.append(f"density {kind} point {i}: off the reference")
    return problems


def _ref_boundary_distance(domain, z, ref):
    mp = ref.mpmath
    c = [ref._c(a) for a in (z if isinstance(z, tuple) else (z,))]
    if isinstance(domain, UnitDisc):
        return 1 - abs(c[0])
    if isinstance(domain, HalfPlane):
        return c[0].imag
    if isinstance(domain, HalfDiscScaled):
        return min(c[0].imag, 1 - abs(c[0]))
    if isinstance(domain, Ball):
        return 1 - mp.sqrt(ref._norm2(c))
    if isinstance(domain, Polydisc):
        return min(r - abs(a) for a, r in zip(c, domain.radii))
    return min(1 - abs(c[0]), c[1].imag)


def _ref_contains(domain, z, ref):
    c = z if isinstance(z, tuple) else (z,)
    if isinstance(domain, UnitDisc):
        return ref.in_disc(c[0])
    if isinstance(domain, HalfPlane):
        return ref.in_halfplane(c[0])
    if isinstance(domain, HalfDiscScaled):
        return ref.in_halfdisc(c[0])
    if isinstance(domain, Ball):
        return ref.in_ball(c)
    if isinstance(domain, Polydisc):
        return ref.in_polydisc(c, domain.radii)
    return ref.in_disc(c[0]) and ref.in_halfplane(c[1])


def _ref_distance_of(domain, z, w, ref):
    kind = next(k for k, d in CATALOG.items() if d == domain)
    Z = np.atleast_1d(np.asarray(z, dtype=complex))[None, :]
    W = np.atleast_1d(np.asarray(w, dtype=complex))[None, :]
    return kind, Z, W


def _ref_map(name, z, ref):
    c = ref._c(z)
    if name == "halfdisc2halfplane":
        return ref.halfdisc_map(c)
    if name == "cayley":
        return 1j * (1 - c) / (1 + c)
    if name == "mobius":
        return (2 * c + 1j) / (-0.5j * c + 3)
    return 2 * ref.halfdisc_map(c)


SCALAR_REL = 16 * EPS


def check_scalars(calls, results, ref) -> list[str]:
    return [p for _, p in scalar_problems(calls, results, ref)]


def scalar_problems(calls, results, ref) -> list[tuple[int, str]]:
    """(call index, problem) for each scalar call whose result is off."""
    problems = []
    for i, ((name, args), v) in enumerate(zip(calls, results)):
        tag = f"scalar {name} call {i}"
        found = len(problems)
        if name == "distances.kobayashi_distance":
            kind, Z, W = _ref_distance_of(*args, ref)
            err, overflow = distance_errors(kind, Z, W, [v], ref)[0]
            if overflow or (err is not None and err > 1.0):
                problems.append(f"{tag}: off the reference")
        elif name == "distances.localization_gap":
            z, w = args
            gap, tb, ts, residual, k_loc, k_glob = v
            g = ref.gap(z, w)
            cond = COND * EPS * (1 / (1 - abs(z)) + 1 / (1 - abs(w)))
            if not gap_sum_ok(tb + ts, z, w, g, ref) or not abs(gap - (tb + ts)) <= 2 * EPS * gap:
                problems.append(f"{tag}: gap off the reference")
            Z, W = np.array([[z]]), np.array([[w]])
            for kind, k in (("halfdisc", k_loc), ("halfplane", k_glob)):
                err, overflow = distance_errors(kind, Z, W, [k], ref)[0]
                if overflow or (err is not None and err > 1.0):
                    problems.append(f"{tag}: {kind} distance off the reference")
            if math.isfinite(k_loc) and math.isfinite(k_glob) and not (
                0 <= residual <= DIST_REL * 2 * k_loc + 2 * cond
            ):
                problems.append(f"{tag}: residual out of range")
        elif name == "metrics.kobayashi_royden_density":
            domain, z, X = args
            kind = next(k for k, d in CATALOG.items() if d == domain)
            Z = np.atleast_1d(np.asarray(z, dtype=complex))[None, :]
            XX = np.atleast_1d(np.asarray(X, dtype=complex))[None, :]
            if kind == "product":  # max over factors
                d = max(ref.disc_density(Z[0, 0], XX[0, 0]), ref.halfplane_density(Z[0, 1], XX[0, 1]))
                cond = COND * EPS / (1 - abs(Z[0, 0]))
                if not abs(v - d) <= (DENSITY_REL + cond) * d:
                    problems.append(f"{tag}: off the reference")
            else:
                problems += [f"{tag}: off the reference"] if check_densities(kind, Z, XX, [v], ref) else []
        elif name == "geometry.contains":
            if v != _ref_contains(*args, ref):
                problems.append(f"{tag}: membership disagrees with the reference")
        elif name == "geometry.boundary_distance":
            if abs(v - _ref_boundary_distance(*args, ref)) > 4 * EPS:
                problems.append(f"{tag}: off the reference")
        elif name == "conformal.apply":
            want = _ref_map(args[0], args[1], ref)
            pole = -1 if args[0] == "cayley" else 1
            if abs(v - want) > SCALAR_REL * abs(want) * (1 + 1 / abs(pole - ref._c(args[1]))):
                problems.append(f"{tag}: off the reference map")
        else:
            z0, target, start = args
            back = ref.halfdisc_map(ref._c(v))
            if abs(back - target) > 1e-13 * max(1.0, abs(target)) or abs(v - z0) > 1e-9:
                problems.append(f"{tag}: Newton preimage is wrong")
        problems[found:] = [(i, p) for p in problems[found:]]
    return problems


SWEEP_REL = 16 * EPS


def check_sweep(out, params, ref) -> list[str]:
    problems = []
    rows = out["rows"]
    for family, fam_rows in rows.items():
        shape = ref.planar_bound if family == "random-cap" else ref.two_term_bound
        for t, z, w, gap, rhs, ratio in fam_rows:
            g = ref.gap(z, w)
            if abs(gap - g) > SWEEP_REL * g:
                problems.append(f"sweep {family} t={t:.3g}: gap off the reference")
            if abs(rhs - shape(z, w)) > 4 * EPS * rhs:
                problems.append(f"sweep {family} t={t:.3g}: bound shape off")
    z, w = out["cap"]
    if len(z) != len(rows["random-cap"]) or not all(
        ref.in_halfdisc(a, params["random-cap"]) and ref.in_halfdisc(b, params["random-cap"])
        for a, b in zip(z, w)
    ):
        problems.append("sampling: random-cap points outside their half-disc")
    for family, t, z, w, gap, bound, ratio in out["sharp"]:
        g = ref.gap(z, w)
        if abs(gap - g) > SWEEP_REL * g:
            problems.append(f"sharpness {family} t={t:.3g}: gap off the reference")
        if abs(ratio - gap / bound) > 4 * EPS * ratio:
            problems.append(f"sharpness {family} t={t:.3g}: ratio is not gap/bound")
        if family == "balanced" and t <= 1e-3 and abs(ratio - 1) > 0.02:
            problems.append(f"sharpness balanced t={t:.3g}: ratio {ratio} not near 1")
        if family != "balanced" and t <= 0.04 and ratio <= 10:
            problems.append(f"sharpness {family} t={t:.3g}: dropped term not necessary")
    samples = [(row[0], row[3]) for row in rows["normal"]]
    if abs(out["slope"] - ref.loglog_slope(samples)) > 1e-9 or abs(out["slope"] - 2) > 0.05:
        problems.append(f"fit_exponent: slope {out['slope']} off the reference fit or off 2")
    return problems


# ==========================================================================
# Bergman sweep
# ==========================================================================

BERGMAN_N = {"disc": 50, "ball2": 20, "polydisc2": 20, "ellipsoid": 20}
BERGMAN_H = 1e-3
KERNEL_LEVEL = 0.5  # kernel points: level function at most this
METRIC_LEVEL = 0.3
DRAIN_EVERY = 40  # outputs kept before they are checked and dropped
KERNEL_REL = 1e-9
METRIC_REL = 1e-5


def _level(domain, x: np.ndarray) -> float:
    """How deep the moduli x sit: 0 at the centre, 1 on the boundary."""
    if isinstance(domain, UnitDisc) or isinstance(domain, Ball):
        return float(np.sum(x**2))
    if isinstance(domain, Polydisc):
        return float(np.max((x / np.asarray(domain.radii)) ** 2))
    return float(np.sum(x ** (2 * np.asarray(domain.exponents))))


def _moduli(domain, g, count: int, level: float) -> list:
    """count vectors of moduli whose level function is at most level."""
    n = geometry.dimension(domain)
    scale = np.asarray(domain.radii) if isinstance(domain, Polydisc) else np.ones(n)
    out = []
    while len(out) < count:
        x = scale * g.random(n)
        if _level(domain, x) <= level:
            out.append(x)
    return out


def _with_phases(moduli: list, g) -> list:
    """Points with the given moduli and seeded phases."""
    pts = []
    for x in moduli:
        z = x * np.exp(2j * np.pi * g.random(len(x)))
        pts.append(complex(z[0]) if len(x) == 1 else tuple(complex(c) for c in z))
    return pts


# The sweep's domain shapes.  Each round builds every shape anew with radii
# or exponents scaled by a seeded factor within 1 %, so every table is cold
# while every round does the same work; the exponents span the costs of the
# ellipsoid quadrature (about 15 to 35 ms a table).
BASE_POLYDISCS = ((0.7, 1.3), (1.2, 0.9))
BASE_ELLIPSOIDS = ((1.0, 2.0), (0.6, 2.7), (2.5, 1.5))
SHAPE_JITTER = 0.01


class BergmanGroup:
    """Distinct Reinhardt domains: one cold moment table each, then warm reads.

    Round 0 also measures the reference domains (the unit disc, Ball(2) and
    the ellipsoid p = (1, 1)) under names of their own; every round builds
    the polydisc and ellipsoid shapes anew and reads each at fresh points.
    """

    name = "bergman-sweep"

    def __init__(self, seed: int, polydiscs=2, ellipsoids=3, kernels=120, metrics_per=4, fixed=True):
        self.seed = seed
        self.rounds_done = 0
        self.tick = _no_tick
        self.polydiscs, self.ellipsoids = polydiscs, ellipsoids
        self.kernels, self.metrics_per = kernels, metrics_per
        self.fixed = fixed
        self.moduli = {}
        self.outputs: list[dict] = []  # not yet checked
        self.problems: list[str] = []
        self.last = None

    def attach(self, rec) -> None:
        self.rec = rec

    def domains(self, r: int):
        """(kind, shape key or None for a reference domain, domain) for round r."""
        g = rng(self.seed, 3, r)
        out = []
        if r == 0 and self.fixed:
            out += [
                ("disc", None, UnitDisc()),
                ("ball2", None, Ball(2)),
                ("ellipsoid", None, ReinhardtEllipsoid((1.0, 1.0))),
            ]
        jitter = lambda: g.uniform(1 - SHAPE_JITTER, 1 + SHAPE_JITTER, 2)  # noqa: E731
        for i, radii in enumerate(BASE_POLYDISCS[: self.polydiscs]):
            out.append(("polydisc2", ("polydisc2", i), Polydisc(tuple(np.asarray(radii) * jitter()))))
        for i, p in enumerate(BASE_ELLIPSOIDS[: self.ellipsoids]):
            out.append(("ellipsoid", ("ellipsoid", i), ReinhardtEllipsoid(tuple(np.asarray(p) * jitter()))))
        return out, g

    def _points(self, shape, dom, g):
        """Kernel points, metric points and directions, fresh in every round.

        Every kernel read costs the same wherever its point is, so kernel
        points are drawn anew.  A metric evaluation's cost depends on the
        moduli of its point (the SLSQP reach check on ellipsoids takes 2 to
        12 ms) and not on its phases, so each shape keeps one list of moduli,
        the same on every seed, and every round gives them seeded phases and
        directions: metric point j of a shape costs the same in every round.
        """
        n = geometry.dimension(dom)
        kpts = _with_phases(_moduli(dom, g, self.kernels, KERNEL_LEVEL), g)
        if shape is None:
            moduli = _moduli(dom, g, self.metrics_per, METRIC_LEVEL)
        else:
            if shape not in self.moduli:
                index = ("polydisc2", "ellipsoid").index(shape[0])
                self.moduli[shape] = _moduli(dom, rng(PROBE_SEED, 4, index, shape[1]), self.metrics_per, METRIC_LEVEL)
            moduli = self.moduli[shape]
        mpts = _with_phases(moduli, g)
        return kpts, mpts, [_as_point(_unit(g, n)) for _ in mpts]

    def warm_up(self, rec) -> None:
        if self.fixed or self.ellipsoids:
            # scipy's quadrature and SLSQP load here, on a domain no round uses
            dom = ReinhardtEllipsoid((1.25, 0.75))
            bergman.bergman_kernel_diag(dom, (0.1, 0.1j), 6)
            bergman.bergman_metric_numeric(dom, (0.1, 0.1j), (1.0, 0.5), 6, BERGMAN_H)
            geometry.boundary_distance(dom, (0.1, 0.1j))
        poly = Polydisc((0.8, 1.2))
        bergman.bergman_kernel_diag(poly, (0.1, 0.1j), 6)
        bergman.bergman_metric_numeric(poly, (0.1, 0.1j), (1.0, 0.5), 6, BERGMAN_H)

    def round(self, r: int) -> int:
        rec = self.rec
        doms, g = self.domains(r)
        ops = 0
        ball_points = None
        for kind, shape, dom in doms:
            N = BERGMAN_N[kind]
            n = geometry.dimension(dom)
            ref = "_ref" if shape is None else ""  # reference domains are built once
            table = rec.run(
                f"bergman.moment_table{ref}:{kind}", bergman.moment_table, dom, N,
                items=comb(N + n, n), key=shape,
            )
            kpts, mpts, X = self._points(shape, dom, g)
            if kind == "ellipsoid" and shape is None and ball_points is not None:
                kpts = ball_points  # the p = (1, 1) ellipsoid is Ball(2): same points
            if kind == "ball2":
                ball_points = kpts
            # read j of a shape costs the same in every round, on fresh points
            kvals = [
                rec.run(
                    f"bergman.kernel_diag{ref}", bergman.bergman_kernel_diag, dom, p, N, key=shape and (shape, j)
                ).kernel_diag
                for j, p in enumerate(kpts)
            ]
            mvals = [
                rec.run(
                    f"bergman.metric_numeric{ref}:{kind}", bergman.bergman_metric_numeric, dom, p, x, N, BERGMAN_H,
                    key=shape and (shape, j),
                )
                for j, (p, x) in enumerate(zip(mpts, X))
            ]
            if rec.trace and kind == "ellipsoid":
                for p in mpts:
                    rec.run("geometry.boundary_distance:ellipsoid", geometry.boundary_distance, dom, p)
            ops += 1 + len(kpts) + len(mpts)
            self.outputs.append(
                {"kind": kind, "domain": dom, "N": N, "moments": dict(table.moments),
                 "kpts": kpts, "kvals": kvals, "mpts": mpts, "X": X, "mvals": mvals}
            )
            self.tick()
        self.rounds_done += 1
        if len(self.outputs) >= DRAIN_EVERY:
            self._drain()
        return ops

    def _drain(self) -> None:
        """Check the outputs so far and drop them, so memory does not grow with the run."""
        import reference as ref

        ball = None
        for out in self.outputs:
            self.problems += check_bergman(out, ref)
            if out["kind"] in ("disc", "ball2"):
                self.problems += monotone_problems(out["kind"], kernel_partial_sums(out))
            if out["kind"] == "ball2":
                ball = out
            d = out["domain"]
            if ball is not None and out["kind"] == "ellipsoid" and d.exponents == (1.0, 1.0):
                self.problems += check_ball_identity(out, ball)
        if self.outputs:
            self.last = self.outputs[-1]
        self.outputs = []

    def check(self) -> tuple[list[str], int]:
        self._drain()
        problems = list(self.problems)
        if self.last is not None:
            problems += monotone_problems(self.last["kind"], kernel_partial_sums(self.last))
        return problems, 0


def ref_moments(kind: str, domain, alphas, ref) -> dict:
    if kind == "disc":
        return {a: ref.disc_moment(a[0]) for a in alphas}
    if kind == "ball2":
        return {a: ref.ball_moment(a) for a in alphas}
    if kind == "polydisc2":
        return {a: ref.polydisc_moment(a, domain.radii) for a in alphas}
    return {a: ref.ellipsoid_moment_double(a, domain.exponents) for a in alphas}


def check_bergman(out: dict, ref) -> list[str]:
    """Moments, kernel values and Hessian metrics of one domain against the references."""
    kind, dom = out["kind"], out["domain"]
    tag = f"bergman {kind} {dom}"
    problems = []
    want = ref_moments(kind, dom, list(out["moments"]), ref)
    for a, m in out["moments"].items():
        if abs(m - want[a]) > KERNEL_REL * want[a]:
            problems.append(f"{tag}: moment {a} off the reference")
            break
    alphas = np.array(list(want), dtype=float)
    inv = np.array([1.0 / float(v) for v in want.values()])
    pts = np.array([np.atleast_1d(p) for p in out["kpts"]], dtype=complex)
    ref_k = np.prod(np.abs(pts[:, None, :]) ** (2 * alphas[None]), axis=2) @ inv
    got = np.asarray(out["kvals"])
    if not np.all(np.abs(got - ref_k) <= KERNEL_REL * ref_k):
        problems.append(f"{tag}: truncated kernel off the reference sum")
    if kind in ("disc", "ball2", "polydisc2"):
        full = np.array([float(_closed_kernel(kind, dom, p, ref)) for p in out["kpts"]])
        if np.any(got > full * (1 + 1e-12)):
            problems.append(f"{tag}: truncated kernel exceeds the full kernel")
    for p, x, v in zip(out["mpts"], out["X"], out["mvals"]):
        exact = ref.truncated_metric(want, np.atleast_1d(p), np.atleast_1d(x))
        if not abs(v - exact) <= METRIC_REL * exact:
            problems.append(f"{tag}: metric at {p} off the reference Hessian")
    return problems


def _closed_kernel(kind, dom, p, ref):
    if kind == "disc":
        return ref.disc_kernel(p)
    if kind == "ball2":
        return ref.ball_kernel(p)
    return ref.polydisc_kernel(p, dom.radii)


def check_ball_identity(ell: dict, ball: dict) -> list[str]:
    a, b = np.asarray(ell["kvals"]), np.asarray(ball["kvals"])
    if ell["kpts"] != ball["kpts"] or not np.all(np.abs(a - b) <= KERNEL_REL * b):
        return ["bergman: ellipsoid p = (1, 1) does not reproduce the Ball(2) kernel"]
    return []


def kernel_partial_sums(out: dict) -> list[float]:
    dom, N, p = out["domain"], out["N"], out["kpts"][0]
    return [bergman.bergman_kernel_diag(dom, p, k).kernel_diag for k in range(N - 3, N + 1)]


def monotone_problems(kind: str, sums: list[float]) -> list[str]:
    """Kernel partial sums must not decrease as the truncation degree grows."""
    # terms are added in a different order at each N, so allow a few ulps
    if any(b < a * (1 - 4 * EPS) for a, b in zip(sums, sums[1:])):
        return [f"bergman {kind}: partial sums decrease in N"]
    return []
