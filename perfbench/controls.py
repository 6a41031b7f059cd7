"""Negative controls: every check must report a problem when fed a perturbed output.

Each control takes a small set of real outputs from the program, confirms
that the check passes on them, perturbs one value by more than the check's
stated tolerance, and confirms that the check now reports a problem.  Run on
every benchmark run, after the measured window; a control that does not trip
makes the run incorrect.
"""

from __future__ import annotations

import copy

import numpy as np

import groups
import reference as ref
from groups import (
    PROBE_SEED,
    BergmanGroup,
    ClosedFormGroup,
    check_ball_identity,
    check_bergman,
    check_densities,
    check_distances,
    check_gap,
    check_geodesic,
    check_scalars,
    check_sweep,
    gap_problems,
    monotone_problems,
)
from invlab import distances, geodesics, metrics
from invlab.geometry import HalfPlane, UnitDisc
from tracing import Recorder


def _expect(name: str, baseline: list, perturbed: list) -> list[str]:
    if baseline:
        return [f"control {name}: baseline already fails: {baseline[0]}"]
    if not perturbed:
        return [f"control {name}: perturbed output passed the check"]
    return []


def _geodesic_controls() -> list[str]:
    problems = []
    density = metrics.kobayashi_density(UnitDisc())
    oracle = groups._geodesic_setup("disc")[2]
    config = geodesics.SolverConfig(node_count=9, refinement_levels=1, max_iterations=300)
    z, w = -0.4 + 0.1j, 0.3 - 0.2j
    curve, length = geodesics.minimize_curve(density, z, w, config)
    good = {
        "family": "disc",
        "z": z,
        "w": w,
        "nodes": curve.nodes.copy(),
        "length": float(length),
        "finsler_length": float(geodesics.finsler_length(density, curve)),
        "epsilon": geodesics.epsilon_certificate(curve, density, oracle).epsilon,
    }
    base, _ = check_geodesic(good, ref)

    def perturbed(**change):
        out = copy.deepcopy(good)
        for key, fn in change.items():
            out[key] = fn(out[key])
        return check_geodesic(out, ref)[0]

    def outside(nodes):
        nodes[3, 0] = 1.01
        return nodes

    def moved(nodes):
        nodes[0, 0] += 1e-9
        return nodes

    problems += _expect("geodesic membership", base, perturbed(nodes=outside))
    problems += _expect("geodesic endpoints", base, perturbed(nodes=moved))
    problems += _expect("geodesic Gauss length", base, perturbed(length=lambda v: v * (1 + 1e-7)))
    exact = float(ref.disc_distance(z, w))
    problems += _expect(
        "geodesic undercut",
        base,
        [p for p in perturbed(length=lambda v: exact * (1 - 1e-5)) if "undercuts" in p],
    )
    problems += _expect("geodesic certificate", base, perturbed(epsilon=lambda v: v + 1e-6))
    # a straight chord hugging the half-plane boundary is a correct output of a failed solve
    t = 0.01
    zz, ww = complex(-t, t * t), complex(t, t * t)
    s = np.linspace(0.0, 1.0, 9)[:, None]
    chord = geodesics.Polyline(HalfPlane(), (1 - s) * zz + s * ww)
    hp = metrics.kobayashi_density(HalfPlane())
    L = geodesics.finsler_length(hp, chord)
    eps = geodesics.epsilon_certificate(chord, hp, groups._geodesic_setup("edge")[2]).epsilon
    found, ok = check_geodesic(
        {"family": "edge", "z": zz, "w": ww, "nodes": chord.nodes, "length": L,
         "finsler_length": L, "epsilon": eps},
        ref,
    )
    if found or ok:
        problems.append("control geodesic success: a boundary-hugging chord was not counted as failed")
    return problems


def _closed_form_controls() -> list[str]:
    problems = []
    g = ClosedFormGroup(PROBE_SEED, pairs=10, evals=10, scalars=1, rows=8, arc=False)
    g.attach(Recorder(trace=False))
    g.round(0)
    inp, out = g.last
    # distances: a regular pair (index 0) off by 1e-12, a finite pair marked +inf
    Z, W = inp["dist"]["disc"]
    got = np.array(out["d:disc"])
    swapped = g.evaluators["disc"](W, Z)
    base = check_distances("disc", Z, W, got, swapped, ref)
    off = got.copy()
    off[0] *= 1 + 1e-12
    problems += _expect("distance value", base, check_distances("disc", Z, W, off, swapped, ref))
    inf = got.copy()
    inf[0] = np.inf
    problems += _expect("distance overflow marker", base, check_distances("disc", Z, W, inf, swapped, ref))
    asym = swapped.copy()
    asym[0] *= 1 + 1e-12
    problems += _expect("distance symmetry", base, check_distances("disc", Z, W, got, asym, ref))
    # a pair past the overflow edge that comes back finite
    Ze, We = np.array([[-1 + 1e-15j]]), np.array([[1 + 1e-15j]])
    problems += _expect(
        "distance past the edge",
        check_distances("halfplane", Ze, We, np.array([np.inf]), np.array([np.inf]), ref),
        check_distances("halfplane", Ze, We, np.array([35.0]), np.array([35.0]), ref),
    )
    # gap: drop the separation term; bend the difference route
    z, w = inp["gap"]
    tb, ts, diff = out["gap"]
    base = check_gap(z, w, tb, ts, diff, ref)
    problems += _expect("gap dropped term", base, check_gap(z, w, tb, np.zeros_like(ts), diff, ref))
    problems += _expect("gap difference route", base, check_gap(z, w, tb, ts, diff + 1e-9, ref))
    # a term sum off by twice the allowed multiple of the exact gap's
    # conditioning, on a pair near the arc where that conditioning is large
    za, wa = np.array([(1 - 1e-12) * np.exp(1.0j)]), np.array([0.5j])
    exact = float(ref.gap(complex(za[0]), complex(wa[0])))
    cond = groups.GAP_COND * float(ref.gap_conditioning(complex(za[0]), complex(wa[0])))
    tb_a = np.array([exact / 2])
    problems += _expect(
        "gap conditioning",
        check_gap(za, wa, tb_a, np.array([exact / 2 + cond / 2]), np.array([exact]), ref),
        check_gap(za, wa, tb_a, np.array([exact / 2 + 2 * cond]), np.array([exact]), ref),
    )
    # the program's terms on near-arc pairs with both points within 1e-12 of the
    # arc are wrong on every one, so each counts as a failed operation
    zb, wb = groups.arc_pairs(4)
    if len(gap_problems(zb[:2], wb[:2], *distances.gap_terms_batch(zb[:2], wb[:2]), np.full(2, np.inf), ref)) != 2:
        problems.append("control gap near the arc: a pair with both points at the arc was not counted as failed")
    # densities: one value off; an outside pullback point that is not +inf
    Zd, Xd = inp["density"]["ball2"]
    vals = np.array(out["rho:ball2"])
    bent = vals.copy()
    bent[0] *= 1 + 1e-12
    problems += _expect(
        "density value", check_densities("ball2", Zd, Xd, vals, ref), check_densities("ball2", Zd, Xd, bent, ref)
    )
    Zp, Xp = inp["density"]["pullback"]
    vals = np.array(out["rho:pullback"])
    finite = vals.copy()
    finite[0] = 1.0  # index 0 was moved outside
    problems += _expect(
        "density outside point",
        check_densities("pullback", Zp, Xp, vals, ref),
        check_densities("pullback", Zp, Xp, finite, ref),
    )
    # scalars: bend each kind's first result
    calls = inp["scalar"]
    base = check_scalars(calls, out["scalar"], ref)
    for i, (name, args) in enumerate(calls[:7]):
        results = list(out["scalar"])
        v = results[i]
        if isinstance(v, tuple):
            results[i] = (v[0] * (1 + 1e-11),) + v[1:]
        elif isinstance(v, bool):
            results[i] = not v
        elif name == "conformal.invert_by_newton":
            results[i] = v + 1e-6
        else:
            results[i] = v * (1 + 1e-11) + 1e-11
        problems += _expect(f"scalar {name}", base, check_scalars(calls, results, ref))
    # sweep: a gap row, the fit, a sampled point
    sweep = out["sweep"]
    base = check_sweep(sweep, inp["sweep"], ref)

    def bend(fn):
        s = copy.deepcopy(sweep)
        fn(s)
        return check_sweep(s, inp["sweep"], ref)

    def bend_row(s):
        t, zz, ww, gap, rhs, ratio = s["rows"]["normal"][0]
        s["rows"]["normal"][0] = (t, zz, ww, gap * (1 + 1e-12), rhs, ratio)

    def bend_slope(s):
        s["slope"] += 1e-6

    def bend_cap(s):
        s["cap"][0][0] = 0.99 + 0.001j

    def bend_sharp(s):
        fam, t, zz, ww, gap, bound, ratio = s["sharp"][0]
        s["sharp"][0] = (fam, t, zz, ww, gap, bound, ratio * 1.001)

    problems += _expect("sweep gap", base, bend(bend_row))
    problems += _expect("sweep fit", base, bend(bend_slope))
    problems += _expect("sweep sampling", base, bend(bend_cap))
    problems += _expect("sharpness ratio", base, bend(bend_sharp))
    return problems


def _bergman_controls() -> list[str]:
    problems = []
    g = BergmanGroup(PROBE_SEED + 7, polydiscs=0, ellipsoids=1, kernels=4, metrics_per=1)
    g.attach(Recorder(trace=False))
    g.round(0)
    by_kind = {}
    for out in g.outputs:
        by_kind.setdefault(out["kind"], out)
    ell = g.outputs[-1]
    base = check_bergman(ell, ref)

    def bent(fn):
        out = copy.deepcopy(ell)
        fn(out)
        return check_bergman(out, ref)

    def moment(out):
        a = next(iter(out["moments"]))
        out["moments"][a] *= 1 + 1e-7

    def kernel(out):
        out["kvals"][0] *= 1 + 1e-7

    def metric(out):
        out["mvals"][0] *= 1 + 1e-3

    problems += _expect("bergman moment", base, bent(moment))
    problems += _expect("bergman kernel", base, bent(kernel))
    problems += _expect("bergman metric", base, bent(metric))
    ball = by_kind["ball2"]
    base = check_bergman(ball, ref)
    over = copy.deepcopy(ball)
    over["kvals"] = [v * 2 for v in over["kvals"]]
    problems += _expect(
        "bergman kernel under the full kernel",
        base,
        [p for p in check_bergman(over, ref) if "exceeds" in p],
    )
    twin = next(o for o in g.outputs if o["kind"] == "ellipsoid" and o["domain"].exponents == (1.0, 1.0))
    base = check_ball_identity(twin, ball)
    bad = copy.deepcopy(twin)
    bad["kvals"][0] *= 1 + 1e-7
    problems += _expect("bergman ellipsoid (1,1) = ball", base, check_ball_identity(bad, ball))
    problems += _expect(
        "bergman monotone partial sums",
        monotone_problems("disc", [1.0, 2.0, 3.0]),
        monotone_problems("disc", [1.0, 3.0, 2.0]),
    )
    return problems


def run_controls() -> list[str]:
    return _geodesic_controls() + _closed_form_controls() + _bergman_controls()


if __name__ == "__main__":
    found = run_controls()
    for line in found:
        print(line)
    print("controls:", "FAIL" if found else "ok")
    raise SystemExit(1 if found else 0)
