"""Node-count convergence of the variational geodesic solver.

For a handful of disc and half-plane pairs, solves at increasing resolution
and reports the relative error against the closed-form distance and the
certified extremality defect.  The CSV is deterministic; each solve's wall
time goes to the log only.

Usage: python scripts/geodesic_convergence.py  (writes out/geodesic_convergence.csv)
"""

import logging
import os
import time

from invlab.distances import distance_batch, kobayashi_distance
from invlab.geodesics import SolverConfig, epsilon_certificate, minimize_curve
from invlab.geometry import HalfPlane, UnitDisc
from invlab.metrics import kobayashi_density
from invlab.parsing import csv_line

PAIRS = [
    (UnitDisc(), -0.5, 0.5),
    (UnitDisc(), 0.3 + 0.4j, -0.2 - 0.5j),
    (HalfPlane(), -0.3 + 0.4j, 0.2 + 1.2j),
    (HalfPlane(), -0.1 + 0.01j, 0.1 + 0.01j),  # hugs the boundary
]
NODE_COUNTS = [17, 33, 65, 129]
OUT = os.path.join("out", "geodesic_convergence.csv")


log = logging.getLogger("invlab")


def main():
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    os.makedirs("out", exist_ok=True)
    with open(OUT, "w") as fh:
        fh.write("domain,z,w,nodes,length,exact,rel_error,epsilon\n")
        for domain, z, w in PAIRS:
            density = kobayashi_density(domain)
            exact = kobayashi_distance(domain, z, w).value
            for nodes in NODE_COUNTS:
                start = time.perf_counter()
                curve, length = minimize_curve(
                    density, z, w, SolverConfig(node_count=nodes)
                )
                eps = epsilon_certificate(curve, density, distance_batch(domain)).epsilon
                seconds = time.perf_counter() - start
                rel = abs(length - exact) / exact
                name = type(domain).__name__
                # complex(): a real literal in PAIRS still prints as a+bi
                fh.write(csv_line(name, complex(z), complex(w), nodes, length, exact, rel, eps))
                log.info(
                    f"{name:9s} {z} -> {w}  nodes={nodes:4d}  "
                    f"rel={rel:.2e}  eps={eps:.2e}  {seconds:.2f}s"
                )
    log.info(f"wrote {OUT}")


if __name__ == "__main__":
    main()
