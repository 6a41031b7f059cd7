"""Truncation study for the moment-based Bergman kernel and metric.

Tracks the diagonal kernel and the Hessian metric across truncation degrees
on the disc, the two-ball, and a Reinhardt ellipsoid, against closed forms
where they exist.

Usage: python scripts/bergman_truncation.py  (writes out/bergman_truncation.csv)
"""

import logging
import math
import os

from invlab.bergman import bergman_kernel_diag, bergman_metric_numeric
from invlab.geometry import Ball, ReinhardtEllipsoid, UnitDisc
from invlab.parsing import csv_line

CASES = [
    ("disc", UnitDisc(), (0.5,), (1.0,), 1 / (math.pi * 0.75**2), math.sqrt(2) / 0.75),
    ("ball2", Ball(2), (0.4, 0.2), (1.0, 0.0), None, None),
    ("ellipsoid", ReinhardtEllipsoid((1.0, 2.0)), (0.3, 0.3), (1.0, 0.0), None, None),
]
DEGREES = [5, 10, 20, 30, 40, 50]
OUT = os.path.join("out", "bergman_truncation.csv")


log = logging.getLogger("invlab")


def main():
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    os.makedirs("out", exist_ok=True)
    with open(OUT, "w") as fh:
        fh.write("case,N,kernel,tail,beta,kernel_exact,beta_exact\n")
        for name, domain, z, X, kernel_exact, beta_exact in CASES:
            for N in DEGREES:
                kr = bergman_kernel_diag(domain, z, N)
                beta = bergman_metric_numeric(domain, z, X, N)
                row = (name, N, kr.kernel_diag, kr.tail_estimate, beta, kernel_exact, beta_exact)
                fh.write(csv_line(*row))
            log.info(f"{name:9s} N={N}: kernel={kr.kernel_diag:.10g} beta={beta:.8g}")
    log.info(f"wrote {OUT}")


if __name__ == "__main__":
    main()
