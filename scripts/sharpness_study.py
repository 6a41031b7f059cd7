"""Sharpness study for the two-term half-disc gap bound.

Sweeps the balanced imaginary-axis family and the two one-term families over
a geometric parameter grid and writes one CSV.  The balanced ratio heads to 1
(the bound is tight with constant 1), while each one-term ratio blows up,
showing that neither additive term can be dropped.

Usage: python scripts/sharpness_study.py  (writes out/sharpness.csv)
"""

import logging
import os

import numpy as np

from invlab.localization import sharpness_sweep
from invlab.parsing import csv_line

T_GRID = np.geomspace(1e-4, 0.1, 25)
OUT = os.path.join("out", "sharpness.csv")


log = logging.getLogger("invlab")


def main():
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    rows = sharpness_sweep(T_GRID)
    os.makedirs("out", exist_ok=True)
    with open(OUT, "w") as fh:
        fh.write("family,t,z,w,gap,bound,ratio\n")
        for r in rows:
            fh.write(csv_line(r.family, r.t, r.z, r.w, r.gap, r.bound, r.ratio))
    for family in ("balanced", "drop-boundary", "drop-separation"):
        ratios = [r.ratio for r in rows if r.family == family]
        log.info(
            f"{family:16s} ratio range [{min(ratios):.4g}, {max(ratios):.4g}] "
            f"over t in [{T_GRID[0]:.1e}, {T_GRID[-1]:.1e}]"
        )
    log.info(f"wrote {OUT} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
