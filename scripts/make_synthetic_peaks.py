#!/usr/bin/env python3
"""Regenerate the bundled synthetic peak dataset.

Peaks are theory lines of the bundled device parameters with Gaussian
frequency noise of NOISE_SIGMA_GHZ added under the recorded seed:

  * the 03 / 12 branches on a 33-point bias grid, plus 02 / 13 away from
    the symmetry point where they carry weight;
  * repeated measurements of the 03, 13, 02, 12 quadruple just off the
    symmetry point (bias +-0.01 GHz), which pin the small 0-1 splitting.

A fit round trip on this file recovers the generating parameters to better
than one percent on every parameter.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dscqed import load_config, paper_device_path, sweep  # noqa: E402
from dscqed.output import csv_text, write_atomic  # noqa: E402

NOISE_SEED = 17
NOISE_SIGMA_GHZ = 0.002
BRANCH_GRID = tuple(np.linspace(-0.9, 0.9, 33))
QUAD_BIAS = (-0.01, 0.01)
QUAD_REPEATS = 40

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "dscqed" / "data" / "synthetic_peaks.csv"


def main():
    run = load_config(paper_device_path())
    grid = tuple(sorted(set(BRANCH_GRID) | set(QUAD_BIAS)))
    cfg = run.sweep._replace(epsilon_grid=grid)  # the bundled band and level count
    lines = sweep(run.qrm.delta_prime, run.qrm.omega1, run.qrm.g1, cfg)

    clean = []
    for line in lines:
        if line.label not in ("03", "12", "02", "13"):
            continue
        if line.epsilon == 0.0 and line.label in ("02", "13"):
            continue  # forbidden at the symmetry point
        if line.epsilon in QUAD_BIAS:
            clean.extend([(line.epsilon, line.frequency, line.label)] * QUAD_REPEATS)
        else:
            clean.append((line.epsilon, line.frequency, line.label))

    rng = np.random.default_rng(NOISE_SEED)
    rows = [
        (eps, freq + NOISE_SIGMA_GHZ * rng.standard_normal(), label, 1.0)
        for eps, freq, label in clean
    ]
    write_atomic(OUT, csv_text("epsilon_ghz,frequency_ghz,label,weight", rows))
    print(f"wrote {len(rows)} peaks to {OUT}")


if __name__ == "__main__":
    main()
