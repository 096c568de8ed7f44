"""Bias sweeps of the Rabi spectrum: transition frequencies and drive
amplitudes versus flux bias, as plot-ready line lists.

State labels are energy-ordered independently at each bias point; a label
"03" always means the transition between the instantaneous ground state and
the third excited state.  The candidate lines are the pairs (i, j) with i in
{0, 1} and i < j < k_levels, in (i, j) order (``rabi._candidate_lines``, next
to the drive rule ``rabi._drive``): the sweep emits those in its probe band,
and the fit matches unlabeled peaks to them.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .rabi import EigenSystem, _candidate_lines, _eigenpairs, _grid_truncation, _reduces
from .rabi import _zero_snapped, drive_matrix_element


class SpectralLine(Record):
    """One transition at one bias point."""

    def __init__(self, epsilon: float, i: int, j: int, frequency: float, amplitude: float) -> None:
        self.__dict__.update(epsilon=epsilon, i=i, j=j, frequency=frequency, amplitude=amplitude)
        if frequency < 0.0:
            raise ValueError(f"frequency must be >= 0, got {frequency}")

    @property
    def label(self) -> str:
        """Transition label "ij", e.g. "03"."""
        return f"{self.i}{self.j}"


def sweep(delta_prime: float, omega1: float, g1: float, cfg: SweepConfig) -> list:
    """Diagonalize at every grid bias and emit the candidate lines whose
    frequency falls in the probe band.

    One converged truncation (probed at zero and at the largest |bias|) is
    used across the whole grid, keeping the output deterministic.  The
    eigenpairs come from ``rabi._eigenpairs`` at the ``_zero_snapped`` grid.
    Lines are ordered by (bias, i, j); amplitudes below
    ``cfg.amplitude_floor`` are still emitted (classification is the
    consumer's business).
    """
    grid = np.sort(np.asarray(cfg.epsilon_grid, dtype=float))
    trunc = _grid_truncation(delta_prime, omega1, g1, grid, cfg.k_levels, cfg.truncation_tol)
    lo, hi = cfg.freq_window
    pairs = _candidate_lines(cfg.k_levels)
    biases = _zero_snapped(grid)
    # per bias off the reduced basis, to keep the bundled sweep's pinned counts until their re-pin
    parts = [biases] if _reduces(biases, trunc, cfg.k_levels) else np.split(biases, len(biases))
    solved = (_eigenpairs(delta_prime, part, omega1, g1, trunc, cfg.k_levels) for part in parts)
    systems = (EigenSystem(v, x) for es in solved for v, x in zip(es.values, es.vectors))
    lines = []
    for eps, es in zip(grid.tolist(), systems):
        levels = es.values.tolist()
        for i, j in pairs:
            f = levels[j] - levels[i]  # the float64 difference, in plain floats
            if lo <= f <= hi:
                lines.append(SpectralLine(eps, i, j, f, drive_matrix_element(es, i, j)))
    return lines
