"""Bias sweeps of the Rabi spectrum: transition frequencies and drive
amplitudes versus flux bias, as plot-ready line lists.

State labels are energy-ordered independently at each bias point; a label
"03" always means the transition between the instantaneous ground state and
the third excited state.  The candidate lines are the pairs (i, j) with i in
{0, 1} and i < j < k_levels, in (i, j) order (``_candidate_lines``): the sweep
emits those in its probe band, and the fit matches unlabeled peaks to them.
"""

from __future__ import annotations

from ._lazy import np
from ._record import Record
from .rabi import EigenSystem, _eigenpairs, _grid_truncation, drive_matrix_element


class SweepConfig(Record):
    """Bias grid, probe band, number of levels, and the amplitude floor
    below which a line counts as forbidden.  The defaults are also class
    attributes, which the config's field table and the fit read."""

    k_levels = 6
    amplitude_floor = 1e-6
    truncation_tol = 1e-6  # GHz, Fock-cutoff convergence tolerance

    def __init__(
        self,
        epsilon_grid: tuple,
        freq_window: tuple,
        k_levels: int = k_levels,
        amplitude_floor: float = amplitude_floor,
        truncation_tol: float = truncation_tol,
    ) -> None:
        self.__dict__.update(
            epsilon_grid=epsilon_grid,
            freq_window=freq_window,
            k_levels=k_levels,
            amplitude_floor=amplitude_floor,
            truncation_tol=truncation_tol,
        )
        if len(self.epsilon_grid) == 0:
            raise ValueError("epsilon_grid must be non-empty")
        lo, hi = self.freq_window
        if not lo < hi:
            raise ValueError(f"freq_window must satisfy min < max, got {lo}, {hi}")
        if self.k_levels < 2:
            raise ValueError(f"k_levels must be >= 2, got {self.k_levels}")
        if not self.truncation_tol > 0.0:
            raise ValueError("truncation_tol must be > 0")


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
    used across the whole grid, keeping the output deterministic.  Lines are
    ordered by (bias, i, j); amplitudes below ``cfg.amplitude_floor`` are
    still emitted (classification is the consumer's business).
    """
    grid = np.sort(np.asarray(cfg.epsilon_grid, dtype=float))
    trunc = _grid_truncation(delta_prime, omega1, g1, grid, cfg.k_levels, cfg.truncation_tol)
    lo, hi = cfg.freq_window
    pairs = _candidate_lines(cfg.k_levels)

    lines = []
    for b in range(len(grid)):  # one eigensolve per bias, its lowest k_levels vectors kept
        stacked = _eigenpairs(delta_prime, grid[b : b + 1], omega1, g1, trunc, cfg.k_levels)
        es = EigenSystem(stacked.values[0], stacked.vectors[0])
        eps, levels = float(grid[b]), es.values.tolist()
        for i, j in pairs:
            f = levels[j] - levels[i]  # the float64 difference, in plain floats
            if lo <= f <= hi:
                lines.append(SpectralLine(eps, i, j, f, drive_matrix_element(es, i, j)))
    return lines


def _candidate_lines(k_levels: int) -> list:
    """The lines (i, j), i in {0, 1} and i < j < k_levels, in (i, j) order."""
    return [(i, j) for i in (0, 1) for j in range(i + 1, k_levels)]
