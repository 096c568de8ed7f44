"""The input records of the Rabi layer, without the layer.

``config`` and ``fitting`` build these records, and ``rabi`` and
``spectrum`` read them; defined here, they cost a command that computes in
plain floats no import of numpy or of the Rabi layer.  ``rabi.QrmParams``
is this module's class; ``dscqed`` exports both.
"""

from __future__ import annotations

import math

from ._record import Record


class QrmParams(Record):
    """Single-mode Rabi parameters, ordinary frequencies in GHz.

    delta_prime -- qubit tunnel gap (>= 0)
    epsilon     -- flux bias, zero at the symmetry point (any sign)
    omega1      -- mode frequency (> 0)
    g1          -- qubit-mode coupling (>= 0)
    """

    def __init__(self, delta_prime: float, epsilon: float, omega1: float, g1: float) -> None:
        self.__dict__.update(delta_prime=delta_prime, epsilon=epsilon, omega1=omega1, g1=g1)
        for name in self.__match_args__:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.delta_prime >= 0.0:
            raise ValueError(f"delta_prime must be >= 0, got {self.delta_prime}")
        if not self.omega1 > 0.0:
            raise ValueError(f"omega1 must be > 0, got {self.omega1}")
        if not self.g1 >= 0.0:
            raise ValueError(f"g1 must be >= 0, got {self.g1}")


class SweepConfig(Record):
    """Bias grid, probe band, number of levels, and the amplitude floor at
    or below which the fit's unlabeled match counts a line as forbidden;
    ``spectrum.sweep`` emits every line in the band whatever its amplitude.
    The defaults are also class attributes, which the config's field table
    and the fit read."""

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
