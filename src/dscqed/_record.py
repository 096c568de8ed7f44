"""Immutable value records without generated code, and the Rabi layer's
input records without the layer.

A subclass's fields are its ``__init__``'s parameters, in order; the
``__init__`` stores them with ``self.__dict__.update(...)``, then checks
them, and may store values derived from them the same way.  Records
compare and hash field by field, print as ``Name(field=value, ...)``,
serve ``match`` by position and refuse assignment and deletion with
AttributeError, as a frozen dataclass does; no source is generated or
compiled when a subclass is defined.

``config`` and ``fitting`` build ``QrmParams`` and ``SweepConfig``, and
``rabi`` and ``spectrum`` read them; here, they cost a scalar command no
import of numpy or of the Rabi layer.  ``dscqed`` and ``rabi`` export them.
"""

from __future__ import annotations

import math


class Record:
    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1 : code.co_argcount]  # after self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def _replace(self, **changes):
        """A new record with ``changes`` applied, checked as any new record."""
        return self.__class__(**dict(zip(self.__match_args__, self._values()), **changes))


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
