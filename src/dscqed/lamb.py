"""Renormalization of the qubit gap by resonator vacuum fluctuations.

Single-mode, multimode, and cutoff-regularized odd-harmonic forms of the
adiabatic-approximation shift  delta -> delta * exp(-2 g^2 / omega^2),
plus the dimensionless mode sum

    S(n_cutoff) = sum over odd n of 1 / (n * (1 + n^2 / n_cutoff^2))

and its large-n_cutoff asymptote.  n_cutoff = omega_cutoff / omega_1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.5772156649015329

# delta0/omega beyond this is outside the stated validity of the exponential
# formula; flagged with a warning, never an error.
_VALIDITY_RATIO = 0.2

DEFAULT_N_MODES = 30  # modes listed in a report's per-mode shifts
DEFAULT_REL_TOL = 1e-9  # relative accuracy of the mode sum


@dataclass(frozen=True)
class LambShiftReport:
    """Bare / partially renormalized / fully renormalized gap triple (GHz),
    the mode sum, and relative shifts.

    per_mode_shift[k] is the shift the (k+1)-th mode alone would induce,
    normalized to the bare gap; fundamental_shift is 1 - delta/delta0_prime
    (normalized to the partially renormalized gap) -- the two conventions
    differ and are both carried.
    """

    delta0: float
    delta0_prime: float
    delta: float
    sum_value: float
    n_cutoff: float
    per_mode_shift: tuple
    total_shift: float
    fundamental_shift: float

    def __post_init__(self):
        if not 0.0 < self.delta <= self.delta0_prime <= self.delta0:
            raise ValueError(
                "require 0 < delta <= delta0_prime <= delta0, got "
                f"{self.delta}, {self.delta0_prime}, {self.delta0}"
            )
        for name in ("total_shift", "fundamental_shift"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {v}")
        if any(not 0.0 <= s < 1.0 for s in self.per_mode_shift):
            raise ValueError("per-mode shifts must lie in [0, 1)")
        # self-consistency: the gap triple and the two shifts describe the
        # same renormalization chain
        for derived, name in (
            (self.delta0_prime * (1.0 - self.fundamental_shift), "fundamental_shift"),
            (self.delta0 * (1.0 - self.total_shift), "total_shift"),
        ):
            if abs(derived - self.delta) > 1e-10 * self.delta:
                raise ValueError(f"{name} inconsistent with the gap triple")

    def as_dict(self) -> dict:
        return {
            "delta0_ghz": self.delta0,
            "delta0_prime_ghz": self.delta0_prime,
            "delta_ghz": self.delta,
            "sum_value": self.sum_value,
            "n_cutoff": self.n_cutoff,
            "total_shift": self.total_shift,
            "fundamental_shift": self.fundamental_shift,
            "per_mode_shift": list(self.per_mode_shift),
        }


def single_mode_renorm(delta0: float, g: float, omega: float) -> float:
    """Gap renormalized by one mode: delta0 * exp(-2 g^2 / omega^2)."""
    if not omega > 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if delta0 / omega > _VALIDITY_RATIO:
        warnings.warn(
            f"delta0/omega = {delta0 / omega:.3g} exceeds {_VALIDITY_RATIO}; "
            "the exponential formula assumes delta0 << omega",
            stacklevel=2,
        )
    return delta0 * math.exp(-2.0 * (g / omega) ** 2)


def multimode_renorm(delta0: float, modes) -> float:
    """Gap renormalized by every (g_n, omega_n) pair in ``modes``.

    The exponent is accumulated with exact summation, so the result is
    independent of the ordering of the modes.  Passing the modes n >= 2 only
    gives the renormalization by the non-fundamental modes; multiplying by
    the fundamental factor exp(-2 g1^2/omega1^2) reproduces the full result.
    """
    terms = []
    for g, omega in modes:
        if not omega > 0.0:
            raise ValueError(f"mode frequencies must be > 0, got {omega}")
        terms.append((g / omega) ** 2)
    return delta0 * math.exp(-2.0 * math.fsum(terms))


def cutoff_sum(n_cutoff: float, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Odd-harmonic mode sum S(n_cutoff), accurate to ~rel_tol relative.

    Terms n_cutoff^2 / (n (n^2 + n_cutoff^2)) are accumulated over odd n in
    doubling blocks until the analytic tail bound n_cutoff^2 / (4 N^2) drops
    below rel_tol * partial_sum (N = last summed odd term); the midpoint-rule
    integral tail  0.25 * log(1 + n_cutoff^2 / (N+1)^2)  is then added.  The
    stopping index is a deterministic function of (n_cutoff, rel_tol).
    """
    if not (n_cutoff > 0.0 and math.isfinite(n_cutoff)):
        raise ValueError(f"n_cutoff must be positive and finite, got {n_cutoff}")
    if not rel_tol > 0.0:
        raise ValueError(f"rel_tol must be > 0, got {rel_tol}")
    nc2 = n_cutoff * n_cutoff
    total = 0.0
    start = 1
    block = 1024
    while True:
        n = np.arange(start, start + 2 * block, 2, dtype=float)
        total += float(np.sum(nc2 / (n * (n * n + nc2))))
        last = start + 2 * (block - 1)
        if nc2 / (4.0 * last * last) < rel_tol * total:
            return total + 0.25 * math.log1p(nc2 / (last + 1.0) ** 2)
        start = last + 2
        block = min(2 * block, 1 << 22)


def asymptotic_sum(n_cutoff: float) -> float:
    """Large-n_cutoff closed form 0.25*(2*gamma + log 4) + 0.5*log(n_cutoff)."""
    if not n_cutoff > 0.0:
        raise ValueError(f"n_cutoff must be > 0, got {n_cutoff}")
    return 0.25 * (2.0 * EULER_GAMMA + math.log(4.0)) + 0.5 * math.log(n_cutoff)


def _odd_harmonic_terms(n_cutoff: float, n_modes: int) -> np.ndarray:
    n = np.arange(1, 2 * n_modes, 2, dtype=float)
    return 1.0 / (n * (1.0 + (n / n_cutoff) ** 2))


def per_mode_shifts(
    g1: float, omega1: float, n_cutoff: float, n_modes: int
) -> np.ndarray:
    """Relative shift each mode alone would induce, 1 - exp(-2 g_n^2/omega_n^2).

    Mode frequencies are taken as odd multiples of omega1 with the scaled
    cutoff-suppressed coupling; ``n_cutoff`` may be ``inf`` (no cutoff).
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if not omega1 > 0.0:
        raise ValueError(f"omega1 must be > 0, got {omega1}")
    exponents = 2.0 * (g1 / omega1) ** 2 * _odd_harmonic_terms(n_cutoff, n_modes)
    return -np.expm1(-exponents)


def full_report(
    g1: float,
    omega1: float,
    n_cutoff: float,
    delta_measured: float,
    n_modes: int = DEFAULT_N_MODES,
    rel_tol: float = DEFAULT_REL_TOL,
) -> LambShiftReport:
    """Invert the cutoff-regularized renormalization: from the measured gap,
    recover the bare gap, the partially renormalized gap, and all shifts."""
    if not delta_measured > 0.0:
        raise ValueError(f"delta_measured must be > 0, got {delta_measured}")
    return _assemble_report(
        g1, omega1, n_cutoff, delta=delta_measured, n_modes=n_modes, rel_tol=rel_tol
    )


def full_report_from_bare(
    g1: float,
    omega1: float,
    n_cutoff: float,
    delta0: float,
    n_modes: int = DEFAULT_N_MODES,
    rel_tol: float = DEFAULT_REL_TOL,
) -> LambShiftReport:
    """Forward direction for synthetic studies: bare gap in, renormalized out."""
    if not delta0 > 0.0:
        raise ValueError(f"delta0 must be > 0, got {delta0}")
    x = 2.0 * (g1 / omega1) ** 2
    s = cutoff_sum(n_cutoff, rel_tol)
    delta = delta0 * math.exp(-x * s)
    return _assemble_report(
        g1, omega1, n_cutoff, delta=delta, n_modes=n_modes, rel_tol=rel_tol
    )


def _assemble_report(g1, omega1, n_cutoff, delta, n_modes, rel_tol):
    if not g1 >= 0.0:
        raise ValueError(f"g1 must be >= 0, got {g1}")
    if not omega1 > 0.0:
        raise ValueError(f"omega1 must be > 0, got {omega1}")
    s = cutoff_sum(n_cutoff, rel_tol)
    if s < 1.0 and g1 > 0.0:
        # The scaled coupling law normalizes the n=1 term below one, so for
        # n_cutoff this small the partially renormalized gap would come out
        # above the bare gap -- outside the report's validity.
        raise ValueError(
            f"mode sum S({n_cutoff}) = {s:.4g} < 1: report inconsistent below "
            "n_cutoff ~ 2.5"
        )
    x = 2.0 * (g1 / omega1) ** 2
    return LambShiftReport(
        delta0=delta * math.exp(x * s),
        delta0_prime=delta * math.exp(x),
        delta=delta,
        sum_value=s,
        n_cutoff=n_cutoff,
        per_mode_shift=tuple(float(v) for v in per_mode_shifts(g1, omega1, n_cutoff, n_modes)),
        total_shift=float(-math.expm1(-x * s)),
        fundamental_shift=float(-math.expm1(-x)),
    )
