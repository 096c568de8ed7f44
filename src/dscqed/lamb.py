"""Renormalization of the qubit gap by resonator vacuum fluctuations.

Single-mode and multimode forms of the adiabatic-approximation shift
delta -> delta * exp(-2 g^2 / omega^2), and the paper's idealization of the
multimode chain: odd harmonics n * omega1 coupled by ``resonator.coupling_law``
with the dimensionless cutoff n_cutoff = omega_cutoff / omega1, whose mode sum

    S(n_cutoff) = sum over odd n of coupling_law(n, n / n_cutoff) / n^2

and large-n_cutoff asymptote are both in closed form.  ``LambShiftReport``
inverts that chain from the measured gap delta: with x = 2 (g1/omega1)^2 and
S = S(n_cutoff), delta -> delta0_prime = delta e^x -> delta0 = delta e^(x S).
"""

from __future__ import annotations

import math
import warnings

from ._record import Record
from .errors import ConvergenceError
from .resonator import N_MODES_CEILING, check_coupling_domain, coupling_law

EULER_GAMMA = 0.5772156649015329

# delta0/omega beyond this is outside the stated validity of the exponential
# formula; flagged with a warning, never an error.
_VALIDITY_RATIO = 0.2

DEFAULT_N_MODES = 30  # modes listed in a report's per-mode shifts

# Smallest n_cutoff with S(n_cutoff) >= 1: below it a report with g1 > 0 would
# put the partially renormalized gap above the bare gap.
N_CUTOFF_MIN = 2.1658227454391343

# Offsets a = k + 1/2 of the mode-sum terms summed directly, and the digamma
# tail's Stirling series as (power p, coefficient c): 1/(2z), then
# B_2j / (2j z^2j), j = 1..5; the first omitted term is below 1e-17 of S.
_HEAD = tuple(k + 0.5 for k in range(20))
_STIRLING = ((1, 1 / 2), (2, 1 / 12), (4, -1 / 120), (6, 1 / 252), (8, -1 / 240), (10, 1 / 132))


class LambShiftReport(Record):
    """The renormalization chain (module docstring) inverted from the
    measured gap ``delta``: the bare and partially renormalized gaps delta0
    and delta0_prime (GHz), the mode sum ``sum_value`` and the relative shifts.

    The fields are the five inputs; the constructor computes the rest, so
    ``_replace`` recomputes the whole chain.  per_mode_shift[k] is the shift
    the (k+1)-th mode alone would induce, normalized to the bare gap;
    fundamental_shift is 1 - delta/delta0_prime (normalized to the partially
    renormalized gap) -- the two conventions differ and are both carried.
    """

    def __init__(
        self,
        g1: float,
        omega1: float,
        n_cutoff: float,
        delta: float,
        n_modes: int = DEFAULT_N_MODES,
    ) -> None:
        self.__dict__.update(g1=g1, omega1=omega1, n_cutoff=n_cutoff, delta=delta, n_modes=n_modes)
        if not delta > 0.0:
            raise ValueError(f"delta_measured must be > 0, got {delta}")
        check_coupling_domain(g1, omega1, omega1, n_cutoff)
        s = cutoff_sum(n_cutoff)
        if s < 1.0 and g1 > 0.0:
            # The coupling law puts the n=1 term below one, so here the partially
            # renormalized gap would come out above the bare gap -- outside validity.
            raise ValueError(
                f"mode sum S({n_cutoff}) = {s:.4g} < 1: report inconsistent below "
                f"n_cutoff {N_CUTOFF_MIN}"
            )
        x = 2.0 * (g1 / omega1) ** 2
        if not -math.expm1(-x * s) < 1.0:
            raise ConvergenceError(
                f"total shift 1 - exp(-{x * s:.4g}) rounds to 1 in double precision"
            )
        self.__dict__.update(
            delta0=delta * math.exp(x * s),
            delta0_prime=delta * math.exp(x),
            sum_value=s,
            per_mode_shift=per_mode_shifts(g1, omega1, n_cutoff, n_modes),
            total_shift=float(-math.expm1(-x * s)),
            fundamental_shift=float(-math.expm1(-x)),
        )

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
    delta = multimode_renorm(delta0, ((g, omega),))
    if delta0 / omega > _VALIDITY_RATIO:
        warnings.warn(
            f"delta0/omega = {delta0 / omega:.3g} exceeds {_VALIDITY_RATIO}; "
            "the exponential formula assumes delta0 << omega",
            stacklevel=2,
        )
    return delta


def multimode_renorm(delta0: float, modes) -> float:
    """Gap renormalized by every (g_n, omega_n) pair in ``modes``.

    The exponent is accumulated with exact summation, so the result is
    independent of the ordering of the modes.  Passing the modes n >= 2 only
    gives the renormalization by the non-fundamental modes; multiplying by
    the fundamental factor exp(-2 g1^2/omega1^2) reproduces the full result.
    A non-finite or negative delta0, a non-finite g_n or omega_n <= 0 raises ValueError.
    """
    if not (delta0 >= 0.0 and math.isfinite(delta0)):
        raise ValueError(f"delta0 must be finite and >= 0, got {delta0}")
    terms = []
    for g, omega in modes:
        if not (math.isfinite(g) and omega > 0.0):
            raise ValueError(f"modes need a finite g_n and omega_n > 0, got ({g}, {omega})")
        terms.append((g / omega) ** 2)
    return delta0 * math.exp(-2.0 * math.fsum(terms))


def cutoff_sum(n_cutoff: float) -> float:
    """The paper's idealized odd-harmonic mode sum S(n_cutoff) (module docstring)
    in closed form, to ~1e-15 relative.  Over the solved modes of the bundled
    device (``resonator.mode_table``) the sum is 1.9756, not S(13.2) = 1.9248.

    S = (Re psi(1/2 + i y) - psi(1/2)) / 2 with y = n_cutoff / 2 (partial fractions
    over odd n; Abramowitz & Stegun 6.3).  The terms y^2 / (a (a^2 + y^2)) at
    a = 1/2 .. 19.5 are summed directly; the rest, Re psi(w + i y) - psi(w) at
    w = 20.5, is the Stirling series in t = y / w written in differences that
    vanish like t^2, so nothing cancels at small n_cutoff; the cost is fixed.
    """
    if not (n_cutoff > 0.0 and math.isfinite(n_cutoff)):
        raise ValueError(f"n_cutoff must be positive and finite, got {n_cutoff}")
    y = 0.5 * n_cutoff
    head = math.fsum(_head_term(a, y) for a in _HEAD)
    w = len(_HEAD) + 0.5
    t = y / w
    # log|1 + i t|, without overflowing t^2 at huge n_cutoff
    log_mod = 0.5 * math.log1p(t * t) if t < 1.0 else math.log(math.hypot(1.0, t))
    theta = math.atan(t)
    # 1 - Re (1 + i t)^-p = 2 sin^2(p theta / 2) - expm1(-p log_mod) cos(p theta)
    tail = log_mod + sum(
        c / w**p * (2.0 * math.sin(0.5 * p * theta) ** 2
                    - math.expm1(-p * log_mod) * math.cos(p * theta))
        for p, c in _STIRLING
    )
    return 0.5 * (head + tail)


def _head_term(a: float, y: float) -> float:
    """y^2 / (a (a^2 + y^2)) through whichever of y / a and a / y is below 1;
    (a / y)^2 overflows once y < ~1e-154 a."""
    if y < a:
        r = y / a
        return r * r / (a * (1.0 + r * r))
    r = a / y
    return 1.0 / (a * (1.0 + r * r))


def asymptotic_sum(n_cutoff: float) -> float:
    """Large-n_cutoff closed form 0.25*(2*gamma + log 4) + 0.5*log(n_cutoff)."""
    if not n_cutoff > 0.0:
        raise ValueError(f"n_cutoff must be > 0, got {n_cutoff}")
    return 0.25 * (2.0 * EULER_GAMMA + math.log(4.0)) + 0.5 * math.log(n_cutoff)


def per_mode_shifts(g1: float, omega1: float, n_cutoff: float, n_modes: int) -> tuple:
    """Relative shift each mode alone would induce, 1 - exp(-2 g_n^2/omega_n^2),
    in the paper's idealization (see ``cutoff_sum``): odd harmonics n omega1
    with (g_n / g1)^2 = ``coupling_law(n, n / n_cutoff)``.  ``n_cutoff`` may be
    ``inf``; g1 < 0, omega1 <= 0 and n_cutoff <= 0 or NaN raise ValueError.
    """
    if not 1 <= n_modes <= N_MODES_CEILING:
        raise ValueError(f"n_modes must be between 1 and {N_MODES_CEILING}, got {n_modes}")
    check_coupling_domain(g1, omega1, omega1, n_cutoff)  # the lowest mode is omega1
    x = -2.0 * (g1 / omega1) ** 2
    odd = map(float, range(1, 2 * n_modes, 2))
    return tuple([-math.expm1(x * coupling_law(n, n / n_cutoff) / (n * n)) for n in odd])

