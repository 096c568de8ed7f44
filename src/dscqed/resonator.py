"""Distributed quarter-wave resonator with an inductive termination.

Solves the transcendental mode equation  kX * tan(kX) = (total inductance) /
(termination inductance), yielding mode frequencies, zero-point current
fluctuations, and per-mode couplings by the one ``coupling_law``, which
peaks at the natural cutoff  omega_cutoff = Z0 / L_c2  (an angular
frequency; the API reports ordinary GHz).  All branches are solved by one
array bisection of fixed length; an uncertified root raises ConvergenceError.

Only the combinations Z0, X*l (total inductance) and the bare fundamental
frequency enter any result, so the model stores exactly those; the
per-unit-length capacitance/inductance and the physical length never
appear individually.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from ._lazy import np
from .errors import ConvergenceError

TWO_PI_GHZ = 2.0 * math.pi * 1e9  # ordinary GHz -> rad/s
HBAR = 1.054571817e-34  # J s

# Above this inductance ratio the root sits too close to the tangent pole to
# certify the relative residual in double precision; the root value itself is
# still correct to machine precision.
_RESIDUAL_CHECK_MAX_RATIO = 1e12

N_MODES_CEILING = 10**6  # most modes any per-mode array is built for

# Non-negative doubles order like their int64 bit patterns: halving the
# pattern interval [0, bits(pi/2)] < 2^62 collapses it in 62 steps.
_HALF_PI_BITS = struct.unpack("<q", struct.pack("<d", 0.5 * math.pi))[0]
_BISECTION_STEPS = 62


@dataclass(frozen=True)
class ResonatorModel:
    """Distributed-element description of the loaded quarter-wave line.

    z0          -- characteristic impedance sqrt(l/c), Ohm
    l_total     -- total line inductance X*l, H
    omega1_bare -- unloaded fundamental pi/(2 X sqrt(c l)) as ordinary GHz
    l_c         -- coupling junction inductance, H
    l_2         -- large-junction pair inductance, H
    """

    z0: float
    l_total: float
    omega1_bare: float
    l_c: float
    l_2: float

    def __post_init__(self):
        for name in ("z0", "l_total", "omega1_bare", "l_c", "l_2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")

    @property
    def l_c2(self) -> float:
        """Parallel combination l_c * l_2 / (l_c + l_2); below min(l_c, l_2)."""
        return self.l_c * self.l_2 / (self.l_c + self.l_2)

    @property
    def inductance_ratio(self) -> float:
        """L_c2 / (X*l), the small parameter of the first-order mode formula."""
        return self.l_c2 / self.l_total


@dataclass(frozen=True)
class ModeTable:
    """Per-mode arrays: index n = 1, 2, ..., frequency, kX, I_zpf, coupling."""

    n: np.ndarray
    omega_ghz: np.ndarray
    k_x: np.ndarray
    i_zpf: np.ndarray
    g_ghz: np.ndarray

    def __len__(self):
        return len(self.n)

    def rows(self):
        for k in range(len(self.n)):
            yield (
                int(self.n[k]),
                float(self.omega_ghz[k]),
                float(self.k_x[k]),
                float(self.i_zpf[k]),
                float(self.g_ghz[k]),
            )


def cutoff_frequency(m: ResonatorModel, lc_only: bool = False) -> float:
    """Coupling cutoff Z0 / L_c2 converted to ordinary GHz.

    ``lc_only`` selects the L_c-only approximation (valid for l_c << l_2).
    """
    inductance = m.l_c if lc_only else m.l_c2
    return m.z0 / inductance / TWO_PI_GHZ


def mode_wavenumbers(m: ResonatorModel, n_modes: int) -> np.ndarray:
    """Dimensionless kX = (n-1)*pi + u, u in (0, pi/2), for branches 1..n_modes.

    Bisects all branches at once on ((n-1)*pi + u) sin u - r cos u (r = X*l /
    L_c2), the pole-free form of the mode equation, down to adjacent doubles.
    Raises ConvergenceError when the residual, taken in u, exceeds 1e-9 relative.
    """
    if not 1 <= n_modes <= N_MODES_CEILING:
        raise ValueError(f"n_modes must be between 1 and {N_MODES_CEILING}, got {n_modes}")
    r = m.l_total / m.l_c2
    base = math.pi * np.arange(n_modes)
    lo = np.zeros(n_modes, dtype=np.int64)
    hi = np.full(n_modes, _HALF_PI_BITS, dtype=np.int64)
    for _ in range(_BISECTION_STEPS):
        mid = (lo + hi) >> 1
        u = mid.view(np.float64)
        right = (base + u) * np.sin(u) > r * np.cos(u)
        hi = np.where(right, mid, hi)
        lo = np.where(right, lo, mid)
    u = 0.5 * (lo.view(np.float64) + hi.view(np.float64))
    roots = base + u
    if r < _RESIDUAL_CHECK_MAX_RATIO:
        resid = np.max(np.abs(roots * np.tan(u) - r)) / r
        if resid > 1e-9:
            raise ConvergenceError(f"mode-equation residual {resid} exceeds 1e-9")
    return roots


def zero_point_current(m: ResonatorModel, omega_n) -> np.ndarray | float:
    """RMS ground-state current at the coupled end for mode frequency omega_n (GHz).

    sqrt(hbar * w / (X*l)) suppressed by 1 / sqrt(1 + (w / w_cutoff)^2), with
    both frequencies angular; maximal at w = w_cutoff.
    """
    w = np.asarray(omega_n, dtype=float) * TWO_PI_GHZ
    if not np.all((w > 0.0) & (w < math.inf)):
        raise ValueError("omega_n must be finite and > 0")
    w_cut = m.z0 / m.l_c2
    out = np.sqrt(HBAR * w / (m.l_total * (1.0 + (w / w_cut) ** 2)))
    return float(out) if out.ndim == 0 else out


def coupling_law(x, y):
    """The one coupling law (g / g1)^2 = x / (1 + y^2) at x = omega / omega1
    and y = omega / omega_cutoff, in plain arithmetic (a float stays a float);
    ``check_coupling_domain`` checks its inputs."""
    return x / (1.0 + y * y)


def check_coupling_domain(g1: float, omega1: float, omega_min: float, cutoff: float) -> None:
    """ValueError unless g1 >= 0, omega1 > 0, the lowest mode frequency
    omega_min > 0 and cutoff > 0, ``inf`` allowed; NaN fails.  The cutoff is
    omega_cutoff, or n_cutoff = omega_cutoff / omega1 (the same domain)."""
    if not g1 >= 0.0:
        raise ValueError(f"g1 must be >= 0, got {g1}")
    for name, value in (("omega1", omega1), ("omega", omega_min), ("cutoff", cutoff)):
        if not value > 0.0:
            raise ValueError(f"{name} must be > 0, got {value}")


def coupling_strength_at(omega_ghz, g1: float, omega1: float, omega_cutoff_ghz: float):
    """Coupling in GHz to modes at ``omega_ghz`` (a float or an array):
    g1 * sqrt(``coupling_law``).  Its domain is g1 >= 0, omega1 > 0, every
    w > 0 and w_cutoff > 0, ``inf`` allowed; anything else is a ValueError."""
    w = np.asarray(omega_ghz, dtype=float)
    check_coupling_domain(g1, omega1, w.min(), omega_cutoff_ghz)
    out = g1 * np.sqrt(coupling_law(w / omega1, w / omega_cutoff_ghz))
    return float(out) if out.ndim == 0 else out


def mode_table(m: ResonatorModel, n_modes: int, g1: float, omega1: float) -> ModeTable:
    """Assemble the per-mode table: index, frequency, kX, I_zpf, coupling."""
    k_x = mode_wavenumbers(m, n_modes)
    omega = m.omega1_bare * k_x / (0.5 * math.pi)
    return ModeTable(
        n=np.arange(1, n_modes + 1),
        omega_ghz=omega,
        k_x=k_x,
        i_zpf=zero_point_current(m, omega),
        g_ghz=coupling_strength_at(omega, g1, omega1, cutoff_frequency(m)),
    )
