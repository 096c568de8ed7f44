"""Distributed quarter-wave resonator with an inductive termination.

Solves the transcendental mode equation  kX * tan(kX) = (total inductance) /
(termination inductance), yielding mode frequencies, zero-point current
fluctuations, and per-mode couplings by the one ``coupling_law``, which
peaks at the natural cutoff  omega_cutoff = Z0 / L_c2  (an angular
frequency; the API reports ordinary GHz).  Each branch is solved on its own
in plain floats, by a safeguarded Newton iteration that ends on the pair of
adjacent doubles where the pole-free form of the equation changes sign; an
uncertified root raises ConvergenceError.  No function here loads numpy:
every result is a float or a tuple of floats.

Only the combinations Z0, X*l (total inductance) and the bare fundamental
frequency enter any result, so the model stores exactly those; the
per-unit-length capacitance/inductance and the physical length never
appear individually.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError

TWO_PI_GHZ = 2.0 * math.pi * 1e9  # ordinary GHz -> rad/s
HBAR = 1.054571817e-34  # J s

# Above this inductance ratio the root sits too close to the tangent pole to
# certify the relative residual in double precision; the root value itself is
# still correct to machine precision.
_RESIDUAL_CHECK_MAX_RATIO = 1e12

N_MODES_CEILING = 10**6  # most modes any per-mode table is built for

_HALF_PI = 0.5 * math.pi


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
    """Per-mode tuples: index n = 1, 2, ..., frequency, kX, I_zpf, coupling."""

    n: tuple
    omega_ghz: tuple
    k_x: tuple
    i_zpf: tuple
    g_ghz: tuple

    def __len__(self):
        return len(self.n)

    def rows(self):
        return zip(self.n, self.omega_ghz, self.k_x, self.i_zpf, self.g_ghz)


def cutoff_frequency(m: ResonatorModel, lc_only: bool = False) -> float:
    """Coupling cutoff Z0 / L_c2 converted to ordinary GHz.

    ``lc_only`` selects the L_c-only approximation (valid for l_c << l_2).
    """
    inductance = m.l_c if lc_only else m.l_c2
    return m.z0 / inductance / TWO_PI_GHZ


def mode_wavenumbers(m: ResonatorModel, n_modes: int) -> tuple:
    """Dimensionless kX = (n-1)*pi + u, u in (0, pi/2), for branches 1..n_modes.

    Each u is the midpoint of the adjacent doubles where the pole-free form
    ((n-1)*pi + u) sin u - r cos u of the mode equation (r = X*l / L_c2)
    changes sign, as a bisection over all doubles in [0, pi/2] would find it.
    Raises ConvergenceError when the residual, taken in u, exceeds 1e-9
    relative, and when r is below the smallest normal double.
    """
    if not 1 <= n_modes <= N_MODES_CEILING:
        raise ValueError(f"n_modes must be between 1 and {N_MODES_CEILING}, got {n_modes}")
    r = m.l_total / m.l_c2
    if not r >= sys.float_info.min:  # below it the sign change can span many doubles
        raise ConvergenceError(f"inductance ratio {r} is below the smallest normal double")
    roots = []
    worst = 0.0
    u = _HALF_PI
    for k in range(n_modes):
        b = math.pi * k
        # u = atan(r / (b + u)) on each branch, so two fixed-point steps from
        # the previous branch's u give the guess
        u = _branch_offset(b, r, math.atan(r / (b + math.atan(r / (b + u)))))
        y = b + u
        roots.append(y)
        resid = abs(y * math.tan(u) - r)
        if resid > worst:
            worst = resid
    if r < _RESIDUAL_CHECK_MAX_RATIO and worst / r > 1e-9:
        raise ConvergenceError(f"mode-equation residual {worst / r} exceeds 1e-9")
    return tuple(roots)


def _branch_offset(b: float, r: float, u: float) -> float:
    """The offset u in [0, pi/2] of the root on the branch starting at b,
    from the guess ``u``: Newton on f(u) = (b + u) sin u - r cos u, falling
    back to bisection whenever a step leaves the bracket, until a step is
    below one ulp; then a walk, one double at a time, to the last double
    where (b + u) sin u > r cos u fails and the first where it holds.
    pi/2 counts as holding and 0 as failing, without evaluation.  Each
    rounded factor is monotone in u, so the test switches once and this is
    the pair a bisection over the doubles of [0, pi/2] ends on."""
    lo, hi = 0.0, _HALF_PI
    while True:
        s, c = math.sin(u), math.cos(u)
        x = b + u
        f = x * s - r * c
        if f > 0.0:
            hi = u
        else:
            lo = u
        step = f / ((1.0 + r) * s + x * c)
        if abs(step) < math.ulp(u):
            break
        u -= step
        if not lo < u < hi:
            u = 0.5 * (lo + hi)
            if not lo < u < hi:  # the bracket is two adjacent doubles
                break
    if f > 0.0:
        hi, lo = u, math.nextafter(u, 0.0)
        while (b + lo) * math.sin(lo) > r * math.cos(lo):
            hi, lo = lo, math.nextafter(lo, 0.0)
    else:
        lo, hi = u, math.nextafter(u, _HALF_PI)
        while hi < _HALF_PI and not (b + hi) * math.sin(hi) > r * math.cos(hi):
            lo, hi = hi, math.nextafter(hi, _HALF_PI)
    return 0.5 * (lo + hi)


def zero_point_current(m: ResonatorModel, omega_n: float) -> float:
    """RMS ground-state current at the coupled end for mode frequency omega_n (GHz).

    I_zpf^2 = hbar / (X*l) * ``coupling_law``(w, w / w_cutoff), both
    frequencies angular: sqrt(hbar * w / (X*l)) suppressed by
    1 / sqrt(1 + (w / w_cutoff)^2), maximal at w = w_cutoff.
    """
    w = omega_n * TWO_PI_GHZ
    if not 0.0 < w < math.inf:
        raise ValueError("omega_n must be finite and > 0")
    return math.sqrt(HBAR / m.l_total * coupling_law(w, w / (m.z0 / m.l_c2)))


def coupling_law(x, y):
    """The one coupling law (g / g1)^2 = x / (1 + y^2) at x = omega / omega1
    and y = omega / omega_cutoff, in plain arithmetic (a float stays a float);
    ``check_coupling_domain`` checks its inputs."""
    return x / (1.0 + y * y)


def check_coupling_domain(g1: float, omega1: float, omega_min: float, cutoff: float) -> None:
    """ValueError unless g1 >= 0, omega1 > 0, the lowest mode frequency
    omega_min > 0 and cutoff > 0, ``inf`` allowed; NaN fails.  The cutoff is
    omega_cutoff, or n_cutoff = omega_cutoff / omega1 (the same domain)."""
    if g1 >= 0.0 and omega1 > 0.0 and omega_min > 0.0 and cutoff > 0.0:
        return  # one test per mode of a table; the rest names the failure
    if not g1 >= 0.0:
        raise ValueError(f"g1 must be >= 0, got {g1}")
    for name, value in (("omega1", omega1), ("omega", omega_min), ("cutoff", cutoff)):
        if not value > 0.0:
            raise ValueError(f"{name} must be > 0, got {value}")


def coupling_strength_at(omega_ghz: float, g1: float, omega1: float, omega_cutoff_ghz: float) -> float:
    """Coupling in GHz to a mode at ``omega_ghz``: g1 * sqrt(``coupling_law``).
    Its domain is g1 >= 0, omega1 > 0, w > 0 and w_cutoff > 0, ``inf``
    allowed; anything else is a ValueError."""
    check_coupling_domain(g1, omega1, omega_ghz, omega_cutoff_ghz)
    return g1 * math.sqrt(coupling_law(omega_ghz / omega1, omega_ghz / omega_cutoff_ghz))


def mode_table(m: ResonatorModel, n_modes: int, g1: float, omega1: float) -> ModeTable:
    """Assemble the per-mode table: index, frequency, kX, I_zpf, coupling."""
    k_x = mode_wavenumbers(m, n_modes)
    omega = tuple(m.omega1_bare * k / _HALF_PI for k in k_x)
    cutoff = cutoff_frequency(m)
    return ModeTable(
        n=tuple(range(1, n_modes + 1)),
        omega_ghz=omega,
        k_x=k_x,
        i_zpf=tuple(zero_point_current(m, w) for w in omega),
        g_ghz=tuple(coupling_strength_at(w, g1, omega1, cutoff) for w in omega),
    )
