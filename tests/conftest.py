import math
import struct

import numpy as np
import pytest

from dscqed import (
    EigenSystem, FockTruncation, PeakData, QrmParams, ResonatorModel, config, drive_matrix_element,
)
from dscqed.errors import ConfigError, ConvergenceError
from dscqed.resonator import zero_point_current
from dscqed.fitting import _Layout, _predicted
from dscqed.output import LINE_FIELDS, table

PAPER_TRIPLE = (0.147, 2.57, 2.39)
PLANCK_H = 6.62607015e-34  # J s

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def kron_hamiltonian(p, t):
    """Oracle Rabi Hamiltonian as a sum of Kronecker operator products
    (composite index 2 * n_fock + qubit, qubit innermost)."""
    n = t.n_states
    a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    h = np.kron(np.eye(n), -0.5 * (p.delta_prime * SIGMA_X + p.epsilon * SIGMA_Z))
    h += p.omega1 * np.kron(np.diag(np.arange(n, dtype=float)), np.eye(2))
    h += p.g1 * np.kron(a + a.T, SIGMA_Z)
    return h


def kron_parity(n_states):
    """Oracle composite parity sigma_x * (-1)^n as a dense matrix."""
    return np.kron(np.diag((-1.0) ** np.arange(n_states)), SIGMA_X)


def dense_parity_expectations(es):
    """Oracle <v| sigma_x * (-1)^n |v> of every eigenvector column of ``es``,
    as a product with the dense parity operator; +-1 for a parity eigenstate."""
    pi_op = kron_parity(es.dim // 2)
    return np.einsum("ik,ij,jk->k", es.vectors, pi_op, es.vectors)


def transition_frequency(es, i, j):
    """Oracle transition frequency E_j - E_i in GHz for state indices i < j."""
    if not 0 <= i < j < es.dim:
        raise IndexError(f"need 0 <= i < j < {es.dim}, got i={i}, j={j}")
    return float(es.values[j] - es.values[i])


def absolute_couplings(m, i_q, modes):
    """Oracle per-mode couplings l_c * i_q * I_zpf / h in GHz for a qubit
    persistent current ``i_q`` (A); they agree with ``coupling_strength_at``
    in the ratio g_n/g_1 to O((omega1/omega_cutoff)^2)."""
    i_zpf = np.array([zero_point_current(m, w) for w in modes])
    return m.l_c * i_q * i_zpf / (PLANCK_H * 1e9)


def dense_drive_element(es, i, j):
    """Oracle |<i| (a + a^dag) |j>| as a product with the dense quadrature."""
    a = np.diag(np.sqrt(np.arange(1.0, es.dim // 2)), 1)
    x = np.kron(a + a.T, np.eye(2))
    return float(abs(es.vectors[:, i] @ x @ es.vectors[:, j]))


def allowed_lines(values, vectors, k_levels, floor):
    """Oracle (frequency, i, j) of every line from states {0, 1} within
    ``k_levels`` whose drive amplitude is above ``floor``, one
    ``drive_matrix_element`` call per line, from one bias's eigenvalues and
    lowest ``k_levels`` eigenvectors."""
    es = EigenSystem(values, vectors)
    return [
        (float(es.values[j] - es.values[i]), i, j)
        for i in (0, 1)
        for j in range(i + 1, k_levels)
        if not drive_matrix_element(es, i, j) <= floor
    ]


def nearest_line(lines, measured):
    """Oracle (frequency, i, j) of the line of ``lines`` nearest
    ``measured``, the lowest (i, j) on ties, by a per-row ``min``."""
    return min(lines, key=lambda line: (abs(line[0] - measured), line[1], line[2]))


def predicted(params, data, n_max, jacobian=False):
    """The fit's model frequencies (and Jacobian) for every row of ``data``
    at k_levels 6 and amplitude floor 1e-6."""
    pred, jac = _predicted(params, _Layout(data, 6), FockTruncation(n_max), 1e-6)
    return (pred, jac) if jacobian else pred


def lines_table(lines, form):
    """Spectral lines rendered by the table renderer, as `dscqed spectrum`
    writes them."""
    rows = [(l.epsilon, l.i, l.j, l.label, l.frequency, l.amplitude) for l in lines]
    return table(LINE_FIELDS, rows, form)


def root_in_branch(r, n):
    """Oracle root of y*tan(y) = r in ((n-1)*pi, (n-1)*pi + pi/2), one branch
    at a time.

    Bisection on the pole-free form (-1)^(n-1) * (y sin y - r cos y), which is
    negative at the left endpoint and positive at the right one; converges
    unconditionally to interval collapse or width < 1e-13.
    """
    lo = (n - 1) * math.pi
    hi = lo + 0.5 * math.pi
    sign = -1.0 if n % 2 == 0 else 1.0

    def h(y):
        return sign * (y * math.sin(y) - r * math.cos(y))

    a, b = lo, hi
    if h(b) <= 0.0:
        # r so large the root is within one ulp of the pole.
        return b
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if h(mid) > 0.0:
            b = mid
        else:
            a = mid
        if b - a < 1e-13:
            break
    return 0.5 * (a + b)


# Non-negative doubles order like their int64 bit patterns: halving the
# pattern interval [0, bits(pi/2)] < 2^62 collapses it in 62 steps.
_HALF_PI_BITS = struct.unpack("<q", struct.pack("<d", 0.5 * math.pi))[0]
_BISECTION_STEPS = 62


def bisection_roots(r, n_modes):
    """Oracle kX = (n-1)*pi + u for branches 1..n_modes, all at once.

    Bisects the bit patterns of u in [0, pi/2] on the pole-free form
    ((n-1)*pi + u) sin u > r cos u down to adjacent doubles and returns
    their midpoint.  Raises ConvergenceError when the residual, taken in u,
    exceeds 1e-9 relative (for r < 1e12).
    """
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
    if r < 1e12:
        resid = np.max(np.abs(roots * np.tan(u) - r)) / r
        if resid > 1e-9:
            raise ConvergenceError(f"mode-equation residual {resid} exceeds 1e-9")
    return roots


def resonator_with_ratio(r):
    """Bundled-like resonator whose inductance ratio X*l / L_c2 is ``r``."""
    return ResonatorModel(
        z0=50.0, l_total=r * 1e-10, omega1_bare=2.8525, l_c=2e-10, l_2=2e-10
    )


@pytest.fixture
def paper_params():
    return QrmParams(delta_prime=0.147, epsilon=0.0, omega1=2.57, g1=2.39)


@pytest.fixture
def paper_resonator():
    return ResonatorModel(
        z0=50.0, l_total=1.93e-9, omega1_bare=2.8525, l_c=231e-12, l_2=823e-12
    )


def parser_outcomes(path):
    """``config.read_tree(path)`` as the config reader runs it (the plain
    subset reader where it reads the text), then with ``_plain_tree`` forced
    to None, so PyYAML's parser reads it: each the tree's repr or the
    refusal's message."""
    outcomes = []
    for plain_tree in (config._plain_tree, lambda text: None):
        saved, config._plain_tree = config._plain_tree, plain_tree
        try:
            outcomes.append(repr(config.read_tree(path)))
        except ConfigError as exc:
            outcomes.append(f"refused: {exc}")
        finally:
            config._plain_tree = saved
    return outcomes


def synthetic_peaks(triple, noise_sigma=0.0, seed=0, n_branch=9, quad_repeats=0):
    """Labeled synthetic peak data from the model itself (round-trip oracle).

    Branch points cover the 03/12 lines on a bias grid (02/13 away from the
    symmetry point); optional repeated 03/13/02/12 quadruples at +-0.01 GHz
    pin the small 0-1 splitting when noise is added.
    """
    rows = []
    for eps in np.linspace(-0.9, 0.9, n_branch):
        labels = ["03", "12"] if eps == 0.0 else ["03", "12", "02", "13"]
        rows.extend((float(eps), lab) for lab in labels)
    for _ in range(quad_repeats):
        for eps in (-0.01, 0.01):
            rows.extend((eps, lab) for lab in ("03", "13", "02", "12"))
    eps = np.array([r[0] for r in rows])
    labels = tuple(r[1] for r in rows)
    shell = PeakData(
        epsilon=eps,
        frequency=np.zeros(len(rows)),
        label=labels,
        weight=np.ones(len(rows)),
    )
    clean = predicted(triple, shell, 40)
    if noise_sigma:
        rng = np.random.default_rng(seed)
        clean = clean + noise_sigma * rng.standard_normal(len(rows))
    return PeakData(
        epsilon=eps, frequency=clean, label=labels, weight=np.ones(len(rows))
    )
