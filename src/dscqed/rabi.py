"""Truncated quantum Rabi model: Hamiltonian assembly, dense diagonalization,
parity labels and drive selection rules.

All energies are ordinary frequencies in GHz.  The Hamiltonian acting on a
two-level system biased by ``epsilon`` with tunnel gap ``delta_prime``,
coupled through sigma_z to one bosonic mode, is

    H = -(delta_prime * sx + epsilon * sz) / 2
        + omega1 * n_hat + g1 * sz * (a + a^dag)

truncated to Fock states 0..n_max.  Composite index k = 2 * n + q (photon
number n, qubit q, sigma_z eigenvalue s = +1 for q = 0 and -1 for q = 1).
In this basis H has three bands and is assembled from them directly:

    offset 0   omega1 * n - s * epsilon / 2
    offset 1   -delta_prime / 2 between the two qubit states of one photon
               number (rows k = 2n), zero between photon numbers
    offset 2   g1 * s * sqrt(n + 1) between |n, q> and |n + 1, q>

At epsilon = 0, H commutes with the parity sigma_x * (-1)^n (Braak, PRL 107,
100401, 2011).  Its eigenstates |p, n> = (|n, 0> + p (-1)^n |n, 1>) / sqrt(2),
p = +-1, split H into two tridiagonal chains, one per parity:

    diagonal       omega1 * n - p * (-1)^n * delta_prime / 2
    off-diagonal   g1 * sqrt(n + 1) between |p, n> and |p, n + 1>
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import np
from .errors import ConvergenceError

N_MAX_CEILING = 4096
_N_MAX_START = 8  # base of the truncation search's doubling schedule
_STRAY_WEIGHT = 5e-9  # weight off its chain: parity expectation 1e-8 from +-1


@dataclass(frozen=True)
class QrmParams:
    """Single-mode Rabi parameters, ordinary frequencies in GHz.

    delta_prime -- qubit tunnel gap (>= 0)
    epsilon     -- flux bias, zero at the symmetry point (any sign)
    omega1      -- mode frequency (> 0)
    g1          -- qubit-mode coupling (>= 0)
    """

    delta_prime: float
    epsilon: float
    omega1: float
    g1: float

    def __post_init__(self):
        for name in ("delta_prime", "epsilon", "omega1", "g1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.delta_prime >= 0.0:
            raise ValueError(f"delta_prime must be >= 0, got {self.delta_prime}")
        if not self.omega1 > 0.0:
            raise ValueError(f"omega1 must be > 0, got {self.omega1}")
        if not self.g1 >= 0.0:
            raise ValueError(f"g1 must be >= 0, got {self.g1}")


@dataclass(frozen=True)
class FockTruncation:
    """Photon-number cutoff: Fock states 0..n_max are kept.  Size it with
    converged_truncation for the parameters at hand."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.n_max > N_MAX_CEILING:
            raise ValueError(f"n_max={self.n_max} exceeds the ceiling {N_MAX_CEILING}")

    @property
    def n_states(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)


@dataclass(frozen=True)
class EigenSystem:
    """Sorted eigenvalues, eigenvector columns, and per-state parity.

    ``parity[k]`` is +1 or -1, the parity chain holding the state, when
    ``solve`` ran at bias epsilon exactly zero; otherwise it is ``None``.
    """

    values: np.ndarray
    vectors: np.ndarray
    parity: tuple

    @property
    def dim(self) -> int:
        return len(self.values)


def build_hamiltonian(p: QrmParams, t: FockTruncation) -> np.ndarray:
    """Assemble the dense, exactly symmetric Rabi Hamiltonian in GHz."""
    return _hamiltonians(p.delta_prime, p.epsilon, p.omega1, p.g1, t)


def _hamiltonians(delta_prime, epsilon, omega1, g1, t):
    """H at every bias of the array ``epsilon``, stacked along its axes
    (shape epsilon.shape + (dim, dim)); a scalar bias gives one matrix."""
    n, s = _photons_and_spin(t.dim)
    return _symmetric(
        -0.5 * np.multiply.outer(epsilon, s) + omega1 * n,
        [
            (1, np.where(s[:-1] > 0.0, -0.5 * delta_prime, 0.0)),
            (2, g1 * (np.sqrt(n[:-2] + 1.0) * s[:-2])),
        ],
    )


def _photons_and_spin(dim):
    """Photon number n and sigma_z eigenvalue s of every composite index."""
    k = np.arange(dim)
    return (k >> 1).astype(float), 1.0 - 2.0 * (k & 1)


def _symmetric(diag, bands):
    """Dense symmetric matrices with ``diag`` (..., dim) on the diagonal and
    each (offset, values) band mirrored about it, stacked along the leading
    axes of ``diag``.  Zero entries are stored as +0.0 (never -0.0), as a
    sum of operator products would store them."""
    dim = diag.shape[-1]
    h = np.zeros(diag.shape + (dim,))
    i = np.arange(dim)
    h[..., i, i] = diag
    for offset, values in bands:
        i = np.arange(len(values))
        h[..., i, i + offset] = h[..., i + offset, i] = values + 0.0
    return h


def _parity_chains(p: QrmParams, t: FockTruncation) -> np.ndarray:
    """H at epsilon = 0 in the parity basis: the chain p = +1 on rows
    0..n_max, the chain p = -1 below it, no element between them."""
    n = np.arange(t.n_states, dtype=float)
    split = 0.5 * p.delta_prime * (-1.0) ** n
    hop = p.g1 * np.sqrt(n[1:])
    return _symmetric(
        np.concatenate([p.omega1 * n - split, p.omega1 * n + split]),
        [(1, np.concatenate([hop, [0.0], hop]))],
    )


def eigensystem(h: np.ndarray) -> EigenSystem:
    """Diagonalize a real symmetric matrix with a deterministic convention.

    Eigenvalues ascend; each eigenvector's largest-magnitude coefficient is
    positive (first occurrence on ties).  The pairs must be orthonormal to
    1e-10 with residuals within 1e-9 * max|eigenvalue|.  No state is
    labeled: every parity is None.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    scale = max(np.max(np.abs(h)), 1e-300)
    if np.max(np.abs(h - h.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12 relative")

    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc

    _fix_signs(vectors)
    _validate(h, values, vectors)
    return EigenSystem(values=values, vectors=vectors, parity=(None,) * len(values))


def solve(p: QrmParams, t: FockTruncation) -> EigenSystem:
    """Build and diagonalize H with the conventions of ``eigensystem``.

    At epsilon = 0 the matrix diagonalized is the pair of parity chains, so
    each state lies on one chain, is labeled by it and keeps its energy
    order; the vectors are mapped back to the composite basis.  A vector
    with more than _STRAY_WEIGHT off its chain raises ConvergenceError.
    """
    if p.epsilon != 0.0:
        return eigensystem(build_hamiltonian(p, t))
    es = eigensystem(_parity_chains(p, t))
    vectors, w_top = _unfold(es.vectors, t.n_states)
    _fix_signs(vectors)  # the convention holds in the basis returned
    return EigenSystem(es.values, vectors, tuple(1 if w > 0.5 else -1 for w in w_top))


def _unfold(vectors, n_states):
    """Eigenvector columns (..., dim, k) of ``_parity_chains`` in the
    composite basis, and each column's weight on the chain p = +1.  A
    column with more than _STRAY_WEIGHT off its chain raises
    ConvergenceError."""
    top, bot = vectors[..., :n_states, :], vectors[..., n_states:, :]
    w_top, w_bot = np.sum(top * top, axis=-2), np.sum(bot * bot, axis=-2)
    if np.max(np.minimum(w_top, w_bot)) > _STRAY_WEIGHT:
        raise ConvergenceError(
            f"an eigenvector has more than {_STRAY_WEIGHT} of its weight off its parity chain"
        )
    out = np.empty_like(vectors)
    out[..., 0::2, :] = (top + bot) / math.sqrt(2.0)
    out[..., 1::2, :] = (-1.0) ** np.arange(n_states)[:, None] * (top - bot) / math.sqrt(2.0)
    return out, w_top


def _fix_signs(vectors):
    idx = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[idx, np.arange(vectors.shape[1])] < 0.0
    vectors[:, flip] *= -1.0


def _validate(h, values, vectors):
    dim = h.shape[0]
    gram = vectors.T @ vectors
    if np.max(np.abs(gram - np.eye(dim))) > 1e-10:
        raise ConvergenceError("eigenvectors are not orthonormal to 1e-10")
    h_norm = max(np.max(np.abs(values)), 1e-300)
    resid = h @ vectors - vectors * values
    if np.max(np.linalg.norm(resid, axis=0)) > 1e-9 * h_norm:
        raise ConvergenceError("eigenpair residual exceeds 1e-9 * |H|")


def drive_matrix_element(es: EigenSystem, i: int, j: int) -> float:
    """|<i| (a + a^dag) |j>| for a drive applied through the mode: a product
    with the offset-2 band sqrt(n + 1) of a + a^dag, both triangles."""
    if not (0 <= i < es.dim and 0 <= j < es.dim):
        raise IndexError(f"state indices out of range for dim {es.dim}")
    n, _ = _photons_and_spin(es.dim)
    vi, vj = es.vectors[:, i], es.vectors[:, j]
    return float(abs(np.sqrt(n[:-2] + 1.0) @ (vi[:-2] * vj[2:] + vi[2:] * vj[:-2])))


def converged_truncation(p: QrmParams, k_levels: int, tol: float) -> FockTruncation:
    """Smallest n_max in a doubling schedule whose lowest k_levels
    eigenvalues move by less than ``tol`` (GHz) when n_max doubles.  The
    schedule starts at the first _N_MAX_START * 2^k at or above the ground
    state's photon number (see _ground_state_displacement), so no tolerance
    accepts a truncation that cuts through that state.

    Raises ConvergenceError when the ceiling is reached without converging,
    and before any eigensolve when the ground state holds more photons than
    N_MAX_CEILING // 2, the largest truncation the search can return.
    """
    if k_levels < 2:
        raise ValueError(f"k_levels must be >= 2, got {k_levels}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    photons = _ground_state_displacement(p)
    if photons > N_MAX_CEILING // 2:
        raise ConvergenceError(
            f"the ground state holds about {photons:.4g} photons, beyond n_max="
            f"{N_MAX_CEILING // 2}, the largest truncation the search can return"
        )
    n = _N_MAX_START
    while n < photons or 2 * (n + 1) < k_levels:
        n *= 2
    prev = np.linalg.eigvalsh(build_hamiltonian(p, FockTruncation(n)))[:k_levels]
    while 2 * n <= N_MAX_CEILING:
        cur = np.linalg.eigvalsh(build_hamiltonian(p, FockTruncation(2 * n)))[:k_levels]
        if np.max(np.abs(cur - prev)) < tol:
            return FockTruncation(n)
        prev, n = cur, 2 * n
    raise ConvergenceError(
        f"lowest {k_levels} eigenvalues not settled to {tol} GHz at n_max={N_MAX_CEILING}"
    )


def _grid_truncation(delta_prime, omega1, g1, biases, k_levels, tol):
    """The larger of the truncations that converge (lowest ``k_levels``
    eigenvalues to ``tol`` GHz) at zero bias and at the largest |bias|."""
    n_max = 1
    for eps in {0.0, float(np.max(np.abs(biases)))}:
        t = converged_truncation(QrmParams(delta_prime, eps, omega1, g1), k_levels, tol)
        n_max = max(n_max, t.n_max)
    return FockTruncation(n_max)


def _ground_state_displacement(p: QrmParams) -> float:
    """Mean-field photon number of the ground state at epsilon = 0.

    For s = delta_prime * omega1 / (4 g1^2) < 1 the state is displaced by
    (g1/omega1)^2 (1 - s^2) photons; for s >= 1 it is not displaced.  A
    truncation below the displacement cuts through the state, and doubling
    it moves the lowest level by about one quantum of the soft mode,
    omega1 * sqrt(1 - s^2).  A bias adds photons, so the estimate at
    epsilon = 0 errs towards a smaller start.
    """
    four_g2 = 4.0 * p.g1 * p.g1
    if not p.delta_prime * p.omega1 < four_g2:  # s >= 1, written so g1 = 0 divides nothing
        return 0.0
    s = p.delta_prime * p.omega1 / four_g2
    ratio = p.g1 / p.omega1
    return ratio * ratio * (1.0 - s * s)
