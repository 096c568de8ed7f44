"""Truncated quantum Rabi model: Hamiltonian assembly, dense diagonalization,
parity resolution and drive selection rules.

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

The parity sigma_x * (-1)^n is a signed permutation: it swaps the two qubit
states of each photon number, (Pi v)[k] = (-1)^(k // 2) * v[k ^ 1].  H
commutes with it exactly when epsilon = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

N_MAX_CEILING = 4096
_N_MAX_START = 8  # first n_max of the truncation search

# Eigenvalues closer than this (relative to the spectral radius) form a
# degenerate cluster when resolving parity.  Must stay below the 1e-9
# residual contract so that rotating inside a cluster cannot break it.
_CLUSTER_RTOL = 1e-10

# Commutator threshold (Frobenius, relative) for detecting the parity symmetry.
_COMMUTE_RTOL = 1e-12


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

    @property
    def n_states(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)


@dataclass(frozen=True)
class EigenSystem:
    """Sorted eigenvalues, eigenvector columns, and per-state parity.

    ``parity[k]`` is +1 or -1 when the parity symmetry holds (bias epsilon
    exactly zero); ``None`` marks a mixed-parity state.
    """

    values: np.ndarray
    vectors: np.ndarray
    parity: tuple

    @property
    def dim(self) -> int:
        return len(self.values)


def build_hamiltonian(p: QrmParams, t: FockTruncation) -> np.ndarray:
    """Assemble the dense, exactly symmetric Rabi Hamiltonian in GHz."""
    if t.n_max > N_MAX_CEILING:
        raise ValueError(f"n_max={t.n_max} exceeds the ceiling {N_MAX_CEILING}")
    n, s = _photons_and_spin(t.dim)
    return _symmetric(
        -0.5 * (p.epsilon * s) + p.omega1 * n,
        [
            (1, np.where(s[:-1] > 0.0, -0.5 * p.delta_prime, 0.0)),
            (2, p.g1 * (np.sqrt(n[:-2] + 1.0) * s[:-2])),
        ],
    )


def _photons_and_spin(dim):
    """Photon number n and sigma_z eigenvalue s of every composite index."""
    k = np.arange(dim)
    return (k >> 1).astype(float), 1.0 - 2.0 * (k & 1)


def _symmetric(diag, bands):
    """Dense symmetric matrix with ``diag`` on the diagonal and each
    (offset, values) band mirrored about it.  Zero entries are stored as
    +0.0 (never -0.0), as a sum of operator products would store them."""
    h = np.diag(diag)
    for offset, values in bands:
        i = np.arange(len(values))
        h[i, i + offset] = h[i + offset, i] = values + 0.0
    return h


def _parity(v):
    """Apply the composite parity sigma_x * (-1)^n along axis 0: row k of the
    result is (-1)^(k // 2) times row k ^ 1 of ``v``."""
    k = np.arange(v.shape[0])
    return (v[k ^ 1].T * (1.0 - 2.0 * ((k >> 1) & 1))).T


def eigensystem(h: np.ndarray) -> EigenSystem:
    """Diagonalize a real symmetric matrix with a deterministic convention.

    Eigenvalues ascend; each eigenvector's largest-magnitude coefficient is
    positive (first occurrence on ties).  When the matrix commutes with the
    composite parity operator, degenerate clusters are rotated into parity
    eigenstates and labeled +1/-1; otherwise all labels are None.
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

    parity = _resolve_parity(h, values, vectors)
    _fix_signs(vectors)
    _validate(h, values, vectors)
    return EigenSystem(values=values, vectors=vectors, parity=parity)


def solve(p: QrmParams, t: FockTruncation) -> EigenSystem:
    """Build and diagonalize in one step."""
    return eigensystem(build_hamiltonian(p, t))


def _resolve_parity(h, values, vectors):
    dim = h.shape[0]
    if dim % 2 != 0:
        return (None,) * dim
    h_norm = max(np.linalg.norm(h), 1e-300)
    # |H - Pi H Pi| equals the commutator norm |H Pi - Pi H|: Pi is orthogonal
    if np.linalg.norm(h - _parity(_parity(h).T).T) > _COMMUTE_RTOL * h_norm:
        return (None,) * dim

    # Rotate each (near-)degenerate cluster into the parity eigenbasis so
    # every stored vector carries a sharp +-1 label.
    spread = max(np.max(np.abs(values)), 1e-300)
    tol = _CLUSTER_RTOL * spread
    labels = [None] * dim
    start = 0
    for stop in range(1, dim + 1):
        if stop < dim and values[stop] - values[stop - 1] <= tol:
            continue
        block = vectors[:, start:stop]
        if stop - start > 1:
            overlap = block.T @ _parity(block)
            s, u = np.linalg.eigh(0.5 * (overlap + overlap.T))
            block = block @ u
            vectors[:, start:stop] = block
            expect = s
        else:
            expect = np.array([block[:, 0] @ _parity(block[:, 0])])
        for k, e in enumerate(expect):
            if abs(e - 1.0) <= 1e-8:
                labels[start + k] = 1
            elif abs(e + 1.0) <= 1e-8:
                labels[start + k] = -1
            else:
                raise ConvergenceError(
                    f"parity expectation {e} not within 1e-8 of +-1 despite symmetry"
                )
        start = stop
    return tuple(labels)


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


def transition_frequency(es: EigenSystem, i: int, j: int) -> float:
    """Transition frequency E_j - E_i in GHz for state indices i < j."""
    if not 0 <= i < j < es.dim:
        raise IndexError(f"need 0 <= i < j < {es.dim}, got i={i}, j={j}")
    return float(es.values[j] - es.values[i])


def drive_matrix_element(es: EigenSystem, i: int, j: int) -> float:
    """|<i| (a + a^dag) |j>| for a drive applied through the mode."""
    if not (0 <= i < es.dim and 0 <= j < es.dim):
        raise IndexError(f"state indices out of range for dim {es.dim}")
    n, _ = _photons_and_spin(es.dim)
    x = _symmetric(np.zeros(es.dim), [(2, np.sqrt(n[:-2] + 1.0))])
    return float(abs(es.vectors[:, i] @ x @ es.vectors[:, j]))


def converged_truncation(p: QrmParams, k_levels: int, tol: float) -> FockTruncation:
    """Smallest n_max in a doubling schedule from _N_MAX_START whose lowest
    k_levels eigenvalues move by less than ``tol`` (GHz) when n_max doubles.

    Raises ConvergenceError when the ceiling is reached without converging.
    """
    if k_levels < 2:
        raise ValueError(f"k_levels must be >= 2, got {k_levels}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    n = _N_MAX_START
    while 2 * (n + 1) < k_levels:
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
