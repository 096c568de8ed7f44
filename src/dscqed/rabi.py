"""Truncated quantum Rabi model: Hamiltonian assembly, dense diagonalization
of one matrix or a stack, parity-pure states at zero bias and drive
selection rules.

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

H is linear in its parameters, so each level's gradient is the product
dE_k/dtheta = <k| dH/dtheta |k> (Hellmann-Feynman, ``_level_gradients``)
with one band: dH/d delta_prime = -sigma_x / 2 is the offset-1 band at even
rows, dH/d omega1 = n_hat the diagonal and dH/d g1 = sigma_z (a + a^dag) the
offset-2 band.  The drive a + a^dag is the offset-2 band sqrt(n + 1) without
the sign s (``_drive``, read by ``drive_matrix_element`` and the fit).  The
photon numbers, the signs s and sqrt(n + 1) are built once per dimension
(``_photons_and_spin``, cached) and are read-only, so every caller shares
them.

At epsilon = 0, H commutes with the parity sigma_x * (-1)^n (Braak, PRL 107,
100401, 2011).  Its eigenstates |p, n> = (|n, 0> + p (-1)^n |n, 1>) / sqrt(2),
p = +-1, split H into two tridiagonal chains, one per parity:

    diagonal       omega1 * n - p * (-1)^n * delta_prime / 2
    off-diagonal   g1 * sqrt(n + 1) between |p, n> and |p, n + 1>

``solve``, the sweep (per bias, and its snapshots) and the fit (all the
data's |bias|) share one kernel, ``_eigenpairs``: one assembly per chunk of
at most _STACK_BYTES, with the chains laid over its zero biases.  There
every eigenvector lies on one chain, so it is a parity eigenstate: its
parity is the sign of <v| sigma_x (-1)^n |v>, which is +-1 to 1e-8, and
forbidden lines (same parity) stay forbidden.  On a wide truncation the
sweep takes each nonzero bias from a reduced basis instead, where a
certificate accepts it, and every other bias from the kernel
(``_sweep_eigensystems``, which builds the basis).

``QrmParams`` is defined in ``_params`` and read here, so ``config`` builds
it without executing this module or importing numpy.
"""

from __future__ import annotations

import functools
import math

from ._lazy import np
from ._params import QrmParams
from ._record import Record
from .errors import ConvergenceError

N_MAX_CEILING = 4096
_N_MAX_START = 8  # base of the truncation search's doubling schedule
_STRAY_WEIGHT = 5e-9  # weight off its chain: parity expectation 1e-8 from +-1
_STACK_BYTES = 1 << 25  # most bytes of Hamiltonians diagonalized in one stack
_SNAPSHOTS = 5  # Chebyshev biases of the sweep's reduced basis
_BASIS_CUT = 1e-10  # snapshot singular values kept, relative to the largest


class FockTruncation(Record):
    """Photon-number cutoff: Fock states 0..n_max are kept.  Size it with
    converged_truncation for the parameters at hand."""

    def __init__(self, n_max: int) -> None:
        self.__dict__.update(n_max=n_max)
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


class EigenSystem(Record):
    """Sorted eigenvalues and eigenvector columns.

    ``values`` holds every eigenvalue, (..., dim) for a stack of matrices,
    and ``vectors`` the columns of the lowest k kept, (..., dim, k).
    """

    def __init__(self, values: np.ndarray, vectors: np.ndarray) -> None:
        self.__dict__.update(values=values, vectors=vectors)

    @property
    def dim(self) -> int:
        """Matrix dimension, values.shape[-1]."""
        return self.values.shape[-1]


def build_hamiltonian(p: QrmParams, t: FockTruncation) -> np.ndarray:
    """Assemble the dense, exactly symmetric Rabi Hamiltonian in GHz."""
    return _hamiltonians(p.delta_prime, p.epsilon, p.omega1, p.g1, t)


def _hamiltonians(delta_prime, epsilon, omega1, g1, t):
    """H at every bias of the array ``epsilon``, stacked along its axes
    (shape epsilon.shape + (dim, dim)); a scalar bias gives one matrix."""
    n, s, root = _photons_and_spin(t.dim)
    return _symmetric(
        -0.5 * np.multiply.outer(epsilon, s) + omega1 * n,
        [
            (1, np.where(s[:-1] > 0.0, -0.5 * delta_prime, 0.0)),
            (2, g1 * (root * s[:-2])),
        ],
    )


@functools.lru_cache(maxsize=16)
def _photons_and_spin(dim):
    """Photon number n and sigma_z eigenvalue s of every composite index,
    and the drive band sqrt(n + 1) of the first dim - 2; built once per
    dimension and read-only, since every caller shares them."""
    k = np.arange(dim)
    n = (k >> 1).astype(float)
    bands = n, 1.0 - 2.0 * (k & 1), np.sqrt(n[:-2] + 1.0)
    for band in bands:
        band.flags.writeable = False
    return bands


def _symmetric(diag, bands):
    """Dense symmetric matrices with ``diag`` (..., dim) on the diagonal and
    each (offset, values) band mirrored about it, stacked along the leading
    axes of ``diag``.  Zero entries are stored as +0.0 (never -0.0), as a
    sum of operator products would store them."""
    dim = diag.shape[-1]
    h = np.zeros(diag.shape + (dim,))
    flat = h.reshape(diag.shape[:-1] + (dim * dim,))  # a view: row i, column j at i * dim + j
    flat[..., :: dim + 1] = diag
    for offset, values in bands:
        stop = len(values) * (dim + 1)
        flat[..., offset : offset + stop : dim + 1] = values + 0.0  # (i, i + offset)
        flat[..., offset * dim : offset * dim + stop : dim + 1] = values + 0.0  # (i + offset, i)
    return h


def _parity_chains(delta_prime, omega1, g1, t):
    """H at epsilon = 0 in the parity basis: the chain p = +1 on rows
    0..n_max, the chain p = -1 below it, no element between them."""
    n = np.arange(t.n_states, dtype=float)
    split = 0.5 * delta_prime * (-1.0) ** n
    hop = g1 * np.sqrt(n[1:])
    return _symmetric(
        np.concatenate([omega1 * n - split, omega1 * n + split]),
        [(1, np.concatenate([hop, [0.0], hop]))],
    )


def eigensystem(h: np.ndarray, k: int | None = None) -> EigenSystem:
    """Diagonalize a real symmetric matrix, or a stack of them (..., dim,
    dim), with a deterministic convention.

    Every eigenvalue is kept, ascending, and the eigenvectors of the lowest
    ``k`` (all when k is None; none when k is 0, which runs eigvalsh).  Each
    kept eigenvector's largest-magnitude coefficient is positive (first
    occurrence on ties).  The kept pairs must be orthonormal to 1e-10 with
    residuals within 1e-9 * max|eigenvalue| of their matrix, a check that
    costs O(dim^2 k) per matrix.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {h.shape}")
    dim = h.shape[-1]
    k = dim if k is None else k
    if not 0 <= k <= dim:
        raise ValueError(f"k must be in [0, {dim}], got {k}")
    h_t = np.swapaxes(h, -1, -2)
    if not (h == h_t).all():  # assembled matrices are exactly symmetric
        scale = np.maximum(np.max(np.abs(h), axis=(-2, -1)), 1e-300)
        if np.any(np.max(np.abs(h - h_t), axis=(-2, -1)) > 1e-12 * scale):
            raise ValueError("matrix is not symmetric within 1e-12 relative")

    if k == 0:
        return EigenSystem(_lapack(h, vectors=False), np.empty(h.shape[:-1] + (0,)))
    values, vectors = _lapack(h, vectors=True)
    vectors = vectors[..., :k]
    _fix_signs(vectors)
    gram = np.swapaxes(vectors, -1, -2) @ vectors
    if np.abs(gram - np.eye(k)).max(initial=0.0) > 1e-10:  # an empty stack passes
        raise ConvergenceError("eigenvectors are not orthonormal to 1e-10")
    h_norm = np.maximum(np.abs(values).max(axis=-1, keepdims=True), 1e-300)
    resid = h @ vectors - vectors * values[..., None, :k]
    if (np.linalg.norm(resid, axis=-2) > 1e-9 * h_norm).any():
        raise ConvergenceError("eigenpair residual exceeds 1e-9 * |H|")
    return EigenSystem(values=values, vectors=vectors)


def _lapack(h, vectors: bool):
    """numpy's eigh of ``h``, or its eigvalsh without ``vectors`` (the one call
    of either in this module); a failure raises ConvergenceError."""
    try:
        return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc


def solve(p: QrmParams, t: FockTruncation) -> EigenSystem:
    """Build and diagonalize H with the conventions of ``eigensystem``.

    At epsilon = 0 the matrix diagonalized is the pair of parity chains, so
    each state lies on one chain, is an eigenstate of the parity with the
    chain's sign and keeps its energy order; the vectors are mapped back to
    the composite basis.  A vector with more than _STRAY_WEIGHT off its
    chain raises ConvergenceError.
    """
    es = _eigenpairs(p.delta_prime, np.array([p.epsilon]), p.omega1, p.g1, t, t.dim)
    return EigenSystem(es.values[0], es.vectors[0])


def _eigenpairs(delta_prime, biases, omega1, g1, t, k):
    """The eigensystem of H at each bias of the 1-D array ``biases``, stacked:
    every eigenvalue (biases, dim) and the lowest ``k`` eigenvectors
    (biases, dim, k), as ``solve`` gives them at one bias; per chunk of at
    most _STACK_BYTES of matrices, one assembly, chains laid over its zero
    biases, and one eigensystem call."""
    n = t.n_states
    chunk = max(1, _STACK_BYTES // (8 * t.dim * t.dim))
    parts = []
    for start in range(0, len(biases), chunk):
        part = biases[start : start + chunk]
        zero = part == 0.0
        h = _hamiltonians(delta_prime, part, omega1, g1, t)
        if zero.any():  # H(0) is diagonalized as the chains
            h[zero] = _parity_chains(delta_prime, omega1, g1, t)
        es = eigensystem(h, k)
        for b in zero.nonzero()[0]:  # unfold the chain vectors into the composite basis
            chain = es.vectors[b]
            top, bot = chain[:n], chain[n:]
            stray = np.minimum(np.sum(top * top, axis=0), np.sum(bot * bot, axis=0))
            if stray.max(initial=0.0) > _STRAY_WEIGHT:
                raise ConvergenceError(
                    f"an eigenvector has more than {_STRAY_WEIGHT} of its weight off its parity chain"
                )
            even, odd = top + bot, (-1.0) ** np.arange(n)[:, None] * (top - bot)
            chain[0::2], chain[1::2] = even / math.sqrt(2.0), odd / math.sqrt(2.0)
            _fix_signs(chain)  # the convention holds in the basis returned
        parts.append(es)
    if len(parts) == 1:
        return parts[0]
    return EigenSystem(
        np.concatenate([es.values for es in parts]), np.concatenate([es.vectors for es in parts])
    )


def _sweep_eigensystems(delta_prime, biases, omega1, g1, t, k):
    """Yield, in order, an EigenSystem at each bias of the 1-D array
    ``biases`` with at least the lowest ``k`` eigenvalues and their vectors.

    When the grid holds more than _SNAPSHOTS nonzero biases and dim is at
    least 4 * _SNAPSHOTS * k, H(eps) = H(0) - (eps / 2) S_z is solved in a
    reduced basis Q: the lowest k + 1 eigenvectors at _SNAPSHOTS Chebyshev
    biases (the fewest the certificate can use, which reads the (k+1)th Ritz
    value) from one ``_eigenpairs`` call, chunked like every stack of H,
    orthonormalized by an SVD, then one stacked eigensystem call per chunk
    of nonzero biases.  A bias takes its Ritz pairs when they are
    certified: each residual against the full H within 1e-9 * max|Ritz
    value|, and exactly k eigenvalues of H below the midpoint of the kth and
    (k+1)th Ritz values (``_count_below``).  Every other bias, zero
    included, is one ``_eigenpairs`` call; a bias that ``_zero_snapped``
    sets to zero is solved at zero.
    """
    biases = _zero_snapped(biases)

    def dense(b):
        es = _eigenpairs(delta_prime, biases[b : b + 1], omega1, g1, t, k)
        return EigenSystem(es.values[0], es.vectors[0])

    if 2 * _SNAPSHOTS * k > t.dim // 2 or np.count_nonzero(biases) <= _SNAPSHOTS:
        yield from map(dense, range(len(biases)))
        return
    chebyshev = np.cos(np.pi * np.arange(1, 2 * _SNAPSHOTS, 2) / (2 * _SNAPSHOTS))
    snapshots = _eigenpairs(delta_prime, np.max(np.abs(biases)) * chebyshev, omega1, g1, t, k + 1)
    u, sv, _ = np.linalg.svd(np.hstack(snapshots.vectors), full_matrices=False)
    q = u[:, sv > _BASIS_CUT * sv[0]]
    h0, s = _hamiltonians(delta_prime, 0.0, omega1, g1, t), _photons_and_spin(t.dim)[1]
    a0, sz = q.T @ h0 @ q, (q.T * s) @ q
    a0, sz = (a0 + a0.T) / 2, (sz + sz.T) / 2  # exactly symmetric
    chunk = max(1, _STACK_BYTES // (8 * t.dim * q.shape[1]))
    for start in range(0, len(biases), chunk):
        part = biases[start : start + chunk]
        eps = part[part != 0.0]
        if eps.size:
            es = eigensystem(a0 - 0.5 * eps[:, None, None] * sz, k)
            x, theta = q @ es.vectors, es.values
            _fix_signs(x)
            resid = h0 @ x - 0.5 * (eps[:, None] * s)[..., None] * x - x * theta[:, None, :k]
            bound = 1e-9 * np.abs(theta).max(axis=-1, keepdims=True)
            ok = (np.linalg.norm(resid, axis=-2) <= bound).all(axis=-1)
            sigma = 0.5 * (theta[:, k - 1] + theta[:, k])
            ok &= _count_below(delta_prime, eps, omega1, g1, t, sigma) == k
            ritz = zip(ok.tolist(), theta[:, :k], x)
        for b in range(start, start + len(part)):
            certified, values, vectors = next(ritz) if biases[b] != 0.0 else (False, None, None)
            yield EigenSystem(values, vectors) if certified else dense(b)


def _zero_snapped(biases):
    """``biases`` with every value within 4 ulps of max|bias| of zero set to
    zero, the one zero-bias rule of the sweep and the fit: linspace's
    interior points are off by about one ulp of the endpoints, and a middle
    point at 1.1e-16 would split doublets degenerate to rounding at random."""
    return np.where(np.abs(biases) <= 4 * np.spacing(np.max(np.abs(biases))), 0.0, biases)


def _count_below(delta_prime, biases, omega1, g1, t, sigma):
    """The number of eigenvalues of H below ``sigma`` at each bias of the
    1-D array ``biases`` (one sigma per bias), by Sylvester's law of inertia
    on the 2x2-block LDL^T of H - sigma over the Fock ladder; -1 where a
    pivot block is singular or not finite."""
    count, ok = np.zeros(len(biases), dtype=int), np.ones(len(biases), dtype=bool)
    off = -0.5 * delta_prime  # off-diagonal of the pivot block
    with np.errstate(all="ignore"):  # a failed pivot propagates as inf or nan
        for n in range(t.n_states):
            a, c = omega1 * n - 0.5 * biases - sigma, omega1 * n + 0.5 * biases - sigma
            if n:  # minus C S^-1 C of the previous pivot S, C = g1 sqrt(n) sigma_z
                w = g1 * g1 * n / det
                a, c, off = a - w * c_prev, c - w * a_prev, -0.5 * delta_prime - w * off
            a_prev, c_prev, det = a, c, a * c - off * off
            ok &= np.isfinite(det) & (det != 0.0)
            count += np.where(det < 0.0, 1, np.where(a < 0.0, 2, 0))
    return np.where(ok, count, -1)


def _fix_signs(vectors):
    """Flip each column of ``vectors`` (..., dim, k) in place so that its
    largest-magnitude coefficient is positive."""
    top = np.abs(vectors).argmax(axis=-2)[..., None, :]
    vectors *= np.where(np.take_along_axis(vectors, top, axis=-2) < 0.0, -1.0, 1.0)


def drive_matrix_element(es: EigenSystem, i: int, j: int) -> float:
    """|<i| (a + a^dag) |j>| for a drive applied through the mode, between
    two of the eigenvectors ``es`` keeps."""
    kept = es.vectors.shape[-1]
    if not (0 <= i < kept and 0 <= j < kept):
        raise IndexError(f"state indices ({i}, {j}) out of range for the {kept} states kept")
    return float(abs(_drive(es.vectors[:, i], es.vectors[:, j])))


def _candidate_lines(k_levels: int) -> list:
    """The lines (i, j), i in {0, 1} and i < j < k_levels, in (i, j) order:
    the sweep's lines, and the fit's candidates for an unlabeled peak."""
    return [(i, j) for i in (0, 1) for j in range(i + 1, k_levels)]


def _drive(u, v):
    """<u| (a + a^dag) |v> of matching vectors u, v (..., dim), one pair or a
    stack of pairs: a product with the offset-2 band, both triangles."""
    root = _photons_and_spin(u.shape[-1])[2]
    return (u[..., :-2] * v[..., 2:] + u[..., 2:] * v[..., :-2]) @ root


def _level_gradients(v):
    """Hellmann-Feynman gradients <k| dH/dtheta |k> of the eigenvector
    columns of ``v`` (..., dim, k), one row (d/d delta_prime, d/d omega1,
    d/d g1) per column, (..., k, 3); each is a product with one band of dH
    (both triangles counted)."""
    n, s, root = _photons_and_spin(v.shape[-2])
    return np.stack(
        [
            -np.sum(v[..., 0::2, :] * v[..., 1::2, :], axis=-2),
            n @ (v * v),
            2.0 * ((s[:-2] * root) @ (v[..., :-2, :] * v[..., 2:, :])),
        ],
        axis=-1,
    )


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
    prev = _lowest_levels(p, n, k_levels)
    while 2 * n <= N_MAX_CEILING:
        cur = _lowest_levels(p, 2 * n, k_levels)
        if np.max(np.abs(cur - prev)) < tol:
            return FockTruncation(n)
        prev, n = cur, 2 * n
    raise ConvergenceError(
        f"lowest {k_levels} eigenvalues not settled to {tol} GHz at n_max={N_MAX_CEILING}"
    )


def _lowest_levels(p: QrmParams, n_max: int, k_levels: int):
    """The lowest ``k_levels`` eigenvalues of H at truncation ``n_max``."""
    return _lapack(build_hamiltonian(p, FockTruncation(n_max)), vectors=False)[:k_levels]


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
