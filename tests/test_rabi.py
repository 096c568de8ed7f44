import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dscqed import (
    ConvergenceError,
    EigenSystem,
    FockTruncation,
    QrmParams,
    build_hamiltonian,
    converged_truncation,
    drive_matrix_element,
    eigensystem,
    solve,
)
from dscqed.rabi import _eigenpairs, _hamiltonians, _parity_chains, _photons_and_spin, _symmetric

from conftest import (
    dense_drive_element,
    dense_parity_expectations,
    kron_hamiltonian,
    kron_parity,
    transition_frequency,
)

T40 = FockTruncation(40)


# ---------------------------------------------------------------------------
# Hamiltonian assembly
# ---------------------------------------------------------------------------


def test_decoupled_limit_block_diagonal():
    # g=0: two-level system + oscillator, exactly solvable
    p = QrmParams(0.147, 0.0, 2.57, 0.0)
    h = build_hamiltonian(p, FockTruncation(1))
    # no matrix element connects different photon numbers
    assert h[0, 2] == h[0, 3] == h[1, 2] == h[1, 3] == 0.0
    es = eigensystem(h)
    expected = sorted([-0.0735, 0.0735, 2.57 - 0.0735, 2.57 + 0.0735])
    assert np.allclose(es.values, expected, atol=1e-12)


def test_hamiltonian_exactly_symmetric(paper_params):
    h = build_hamiltonian(paper_params, T40)
    assert np.array_equal(h, h.T)


def test_basis_ordering_convention():
    # index = 2*n_fock + qubit: the bias term sits on the qubit (inner) index
    p = QrmParams(0.0, 1.0, 2.0, 0.0)
    h = build_hamiltonian(p, FockTruncation(1))
    assert h[0, 0] == -0.5  # |n=0, q=0>
    assert h[1, 1] == +0.5  # |n=0, q=1>
    assert h[2, 2] == 2.0 - 0.5  # |n=1, q=0>


_finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0, **_finite)),
    st.one_of(st.just(0.0), st.floats(min_value=-5.0, max_value=5.0, **_finite)),
    st.floats(min_value=1e-3, max_value=10.0, **_finite),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0, **_finite)),
    st.integers(min_value=1, max_value=128),
)
def test_banded_assembly_matches_kron_oracle(delta, eps, omega, g, n_max):
    # bitwise: same entries, same float operations, zeros stored as +0.0
    p = QrmParams(delta, eps, omega, g)
    t = FockTruncation(n_max)
    h = build_hamiltonian(p, t)
    oracle = kron_hamiltonian(p, t)
    assert np.array_equal(h, oracle)
    assert h.tobytes() == oracle.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.floats(min_value=0.0, max_value=5.0, **_finite),
    st.lists(st.floats(min_value=-5.0, max_value=5.0, **_finite), min_size=1, max_size=6),
    st.floats(min_value=1e-3, max_value=10.0, **_finite),
    st.floats(min_value=0.0, max_value=10.0, **_finite),
    st.integers(min_value=1, max_value=64),
)
def test_stacked_assembly_is_build_hamiltonian_bias_by_bias(delta, biases, omega, g, n_max):
    # the fit's stack along a leading bias axis, mirrored biases and both
    # signed zeros included, is the one-bias assembly bitwise
    biases = np.array(biases + [-b for b in biases] + [0.0, -0.0])
    t = FockTruncation(n_max)
    stack = _hamiltonians(delta, biases, omega, g, t)
    assert stack.shape == (len(biases), t.dim, t.dim)
    for eps, h in zip(biases, stack):
        assert h.tobytes() == build_hamiltonian(QrmParams(delta, float(eps), omega, g), t).tobytes()
    # the strided writes of _symmetric against fancy-index pairs, on one
    # matrix and on the stack: -0.0 on the diagonal (the zero biases) is
    # kept, -0.0 in a band is stored as +0.0
    diag = -0.5 * np.multiply.outer(biases, _photons_and_spin(t.dim)[1])
    rows = np.arange(t.dim - 1)
    bands = [
        (1, np.where(rows % 2 == 0, -0.5 * delta, -0.0)),
        (2, g * np.linspace(-1.0, 1.0, t.dim - 2) * np.where(rows[1:] % 3 == 0, -0.0, 1.0)),
    ]
    assert np.signbit(diag[diag == 0.0]).any() and np.signbit(bands[0][1]).any()
    for d in (diag[0], diag[-2:], diag):
        got = _symmetric(d, bands)
        assert got.tobytes() == _fancy_index_symmetric(d, bands).tobytes()


def _fancy_index_symmetric(diag, bands):
    # the assembly as index pairs: the reference for _symmetric's strided writes
    dim = diag.shape[-1]
    h = np.zeros(diag.shape + (dim,))
    i = np.arange(dim)
    h[..., i, i] = diag
    for offset, values in bands:
        i = np.arange(len(values))
        h[..., i, i + offset] = h[..., i + offset, i] = values + 0.0
    return h


def test_band_cache_is_read_only_and_built_once_per_dimension():
    _photons_and_spin.cache_clear()
    for _ in range(3):
        n, s, root = _photons_and_spin(10)
    assert _photons_and_spin.cache_info().misses == 1
    assert root.tobytes() == np.sqrt(n[:-2] + 1.0).tobytes()
    for band in (n, s, root):
        with pytest.raises(ValueError, match="read-only"):
            band[0] = 5.0


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_refuse_non_finite_values(field, bad):
    # nothing non-finite may reach the eigensolver
    values = [0.1, 0.0, 1.0, 1.0]
    values[field] = bad
    with pytest.raises(ValueError, match="must be finite"):
        QrmParams(*values)


def test_truncation_ceiling():
    with pytest.raises(ValueError, match="exceeds the ceiling"):
        build_hamiltonian(QrmParams(0.1, 0.0, 1.0, 0.1), FockTruncation(5000))


@pytest.mark.parametrize("make, message", [
    (lambda: FockTruncation(0), "n_max must be >= 1, got 0"),
    (lambda: QrmParams(-0.1, 0.0, 1.0, 1.0), "delta_prime must be >= 0, got -0.1"),
    (lambda: QrmParams(0.1, 0.0, 1.0, -1.0), "g1 must be >= 0, got -1.0"),
    (lambda: eigensystem(np.zeros((3, 4))), "expected a square matrix or a stack of them, got shape (3, 4)"),
], ids=["truncation", "negative-gap", "negative-coupling", "not-square"])
def test_records_refuse_values_outside_their_domain(make, message):
    with pytest.raises(ValueError) as refused:
        make()
    assert str(refused.value) == message


def test_residual_beyond_tolerance_is_refused(monkeypatch, capsys):
    # eigh's own orthonormal vectors with every eigenvalue shifted by 1e-6
    # pass the orthonormality check and fail the residual check, in the
    # library and the CLI (the values-only truncation probes are untouched)
    from dscqed import rabi
    from dscqed.cli import main

    lapack = rabi._lapack

    def shifted(h, vectors):
        if not vectors:
            return lapack(h, vectors)
        values, v = lapack(h, vectors)
        return values + 1e-6, v

    monkeypatch.setattr(rabi, "_lapack", shifted)
    with pytest.raises(ConvergenceError, match=r"^eigenpair residual exceeds 1e-9 \* \|H\|$"):
        eigensystem(build_hamiltonian(QrmParams(0.147, 0.3, 2.57, 2.39), T40), 6)
    assert main(["spectrum"]) == 2
    assert "numerical failure:" in capsys.readouterr().err


def test_vector_off_its_chain_is_refused(monkeypatch):
    # on the deep device at zero bias E1 - E0 is about 3e-11 GHz: eigh's
    # columns 0 and 1 turned by 45 degrees stay orthonormal with residuals
    # far below 1e-9 |H|, and each holds half its weight off its chain
    from dscqed import rabi

    lapack = rabi._lapack

    def turned(h, vectors):
        out = lapack(h, vectors)
        if vectors:
            v = out[1]
            v[..., :2] = v[..., :2] @ (np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
        return out

    p, t = QrmParams(0.15, 0.0, 1.5, 5.0), FockTruncation(64)
    assert np.diff(solve(p, t).values[:2])[0] < 1e-10
    monkeypatch.setattr(rabi, "_lapack", turned)
    with pytest.raises(ConvergenceError, match="off its parity chain"):
        solve(p, t)


def test_displaced_oscillator_limit():
    # delta'=0: energies m*omega - g^2/omega, each doubly degenerate
    omega, g = 2.57, 2.39
    p = QrmParams(0.0, 0.0, omega, g)
    t = converged_truncation(p, k_levels=6, tol=1e-9)
    es = solve(p, FockTruncation(2 * t.n_max))
    shift = g * g / omega
    for m in range(3):
        pair = es.values[2 * m : 2 * m + 2]
        assert abs(pair[0] - (m * omega - shift)) < 1e-6 * omega
        assert abs(pair[1] - pair[0]) < 1e-8 * omega


def test_paper_splitting_at_default_truncation(paper_params):
    es = solve(paper_params, T40)
    w01 = transition_frequency(es, 0, 1)
    # published 26 MHz, within the 5% adiabatic-approximation budget
    assert abs(w01 - 0.026) <= 0.0013


# ---------------------------------------------------------------------------
# Eigensystem contract
# ---------------------------------------------------------------------------


def test_two_level_splitting():
    delta = 0.7
    es = eigensystem(np.array([[0.0, -delta / 2], [-delta / 2, 0.0]]))
    assert np.allclose(es.values, [-delta / 2, delta / 2], atol=1e-15)


def test_residual_and_orthonormality(paper_params):
    h = build_hamiltonian(paper_params, T40)
    es = eigensystem(h)
    h_norm = np.max(np.abs(es.values))
    resid = h @ es.vectors - es.vectors * es.values
    assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-9 * h_norm
    gram = es.vectors.T @ es.vectors
    assert np.max(np.abs(gram - np.eye(es.dim))) <= 1e-10
    assert np.all(np.diff(es.values) >= 0.0)


def test_sign_convention(paper_params):
    es = solve(paper_params, T40)
    idx = np.argmax(np.abs(es.vectors), axis=0)
    assert np.all(es.vectors[idx, np.arange(es.dim)] > 0.0)


def test_stacked_eigensystem_is_the_per_matrix_eigensystem():
    # a stack of a parity-chain matrix and two biased Hamiltonians, lowest k
    # vectors kept: each slice is the per-matrix result bit for bit, and k
    # only drops columns
    t, k = FockTruncation(20), 5
    stack = np.stack(
        [
            _parity_chains(0.147, 2.57, 2.39, t),
            build_hamiltonian(QrmParams(0.147, 0.3, 2.57, 2.39), t),
            build_hamiltonian(QrmParams(1.0, -0.7, 1.0, 5.0), t),
        ]
    )
    es = eigensystem(stack, k)
    assert es.values.shape == (3, t.dim) and es.vectors.shape == (3, t.dim, k)
    assert es.dim == t.dim
    for m, h in enumerate(stack):
        one = eigensystem(h, k)
        assert es.values[m].tobytes() == one.values.tobytes()
        assert es.vectors[m].tobytes() == one.vectors.tobytes()
        assert one.vectors.tobytes() == eigensystem(h).vectors[:, :k].tobytes()
    values_only = eigensystem(stack, 0)
    assert values_only.vectors.shape == (3, t.dim, 0)
    assert values_only.values.tobytes() == np.linalg.eigvalsh(stack).tobytes()
    for bad in (-1, t.dim + 1):
        with pytest.raises(ValueError, match="k must be"):
            eigensystem(stack, bad)


def test_rejects_asymmetric_input():
    m = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        eigensystem(m)


# Fixed symmetric matrix; the expected spectrum comes from bisection on the
# characteristic polynomial (pure-Python determinant), independent of LAPACK.
_M6 = [
    [1.0958, 0.4, 1.0049, 1.05, -0.2549, 1.4408],
    [0.4, 1.1443, -0.0982, 0.1641, -0.8691, 1.7885],
    [1.0049, -0.0982, -0.2263, -0.0293, 0.0426, -1.2207],
    [1.05, 0.1641, -0.0293, -0.5819, 0.029, 0.5272],
    [-0.2549, -0.8691, 0.0426, 0.029, -1.3828, 0.3052],
    [1.4408, 1.7885, -1.2207, 0.5272, 0.3052, -1.2421],
]


def _pure_python_det(mat):
    a = [row[:] for row in mat]
    n = len(a)
    det = 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0.0:
            return 0.0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


def _charpoly_roots(m, n_grid=4001):
    n = len(m)

    def f(lam):
        return _pure_python_det(
            [[m[i][j] - (lam if i == j else 0.0) for j in range(n)] for i in range(n)]
        )

    lo = min(m[i][i] - sum(abs(m[i][j]) for j in range(n) if j != i) for i in range(n))
    hi = max(m[i][i] + sum(abs(m[i][j]) for j in range(n) if j != i) for i in range(n))
    grid = np.linspace(lo, hi, n_grid)
    vals = [f(x) for x in grid]
    roots = []
    for k in range(n_grid - 1):
        if vals[k] * vals[k + 1] < 0.0:
            a, b, fa = grid[k], grid[k + 1], vals[k]
            for _ in range(100):
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
                if b - a < 1e-12:
                    break
            roots.append(0.5 * (a + b))
    return roots


def test_eigenvalues_match_charpoly_oracle():
    oracle = _charpoly_roots(_M6)
    assert len(oracle) == 6
    es = eigensystem(np.array(_M6))
    assert np.max(np.abs(es.values - np.array(oracle))) < 1e-8


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------


def _parities(es):
    """The parity +-1 of every eigenvector of ``es``, after checking that
    each is a parity eigenstate of the dense operator to 1e-8."""
    expect = dense_parity_expectations(es)
    assert np.max(np.abs(np.abs(expect) - 1.0)) <= 1e-8
    return tuple(int(x) for x in np.sign(expect))


def test_parity_pattern_at_symmetry_point(paper_params):
    labels = _parities(solve(paper_params, T40))
    assert labels[0] == 1  # ground state
    assert labels[3] == -1  # 0 <-> 3 drive-allowed
    assert labels[:4] == (1, -1, 1, -1)


def test_parity_mixed_off_symmetry():
    p = QrmParams(0.147, 0.1, 2.57, 2.39)
    es = solve(p, T40)
    # the low states mix the two parities
    assert np.max(np.abs(dense_parity_expectations(es)[:4])) < 0.6
    # the dense operator does not commute with H here
    h = build_hamiltonian(p, T40)
    pi_op = kron_parity(T40.n_states)
    assert np.linalg.norm(h @ pi_op - pi_op @ h) > 1e-3 * np.linalg.norm(h)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0, **_finite)),
    st.floats(min_value=1e-3, max_value=10.0, **_finite),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0, **_finite)),
    st.integers(min_value=1, max_value=64),
)
def test_symmetry_point_solve_matches_dense_oracle(delta, omega, g, n_max):
    # solve diagonalizes the two parity chains; the composite-basis H, its
    # eigvalsh and the dense parity operator are the oracle
    p, t = QrmParams(delta, 0.0, omega, g), FockTruncation(n_max)
    es = solve(p, t)
    h = kron_hamiltonian(p, t)
    oracle = np.linalg.eigvalsh(h)
    h_norm = np.max(np.abs(oracle))
    assert np.max(np.abs(es.values - oracle)) <= 1e-12 * h_norm
    resid = h @ es.vectors - es.vectors * es.values
    assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-9 * h_norm
    _parities(es)
    idx = np.argmax(np.abs(es.vectors), axis=0)
    assert np.all(es.vectors[idx, np.arange(es.dim)] > 0.0)


def test_deep_device_states_are_energy_ordered():
    # near-degenerate parity doublets (splittings ~1e-11 GHz): each stored
    # vector carries its own eigenvalue, and the parities alternate from +1
    p = QrmParams(0.15, 0.0, 1.5, 5.0)
    es = solve(p, FockTruncation(64))
    h = build_hamiltonian(p, FockTruncation(64))
    rayleigh = np.einsum("ik,ij,jk->k", es.vectors, h, es.vectors)
    assert np.max(np.abs(rayleigh - es.values)) <= 1e-12 * np.max(np.abs(es.values))
    assert _parities(es)[:4] == (1, -1, 1, -1)


def test_signed_permutation_parity_at_degenerate_point():
    # delta' = 0: every level is a doublet of opposite parities; each state
    # must be a parity eigenstate of the dense operator
    p = QrmParams(0.0, 0.0, 2.57, 2.39)
    _parities(solve(p, T40))


def test_parity_within_degenerate_doublets():
    # exactly solvable point: every doublet holds one +1 and one -1 state
    p = QrmParams(0.0, 0.0, 2.57, 2.39)
    labels = _parities(solve(p, T40))
    for m in range(4):
        assert {labels[2 * m], labels[2 * m + 1]} == {1, -1}


# ---------------------------------------------------------------------------
# Transitions and drive elements
# ---------------------------------------------------------------------------


def test_transition_telescoping_identity(paper_params):
    es = solve(paper_params, T40)
    d = transition_frequency(es, 0, 3) - transition_frequency(es, 1, 3)
    assert abs(d - transition_frequency(es, 0, 1)) < 1e-12


def test_transition_decoupled_gap():
    p = QrmParams(0.147, 0.0, 2.57, 0.0)
    es = solve(p, T40)
    assert abs(transition_frequency(es, 0, 1) - 0.147) < 1e-10


def test_transition_index_validation(paper_params):
    es = solve(paper_params, T40)
    with pytest.raises(IndexError):
        transition_frequency(es, 2, 2)
    with pytest.raises(IndexError):
        transition_frequency(es, 1, es.dim)


def test_drive_selection_rules(paper_params):
    es = solve(paper_params, T40)
    assert drive_matrix_element(es, 0, 2) <= 1e-10
    assert drive_matrix_element(es, 1, 3) <= 1e-10
    assert drive_matrix_element(es, 0, 3) > 1e-3
    assert drive_matrix_element(es, 1, 2) > 1e-3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.floats(min_value=0.0, max_value=2.0, **_finite),
    st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=2.0, **_finite)),
    st.floats(min_value=0.5, max_value=5.0, **_finite),
    st.floats(min_value=0.0, max_value=5.0, **_finite),
    st.integers(min_value=2, max_value=64),
)
def test_drive_element_matches_dense_oracle(delta, eps, omega, g, n_max):
    es = solve(QrmParams(delta, eps, omega, g), FockTruncation(n_max))
    for i in range(3):
        for j in range(6):
            dense = dense_drive_element(es, i, j)
            assert abs(drive_matrix_element(es, i, j) - dense) <= 1e-12 * max(1.0, dense)


def test_drive_element_indices_are_checked_against_the_kept_states(paper_params):
    # the sweep keeps the lowest 6 of 34 vectors: an index past them is the
    # function's own IndexError, not numpy's
    stacked = _eigenpairs(0.147, np.array([0.3]), 2.57, 2.4, FockTruncation(16), 6)
    es = EigenSystem(stacked.values[0], stacked.vectors[0])
    assert es.dim == 34 and drive_matrix_element(es, 0, 5) > 0.0
    for i, j in ((0, 10), (6, 0), (-1, 2), (0, 33)):
        with pytest.raises(IndexError, match=rf"state indices \({i}, {j}\) out of range for the 6 states kept"):
            drive_matrix_element(es, i, j)


def test_drive_element_zero_for_bare_qubit_flip():
    # g=0: a qubit flip leaves the photon number unchanged, so the mode
    # quadrature cannot drive it
    p = QrmParams(0.5, 0.0, 2.0, 0.0)
    es = solve(p, FockTruncation(10))
    assert drive_matrix_element(es, 0, 1) < 1e-12


# ---------------------------------------------------------------------------
# Truncation convergence
# ---------------------------------------------------------------------------


def test_converged_truncation_decoupled_is_minimal():
    t = converged_truncation(QrmParams(0.147, 0.0, 2.57, 0.0), k_levels=4, tol=1e-6)
    assert t.n_max == 8


def test_converged_truncation_paper(paper_params):
    t = converged_truncation(paper_params, k_levels=4, tol=1e-6)
    assert t.n_max <= 64
    # defining property: doubling moves the lowest 4 eigenvalues by < tol
    lo = np.linalg.eigvalsh(build_hamiltonian(paper_params, t))[:4]
    hi = np.linalg.eigvalsh(
        build_hamiltonian(paper_params, FockTruncation(2 * t.n_max))
    )[:4]
    assert np.max(np.abs(hi - lo)) < 1e-6


def test_converged_truncation_grows_with_coupling(paper_params):
    t_paper = converged_truncation(paper_params, k_levels=4, tol=1e-6)
    strong = QrmParams(0.147, 0.0, 2.57, 3 * 2.57)
    t_strong = converged_truncation(strong, k_levels=4, tol=1e-6)
    assert t_strong.n_max > t_paper.n_max


def test_converged_truncation_validation(paper_params):
    with pytest.raises(ValueError):
        converged_truncation(paper_params, k_levels=1, tol=1e-6)
    with pytest.raises(ValueError):
        converged_truncation(paper_params, k_levels=4, tol=0.0)


def test_converged_truncation_budget_exhausted(paper_params, monkeypatch):
    import dscqed.rabi as rabi_mod

    monkeypatch.setattr(rabi_mod, "N_MAX_CEILING", 8)
    with pytest.raises(ConvergenceError):
        converged_truncation(paper_params, k_levels=4, tol=1e-30)


def test_truncation_search_refuses_an_unreachable_ground_state_before_any_eigensolve(monkeypatch):
    # (g1/omega1)^2 = 1e4 photons in the displaced vacuum; the search can
    # return at most n_max 2048
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: pytest.fail("an eigensolve ran"))
    with pytest.raises(ConvergenceError, match="1e\\+04 photons"):
        converged_truncation(QrmParams(0.147, 0.5, 1.0, 100.0), k_levels=6, tol=1e-6)


@pytest.mark.parametrize(
    "delta_prime, tol, n_max",
    [
        (1e4, 1e-6, 64),  # delta_prime pins the qubit: no displacement, few photons
        (1e6, 1e-6, 8),
    ],
)
def test_truncation_search_keeps_reachable_cases_above_the_displaced_vacuum_bound(
    delta_prime, tol, n_max
):
    # (g1/omega1)^2 = 2050 > 2048, yet each of these searches converges,
    # so the a-priori test must let it run
    assert converged_truncation(QrmParams(delta_prime, 0.5, 1.0, 45.28), 6, tol).n_max == n_max


def test_truncation_search_refuses_an_unreachable_ground_state_at_any_tolerance(monkeypatch):
    # (g1/omega1)^2 = 2050 > 2048: a tolerance above a mode quantum would
    # settle at n_max 8, inside the displaced vacuum
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: pytest.fail("an eigensolve ran"))
    with pytest.raises(ConvergenceError, match="2050 photons"):
        converged_truncation(QrmParams(0.147, 0.5, 1.0, 45.28), 6, tol=1e6)


def test_truncation_search_starts_at_the_ground_state_photon_number():
    # the deep device's ground state holds about 11 photons: a loose
    # tolerance stops at the first size of the schedule above that, not at 8
    assert converged_truncation(QrmParams(0.15, 0.0, 1.5, 5.0), 6, tol=10.0).n_max == 16
