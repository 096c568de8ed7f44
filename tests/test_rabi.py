import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dscqed import (
    ConvergenceError,
    FockTruncation,
    QrmParams,
    build_hamiltonian,
    converged_truncation,
    drive_matrix_element,
    eigensystem,
    solve,
)
from dscqed.rabi import _hamiltonians

from conftest import dense_drive_element, kron_hamiltonian, kron_parity, transition_frequency

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


def _dense_parity_expectations(es):
    pi_op = kron_parity(es.dim // 2)
    return np.einsum("ik,ij,jk->k", es.vectors, pi_op, es.vectors)


def test_parity_pattern_at_symmetry_point(paper_params):
    es = solve(paper_params, T40)
    labels = es.parity
    assert labels[0] == 1  # ground state
    assert labels[3] == -1  # 0 <-> 3 drive-allowed
    assert labels[:4] == (1, -1, 1, -1)
    # every stored vector is a parity eigenstate of the dense operator
    expect = _dense_parity_expectations(es)
    assert np.max(np.abs(expect - np.array(labels, dtype=float))) <= 1e-8


def test_parity_mixed_off_symmetry():
    p = QrmParams(0.147, 0.1, 2.57, 2.39)
    es = solve(p, T40)
    assert all(lab is None for lab in es.parity)
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
    expect = _dense_parity_expectations(es)
    assert np.max(np.abs(expect - np.array(es.parity, dtype=float))) <= 1e-8
    idx = np.argmax(np.abs(es.vectors), axis=0)
    assert np.all(es.vectors[idx, np.arange(es.dim)] > 0.0)
    # eigensystem labels nothing, even for a matrix that conserves parity
    assert all(lab is None for lab in eigensystem(h).parity)


def test_deep_device_states_are_energy_ordered():
    # near-degenerate parity doublets (splittings ~1e-11 GHz): each stored
    # vector carries its own eigenvalue, and the labels alternate from +1
    p = QrmParams(0.15, 0.0, 1.5, 5.0)
    es = solve(p, FockTruncation(64))
    h = build_hamiltonian(p, FockTruncation(64))
    rayleigh = np.einsum("ik,ij,jk->k", es.vectors, h, es.vectors)
    assert np.max(np.abs(rayleigh - es.values)) <= 1e-12 * np.max(np.abs(es.values))
    assert es.parity[:4] == (1, -1, 1, -1)


def test_signed_permutation_parity_at_degenerate_point():
    # delta' = 0: every level is a doublet of opposite parities; the labels
    # must match the dense operator
    p = QrmParams(0.0, 0.0, 2.57, 2.39)
    es = solve(p, T40)
    expect = _dense_parity_expectations(es)
    assert np.max(np.abs(expect - np.array(es.parity, dtype=float))) <= 1e-8


def test_parity_within_degenerate_doublets():
    # exactly solvable point: every doublet holds one +1 and one -1 state
    p = QrmParams(0.0, 0.0, 2.57, 2.39)
    es = solve(p, T40)
    for m in range(4):
        pair = {es.parity[2 * m], es.parity[2 * m + 1]}
        assert pair == {1, -1}


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
