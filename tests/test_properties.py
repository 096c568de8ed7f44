"""Randomized invariant checks across the parameter space."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dscqed import (
    FockTruncation,
    LambShiftReport,
    QrmParams,
    SweepConfig,
    build_hamiltonian,
    converged_truncation,
    coupling_strength_at,
    drive_matrix_element,
    mode_wavenumbers,
    single_mode_renorm,
    solve,
    sweep,
)
from dscqed.errors import ConvergenceError
from dscqed.lamb import N_CUTOFF_MIN, cutoff_sum
from dscqed.resonator import N_MODES_CEILING
from dscqed.output import fmt
from conftest import (
    bisection_roots,
    dense_parity_expectations,
    lines_table,
    resonator_with_ratio,
    root_in_branch,
    transition_frequency,
)

FAST = settings(max_examples=25, deadline=None, derandomize=True)
SLOW = settings(max_examples=15, deadline=None, derandomize=True)

finite = dict(allow_nan=False, allow_infinity=False)
st_delta = st.floats(min_value=0.0, max_value=0.5, **finite)
st_omega = st.floats(min_value=0.5, max_value=5.0, **finite)
st_gratio = st.floats(min_value=0.0, max_value=1.2, **finite)
st_eps = st.floats(min_value=-1.0, max_value=1.0, **finite)


@FAST
@given(st_delta, st_omega, st_gratio, st_eps)
def test_spectrum_even_in_bias(delta, omega, gratio, eps):
    t = FockTruncation(16)
    plus = np.linalg.eigvalsh(
        build_hamiltonian(QrmParams(delta, eps, omega, gratio * omega), t)
    )
    minus = np.linalg.eigvalsh(
        build_hamiltonian(QrmParams(delta, -eps, omega, gratio * omega), t)
    )
    assert np.max(np.abs(plus - minus)) <= 1e-10


@SLOW
@given(st_omega, st.floats(min_value=0.1, max_value=2.0, **finite))
def test_displaced_oscillator_doublets(omega, gratio):
    g = gratio * omega
    p = QrmParams(0.0, 0.0, omega, g)
    t = converged_truncation(p, k_levels=6, tol=1e-9 * omega)
    es = solve(p, FockTruncation(2 * t.n_max))
    shift = g * g / omega
    for m in range(3):
        lo, hi = es.values[2 * m], es.values[2 * m + 1]
        assert abs(lo - (m * omega - shift)) <= 1e-6 * omega
        assert hi - lo <= 1e-8 * omega


@FAST
@given(st_delta, st_omega, st_gratio, st_eps)
def test_telescoping_difference_identity(delta, omega, gratio, eps):
    es = solve(QrmParams(delta, eps, omega, gratio * omega), FockTruncation(16))
    d = transition_frequency(es, 0, 3) - transition_frequency(es, 1, 3)
    assert abs(d - transition_frequency(es, 0, 1)) <= 1e-12


@SLOW
@given(st_delta, st_omega, st_gratio, st_eps)
def test_ground_energy_monotone_in_truncation(delta, omega, gratio, eps):
    p = QrmParams(delta, eps, omega, gratio * omega)
    previous = math.inf
    for n_max in (8, 16, 32, 64):
        e0 = np.linalg.eigvalsh(build_hamiltonian(p, FockTruncation(n_max)))[0]
        assert e0 <= previous + 1e-10
        previous = e0


@SLOW
@given(
    st.floats(min_value=0.01, max_value=0.4, **finite),
    st_omega,
    st.floats(min_value=0.2, max_value=1.2, **finite),
)
def test_emitted_tables_are_byte_deterministic(delta, omega, gratio):
    cfg = SweepConfig(
        epsilon_grid=(-0.3, 0.0, 0.3), freq_window=(0.0, 50.0), k_levels=4
    )
    first = sweep(delta, omega, gratio * omega, cfg)
    second = sweep(delta, omega, gratio * omega, cfg)
    assert lines_table(first, "csv") == lines_table(second, "csv")
    assert lines_table(first, "json") == lines_table(second, "json")


@pytest.mark.parametrize(("value", "token"), [
    (0.0, "0"),
    (-0.0, "0"),
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
    (1e-5, "1e-05"),
    (1e16, "1e+16"),
    (0.1 + 0.2, "0.3"),
    (-1.0 / 3.0, "-0.333333333333"),
    (2.5e-300, "2.5e-300"),
    (True, "true"),
    (False, "false"),
    (0, "0"),
    (-7, "-7"),
    (12345678901234567890, "12345678901234567890"),
    (np.float64(0.3), "0.3"),
    (np.float64(-0.0), "0"),
    ("abc", "abc"),
])
def test_cell_tokens(value, token):
    # the tokens every CSV and JSON cell is written with
    assert fmt(value) == token


@FAST
@given(
    st.floats(min_value=0.001, max_value=0.2, **finite),
    st_omega,
    st.floats(min_value=0.001, max_value=0.05, **finite),
)
def test_weak_coupling_matches_exponential_formula(dratio, omega, gratio):
    # adiabatic renormalization is sub-0.1% accurate deep in its regime
    delta, g = dratio * omega, gratio * omega
    p = QrmParams(delta, 0.0, omega, g)
    t = converged_truncation(p, k_levels=2, tol=1e-10 * omega)
    es = solve(p, FockTruncation(2 * t.n_max))
    w01 = transition_frequency(es, 0, 1)
    assert abs(w01 - single_mode_renorm(delta, g, omega)) / w01 < 1e-3


@FAST
@given(
    st.floats(min_value=0.01, max_value=0.5, **finite),
    st_omega,
    st.floats(min_value=0.05, max_value=1.2, **finite),
)
def test_same_parity_drive_elements_vanish(delta, omega, gratio):
    t = FockTruncation(20)
    p = QrmParams(delta, 0.0, omega, gratio * omega)
    es = solve(p, t)
    scale = float(np.max(np.abs(es.values)))
    expect = dense_parity_expectations(es)
    assert np.max(np.abs(np.abs(expect) - 1.0)) <= 1e-8
    parity = np.sign(expect)

    def nearest_gap(k):
        others = np.delete(es.values, k)
        return float(np.min(np.abs(others - es.values[k])))

    for i in range(5):
        for j in range(i + 1, 6):
            if parity[i] == parity[j]:
                # eigenvectors near an avoided crossing mix at the
                # eps*|H|/gap conditioning limit; allow exactly that leakage
                leak = 1e-14 * scale * (1.0 / nearest_gap(i) + 1.0 / nearest_gap(j))
                assert drive_matrix_element(es, i, j) <= 1e-10 + leak


def test_parity_block_structure_of_hamiltonian():
    # in the rotated basis where the qubit part is diagonal along x, matrix
    # elements between opposite-parity basis states vanish at zero bias
    p = QrmParams(0.37, 0.0, 2.1, 1.3)
    t = FockTruncation(12)
    h = build_hamiltonian(p, t)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    u = np.kron(np.eye(t.n_states), hadamard)
    h_rot = u.T @ h @ u
    # basis parity: sigma_x eigenvalue times photon parity
    qubit_sign = np.tile([1.0, -1.0], t.n_states)
    photon_sign = np.repeat((-1.0) ** np.arange(t.n_states), 2)
    parity = qubit_sign * photon_sign
    opposite = np.outer(parity, parity) < 0.0
    assert np.max(np.abs(h_rot[opposite])) <= 1e-13 * np.max(np.abs(h))


@FAST
@given(st.floats(min_value=0.5, max_value=5000.0, **finite))
def test_mode_roots_bracketed_for_any_inductance_ratio(r):
    m = resonator_with_ratio(r)
    r = m.l_total / m.l_c2
    roots = mode_wavenumbers(m, 25)
    for n in (1, 2, 3, 10, 25):
        y = roots[n - 1]
        assert (n - 1) * math.pi < y < (n - 1) * math.pi + math.pi / 2
        assert abs(y * math.tan(y) - r) / r < 1e-9


@FAST
@given(st.floats(min_value=1e-2, max_value=1e4, **finite))
def test_array_bisection_matches_branch_oracle(r):
    m = resonator_with_ratio(r)
    r = m.l_total / m.l_c2
    oracle = [root_in_branch(r, n) for n in range(1, 61)]
    # 1e-13 absolute, or a few doubles where their spacing is coarser
    np.testing.assert_allclose(mode_wavenumbers(m, 60), oracle, rtol=1e-15, atol=1e-13)


@settings(FAST, max_examples=100)
@given(st.floats(min_value=-3.0, max_value=11.0, **finite))
def test_mode_roots_bitwise_equal_to_bisection(log_r):
    # the same doubles as the array bisection, or a refusal by both
    m = resonator_with_ratio(10.0**log_r)
    r = m.l_total / m.l_c2
    try:
        oracle = tuple(bisection_roots(r, 60).tolist())
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            mode_wavenumbers(m, 60)
    else:
        assert mode_wavenumbers(m, 60) == oracle


@FAST
@given(
    st.floats(min_value=0.0, max_value=1.5, **finite),
    st.floats(min_value=3.0, max_value=100.0, **finite),
    st.floats(min_value=1e-3, max_value=0.2, **finite),
)
def test_report_self_consistency_and_survival(gratio, n_cutoff, delta):
    omega = 2.0
    rep = LambShiftReport(gratio * omega, omega, n_cutoff, delta)
    x = 2.0 * gratio * gratio
    assert rep.delta > 0.0
    assert abs(rep.delta - rep.delta0_prime * math.exp(-x)) <= 1e-10 * rep.delta
    assert (
        abs(rep.delta - rep.delta0 * math.exp(-x * rep.sum_value)) <= 1e-10 * rep.delta
    )
    if gratio > 1e-6:  # underflow makes the shift exactly zero below this
        wider = LambShiftReport(gratio * omega, omega, n_cutoff * 1.5, delta)
        assert wider.total_shift > rep.total_shift


@st.composite
def report_inputs(draw):
    """(g1, omega1, n_cutoff, delta, n_modes) inside the config's domains; g1
    is drawn either over its whole domain or as up to 5 omega1, which reaches
    past the total shift that rounds to 1."""
    omega1 = draw(st.floats(min_value=1e-9, max_value=1e6))
    g1 = draw(st.one_of(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=5.0).map(lambda r: min(r * omega1, 1e6)),
    ))
    n_cutoff = draw(st.floats(min_value=N_CUTOFF_MIN, max_value=1e6))
    delta = draw(st.floats(min_value=1e-9, max_value=1e6))
    return g1, omega1, n_cutoff, delta, draw(st.integers(1, N_MODES_CEILING))


@settings(FAST, max_examples=50)
@given(report_inputs())
def test_report_is_the_closed_form_chain(inputs):
    g1, omega1, nc, delta, n_modes = inputs
    x = 2.0 * (g1 / omega1) ** 2
    s = cutoff_sum(nc)
    if not -math.expm1(-x * s) < 1.0:
        with pytest.raises(ConvergenceError, match="rounds to 1"):
            LambShiftReport(*inputs)
        return
    rep = LambShiftReport(*inputs)
    odd = [float(n) for n in range(1, 2 * n_modes, 2)]
    assert rep.as_dict() == {
        "delta0_ghz": delta * math.exp(x * s),
        "delta0_prime_ghz": delta * math.exp(x),
        "delta_ghz": delta,
        "sum_value": s,
        "n_cutoff": nc,
        "total_shift": -math.expm1(-x * s),
        "fundamental_shift": -math.expm1(-x),
        "per_mode_shift": [-math.expm1(-x * (n / (1.0 + (n / nc) * (n / nc))) / (n * n)) for n in odd],
    }
    # the invariants the record used to check, at the accuracy the shifts
    # carry: 1 - shift is off by up to an ulp of 1, scaled by the larger gap
    assert 0.0 < rep.delta <= rep.delta0_prime <= rep.delta0
    assert all(0.0 <= v < 1.0 for v in (rep.total_shift, rep.fundamental_shift, *rep.per_mode_shift))
    eps = np.finfo(float).eps
    for gap, shift in ((rep.delta0_prime, rep.fundamental_shift), (rep.delta0, rep.total_shift)):
        assert abs(gap * (1.0 - shift) - delta) <= 1e-10 * delta + eps * gap


@FAST
@given(
    st.floats(min_value=2.0, max_value=80.0, **finite),
    st.floats(min_value=0.5, max_value=4.0, **finite),
)
def test_coupling_curve_unimodal(cutoff, omega1):
    grid = np.linspace(0.01, 4.0 * cutoff, 2001)
    g = np.array([coupling_strength_at(w, 1.0, omega1, cutoff) for w in grid])
    peak = int(np.argmax(g))
    assert np.all(np.diff(g[: peak + 1]) > 0.0)
    assert np.all(np.diff(g[peak:]) < 0.0)
    assert abs(grid[peak] - cutoff) <= grid[1] - grid[0]
