import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dscqed import (
    ConfigError,
    ConvergenceError,
    FockTruncation,
    PeakData,
    QrmParams,
    SweepConfig,
    fit,
    read_peaks_csv,
    solve,
    sweep,
    synthetic_peaks_path,
)
from dscqed import fitting, rabi
from dscqed.cli import main
from dscqed.fitting import _Layout, _levenberg_marquardt

from conftest import (
    PAPER_TRIPLE,
    SIGMA_X,
    SIGMA_Z,
    allowed_lines,
    dense_parity_expectations,
    kron_hamiltonian,
    kron_parity,
    nearest_line,
    predicted,
    synthetic_peaks,
)

BOUNDS = ((0.01, 1.0), (1.0, 5.0), (0.5, 5.0))


# ---------------------------------------------------------------------------
# Model frequency
# ---------------------------------------------------------------------------


def _model_frequency(params, epsilon, label=None, measured=0.0):
    """Model frequency of one labeled row, or of the drive-allowed line
    nearest ``measured`` for an unlabeled one, at n_max 40 (the row is
    repeated to make up PeakData's three)."""
    rows = PeakData(np.full(3, epsilon), np.full(3, measured), (label,) * 3, np.ones(3))
    return float(predicted(params, rows, 40)[0])


def test_decoupled_01_branch_is_hyperbola():
    for eps in (0.0, 0.2, -0.7):
        got = _model_frequency((0.147, 2.57, 0.0), eps, label="01")
        assert got == pytest.approx(math.hypot(0.147, eps), abs=1e-10)


def test_labeled_transition_matches_eigensystem(paper_params):
    from dscqed import FockTruncation, solve
    from conftest import transition_frequency

    es = solve(paper_params, FockTruncation(40))
    got = _model_frequency(PAPER_TRIPLE, 0.0, label="03")
    assert got == pytest.approx(transition_frequency(es, 0, 3), abs=1e-12)


def test_nearest_line_prefers_closer_branch():
    f12 = _model_frequency(PAPER_TRIPLE, 0.3, label="12")
    f03 = _model_frequency(PAPER_TRIPLE, 0.3, label="03")
    assert f12 != f03
    got = _model_frequency(PAPER_TRIPLE, 0.3, measured=f12 + 1e-4)
    assert got == pytest.approx(f12, abs=1e-12)


def test_unknown_label_rejected():
    for label in ("bad", "30"):
        data = PeakData.from_rows([(-0.1, 2.5, label), (0.0, 2.6, "03"), (0.1, 2.7, "03")])
        with pytest.raises(ValueError, match="transition label"):
            fit(data, initial=(0.15, 2.6, 2.4), bounds=BOUNDS)


@pytest.mark.parametrize("label", ["003", "0003", "103"])
def test_label_not_written_as_ij_rejected(label):
    # one spelling per line: the label SpectralLine.label writes, f"{i}{j}"
    data = PeakData.from_rows([(-0.1, 2.5, "03"), (0.0, 2.6, label), (0.1, 2.7, "03")])
    canonical = f"{label[0]}{int(label[1:])}"
    message = f"^row 2: transition label '{label}' must be written '{canonical}'$"
    with pytest.raises(ValueError, match=message):
        fit(data, initial=(0.15, 2.6, 2.4), bounds=BOUNDS)


def test_label_above_k_levels_rejected():
    # the truncation search certifies only the lowest k_levels levels
    data = PeakData.from_rows([(-0.1, 2.5, "03"), (0.0, 2.6, "04"), (0.1, 2.7, "03")])
    with pytest.raises(ValueError, match=r"row 2: transition label '04' needs j < k_levels \(4\)"):
        fit(data, initial=(0.15, 2.6, 2.4), bounds=BOUNDS, k_levels=4)
    assert fit(data, initial=(0.15, 2.6, 2.4), bounds=BOUNDS, k_levels=5).iterations >= 1


# ---------------------------------------------------------------------------
# Fit round trips
# ---------------------------------------------------------------------------


def test_zero_noise_round_trip():
    data = synthetic_peaks(PAPER_TRIPLE)
    initial = (0.147 * 1.2, 2.57 * 0.8, 2.39 * 1.2)
    res = fit(data, initial=initial, bounds=BOUNDS)
    assert res.converged
    for got, true in zip(res.params, PAPER_TRIPLE):
        assert abs(got / true - 1.0) < 1e-3
    assert res.residual_rms < 1e-5


def test_noisy_round_trip_within_a_percent():
    data = synthetic_peaks(PAPER_TRIPLE, noise_sigma=0.002, seed=3, n_branch=33, quad_repeats=40)
    initial = (0.147 * 0.8, 2.57 * 1.2, 2.39 * 0.8)
    res = fit(data, initial=initial, bounds=BOUNDS)
    assert res.converged
    # the optimum's cost is noise: the descent ends on roundoff
    assert res.reason == "cost" and res.iterations <= 6
    for got, true, err in zip(res.params, PAPER_TRIPLE, res.stderr):
        assert abs(got / true - 1.0) < 0.01
        # the noise draw moves the optimum by about one standard error
        assert 0.0 < err and abs(got - true) < 4.0 * err
    assert 0.0015 < res.residual_rms < 0.0025


def test_deep_strong_round_trip_sizes_the_truncation():
    # at g1 / omega1 = 4 the lowest six levels at n_max 40 are off by about
    # 1e-3 GHz; the fit must size its Fock space to recover exact data
    triple = (0.5, 1.0, 4.0)
    rows = [(e, lab) for e in (-0.8, -0.4, 0.4, 0.8) for lab in ("01", "02", "03", "12", "13")]
    rows += [(0.0, "02"), (0.0, "13")]
    eps = np.array([r[0] for r in rows])
    labels = tuple(r[1] for r in rows)
    shell = PeakData(eps, np.zeros(len(rows)), labels, np.ones(len(rows)))
    freq = predicted(triple, shell, 128)
    data = PeakData(eps, freq, labels, shell.weight)
    res = fit(data, initial=(0.45, 1.1, 3.8), bounds=((0.01, 1.0), (0.5, 2.0), (0.5, 5.0)))
    assert res.converged
    for got, true in zip(res.params, triple):
        assert abs(got / true - 1.0) < 1e-6
    assert res.residual_rms < 1e-8


def test_row_reorder_leaves_optimum(paper_params):
    data = synthetic_peaks(PAPER_TRIPLE)
    rng = np.random.default_rng(5)
    perm = rng.permutation(len(data))
    shuffled = PeakData(
        epsilon=data.epsilon[perm],
        frequency=data.frequency[perm],
        label=tuple(data.label[k] for k in perm),
        weight=data.weight[perm],
    )
    res_a = fit(data, initial=(0.16, 2.4, 2.6), bounds=BOUNDS)
    res_b = fit(shuffled, initial=(0.16, 2.4, 2.6), bounds=BOUNDS)
    # agreement is limited by the stopping wiggle along the soft
    # (delta_prime, g1) valley, far below the 20% initial displacement
    assert np.allclose(res_a.params, res_b.params, atol=3e-4)


def test_uniform_weight_scaling_leaves_optimum():
    data = synthetic_peaks(PAPER_TRIPLE)
    scaled = PeakData(
        epsilon=data.epsilon,
        frequency=data.frequency,
        label=data.label,
        weight=data.weight * 1000.0,
    )
    res_a = fit(data, initial=(0.16, 2.4, 2.6), bounds=BOUNDS)
    res_b = fit(scaled, initial=(0.16, 2.4, 2.6), bounds=BOUNDS)
    # argmin invariance: scaling shifts the absolute objective-improvement
    # stop, so agreement is bounded by the valley geometry, not 1e-6
    assert np.allclose(res_a.params, res_b.params, atol=3e-4)


@pytest.mark.parametrize("weight", [5e-324, 1e308])
def test_extreme_uniform_weight_gives_the_unit_weight_fit(weight):
    # the fit divides the weights by their largest, so a uniform weight at
    # either end of the doubles neither underflows nor overflows the cost
    data = read_peaks_csv(synthetic_peaks_path())
    scaled = PeakData(data.epsilon, data.frequency, data.label, np.full(len(data), weight))
    unit = fit(data, initial=(0.15, 2.6, 2.4), bounds=BOUNDS)
    res = fit(scaled, initial=(0.15, 2.6, 2.4), bounds=BOUNDS)
    assert res.params == unit.params and res.iterations == unit.iterations > 1
    assert (res.residual_rms, res.stderr, res.reason) == (unit.residual_rms, unit.stderr, unit.reason)
    assert np.array_equal(res.per_point_residuals, unit.per_point_residuals)


def test_weights_spread_past_the_doubles_keep_every_residual():
    # 5e-324 / 1e308 rounds to zero; the row keeps the smallest normal
    # weight, so its residual is still reported
    data = synthetic_peaks(PAPER_TRIPLE)
    weight = np.full(len(data), 1e308)
    weight[0] = 5e-324
    res = fit(
        PeakData(data.epsilon, data.frequency, data.label, weight),
        initial=(0.16, 2.4, 2.6),
        bounds=BOUNDS,
    )
    assert res.converged and np.allclose(res.params, PAPER_TRIPLE, rtol=1e-3)
    assert abs(res.per_point_residuals).max() < 1e-5


def test_non_finite_cost_is_a_numerical_failure():
    # residuals near 1e200 GHz square past the largest double: refused
    # before the least-squares step, not handed to LAPACK
    data = PeakData(np.array([-0.5, 0.0, 0.5]), np.full(3, 1e200), ("03",) * 3, np.ones(3))
    with pytest.raises(ConvergenceError, match="^the weighted cost or its Jacobian is not finite$"):
        fit(data, initial=(0.15, 2.6, 2.4), bounds=BOUNDS)


def test_degenerate_bias_rejected():
    rows = [(0.1, 2.5, "03", 1.0), (0.1, 2.6, "12", 1.0), (0.1, 2.7, "02", 1.0)]
    data = PeakData.from_rows(rows)
    with pytest.raises(ValueError):
        fit(data, initial=(0.15, 2.6, 2.4), bounds=BOUNDS)


@pytest.mark.parametrize("biases", [(0.3, 0.3, 0.3), (0.3, -0.3, 0.3)])
def test_equal_bias_magnitudes_rejected(biases):
    # the spectrum is even in the bias: rows at +-0.3 hold one bias, not two
    data = PeakData.from_rows([(eps, 2.3, "03") for eps in biases])
    with pytest.raises(ValueError, match="degenerate data") as refused:
        fit(data, initial=(0.15, 2.6, 2.4), bounds=BOUNDS)
    # rows built in memory have no file to name (the CLI test names one)
    assert type(refused.value) is ValueError
    assert str(refused.value) == "degenerate data: all bias values are equal in magnitude"


def test_initial_outside_bounds_rejected():
    data = synthetic_peaks(PAPER_TRIPLE)
    with pytest.raises(ValueError):
        fit(data, initial=(0.15, 6.0, 2.4), bounds=BOUNDS)


@pytest.mark.parametrize("n", [2, 4])
def test_fit_refuses_other_than_three_parameters(n):
    data = PeakData.from_rows([(eps, 2.3, "03") for eps in (0.0, 0.2, 0.4)])
    with pytest.raises(ValueError, match=r"^expected 3 parameters \(delta_prime, omega1, g1\)$"):
        fit(data, initial=(0.15, 2.6, 2.4, 1.0)[:n], bounds=(*BOUNDS, (0.0, 2.0))[:n])


def test_rank_deficient_jacobian_gives_infinite_stderr():
    # a parameter no row depends on (a zero column) leaves J^T J singular:
    # no finite error bar is reported for any parameter
    jac = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    assert fitting._standard_errors(jac, chi2=1.0, dof=1) == (math.inf,) * 3


def test_bounds_outside_model_domain_rejected():
    data = synthetic_peaks(PAPER_TRIPLE)
    with pytest.raises(ValueError, match="model domain"):
        fit(data, initial=(0.15, 2.6, 2.4), bounds=((0.01, 1.0), (-1.0, 5.0), (0.5, 5.0)))


def test_budget_exhaustion_returns_best_so_far(monkeypatch):
    monkeypatch.setattr(fitting, "_MAX_ITER", 3)
    data = synthetic_peaks(PAPER_TRIPLE)
    res = fit(data, initial=(0.16, 2.4, 2.6), bounds=BOUNDS)
    assert not res.converged
    assert res.reason == "max_iter"
    assert np.isfinite(res.residual_rms)
    for v, (lo, hi) in zip(res.params, BOUNDS):
        assert lo <= v <= hi


def test_start_on_a_bound_moves_the_other_parameters():
    # g1 starts on its upper bound and the data pull it further out: it must
    # stay there while delta_prime and omega1 still descend
    data = synthetic_peaks(PAPER_TRIPLE)
    bounds = ((0.01, 1.0), (1.0, 5.0), (0.5, 2.0))
    initial = (0.16, 2.4, 2.0)
    res = fit(data, initial=initial, bounds=bounds)
    start = predicted(initial, data, 40) - data.frequency
    assert res.converged
    assert res.g1 == 2.0
    assert res.residual_rms < 0.5 * float(np.sqrt(np.mean(start**2)))
    assert res.delta_prime != initial[0] and res.omega1 != initial[1]


def test_zero_noise_round_trip_at_wide_bias():
    # eps = 10 needs n_max 32 where eps = 0 needs 16: the truncation is sized
    # at the largest |bias| too.  The data come from n_max 128.
    eps = np.repeat(np.linspace(-10.0, 10.0, 21), 4)
    labels = ("03", "12", "02", "13") * 21
    shell = PeakData(eps, np.zeros(len(eps)), labels, np.ones(len(eps)))
    data = PeakData(eps, predicted(PAPER_TRIPLE, shell, 128), labels, np.ones(len(eps)))
    res = fit(data, initial=(0.147 * 1.2, 2.57 * 0.8, 2.39 * 1.2), bounds=BOUNDS)
    assert res.converged
    for got, true in zip(res.params, PAPER_TRIPLE):
        assert abs(got / true - 1.0) < 1e-9
    assert res.residual_rms < 1e-10


def test_levenberg_marquardt_is_monotone():
    # Rosenbrock as least squares: r = (1 - x, 10 (y - x^2))
    def residuals(x):
        r = np.array([1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)])
        return r, np.array([[-1.0, 0.0], [-20.0 * x[0], 10.0]])

    lo, hi = np.full(2, -5.0), np.full(2, 5.0)
    x, r, _, _, reason, trace = _levenberg_marquardt(
        residuals, [-1.2, 1.0], lo, hi, 600
    )
    assert reason in ("cost", "step")
    assert r @ r < 1e-9
    assert np.allclose(x, 1.0, atol=1e-6)
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_roundoff_trial_ends_the_descent_at_the_better_point():
    # the cost floor is 1; the step to the minimum of the first residual
    # gains 1e-14 but the second residual rounds 1e-12 up off the start
    # point.  That trial is refused, and actual and predicted changes are
    # both below 1e-10 of the cost: nothing is left but roundoff.
    evaluated = []

    def residuals(x):
        r = np.array([1e-7 * (x[0] - 1.0), 1.0 + (1e-12 if x[0] != 0.0 else 0.0)])
        evaluated.append(float(r @ r))
        return r, np.array([[1e-7], [0.0]])

    x, r, _, it, reason, trace = _levenberg_marquardt(
        residuals, [0.0], np.array([-5.0]), np.array([5.0]), 50
    )
    assert (reason, it) == ("cost", 1)
    assert x.tolist() == [0.0] and r @ r == min(evaluated) == trace[-1]
    assert len(evaluated) == 2 and evaluated[1] > evaluated[0]


def test_descent_returns_the_best_evaluated_point():
    # a noisy exponential decay: nonzero residual at the optimum, so the
    # descent ends on roundoff ("cost"), at the lowest cost it evaluated
    t = np.linspace(0.0, 4.0, 40)
    y = 2.0 * np.exp(-1.3 * t) + 0.01 * np.random.default_rng(7).standard_normal(len(t))
    evaluated = []

    def residuals(x):
        e = np.exp(-x[1] * t)
        r = x[0] * e - y
        evaluated.append((float(r @ r), tuple(x)))
        return r, np.stack([e, -x[0] * t * e], axis=1)

    x, r, _, it, reason, trace = _levenberg_marquardt(
        residuals, [1.0, 0.5], np.array([0.0, 0.0]), np.array([10.0, 10.0]), 100
    )
    assert reason == "cost" and it < 20
    best = min(evaluated)
    assert r @ r == best[0] == trace[-1] and tuple(x) == best[1]
    assert all(b < a for a, b in zip(trace, trace[1:]))


_finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.floats(min_value=0.01, max_value=1.0, **_finite),
    st.floats(min_value=1.0, max_value=5.0, **_finite),
    st.floats(min_value=0.5, max_value=5.0, **_finite),
    st.one_of(st.just(0.0), st.floats(min_value=-1.0, max_value=1.0, **_finite)),
)
@example(delta=1.0, omega=1.0, g=5.0, eps=0.0)  # levels 0/1 and 2/3 degenerate
def test_hellmann_feynman_jacobian_matches_central_differences(delta, omega, g, eps):
    # inside the bundled fit bounds, deep-strong corner included.  Unlabeled
    # rows sit 0.1 MHz from a line so the nearest-line choice is stable.  A
    # row is compared where its central differences at two steps agree: where
    # two levels cross exactly (opposite parity at eps = 0, or a resonance
    # such as eps = omega1) the sorted level has a kink and no derivative.
    params = (delta, omega, g)
    labels = ("01", "02", "03", "12", "13")
    labeled = PeakData(np.full(5, eps), np.zeros(5), labels, np.ones(5))
    near = predicted(params, labeled, 64)[1:4] + 1e-4
    unlabeled = PeakData(np.full(3, eps), near, (None,) * 3, np.ones(3))

    def central(data, k, h):
        up, down = list(params), list(params)
        up[k] += h
        down[k] -= h
        ends = [predicted(tuple(x), data, 64) for x in (up, down)]
        return (ends[0] - ends[1]) / (2 * h)

    for data in (labeled, unlabeled):
        _, jac = predicted(params, data, 64, jacobian=True)
        for k in range(3):
            fd, fd_fine = central(data, k, 1e-5), central(data, k, 1e-6)
            smooth = np.abs(fd - fd_fine) <= 1e-6 * (1.0 + np.abs(fd))
            err = np.abs(jac[:, k] - fd)[smooth]
            assert np.all(err <= 1e-6 * (1.0 + np.abs(fd[smooth]))), (k, jac[:, k], fd)


# ---------------------------------------------------------------------------
# Stacked evaluation against per-bias dense oracles
# ---------------------------------------------------------------------------


def _dense_levels(params, eps, n_max):
    """Oracle levels at one bias from the Kronecker-sum H, and their
    gradients <k| dH/dtheta |k> from the dense dH/dtheta operators."""
    t = FockTruncation(n_max)
    values, vectors = np.linalg.eigh(kron_hamiltonian(QrmParams(params[0], eps, *params[1:]), t))
    n = t.n_states
    a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    d_h = (
        np.kron(np.eye(n), -0.5 * SIGMA_X),
        np.kron(np.diag(np.arange(n, dtype=float)), np.eye(2)),
        np.kron(a + a.T, SIGMA_Z),
    )
    grads = np.stack([np.sum(vectors * (d @ vectors), axis=0) for d in d_h], axis=1)
    return values, grads


def _labeled(biases, labels):
    eps = np.repeat(np.asarray(biases, dtype=float), len(labels))
    rows = labels * len(biases)
    return PeakData(eps, np.zeros(len(eps)), rows, np.ones(len(eps)))


def test_stacked_kernel_matches_dense_eigh_at_both_signs():
    # every bias appears at +eps and -eps; the stack evaluates |eps| once
    labels = ("01", "02", "03", "12", "13", "05")
    biases = (-0.9, -0.4, -0.05, 0.0, 0.05, 0.4, 0.9, 2.5)
    data = _labeled(biases, labels)
    layout = _Layout(data, 6)
    assert layout.biases.tolist() == [0.0, 0.05, 0.4, 0.9, 2.5] and np.all(layout.j >= 0)
    params = (0.3, 2.2, 1.9)
    freqs, jac = predicted(params, data, 40, jacobian=True)
    for k, eps in enumerate(data.epsilon):
        values, grads = _dense_levels(params, eps, 40)
        i, j = int(data.label[k][0]), int(data.label[k][1])
        assert abs(freqs[k] - (values[j] - values[i])) <= 1e-12
        np.testing.assert_allclose(jac[k], grads[j] - grads[i], rtol=1e-9, atol=1e-9)


def test_mixed_labeled_and_unlabeled_biases_match_dense_oracle(monkeypatch):
    # labeled and unlabeled rows share one eigh over the distinct |bias|
    # (0, 0.3, 0.6), and nothing goes through solve.  Unlabeled rows sit
    # 0.1 MHz from the allowed line they name.
    params = PAPER_TRIPLE
    rows = []
    for eps, label in [(-0.6, "03"), (-0.6, "12"), (0.6, "02"), (0.3, "13"), (0.0, "03")]:
        rows.append((eps, label, label))
    for eps, line in [(-0.3, "03"), (0.3, "12"), (0.0, "12"), (0.6, "13")]:
        rows.append((eps, None, line))
    measured = []
    for eps, _, line in rows:
        values = _dense_levels(params, eps, 40)[0]
        measured.append(values[int(line[1])] - values[int(line[0])] + 1e-4)
    data = PeakData(
        np.array([r[0] for r in rows]), np.array(measured), tuple(r[1] for r in rows), np.ones(len(rows))
    )
    layout = _Layout(data, 6)
    assert layout.biases.tolist() == [0.0, 0.3, 0.6]
    assert layout.at.tolist() == [2, 2, 2, 1, 0, 1, 1, 0, 2]
    assert layout.unlabeled.tolist() == np.nonzero(layout.j < 0)[0].tolist() == [5, 6, 7, 8]
    solves = []
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: solves.append(h.shape) or original(h))
    monkeypatch.setattr(rabi, "solve", lambda *_: pytest.fail("solve ran"))
    assert not hasattr(fitting, "solve")
    freqs, jac = predicted(params, data, 40, jacobian=True)
    assert solves == [(3, 82, 82)]
    for k, (eps, _, line) in enumerate(rows):
        values, grads = _dense_levels(params, eps, 40)
        i, j = int(line[0]), int(line[1])
        assert abs(freqs[k] - (values[j] - values[i])) <= 1e-12
        np.testing.assert_allclose(jac[k], grads[j] - grads[i], rtol=1e-9, atol=1e-9)


def test_zero_bias_kernel_vectors_keep_their_parity():
    # at g1 / omega1 = 5 the doublets are degenerate to roundoff: an eigh of
    # H(0) mixes their parities, the parity chains do not
    params, n_max = (1.0, 1.0, 5.0), 64
    delta, omega, g = params
    vectors = rabi._eigenpairs(delta, np.array([0.0]), omega, g, FockTruncation(n_max), 6).vectors
    parity = kron_parity(n_max + 1)
    es = solve(QrmParams(params[0], 0.0, params[1], params[2]), FockTruncation(n_max))
    expect = dense_parity_expectations(es)
    for k in range(6):
        v = vectors[0, :, k]
        label = 1 if v @ parity @ v > 0.0 else -1
        assert np.max(np.abs(parity @ v - label * v)) <= 1e-8
        assert abs(abs(expect[k]) - 1.0) <= 1e-8
        assert label == np.sign(expect[k])


def test_unlabeled_rows_share_their_bias_drive_amplitudes(monkeypatch):
    # each distinct |bias| takes the amplitudes of its 9 candidate lines
    # (i in {0, 1}, i < j < 6) in one band product per evaluation, not one
    # per unlabeled row nor one per sign of the bias
    labeled = synthetic_peaks(PAPER_TRIPLE, n_branch=9)
    data = PeakData(labeled.epsilon, labeled.frequency, (None,) * len(labeled), labeled.weight)
    biases = len(np.unique(np.abs(data.epsilon)))
    assert len(data) == 34 and biases < len(np.unique(data.epsilon)) == 9
    calls = []
    original = fitting._drive
    monkeypatch.setattr(fitting, "_drive", lambda u, v: calls.append(len(u)) or original(u, v))
    freqs, _ = predicted(PAPER_TRIPLE, data, 40, jacobian=True)
    assert calls == [9] * biases
    np.testing.assert_allclose(freqs, labeled.frequency, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("params", [(0.15, 2.6, 2.4), (0.05, 1.5, 1.0), (0.5, 3.0, 3.0)])
def test_unlabeled_match_agrees_with_per_row_oracle(params):
    # the bundled peaks with every label blanked, at the bundled start and
    # two other points inside fit.bounds: each row takes the (i, j) and the
    # frequency the per-row oracle picks, and with them that line's gradient
    bundled = read_peaks_csv(synthetic_peaks_path())
    data = PeakData(bundled.epsilon, bundled.frequency, (None,) * len(bundled), bundled.weight)
    biases, at = np.unique(np.abs(data.epsilon), return_inverse=True)
    es = rabi._eigenpairs(params[0], biases, params[1], params[2], FockTruncation(40), 6)
    lines = [allowed_lines(es.values[b], es.vectors[b], 6, 1e-6) for b in range(len(biases))]
    want = [nearest_line(lines[b], m) for b, m in zip(at, data.frequency)]
    assert len({line[1:] for line in want}) >= 3
    freqs, jac = predicted(params, data, 40, jacobian=True)
    np.testing.assert_array_equal(freqs, [f for f, _, _ in want])
    relabeled = PeakData(
        data.epsilon, data.frequency, tuple(f"{i}{j}" for _, i, j in want), data.weight
    )
    np.testing.assert_array_equal(jac, predicted(params, relabeled, 40, jacobian=True)[1])


def test_fitting_reads_the_basis_only_through_rabi():
    gone = ("_photons_and_spin", "EigenSystem", "drive_matrix_element", "_allowed_lines", "_nearest")
    for name in gone:
        assert not hasattr(fitting, name), name


def test_no_line_above_the_floor_names_the_first_unlabeled_row():
    data = PeakData.from_rows([(-0.1, 2.5, "03"), (0.0, 2.6), (0.1, 2.7), (0.2, 2.8)])
    message = r"^row 2: no drive-allowed transition within k_levels \(6\) above the amplitude floor 10.0$"
    with pytest.raises(ValueError, match=message):
        fit(data, initial=(0.15, 2.6, 2.4), bounds=BOUNDS, amplitude_floor=10.0)


def test_a_mixed_floor_refusal_names_the_first_failing_row():
    # the bundled peaks unlabeled at floor 0.9: rows 1-54 each find a line
    # above the floor at their |bias|, and row 55 (eps -0.05625) is the
    # first row, in row order, whose |bias| has none
    bundled = read_peaks_csv(synthetic_peaks_path())
    data = PeakData(bundled.epsilon, bundled.frequency, (None,) * len(bundled), bundled.weight)
    assert data.epsilon[54] == -0.05625
    message = r"^row 55: no drive-allowed transition within k_levels \(6\) above the amplitude floor 0.9$"
    with pytest.raises(ValueError, match=message):
        fit(data, initial=(0.15, 2.6, 2.4), bounds=BOUNDS, amplitude_floor=0.9)


@pytest.mark.parametrize("unlabeled", [False, True])
def test_near_degenerate_rows_take_central_differences(monkeypatch, unlabeled):
    # at g1 / omega1 = 5 and zero bias the levels pair up within 1e-20 GHz:
    # rows on them are differenced, labeled or not, on the line the row has
    # at the centre point, from values-only eigensolves: one eigh in all
    params, n_max = (1.0, 1.0, 5.0), 64
    values = _dense_levels(params, 0.0, n_max)[0]
    assert values[1] - values[0] < 1e-6
    calls, solves = [], []
    original = fitting._central_differences
    monkeypatch.setattr(
        fitting, "_central_differences", lambda f, x: calls.append(1) or original(f, x)
    )
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: solves.append(h.shape) or eigh(h))
    # the unlabeled row sits 0.1 MHz from the allowed line 03
    labels = ("03", "12", None if unlabeled else "03")
    measured = np.full(3, values[3] - values[0] + 1e-4)
    data = PeakData(np.array([0.3, 0.0, 0.0]), measured, labels, np.ones(3))
    pred, jac = predicted(params, data, n_max, jacobian=True)
    assert calls == [1] and solves == [(2, 130, 130)]
    if unlabeled:  # the gradient of the line it picked, to the bit
        labeled = PeakData(data.epsilon, measured, ("03", "12", "03"), np.ones(3))
        pred_03, jac_03 = predicted(params, labeled, n_max, jacobian=True)
        assert pred[2] == pred_03[2] and jac[2].tobytes() == jac_03[2].tobytes()

    def dense(x, k):
        v = _dense_levels(x, 0.0, n_max)[0]
        i, j = (1, 2) if k == 1 else (0, 3)
        return v[j] - v[i]

    for k in (1, 2):
        for p in range(3):
            h = 1e-5
            up, down = list(params), list(params)
            up[p] += h
            down[p] -= h
            fd = (dense(up, k) - dense(down, k)) / (2 * h)
            assert abs(jac[k, p] - fd) <= 1e-6 * (1.0 + abs(fd)), (k, p, jac[k, p], fd)


def test_fit_and_sweep_share_the_zero_bias_rule():
    # the middle of linspace(-0.785, 0.785, 201) is 1.1e-16, within 4 ulps
    # of 0.785: the sweep solves it at zero, where the 02 line of the deep
    # device's degenerate doublets is forbidden, and so does the fit, whose
    # unlabeled row measured at E2 - E0 there takes the line it takes at zero
    params, n_max = (0.15, 1.5, 5.0), 64
    mid = np.linspace(-0.785, 0.785, 201)[100]
    assert 0.0 < mid <= 4 * np.spacing(0.785)
    cfg = SweepConfig(epsilon_grid=(-0.785, mid, 0.785), freq_window=(0.0, 10.0))
    at_mid = {line.label: line for line in sweep(*params, cfg) if line.epsilon == mid}
    assert at_mid["02"].amplitude == 0.0 < at_mid["12"].amplitude
    values = _dense_levels(params, 0.0, n_max)[0]
    evaluated = []
    for eps in (mid, 0.0):
        data = PeakData(
            np.array([0.785, -0.785, eps]), np.array([3.0, 3.0, values[2] - values[0]]),
            ("03", "12", None), np.ones(3),
        )
        evaluated.append(predicted(params, data, n_max, jacobian=True))
    (f_mid, jac_mid), (f_zero, jac_zero) = evaluated
    assert f_mid[2] == f_zero[2] and jac_mid[2].tobytes() == jac_zero[2].tobytes()
    assert abs(f_zero[2] - (values[2] - values[1])) <= 1e-12
    # the equal-|bias| refusal sees the same biases: all three are zero
    tiny = PeakData(np.array([0.0, 5e-324, 1e-323]), np.full(3, 3.0), (None,) * 3, np.ones(3))
    with pytest.raises(ValueError, match="^degenerate data"):
        fit(tiny, initial=(0.15, 2.6, 2.4), bounds=BOUNDS)


def test_one_bias_per_chunk_gives_identical_results(monkeypatch):
    # the byte budget only chunks the stack: a budget below one matrix
    # diagonalizes bias by bias and changes no bit
    data = synthetic_peaks(PAPER_TRIPLE, noise_sigma=0.002, seed=3, n_branch=9)
    layout = _Layout(data, 6)
    solves = []
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: solves.append(h.shape) or original(h))

    def run():
        solves.clear()
        pred, jac = fitting._predicted(PAPER_TRIPLE, layout, FockTruncation(40), 1e-6)
        res = fit(data, initial=(0.16, 2.4, 2.6), bounds=BOUNDS)
        return pred, jac, res, list(solves)

    stacked = run()
    monkeypatch.setattr(rabi, "_STACK_BYTES", 1)
    chunked = run()
    assert stacked[2].iterations == chunked[2].iterations
    for a, b in [
        (stacked[0], chunked[0]),
        (stacked[1], chunked[1]),
        (stacked[2].per_point_residuals, chunked[2].per_point_residuals),
        (np.array(stacked[2].params), np.array(chunked[2].params)),
    ]:
        assert a.tobytes() == b.tobytes()
    # one eigh per evaluation over the distinct |bias|, or one per bias
    biases = len(np.unique(np.abs(data.epsilon)))
    assert len(layout.biases) == biases < len(np.unique(data.epsilon))
    assert stacked[3][0] == (biases, 82, 82) and chunked[3][:biases] == [(1, 82, 82)] * biases
    assert len(chunked[3]) == biases * len(stacked[3])


def _deep_labeled_peaks():
    """The deep device's (0.15, 1.5, 5 GHz) labeled lines over 41 biases in
    [-1, 1], 0.5 to 8 GHz, with amplitude above 1e-3: 82 rows, none above
    level 3, so the fit asks the kernel for 5 levels and dim 130 is wide
    enough for the reduced basis."""
    cfg = SweepConfig(epsilon_grid=tuple(np.linspace(-1.0, 1.0, 41)), freq_window=(0.5, 8.0))
    lines = [line for line in sweep(0.15, 1.5, 5.0, cfg) if line.amplitude > 1e-3]
    return PeakData.from_rows([(line.epsilon, line.frequency, line.label) for line in lines])


def test_deep_fit_evaluation_agrees_with_the_dense_path(monkeypatch):
    # one evaluation off the optimum at n_max 64 builds one reduced basis;
    # against the same evaluation with the size gate off, its frequencies
    # agree within the fit's 1e-8 GHz, and its Jacobian rows within 1e-9
    # GHz per GHz, the residual certificate's relative bound (they read
    # 3e-13 apart)
    data = _deep_labeled_peaks()
    layout, t = _Layout(data, 6), FockTruncation(64)
    assert len(data) == 82 and layout.j.max() == 3
    bases = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: bases.append(1) or svd(*a, **k))
    reduced = fitting._predicted((0.16, 1.55, 4.9), layout, t, 1e-6)
    assert bases == [1]
    monkeypatch.setattr(rabi, "_SNAPSHOTS", 10**6)
    dense = fitting._predicted((0.16, 1.55, 4.9), layout, t, 1e-6)
    assert bases == [1]
    assert np.max(np.abs(reduced[0] - dense[0])) <= 1e-8
    assert np.max(np.abs(reduced[1] - dense[1])) <= 1e-9


def test_bundled_fit_never_builds_a_reduced_basis(monkeypatch):
    # dim 82 is too narrow for the 5 levels the bundled rows ask for, so
    # every evaluation is one dense stack
    bundled = read_peaks_csv(synthetic_peaks_path())
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("reduced basis built"))
    assert fit(bundled, initial=(0.15, 2.6, 2.4), bounds=BOUNDS).converged


def test_a_top_level_degenerate_with_the_level_above_is_differenced(monkeypatch):
    # at delta' = 0 the sigma_z sectors decouple; at eps = omega1 = 1.5 and
    # g1 = 0.5, level 1 meets level 2 (6e-15 GHz apart) while level 0 lies
    # 1.5 GHz below, so the rows labeled 01 there have no well-defined
    # Hellmann-Feynman gradient: the fit asks the kernel for level 2 as
    # well and differences exactly those rows, not the rows at |eps| = 0.5
    params, t = (0.0, 1.5, 0.5), FockTruncation(16)
    levels = rabi._eigenpairs(0.0, np.array([0.5, 1.5]), 1.5, 0.5, t, 3).values
    assert np.diff(levels[1]).tolist() == pytest.approx([1.5, 0.0], abs=1e-13)
    eps = np.array([-1.5, -0.5, 0.5, 1.5, 1.5])
    data = PeakData(eps, np.full(5, 1.0), ("01",) * 5, np.ones(5))
    differenced = []
    original = fitting._central_differences
    monkeypatch.setattr(
        fitting, "_central_differences", lambda *a: differenced.append(original(*a)) or differenced[-1]
    )
    freqs, jac = fitting._predicted(params, _Layout(data, 6), t, 1e-6)
    at = [1, 0, 0, 1, 1]  # each row's |bias|: 1.5, 0.5, 0.5, 1.5, 1.5
    np.testing.assert_allclose(freqs, levels[at, 1] - levels[at, 0])
    (rows,) = differenced
    np.testing.assert_array_equal(jac[[0, 3, 4]], rows)


def test_fit_eigenpairs_are_validated(monkeypatch, capsys):
    # a stacked eigh whose column 1 is off by 1e-6 fails eigensystem's
    # orthonormality and residual checks, in the library and the CLI
    original = np.linalg.eigh

    def skewed(h):
        values, vectors = original(h)
        vectors[..., 1] += 1e-6
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    path = synthetic_peaks_path()
    with pytest.raises(ConvergenceError):
        fit(read_peaks_csv(path), initial=(0.15, 2.6, 2.4), bounds=BOUNDS)
    assert main(["fit", "--data", str(path)]) == 2
    assert "numerical failure:" in capsys.readouterr().err


def test_failed_least_squares_step_exits_2(monkeypatch, capsys):
    # a damped step whose SVD does not converge is a numerical failure, in
    # the library and the CLI
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(np.linalg, "lstsq", broken)
    path = synthetic_peaks_path()
    with pytest.raises(ConvergenceError, match="least-squares step failed"):
        fit(read_peaks_csv(path), initial=(0.15, 2.6, 2.4), bounds=BOUNDS)
    assert main(["fit", "--data", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numerical failure: least-squares step failed: "
        "SVD did not converge in Linear Least Squares\n"
    )


# ---------------------------------------------------------------------------
# Peak CSV ingestion
# ---------------------------------------------------------------------------


def test_read_peaks_round_trip(tmp_path):
    path = tmp_path / "peaks.csv"
    path.write_text(
        "epsilon_ghz,frequency_ghz,label,weight\n"
        "0.0,2.61,03,1.0\n"
        "0.1,2.63,,2.0\n"
        "-0.1,2.63,12,\n"
    )
    data = read_peaks_csv(path)
    assert len(data) == 3
    assert data.label == ("03", None, "12")
    assert data.weight[1] == 2.0 and data.weight[2] == 1.0


def test_read_peaks_bad_header(tmp_path):
    path = tmp_path / "peaks.csv"
    path.write_text("bias,freq\n0,1\n")
    with pytest.raises(ConfigError):
        read_peaks_csv(path)


def test_read_peaks_bad_number_carries_line(tmp_path):
    path = tmp_path / "peaks.csv"
    path.write_text("epsilon_ghz,frequency_ghz\n0.0,2.61\n0.1,oops\n0.2,2.3\n")
    with pytest.raises(ConfigError, match=r":3:"):
        read_peaks_csv(path)


def test_read_peaks_label_above_k_levels_carries_line(tmp_path):
    # fit applies the rule and names the file line the row was read from
    path = tmp_path / "peaks.csv"
    path.write_text("epsilon_ghz,frequency_ghz,label\n0.0,2.61,03\n0.1,2.7,04\n0.2,2.3,12\n")
    data = read_peaks_csv(path)
    assert data.label == ("03", "04", "12")
    with pytest.raises(ConfigError, match=r":3: transition label '04' needs j < k_levels \(4\)$"):
        fit(data, initial=(0.15, 2.6, 2.4), bounds=BOUNDS, k_levels=4)


@pytest.mark.parametrize("weight", [math.inf, math.nan, 0.0, -1.0])
def test_peak_data_refuses_bad_weights(weight):
    rows = [(-0.1, 2.5, "03", 1.0), (0.0, 2.6, "03", weight), (0.1, 2.7, "03", 1.0)]
    with pytest.raises(ValueError, match=rf"^row 2: weight must be finite and > 0, got {weight}$"):
        PeakData.from_rows(rows)


def test_read_peaks_repeated_column(tmp_path):
    path = tmp_path / "peaks.csv"
    path.write_text("epsilon_ghz,frequency_ghz,label,label\n0,1,03,03\n0.1,1,03,03\n0.2,1,03,03\n")
    with pytest.raises(ConfigError, match=r":1: duplicate column 'label'$"):
        read_peaks_csv(path)


def test_read_peaks_label_not_written_as_ij_carries_line(tmp_path):
    path = tmp_path / "peaks.csv"
    path.write_text("epsilon_ghz,frequency_ghz,label\n0.0,2.61,03\n0.1,2.7,003\n0.2,2.3,12\n")
    with pytest.raises(ConfigError, match=r":3: transition label '003' must be written '03'$"):
        fit(read_peaks_csv(path), initial=(0.15, 2.6, 2.4), bounds=BOUNDS)


def test_library_fit_names_the_file_line_of_a_refused_row(tmp_path):
    # rows read from a file are named by their file line in the library as
    # under the CLI: behind a blank line, data row 2 is line 4
    path = tmp_path / "peaks.csv"
    path.write_text("epsilon_ghz,frequency_ghz,label\n0.0,2.61,03\n\n0.1,2.7,04\n0.2,2.3,12\n")
    message = rf"^{re.escape(str(path))}:4: transition label '04' needs j < k_levels \(4\)$"
    with pytest.raises(ConfigError, match=message):
        fit(read_peaks_csv(path), initial=(0.15, 2.6, 2.4), bounds=BOUNDS, k_levels=4)
    path.write_text("epsilon_ghz,frequency_ghz\n\n0.0,2.61\n0.1,2.7\n0.2,2.3\n")
    message = (
        rf"^{re.escape(str(path))}:3: no drive-allowed transition within k_levels \(6\) "
        r"above the amplitude floor 10.0$"
    )
    with pytest.raises(ConfigError, match=message):
        fit(read_peaks_csv(path), initial=(0.15, 2.6, 2.4), bounds=BOUNDS, amplitude_floor=10.0)


@pytest.mark.parametrize("row, reason", [
    ((math.nan, 2.7, 1.0), "bias and frequency values must be finite"),
    ((0.1, -math.inf, 1.0), "bias and frequency values must be finite"),
    ((0.1, 2.7, 0.0), "weight must be finite and > 0, got 0.0"),
])
def test_peak_data_names_a_refused_row_by_its_source(row, reason, tmp_path):
    # one check per rule, in PeakData: "path:line" for a row read from a
    # file, "row N" for rows built in memory
    path = tmp_path / "peaks.csv"
    cells = ",".join(map(str, row))
    path.write_text(f"epsilon_ghz,frequency_ghz,weight\n0.0,2.61,1\n\n{cells}\n0.2,2.3,1\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:4: {re.escape(reason)}$"):
        read_peaks_csv(path)
    rows = [(0.0, 2.61, None, 1.0), (*row[:2], None, row[2]), (0.2, 2.3, None, 1.0)]
    with pytest.raises(ValueError, match=rf"^row 2: {re.escape(reason)}$") as refused:
        PeakData.from_rows(rows)
    assert not isinstance(refused.value, ConfigError)


def test_bundled_peaks_are_what_the_script_writes(tmp_path, monkeypatch, capsys):
    # the bundled data set is reproducible from its generator, byte for byte
    script = Path(__file__).parents[1] / "scripts" / "make_synthetic_peaks.py"
    spec = importlib.util.spec_from_file_location("make_synthetic_peaks", script)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path / "peaks.csv")
    module.main()
    capsys.readouterr()
    assert (tmp_path / "peaks.csv").read_bytes() == Path(synthetic_peaks_path()).read_bytes()


def test_read_peaks_unknown_column(tmp_path):
    path = tmp_path / "peaks.csv"
    path.write_text("epsilon_ghz,frequency_ghz,colour\n0,1,red\n")
    with pytest.raises(ConfigError):
        read_peaks_csv(path)


def test_read_peaks_too_few_rows(tmp_path):
    path = tmp_path / "peaks.csv"
    path.write_text("epsilon_ghz,frequency_ghz\n0.0,2.61\n")
    with pytest.raises(ConfigError):
        read_peaks_csv(path)


@pytest.mark.parametrize("text, where, reason", [
    ("", 1, "empty file"),
    ("epsilon_ghz,frequency_ghz,label\n0.0,2.61,03\n0.1,2.7\n0.2,2.3,12\n", 3, "expected 3 fields, got 2"),
], ids=["empty", "missing-field"])
def test_read_peaks_refusal_names_its_line(text, where, reason, tmp_path):
    path = tmp_path / "peaks.csv"
    path.write_text(text)
    with pytest.raises(ConfigError) as refused:
        read_peaks_csv(path)
    assert str(refused.value) == f"{path}:{where}: {reason}"


def test_peak_data_refuses_columns_of_different_lengths():
    with pytest.raises(ValueError, match="^column lengths differ$"):
        PeakData(np.zeros(3), np.zeros(2), (None,) * 3, np.ones(3))
