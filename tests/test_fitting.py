import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dscqed import ConfigError, PeakData, fit, read_peaks_csv
from dscqed.fitting import _levenberg_marquardt, _predicted

from conftest import PAPER_TRIPLE, synthetic_peaks

BOUNDS = ((0.01, 1.0), (1.0, 5.0), (0.5, 5.0))


# ---------------------------------------------------------------------------
# Model frequency
# ---------------------------------------------------------------------------


def _model_frequency(params, epsilon, label=None, measured=0.0):
    """Model frequency of one labeled row, or of the drive-allowed line
    nearest ``measured`` for an unlabeled one, at n_max 40 (the row is
    repeated to make up PeakData's three)."""
    rows = PeakData(np.full(3, epsilon), np.full(3, measured), (label,) * 3, np.ones(3))
    return float(_predicted(params, rows, 40, 6, 1e-6)[0])


def test_decoupled_01_branch_is_hyperbola():
    for eps in (0.0, 0.2, -0.7):
        got = _model_frequency((0.147, 2.57, 0.0), eps, label="01")
        assert got == pytest.approx(math.hypot(0.147, eps), abs=1e-10)


def test_labeled_transition_matches_eigensystem(paper_params):
    from dscqed import FockTruncation, solve, transition_frequency

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
    assert res.reason in ("cost", "step")
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
    freq = _predicted(triple, shell, n_max=128, k_levels=6, floor=1e-6)
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


def test_degenerate_bias_rejected():
    rows = [(0.1, 2.5, "03", 1.0), (0.1, 2.6, "12", 1.0), (0.1, 2.7, "02", 1.0)]
    data = PeakData.from_rows(rows)
    with pytest.raises(ValueError):
        fit(data, initial=(0.15, 2.6, 2.4), bounds=BOUNDS)


def test_initial_outside_bounds_rejected():
    data = synthetic_peaks(PAPER_TRIPLE)
    with pytest.raises(ValueError):
        fit(data, initial=(0.15, 6.0, 2.4), bounds=BOUNDS)


def test_bounds_outside_model_domain_rejected():
    data = synthetic_peaks(PAPER_TRIPLE)
    with pytest.raises(ValueError, match="model domain"):
        fit(data, initial=(0.15, 2.6, 2.4), bounds=((0.01, 1.0), (-1.0, 5.0), (0.5, 5.0)))


def test_budget_exhaustion_returns_best_so_far():
    data = synthetic_peaks(PAPER_TRIPLE)
    res = fit(data, initial=(0.16, 2.4, 2.6), bounds=BOUNDS, max_iter=3)
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
    start = _predicted(initial, data, 40, 6, 1e-6) - data.frequency
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
    data = PeakData(eps, _predicted(PAPER_TRIPLE, shell, 128, 6, 1e-6), labels, np.ones(len(eps)))
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
    near = _predicted(params, labeled, 64, 6, 1e-6)[1:4] + 1e-4
    unlabeled = PeakData(np.full(3, eps), near, (None,) * 3, np.ones(3))

    def central(data, k, h):
        up, down = list(params), list(params)
        up[k] += h
        down[k] -= h
        ends = [_predicted(tuple(x), data, 64, 6, 1e-6) for x in (up, down)]
        return (ends[0] - ends[1]) / (2 * h)

    for data in (labeled, unlabeled):
        _, jac = _predicted(params, data, 64, 6, 1e-6, jacobian=True)
        for k in range(3):
            fd, fd_fine = central(data, k, 1e-5), central(data, k, 1e-6)
            smooth = np.abs(fd - fd_fine) <= 1e-6 * (1.0 + np.abs(fd))
            err = np.abs(jac[:, k] - fd)[smooth]
            assert np.all(err <= 1e-6 * (1.0 + np.abs(fd[smooth]))), (k, jac[:, k], fd)


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
    # the rule fit applies by row, applied where the row is read
    path = tmp_path / "peaks.csv"
    path.write_text("epsilon_ghz,frequency_ghz,label\n0.0,2.61,03\n0.1,2.7,04\n0.2,2.3,12\n")
    with pytest.raises(ConfigError, match=r":3: transition label '04' needs j < k_levels \(4\)$"):
        read_peaks_csv(path, k_levels=4)
    assert read_peaks_csv(path, k_levels=5).label == ("03", "04", "12")


@pytest.mark.parametrize("weight", [math.inf, math.nan, 0.0, -1.0])
def test_peak_data_refuses_bad_weights(weight):
    rows = [(-0.1, 2.5, "03", 1.0), (0.0, 2.6, "03", weight), (0.1, 2.7, "03", 1.0)]
    with pytest.raises(ValueError, match="weights must be finite and > 0"):
        PeakData.from_rows(rows)


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
