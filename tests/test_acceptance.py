"""Acceptance gate: every published number and stated tolerance in one module.

Each test prints one `[acceptance] criterion N ... PASS|FAIL` line (visible
with `pytest -s` or on failure) and asserts the same condition.
"""

import math

import numpy as np

from dscqed import (
    FockTruncation,
    LambShiftReport,
    QrmParams,
    ResonatorModel,
    SweepConfig,
    asymptotic_sum,
    build_hamiltonian,
    converged_truncation,
    cutoff_frequency,
    cutoff_sum,
    drive_matrix_element,
    fit,
    mode_wavenumbers,
    single_mode_renorm,
    solve,
    sweep,
)
from dscqed.resonator import coupling_strength_at

from conftest import PAPER_TRIPLE, lines_table, synthetic_peaks, transition_frequency

PAPER = QrmParams(0.147, 0.0, 2.57, 2.39)


def _line(num, ok, text):
    print(f"[acceptance] criterion {num:2d}: {text} -> {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_fundamental_renormalization():
    delta = single_mode_renorm(0.147, 2.39, 2.57)
    shift = 1.0 - delta / 0.147
    ok = abs(delta - 0.026) <= 0.001 and abs(shift - 0.823) <= 0.003
    assert _line(1, ok, f"gap {delta * 1e3:.2f} MHz, fundamental shift {100 * shift:.2f}%"), (
        delta,
        shift,
    )


def test_criterion_02_cutoff_frequency():
    m = ResonatorModel(
        z0=50.0, l_total=1.93e-9, omega1_bare=2.8525, l_c=231e-12, l_2=823e-12
    )
    w_cut = cutoff_frequency(m, lc_only=True)
    ok = abs(w_cut - 34.4) <= 0.1
    assert _line(2, ok, f"cutoff {w_cut:.2f} GHz"), w_cut


def test_criterion_03_cutoff_sum_and_asymptote():
    s = cutoff_sum(13.2)
    a = asymptotic_sum(13.2)
    ok = abs(s - 1.93) <= 0.01 and abs(a - 1.925) <= 0.001
    assert _line(3, ok, f"sum {s:.4f}, asymptote {a:.4f}"), (s, a)


def test_criterion_04_total_lamb_shift_chain():
    rep = LambShiftReport(2.39, 2.57, 13.2, 0.026)
    ok = abs(rep.total_shift - 0.965) <= 0.003 and abs(rep.delta0 - 0.732) <= 0.010
    assert _line(
        4, ok, f"total shift {100 * rep.total_shift:.2f}%, bare gap {rep.delta0 * 1e3:.1f} MHz"
    ), (rep.total_shift, rep.delta0)


def test_criterion_05_numeric_vs_analytic_cross_check():
    worst_paper = worst_moderate = 0.0
    t = converged_truncation(PAPER, k_levels=2, tol=1e-9)
    es = solve(PAPER, FockTruncation(2 * t.n_max))
    w01 = transition_frequency(es, 0, 1)
    formula = single_mode_renorm(0.147, 2.39, 2.57)
    worst_paper = abs(w01 - formula) / formula
    for gratio in (0.1, 0.3, 0.5):
        p = QrmParams(0.057 * 2.57, 0.0, 2.57, gratio * 2.57)
        t = converged_truncation(p, k_levels=2, tol=1e-9)
        es = solve(p, FockTruncation(2 * t.n_max))
        w01 = transition_frequency(es, 0, 1)
        formula = single_mode_renorm(p.delta_prime, p.g1, p.omega1)
        worst_moderate = max(worst_moderate, abs(w01 - formula) / formula)
    ok = worst_paper <= 0.05 and worst_moderate <= 0.005
    assert _line(
        5,
        ok,
        f"adiabatic formula off by {100 * worst_paper:.3g}% at published coupling, "
        f"{100 * worst_moderate:.3g}% for g/w<=0.5",
    ), (worst_paper, worst_moderate)


def test_criterion_06_selection_rules():
    t = FockTruncation(40)
    es = solve(PAPER, t)
    forbidden = max(
        drive_matrix_element(es, 0, 2), drive_matrix_element(es, 1, 3)
    )
    allowed = min(drive_matrix_element(es, 0, 3), drive_matrix_element(es, 1, 2))
    ok = forbidden <= 1e-10 and allowed > 1e-3
    assert _line(
        6, ok, f"forbidden elements <= {forbidden:.1e}, allowed >= {allowed:.3f}"
    ), (forbidden, allowed)


def test_criterion_07_mode_equation_properties():
    m = ResonatorModel(
        z0=50.0, l_total=1.93e-9, omega1_bare=2.8525, l_c=231e-12, l_2=823e-12
    )
    kx = mode_wavenumbers(m, 50)
    r = m.l_total / m.l_c2
    resid = np.abs(kx * np.tan(kx) - r) / r
    bracketed = all(
        (n - 1) * math.pi < y < (n - 1) * math.pi + math.pi / 2
        for n, y in enumerate(kx, start=1)
    )

    ideal = ResonatorModel(
        z0=50.0, l_total=1.93e-9, omega1_bare=2.8525, l_c=1e-25, l_2=1e-25
    )
    kx_ideal = mode_wavenumbers(ideal, 5)
    ideal_exact = max(
        abs(y - (n * math.pi - math.pi / 2)) for n, y in enumerate(kx_ideal, start=1)
    )

    # first-order formula inside its regime (ratios up to 0.04; see notes on
    # the 0.05 boundary)
    worst_first_order = 0.0
    for ratio in (0.01, 0.02, 0.03, 0.04):
        small = ResonatorModel(
            z0=50.0, l_total=1.93e-9, omega1_bare=2.8525, l_c=ratio * 1.93e-9, l_2=1e3
        )
        for n, y in enumerate(mode_wavenumbers(small, 5), start=1):
            formula = (n * math.pi - math.pi / 2) * (1.0 - small.inductance_ratio)
            worst_first_order = max(worst_first_order, abs(formula - y) / y)

    ok = (
        bracketed
        and float(np.max(resid)) < 1e-9
        and ideal_exact < 1e-12
        and worst_first_order < 0.005
    )
    assert _line(
        7,
        ok,
        f"50 roots residual <= {np.max(resid):.1e}, ideal-limit error {ideal_exact:.1e}, "
        f"first-order off by {100 * worst_first_order:.3f}%",
    ), (np.max(resid), ideal_exact, worst_first_order)


def test_criterion_08_coupling_unimodality_and_cutoff_trend():
    m = ResonatorModel(
        z0=50.0, l_total=1.93e-9, omega1_bare=2.8525, l_c=231e-12, l_2=823e-12
    )
    w_cut = cutoff_frequency(m)
    grid = np.linspace(0.01, 4.0 * w_cut, 10**4)
    g = np.array([coupling_strength_at(w, 2.39, 2.57, w_cut) for w in grid])
    peak = int(np.argmax(g))
    unimodal = (
        abs(grid[peak] - w_cut) <= grid[1] - grid[0]
        and np.all(np.diff(g[: peak + 1]) > 0.0)
        and np.all(np.diff(g[peak:]) < 0.0)
    )
    cutoffs = [
        cutoff_frequency(
            ResonatorModel(
                z0=50.0,
                l_total=1.93e-9,
                omega1_bare=2.8525,
                l_c=lc * 1e-12,
                l_2=823e-12,
            )
        )
        for lc in (100.0, 231.0, 400.0)
    ]
    trend = cutoffs[0] > cutoffs[1] > cutoffs[2]
    ok = unimodal and trend
    assert _line(
        8,
        ok,
        f"peak at {grid[peak]:.2f} GHz vs cutoff {w_cut:.2f} GHz; "
        f"cutoffs {[round(c, 1) for c in cutoffs]} GHz for growing L_c",
    ), (grid[peak], cutoffs)


def test_criterion_09_series_brute_force_oracle():
    def brute(nc):
        total = 0.0
        start = 1
        for _ in range(10):  # 10 chunks of 1e7 odd terms
            n = np.arange(start, start + 2 * 10**7, 2, dtype=float)
            total += float(np.sum(1.0 / (n * (1.0 + (n / nc) ** 2))))
            start += 2 * 10**7
        return total

    worst = 0.0
    for nc in (1.0, 13.2, 100.0):
        reference = brute(nc)
        worst = max(worst, abs(cutoff_sum(nc) - reference) / reference)
    ok = worst <= 1e-8
    assert _line(9, ok, f"vs 1e8-term sums, worst relative error {worst:.2e}"), worst


def test_criterion_10_fit_round_trip():
    clean = synthetic_peaks(PAPER_TRIPLE)
    initial = (0.147 * 1.2, 2.57 * 0.8, 2.39 * 1.2)
    bounds = ((0.01, 1.0), (1.0, 5.0), (0.5, 5.0))
    res = fit(clean, initial=initial, bounds=bounds)
    clean_err = max(abs(v / t - 1.0) for v, t in zip(res.params, PAPER_TRIPLE))

    noisy = synthetic_peaks(
        PAPER_TRIPLE, noise_sigma=0.002, seed=3, n_branch=33, quad_repeats=40
    )
    res_noisy = fit(noisy, initial=initial, bounds=bounds)
    noisy_err = max(abs(v / t - 1.0) for v, t in zip(res_noisy.params, PAPER_TRIPLE))

    ok = res.converged and clean_err < 1e-3 and res_noisy.converged and noisy_err < 0.01
    assert _line(
        10,
        ok,
        f"zero-noise recovery {100 * clean_err:.4f}%, 2 MHz-noise recovery {100 * noisy_err:.2f}%",
    ), (clean_err, noisy_err)


def test_criterion_11_property_suites():
    rng = np.random.default_rng(2024)
    cases = 0

    # spectrum even in bias
    for _ in range(20):
        delta, omega = rng.uniform(0.0, 0.5), rng.uniform(0.5, 5.0)
        g, eps = rng.uniform(0.0, 1.2) * omega, rng.uniform(0.0, 1.0)
        t = FockTruncation(16)
        plus = np.linalg.eigvalsh(build_hamiltonian(QrmParams(delta, eps, omega, g), t))
        minus = np.linalg.eigvalsh(build_hamiltonian(QrmParams(delta, -eps, omega, g), t))
        assert np.max(np.abs(plus - minus)) <= 1e-10
        cases += 1

    # displaced-oscillator doublets at vanishing gap
    for _ in range(20):
        omega = rng.uniform(0.5, 5.0)
        g = rng.uniform(0.1, 1.5) * omega
        p = QrmParams(0.0, 0.0, omega, g)
        t = converged_truncation(p, k_levels=4, tol=1e-9 * omega)
        es = solve(p, FockTruncation(2 * t.n_max))
        shift = g * g / omega
        assert abs(es.values[0] - (-shift)) <= 1e-6 * omega
        assert es.values[1] - es.values[0] <= 1e-8 * omega
        cases += 1

    # telescoping identity
    for _ in range(20):
        delta, omega = rng.uniform(0.0, 0.5), rng.uniform(0.5, 5.0)
        g, eps = rng.uniform(0.0, 1.2) * omega, rng.uniform(-1.0, 1.0)
        es = solve(QrmParams(delta, eps, omega, g), FockTruncation(16))
        d = transition_frequency(es, 0, 3) - transition_frequency(es, 1, 3)
        assert abs(d - transition_frequency(es, 0, 1)) <= 1e-12
        cases += 1

    # ground energy monotone under truncation growth
    for _ in range(20):
        delta, omega = rng.uniform(0.0, 0.5), rng.uniform(0.5, 5.0)
        g, eps = rng.uniform(0.0, 1.2) * omega, rng.uniform(-1.0, 1.0)
        p = QrmParams(delta, eps, omega, g)
        previous = math.inf
        for n_max in (8, 16, 32, 64):
            e0 = np.linalg.eigvalsh(build_hamiltonian(p, FockTruncation(n_max)))[0]
            assert e0 <= previous + 1e-10
            previous = e0
        cases += 1

    # byte-determinism of emitted tables
    for _ in range(20):
        delta, omega = rng.uniform(0.01, 0.4), rng.uniform(0.5, 5.0)
        g = rng.uniform(0.2, 1.2) * omega
        cfg = SweepConfig(
            epsilon_grid=(-0.3, 0.0, 0.3), freq_window=(0.0, 50.0), k_levels=4
        )
        assert lines_table(sweep(delta, omega, g, cfg), "csv") == lines_table(
            sweep(delta, omega, g, cfg), "csv"
        )
        cases += 1

    assert _line(11, cases == 100, f"{cases} randomized property cases"), cases
