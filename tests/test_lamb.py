import math

import numpy as np
import pytest

from dscqed import (
    FockTruncation,
    LambShiftReport,
    QrmParams,
    asymptotic_sum,
    coupling_strength_at,
    cutoff_frequency,
    cutoff_sum,
    load_config,
    mode_table,
    multimode_renorm,
    paper_device_path,
    per_mode_shifts,
    single_mode_renorm,
    solve,
)
from dscqed.errors import ConvergenceError
from dscqed.lamb import EULER_GAMMA, N_CUTOFF_MIN

from conftest import transition_frequency

PAPER_X = 2.0 * (2.39 / 2.57) ** 2  # fundamental-mode exponent


def brute_force_sum(n_cutoff, n_terms, chunk=10**7):
    """Direct summation oracle over the first n_terms odd harmonics."""
    total = 0.0
    start = 1
    remaining = n_terms
    while remaining > 0:
        count = min(chunk, remaining)
        n = np.arange(start, start + 2 * count, 2, dtype=float)
        total += float(np.sum(1.0 / (n * (1.0 + (n / n_cutoff) ** 2))))
        start += 2 * count
        remaining -= count
    return total


# ---------------------------------------------------------------------------
# Single-mode renormalization
# ---------------------------------------------------------------------------


def test_published_fundamental_renormalization():
    delta = single_mode_renorm(0.147, 2.39, 2.57)
    assert abs(delta - 0.0261) < 1e-4
    assert abs(delta - 0.026) <= 0.001  # published 26 MHz


def test_no_coupling_no_shift():
    assert single_mode_renorm(0.4, 0.0, 3.0) == 0.4


def test_validity_warning():
    with pytest.warns(UserWarning):
        single_mode_renorm(1.0, 0.1, 2.0)  # delta0/omega = 0.5


def test_agrees_with_diagonalization_at_moderate_coupling():
    delta0, g, omega = 0.05, 0.3, 3.0
    p = QrmParams(delta0, 0.0, omega, g)
    es = solve(p, FockTruncation(40))
    w01 = transition_frequency(es, 0, 1)
    assert abs(single_mode_renorm(delta0, g, omega) - w01) / w01 < 0.005


# ---------------------------------------------------------------------------
# Multimode renormalization
# ---------------------------------------------------------------------------


def test_single_entry_reduces_to_single_mode():
    assert multimode_renorm(0.3, [(0.5, 2.0)]) == pytest.approx(
        single_mode_renorm(0.3, 0.5, 2.0), rel=1e-15
    )


def test_two_identical_modes_double_exponent():
    got = multimode_renorm(0.3, [(0.5, 2.0), (0.5, 2.0)])
    want = single_mode_renorm(0.3, math.sqrt(2.0) * 0.5, 2.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_order_independence():
    modes = [(0.1 * k, 1.0 + 0.3 * k) for k in range(1, 30)]
    assert multimode_renorm(1.0, modes) == multimode_renorm(1.0, modes[::-1])


@pytest.mark.parametrize(
    "call",
    [
        lambda: multimode_renorm(0.3, [(math.nan, 2.0)]),
        lambda: multimode_renorm(0.3, [(math.inf, 2.0)]),
        lambda: multimode_renorm(math.nan, [(0.5, 2.0)]),
        lambda: multimode_renorm(math.inf, [(0.5, 2.0)]),
        lambda: multimode_renorm(-0.3, [(0.5, 2.0)]),
        lambda: multimode_renorm(-0.3, []),
        lambda: single_mode_renorm(0.3, math.nan, 2.57),
        lambda: single_mode_renorm(math.nan, 2.39, 2.57),
        lambda: single_mode_renorm(-0.3, 2.39, 2.57),
    ],
)
def test_renormalization_refuses_nonfinite_or_negative_gap_inputs(call):
    with pytest.raises(ValueError):
        call()


def test_million_harmonics_match_cutoff_sum_path():
    n_cutoff, ratio = 13.2, 0.930
    omega1, delta0 = 1.0, 0.1
    g1 = ratio * omega1
    n = np.arange(1, 2 * 10**6, 2, dtype=float)
    g_n = g1 * np.sqrt(n / (1.0 + (n / n_cutoff) ** 2))
    direct = delta0 * math.exp(-2.0 * (g1 / omega1) ** 2 * float(np.sum(1.0 / (n * (1.0 + (n / n_cutoff) ** 2)))))
    via_pairs = multimode_renorm(delta0, list(zip(g_n, n * omega1)))
    via_sum = delta0 * math.exp(-2.0 * (g1 / omega1) ** 2 * cutoff_sum(n_cutoff))
    assert via_pairs == pytest.approx(direct, rel=1e-12)
    assert via_pairs == pytest.approx(via_sum, rel=1e-6)


def test_partial_composition_law():
    # the higher modes alone, times the fundamental factor, give the full result
    modes = [(0.7, 2.6), (0.5, 7.7), (0.3, 12.9), (0.2, 18.1)]
    full = multimode_renorm(0.2, modes)
    composed = multimode_renorm(0.2, modes[1:]) * math.exp(
        -2.0 * (modes[0][0] / modes[0][1]) ** 2
    )
    assert composed == pytest.approx(full, rel=1e-12)


def test_partial_with_no_higher_modes():
    assert multimode_renorm(0.31, []) == 0.31


def test_partial_matches_sum_decomposition():
    # literal odd-harmonic modes above the fundamental reproduce S minus its
    # first term in the exponent
    n_cutoff, g1, omega1, delta0 = 13.2, 2.39, 2.57, 0.7
    n = np.arange(3, 2 * 10**5, 2, dtype=float)
    g_n = g1 * np.sqrt(n / (1.0 + (n / n_cutoff) ** 2))
    got = multimode_renorm(delta0, list(zip(g_n, n * omega1)))
    s1 = 1.0 / (1.0 + 1.0 / n_cutoff**2)
    want = delta0 * math.exp(-2.0 * (g1 / omega1) ** 2 * (cutoff_sum(n_cutoff) - s1))
    assert got == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------------------
# Cutoff sum and asymptote
# ---------------------------------------------------------------------------


def test_sum_published_value():
    assert abs(cutoff_sum(13.2) - 1.93) <= 0.01


def test_sum_small_cutoff_limit():
    # S -> n_cutoff^2 * sum over odd n of 1/n^3 as n_cutoff -> 0
    nc = 0.01
    limit = nc * nc * float(
        np.sum(1.0 / np.arange(1, 2 * 10**5, 2, dtype=float) ** 3)
    )
    assert cutoff_sum(nc) == pytest.approx(limit, rel=1e-3)
    assert cutoff_sum(nc) < 1.1e-4


def test_sum_matches_brute_force():
    for nc in (1.0, 5.0):
        assert cutoff_sum(nc) == pytest.approx(brute_force_sum(nc, 10**7), rel=1e-8)


def test_sum_validation():
    with pytest.raises(ValueError):
        cutoff_sum(0.0)
    with pytest.raises(ValueError):
        cutoff_sum(math.inf)
    with pytest.raises(ValueError, match=r"^n_cutoff must be > 0, got 0\.0$"):
        asymptotic_sum(0.0)


# lambda(s) = sum over odd n of n^-s = (1 - 2^-s) zeta(s)
LAMBDA = {
    s: (1.0 - 2.0**-s) * z
    for s, z in (
        (3, 1.2020569031595942),
        (5, 1.0369277551433699),
        (7, 1.0083492773819228),
        (9, 1.0020083928260822),
    )
}


def test_sum_matches_small_cutoff_series():
    # S = N^2 lambda(3) - N^4 lambda(5) + ...; the omitted N^10 term is below
    # 1e-16 relative for N <= 1e-2.  Below N ~ 1.5e-154 S is subnormal, where
    # only the absolute bound of two subnormal spacings can hold; the series
    # is formed as (lambda N^(2j+1)) N so that it rounds there only once
    for nc in np.geomspace(1e-170, 1e-2, 1681):
        series = sum(
            (-1) ** j * LAMBDA[2 * j + 3] * nc ** (2 * j + 1) * nc for j in range(4)
        )
        assert cutoff_sum(nc) == pytest.approx(series, rel=1e-13, abs=1e-323)


def test_sum_matches_asymptote_at_large_cutoff():
    # S - asymptote = O(N^-2), negligible from N = 1e7 on; the range runs up
    # to the largest double, where N^2 overflows
    for nc in (1e7, 3.3e8, 1e12, 1e50, 1e200, 1.7e308):
        assert cutoff_sum(nc) == pytest.approx(asymptotic_sum(nc), rel=1e-13)


def test_asymptote_constant_and_value():
    const = 0.25 * (2.0 * EULER_GAMMA + math.log(4.0))
    assert abs(const - 0.635) < 5e-4
    assert abs(asymptotic_sum(13.2) - 1.925) <= 0.001


def test_asymptote_convergence():
    for nc in (10.0, 13.2, 20.0, 50.0):
        assert abs(cutoff_sum(nc) - asymptotic_sum(nc)) < 0.01
    for nc in (100.0, 300.0, 1000.0):
        assert abs(cutoff_sum(nc) - asymptotic_sum(nc)) < 0.001


# ---------------------------------------------------------------------------
# Per-mode shifts
# ---------------------------------------------------------------------------


def test_fundamental_mode_shift_about_82_percent():
    shifts = per_mode_shifts(2.39, 2.57, 13.2, 10)
    s1 = 1.0 / (1.0 + 1.0 / 13.2**2)
    assert shifts[0] == pytest.approx(-math.expm1(-PAPER_X * s1), rel=1e-12)
    assert abs(shifts[0] - 0.82) < 0.01


def test_shifts_strictly_decreasing():
    shifts = per_mode_shifts(2.39, 2.57, 13.2, 40)
    assert np.all(np.diff(shifts) < 0.0)


def test_shifts_without_cutoff_decrease_but_sum_diverges():
    shifts = per_mode_shifts(2.39, 2.57, math.inf, 50)
    assert np.all(np.diff(shifts) < 0.0)
    # with the cutoff factor removed the underlying series is harmonic over
    # odd integers: partial sums pass any fixed bound
    total, n, bound = 0.0, 1, 4.0
    while total <= bound:
        total += 1.0 / n
        n += 2
        assert n < 10**7
    assert total > bound


def test_per_mode_shift_count_ceiling():
    from dscqed.resonator import N_MODES_CEILING

    for n_modes in (0, N_MODES_CEILING + 1):
        with pytest.raises(ValueError, match="n_modes"):
            per_mode_shifts(2.39, 2.57, 13.2, n_modes)


@pytest.mark.parametrize(
    "g1, omega1, n_cutoff",
    [
        (2.39, 2.57, 0.0),
        (2.39, 2.57, -13.2),
        (2.39, 2.57, math.nan),
        (-2.39, 2.57, 13.2),
        (2.39, 0.0, 13.2),
        (2.39, math.nan, 13.2),
    ],
)
def test_per_mode_shifts_refuse_inputs_outside_the_coupling_law(g1, omega1, n_cutoff):
    with pytest.raises(ValueError):
        per_mode_shifts(g1, omega1, n_cutoff, 3)


# ---------------------------------------------------------------------------
# The paper's idealization against the solved modes
# ---------------------------------------------------------------------------


def test_idealized_and_solved_mode_sums_split_in_three_steps():
    # lamb's S(n_cutoff) assumes odd harmonics n * omega1 and the L_c-only
    # cutoff; the solved modes with the L_c2 cutoff, referenced to the qrm
    # omega1, give a larger sum.  Each step applies the one coupling law.
    run = load_config(paper_device_path())
    m, g1, omega1 = run.resonator, run.qrm.g1, run.qrm.omega1
    n_modes = 2 * 10**4
    table = mode_table(m, n_modes, g1, omega1)
    w, w1 = np.asarray(table.omega_ghz), table.omega_ghz[0]
    lc_only, lc2 = cutoff_frequency(m, lc_only=True), cutoff_frequency(m)

    def mode_sum(omega, cutoff):
        g = np.array([coupling_strength_at(x, g1, w1, cutoff) for x in omega])
        return float(np.sum((g / omega) ** 2)) / (g1 / w1) ** 2

    n_c = lc_only / w1
    odd = mode_sum(w1 * np.arange(1, 2 * n_modes, 2), lc_only)
    # the odd harmonics beyond 2 n_modes add n_c^2 / (4 (2 n_modes)^2)
    assert odd + n_c**2 / (4 * (2 * n_modes) ** 2) == pytest.approx(cutoff_sum(n_c), abs=1e-12)
    assert round(w1, 5) == 2.61003 and round(n_c, 4) == 13.1988
    assert round(odd, 6) == 1.924763
    assert round(mode_sum(w, lc_only), 6) == 1.890047
    assert round(mode_sum(w, lc2), 6) == 2.006402
    device = float(np.sum((np.asarray(table.g_ghz) / w) ** 2)) / (g1 / omega1) ** 2
    assert round(device, 6) == 1.975634
    assert round(cutoff_sum(run.lamb.n_cutoff), 6) == 1.924810
    assert round(table.g_ghz[0] / g1, 6) == 1.005998


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------


def test_report_published_numbers():
    rep = LambShiftReport(2.39, 2.57, 13.2, 0.026)
    assert abs(rep.total_shift - 0.965) <= 0.003
    assert abs(rep.delta0 - 0.732) <= 0.010
    assert abs(rep.fundamental_shift - 0.823) <= 0.003


def test_report_consistency_invariants():
    rep = LambShiftReport(2.39, 2.57, 13.2, 0.026)
    assert 0.0 < rep.delta <= rep.delta0_prime <= rep.delta0
    assert abs(rep.delta - rep.delta0_prime * math.exp(-PAPER_X)) <= 1e-10 * rep.delta
    assert (
        abs(rep.delta - rep.delta0 * math.exp(-PAPER_X * rep.sum_value))
        <= 1e-10 * rep.delta
    )


def test_report_no_coupling():
    rep = LambShiftReport(0.0, 2.57, 13.2, 0.026)
    assert rep.total_shift == 0.0
    assert rep.fundamental_shift == 0.0
    assert rep.delta0 == rep.delta == 0.026


def test_report_forward_direction_round_trip():
    delta = 0.7 * math.exp(-2.0 * (2.39 / 2.57) ** 2 * cutoff_sum(13.2))
    back = LambShiftReport(2.39, 2.57, 13.2, delta)
    assert back.delta0 == pytest.approx(0.7, rel=1e-12)


def test_report_survival_under_cutoff():
    # finite coupling to infinitely many modes leaves a finite gap
    for ratio in (0.5, 1.0, 1.5):
        rep = LambShiftReport(ratio * 2.0, 2.0, 50.0, 0.01)
        assert rep.delta > 0.0
        assert rep.total_shift < 1.0


def test_report_monotonic_in_coupling_and_cutoff():
    shifts = [
        LambShiftReport(g, 2.57, 13.2, 0.026).total_shift for g in (1.0, 1.5, 2.0, 2.5)
    ]
    assert all(a < b for a, b in zip(shifts, shifts[1:]))
    shifts = [
        LambShiftReport(2.39, 2.57, nc, 0.026).total_shift for nc in (5.0, 13.2, 40.0)
    ]
    assert all(a < b for a, b in zip(shifts, shifts[1:]))


def test_report_rejects_tiny_cutoff_ratio():
    # below S = 1 the partially renormalized gap would exceed the bare one
    with pytest.raises(ValueError):
        LambShiftReport(2.39, 2.57, 1.0, 0.026)


def test_smallest_cutoff_ratio_is_where_the_sum_reaches_one():
    assert cutoff_sum(N_CUTOFF_MIN) >= 1.0 > cutoff_sum(math.nextafter(N_CUTOFF_MIN, 0.0))
    LambShiftReport(2.39, 2.57, N_CUTOFF_MIN, 0.026)
    with pytest.raises(ValueError, match="mode sum"):
        LambShiftReport(2.39, 2.57, math.nextafter(N_CUTOFF_MIN, 0.0), 0.026)


@pytest.mark.parametrize("g1, omega1", [(5.0, 1.5), (1e3, 2.57), (2.39, 1e-9)])
def test_report_refuses_a_total_shift_that_rounds_to_one(g1, omega1):
    # 2 (g1/omega1)^2 S above ~37: the shift is 1 in double precision and
    # the bare gap grows without bound (it overflowed for large ratios)
    with pytest.raises(ConvergenceError, match="rounds to 1"):
        LambShiftReport(g1, omega1, 13.2, 0.026)


@pytest.mark.parametrize("delta", [0.0, -0.026, math.nan])
def test_report_refuses_a_gap_that_is_not_positive(delta):
    with pytest.raises(ValueError, match="delta_measured must be > 0"):
        LambShiftReport(2.39, 2.57, 13.2, delta)


@pytest.mark.parametrize("n_cutoff", [N_CUTOFF_MIN, 3.1, 40.0, 31415.9])
def test_report_replace_recomputes_the_chain(n_cutoff):
    rep = LambShiftReport(2.39, 2.57, 13.2, 0.026)._replace(n_cutoff=n_cutoff)
    fresh = LambShiftReport(2.39, 2.57, n_cutoff, 0.026)
    assert rep == fresh and rep.as_dict() == fresh.as_dict()


@pytest.mark.parametrize("g1", [6.0, 7.0, 8.0])
def test_report_near_the_rounding_limit_is_its_closed_form(g1):
    # 1 - shift loses the shift's relative accuracy here, so a 1e-10 check of
    # delta0_prime (1 - fundamental_shift) against delta refused these reports
    rep = LambShiftReport(g1, 2.57, 13.2, 0.026)
    x = 2.0 * (g1 / 2.57) ** 2
    assert rep.fundamental_shift == -math.expm1(-x) < rep.total_shift < 1.0
    assert rep.delta0 == 0.026 * math.exp(x * cutoff_sum(13.2))
