import math

import numpy as np
import pytest

from dscqed import (
    ResonatorModel,
    coupling_strength_at,
    cutoff_frequency,
    mode_table,
    mode_wavenumbers,
    zero_point_current,
)
from dscqed.errors import ConvergenceError
from dscqed.resonator import N_MODES_CEILING, TWO_PI_GHZ

from conftest import absolute_couplings, bisection_roots, resonator_with_ratio, root_in_branch


def _model(z0=50.0, l_total=1.93e-9, bare=2.8525, l_c=231e-12, l_2=823e-12):
    return ResonatorModel(z0=z0, l_total=l_total, omega1_bare=bare, l_c=l_c, l_2=l_2)


# ---------------------------------------------------------------------------
# Cutoff frequency
# ---------------------------------------------------------------------------


def test_cutoff_lc_only_published_value(paper_resonator):
    assert abs(cutoff_frequency(paper_resonator, lc_only=True) - 34.4) <= 0.1


def test_cutoff_exact_arithmetic(paper_resonator):
    # plain arithmetic: parallel inductance then Z0 / L / 2pi
    l_c2 = 231e-12 * 823e-12 / (231e-12 + 823e-12)
    expected = 50.0 / l_c2 / TWO_PI_GHZ
    assert cutoff_frequency(paper_resonator) == pytest.approx(expected, rel=1e-14)
    assert abs(expected - 44.1) < 0.05


def test_cutoff_approximation_exact_for_large_l2():
    m = _model(l_2=1e3)
    assert cutoff_frequency(m) == pytest.approx(
        cutoff_frequency(m, lc_only=True), rel=1e-9
    )


def test_cutoff_scaling_identity():
    # omega_cutoff * L_c2 / Z0 is identically one in angular units
    for factor in (0.5, 2.0, 7.3):
        m = _model(z0=50.0 / factor, l_c=231e-12 * factor)
        assert cutoff_frequency(m) * TWO_PI_GHZ * m.l_c2 / m.z0 == pytest.approx(
            1.0, rel=1e-12
        )


# ---------------------------------------------------------------------------
# Mode equation
# ---------------------------------------------------------------------------


def test_ideal_quarter_wave_limit():
    # vanishing termination inductance: roots at n*pi - pi/2, frequencies at
    # odd multiples of the fundamental
    m = _model(l_c=1e-25, l_2=1e-25)
    kx = np.asarray(mode_wavenumbers(m, 5))
    expected = np.array([n * math.pi - math.pi / 2 for n in range(1, 6)])
    assert np.max(np.abs(kx - expected)) < 1e-12
    freqs = np.asarray(mode_table(m, 5, 2.39, 2.57).omega_ghz)
    assert np.allclose(freqs / m.omega1_bare, [1, 3, 5, 7, 9], atol=1e-12)


def test_roots_bracketed_with_small_residual(paper_resonator):
    n_modes = 50
    kx = mode_wavenumbers(paper_resonator, n_modes)
    r = paper_resonator.l_total / paper_resonator.l_c2
    for n, y in enumerate(kx, start=1):
        assert (n - 1) * math.pi < y < (n - 1) * math.pi + math.pi / 2
        assert abs(y * math.tan(y) - r) / r < 1e-9


def test_roots_match_branch_oracle_at_bundled_device(paper_resonator):
    kx = mode_wavenumbers(paper_resonator, 2600)
    r = paper_resonator.l_total / paper_resonator.l_c2
    oracle = [root_in_branch(r, n) for n in range(1, 2601)]
    # 1e-13 absolute, or a few doubles where their spacing is coarser
    np.testing.assert_allclose(kx, oracle, rtol=1e-15, atol=1e-13)


def test_residual_certified_far_up_the_branches(paper_resonator):
    # the 1e-9 residual check (inside the solve, on the branch offset) holds
    # up to kX ~ 3e5, not only below N ~ 2600
    kx = np.asarray(mode_wavenumbers(paper_resonator, 100_000))
    r = paper_resonator.l_total / paper_resonator.l_c2
    n = np.arange(1, len(kx) + 1)
    assert np.all(((n - 1) * math.pi < kx) & (kx < (n - 0.5) * math.pi))
    sample = n[::997]
    oracle = [root_in_branch(r, int(k)) for k in sample]
    np.testing.assert_allclose(kx[sample - 1], oracle, rtol=1e-15, atol=1e-13)


@pytest.mark.parametrize("l_c_ph", [100.0, 231.0, 400.0])
def test_roots_bitwise_equal_to_bisection_at_bundled_device(l_c_ph):
    m = _model(l_c=l_c_ph * 1e-12)
    oracle = bisection_roots(m.l_total / m.l_c2, 5000)
    assert mode_wavenumbers(m, 5000) == tuple(oracle.tolist())


def test_uncertified_root_raises_convergence_error():
    # r ~ 2e10: the root sits within ~1e-10 of the tangent pole
    with pytest.raises(ConvergenceError, match="mode-equation residual"):
        mode_wavenumbers(resonator_with_ratio(2e10), 5)


def test_subnormal_inductance_ratio_raises_convergence_error():
    # the sign change of the pole-free form can span ~1e12 doubles there
    with pytest.raises(ConvergenceError, match="smallest normal double"):
        mode_wavenumbers(resonator_with_ratio(1e-310), 3)


def test_mode_count_ceiling():
    m = _model()
    for n_modes in (0, N_MODES_CEILING + 1):
        with pytest.raises(ValueError, match="n_modes"):
            mode_wavenumbers(m, n_modes)


def test_fundamental_matches_first_order_formula(paper_resonator):
    kx1 = mode_wavenumbers(paper_resonator, 1)[0]
    first_order = (math.pi / 2) * (1.0 - paper_resonator.inductance_ratio)
    assert abs(kx1 - first_order) / kx1 < 0.01


def test_first_order_formula_in_its_regime():
    # small termination: exact roots track (n*pi - pi/2)(1 - ratio) to 0.5%
    for ratio in (0.01, 0.02, 0.03, 0.04):
        m = _model(l_c=ratio * 1.93e-9, l_2=1e3)
        kx = mode_wavenumbers(m, 5)
        for n, y in enumerate(kx, start=1):
            formula = (n * math.pi - math.pi / 2) * (1.0 - m.inductance_ratio)
            assert abs(formula - y) / y < 0.005


def test_mode_frequencies_strictly_increasing(paper_resonator):
    freqs = mode_table(paper_resonator, 30, 2.39, 2.57).omega_ghz
    assert np.all(np.diff(freqs) > 0.0)


def test_loaded_fundamental_and_cutoff_ratio(paper_resonator):
    # the bundled bare value puts the loaded fundamental at 2.61 GHz, giving
    # the published cutoff ratio 13.2 with the L_c-only cutoff
    w1 = mode_table(paper_resonator, 1, 2.39, 2.57).omega_ghz[0]
    assert abs(w1 - 2.61) < 0.005
    n_cutoff = cutoff_frequency(paper_resonator, lc_only=True) / w1
    assert abs(n_cutoff - 13.2) < 0.05


# ---------------------------------------------------------------------------
# Zero-point current
# ---------------------------------------------------------------------------


def test_zpf_sqrt_scaling_below_cutoff(paper_resonator):
    low = 0.001
    ratio = zero_point_current(paper_resonator, 2 * low) / zero_point_current(
        paper_resonator, low
    )
    assert abs(ratio - math.sqrt(2.0)) / math.sqrt(2.0) < 0.01


def test_zpf_maximal_at_cutoff(paper_resonator):
    w_cut = cutoff_frequency(paper_resonator)
    grid = np.linspace(0.1, 5 * w_cut, 2001)
    currents = np.array([zero_point_current(paper_resonator, w) for w in grid])
    peak = zero_point_current(paper_resonator, w_cut)
    assert np.all(currents <= peak + 1e-30)
    # closed form at the peak: sqrt(hbar * w_cut_angular / (2 X l))
    expected = math.sqrt(
        1.054571817e-34 * w_cut * TWO_PI_GHZ / (2.0 * paper_resonator.l_total)
    )
    assert peak == pytest.approx(expected, rel=1e-12)


def test_zpf_inverse_sqrt_scaling_above_cutoff(paper_resonator):
    w_cut = cutoff_frequency(paper_resonator)
    hi = 400.0 * w_cut
    ratio = zero_point_current(paper_resonator, 2 * hi) / zero_point_current(
        paper_resonator, hi
    )
    assert abs(ratio - 1.0 / math.sqrt(2.0)) < 0.01


def test_zpf_rejects_nonpositive_frequency(paper_resonator):
    for omega in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            zero_point_current(paper_resonator, omega)


# ---------------------------------------------------------------------------
# Coupling strengths
# ---------------------------------------------------------------------------


def test_coupling_at_fundamental_close_to_g1(paper_resonator):
    g1, w1 = 2.39, 2.57
    w_cut = cutoff_frequency(paper_resonator)
    g = coupling_strength_at(w1, g1, w1, w_cut)
    assert g == pytest.approx(g1 / math.sqrt(1.0 + (w1 / w_cut) ** 2), rel=1e-14)
    assert abs(g - g1) / g1 < 0.01


def test_coupling_peak_value(paper_resonator):
    g1, w1 = 2.39, 2.57
    w_cut = cutoff_frequency(paper_resonator)
    g_peak = coupling_strength_at(w_cut, g1, w1, w_cut)
    assert g_peak == pytest.approx(g1 * math.sqrt(w_cut / (2.0 * w1)), rel=1e-14)


def test_coupling_sqrt_growth_without_cutoff():
    assert coupling_strength_at(9.0, 1.0, 1.0, math.inf) == pytest.approx(3.0)


def test_coupling_unimodal_peak_at_cutoff(paper_resonator):
    w_cut = cutoff_frequency(paper_resonator)
    grid = np.linspace(0.01, 4 * w_cut, 10001)
    g = np.array([coupling_strength_at(w, 2.39, 2.57, w_cut) for w in grid])
    peak = int(np.argmax(g))
    assert abs(grid[peak] - w_cut) <= grid[1] - grid[0]
    assert np.all(np.diff(g[: peak + 1]) > 0.0)
    assert np.all(np.diff(g[peak:]) < 0.0)


@pytest.mark.parametrize(
    "omega, g1, omega1, omega_cutoff, name",
    [
        (2.0, 2.39, 2.57, 0.0, "cutoff"),
        (2.0, 2.39, 2.57, -44.1, "cutoff"),
        (2.0, 2.39, 2.57, math.nan, "cutoff"),
        (-2.0, 2.39, 2.57, 44.1, "omega"),
        (math.nan, 2.39, 2.57, 44.1, "omega"),
        (2.0, -1.0, 2.57, 44.1, "g1"),
        (2.0, math.nan, 2.57, 44.1, "g1"),
        (2.0, 2.39, 0.0, 44.1, "omega1"),
    ],
)
def test_coupling_refuses_inputs_outside_its_domain(omega, g1, omega1, omega_cutoff, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        coupling_strength_at(omega, g1, omega1, omega_cutoff)


def test_larger_coupling_inductance_lowers_cutoff():
    cutoffs = [
        cutoff_frequency(_model(l_c=lc * 1e-12)) for lc in (100.0, 231.0, 400.0)
    ]
    assert cutoffs[0] > cutoffs[1] > cutoffs[2]


def test_absolute_and_scaled_paths_agree_in_ratio(paper_resonator):
    m = _model()
    modes = mode_table(m, 10, 2.39, 2.57).omega_ghz
    scaled = np.array([coupling_strength_at(w, 2.39, modes[0], cutoff_frequency(m)) for w in modes])
    absolute = absolute_couplings(m, 300e-9, modes)
    ratio_scaled = scaled / scaled[0]
    ratio_absolute = absolute / absolute[0]
    assert np.max(np.abs(ratio_scaled / ratio_absolute - 1.0)) < 0.01


# ---------------------------------------------------------------------------
# Mode table and model validation
# ---------------------------------------------------------------------------


def test_mode_table_invariants(paper_resonator):
    table = mode_table(paper_resonator, 20, g1=2.39, omega1=2.57)
    assert len(table) == 20
    assert np.all(np.diff(table.omega_ghz) > 0.0)
    assert min(table.g_ghz) > 0.0
    assert min(table.i_zpf) > 0.0
    for n, _omega, kx, _izpf, _g in table.rows():
        assert (n - 1) * math.pi < kx < (n - 1) * math.pi + math.pi / 2


def test_parallel_inductance_below_both(paper_resonator):
    assert paper_resonator.l_c2 < min(paper_resonator.l_c, paper_resonator.l_2)


def test_model_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        _model(z0=0.0)
    with pytest.raises(ValueError):
        _model(l_c=-1e-12)
