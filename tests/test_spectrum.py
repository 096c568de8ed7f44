import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dscqed import (
    EigenSystem, FockTruncation, SpectralLine, SweepConfig, drive_matrix_element, eigensystem, sweep,
)
from dscqed.rabi import (
    _candidate_lines, _count_below, _eigenpairs, _hamiltonians, _sweep_eigensystems,
)

PAPER = dict(delta_prime=0.147, omega1=2.57, g1=2.39)


def paper_sweep(grid, window=(2.0, 8.0), k_levels=6):
    cfg = SweepConfig(epsilon_grid=tuple(grid), freq_window=window, k_levels=k_levels)
    return sweep(cfg=cfg, **PAPER)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def test_symmetry_point_allowed_and_forbidden_lines():
    lines = paper_sweep([0.0])
    by_label = {line.label: line for line in lines}
    floor = 1e-6
    assert by_label["03"].amplitude > floor
    assert by_label["12"].amplitude > floor
    assert by_label["02"].amplitude < floor
    assert by_label["13"].amplitude < floor


def test_small_splitting_sits_below_probe_band():
    # the 0-1 line at the symmetry point (26 MHz) is outside the 2-8 GHz
    # window, so it never appears among emitted lines
    lines = paper_sweep([0.0])
    assert all(line.label != "01" for line in lines)


def test_decoupled_sweep_gives_bias_hyperbola():
    grid = np.linspace(-1.0, 1.0, 11)
    cfg = SweepConfig(epsilon_grid=tuple(grid), freq_window=(0.0, 10.0), k_levels=2)
    lines = sweep(0.147, 2.57, 0.0, cfg)
    assert len(lines) == len(grid)
    for line in lines:
        assert line.label == "01"
        expected = math.hypot(0.147, line.epsilon)
        assert abs(line.frequency - expected) < 1e-9


def test_output_ordering_deterministic():
    lines = paper_sweep([0.4, -0.4, 0.0])
    keys = [(line.epsilon, line.i, line.j) for line in lines]
    assert keys == sorted(keys)


def test_bias_symmetry_of_frequencies():
    lines = paper_sweep([-0.35, 0.35])
    minus = {line.label: line.frequency for line in lines if line.epsilon < 0}
    plus = {line.label: line.frequency for line in lines if line.epsilon > 0}
    assert minus.keys() == plus.keys()
    for label, freq in minus.items():
        assert abs(freq - plus[label]) < 1e-10


def test_labels_index_ascending_energies():
    for line in paper_sweep([0.0, 0.2]):
        assert line.i < line.j
        assert line.label == f"{line.i}{line.j}"


def test_forbidden_lines_vanish_at_symmetry_point():
    # any same-parity pair has vanishing drive amplitude at zero bias
    lines = paper_sweep([0.0], window=(0.0, 20.0))
    for line in lines:
        if (line.i, line.j) in ((0, 2), (1, 3), (0, 4), (1, 5)):
            assert line.amplitude < 1e-10


def test_forbidden_lines_vanish_at_zero_in_a_reduced_basis_sweep():
    # the deep device's grid goes through the reduced basis; zero bias still
    # takes the parity chains, so same-parity lines stay forbidden there
    cfg = SweepConfig(epsilon_grid=tuple(np.linspace(-1.0, 1.0, 21)), freq_window=(0.0, 20.0))
    at_zero = [line for line in sweep(0.15, 1.5, 5.0, cfg) if line.epsilon == 0.0]
    assert {(line.i, line.j) for line in at_zero} >= {(0, 2), (1, 3), (0, 4), (1, 5)}
    for line in at_zero:
        if (line.i, line.j) in ((0, 2), (1, 3), (0, 4), (1, 5)):
            assert line.amplitude < 1e-10


@pytest.mark.parametrize("device", [(0.15, 1.5, 5.0), (0.159, 1.706, 6.283)])
def test_a_bias_zero_to_rounding_is_solved_at_zero(device, monkeypatch):
    # linspace puts this window's middle point at 1.1e-16, one ulp of its
    # endpoints; it is solved at exactly zero, on the reduced and the dense
    # path alike, so the forbidden lines 02 and 13 read 0 there and every
    # line matches the grid whose middle point is an exact zero
    from dscqed import rabi

    grid = np.linspace(-0.785, 0.785, 201)
    exact = np.where(np.arange(201) == 100, 0.0, grid)
    assert 0.0 < grid[100] <= np.spacing(0.785)

    def middle(g):
        cfg = SweepConfig(epsilon_grid=tuple(g), freq_window=(0.0, 1e3))
        return {l.label: (l.frequency, l.amplitude) for l in sweep(*device, cfg) if l.epsilon == g[100]}

    counted = []
    count_below = rabi._count_below
    monkeypatch.setattr(rabi, "_count_below", lambda *a: counted.append(1) or count_below(*a))
    reduced = middle(grid)
    assert counted  # the grid went through the reduced basis
    assert reduced == middle(exact)
    assert reduced["02"][1] == reduced["13"][1] == 0.0
    monkeypatch.setattr(rabi, "_SNAPSHOTS", 10**6)  # the size gate sends every bias to the dense path
    counted.clear()
    assert middle(grid) == reduced and not counted


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(epsilon_grid=(), freq_window=(2.0, 8.0))
    with pytest.raises(ValueError):
        SweepConfig(epsilon_grid=(0.0,), freq_window=(8.0, 2.0))
    with pytest.raises(ValueError):
        SweepConfig(epsilon_grid=(0.0,), freq_window=(2.0, 8.0), k_levels=1)
    with pytest.raises(ValueError, match="^truncation_tol must be > 0$"):
        SweepConfig(epsilon_grid=(0.0,), freq_window=(2.0, 8.0), truncation_tol=0.0)


def test_spectral_line_refuses_a_negative_frequency():
    with pytest.raises(ValueError, match=r"^frequency must be >= 0, got -0\.5$"):
        SpectralLine(0.0, 0, 1, -0.5, 0.1)


def test_sweep_propagates_truncation_failure(monkeypatch):
    import dscqed.rabi as rabi_mod
    from dscqed import ConvergenceError

    monkeypatch.setattr(rabi_mod, "N_MAX_CEILING", 8)
    cfg = SweepConfig(
        epsilon_grid=(0.0,), freq_window=(2.0, 8.0), truncation_tol=1e-30
    )
    with pytest.raises(ConvergenceError):
        sweep(0.147, 2.57, 2.39, cfg)


# ---------------------------------------------------------------------------
# Reduced basis of deep-coupling sweeps
# ---------------------------------------------------------------------------

K = SweepConfig.k_levels
TOL = SweepConfig.truncation_tol  # levels closer than this are one level to the sweep
BAND = (2.0, 8.0)


def _lines(grid, eigensystems):
    """{(bias, i, j): (frequency, amplitude, isolated)} of the band's lines;
    ``isolated`` when both levels lie at least TOL from every other level,
    the only lines whose amplitude a double-precision eigenvector fixes."""
    out = {}
    for eps, es in zip(grid.tolist(), eigensystems):
        levels, near = es.values[:K], es.values[: K + 1]
        gaps = np.where(np.eye(K, len(near)), np.inf, np.abs(levels[:, None] - near))
        for i, j in _candidate_lines(K):
            f = levels[j] - levels[i]
            if BAND[0] <= f <= BAND[1]:
                isolated = gaps[[i, j]].min() >= TOL
                out[eps, i, j] = (f, drive_matrix_element(es, i, j), isolated)
    return out


def _dense(delta, grid, omega, g, t):
    es = _eigenpairs(delta, grid, omega, g, t, K)
    return [EigenSystem(v, x) for v, x in zip(es.values, es.vectors)]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    delta=st.floats(0.01, 1.0),
    omega=st.floats(0.5, 3.0),
    ratio=st.floats(1.0, 4.0),
    n_max=st.integers(64, 96),
    half=st.floats(0.05, 3.0),
    steps=st.integers(7, 25),
)
def test_reduced_sweep_matches_the_dense_path(delta, omega, ratio, n_max, half, steps):
    g, t = ratio * omega, FockTruncation(n_max)
    grid = np.linspace(-half, half, steps)
    reduced = list(_sweep_eigensystems(delta, grid, omega, g, t, K))
    got, ref = _lines(grid, reduced), _lines(grid, _dense(delta, grid, omega, g, t))
    for key in got.keys() ^ ref.keys():  # only lines at the band edges may fall either way
        f = (got.get(key) or ref[key])[0]
        assert min(abs(f - BAND[0]), abs(f - BAND[1])) < 10 * TOL
    for key in got.keys() & ref.keys():
        assert abs(got[key][0] - ref[key][0]) <= 1e-9
        if ref[key][2]:
            assert abs(got[key][1] - ref[key][1]) <= 1e-9
    # each certified Ritz value (a bias whose system holds K values) lies
    # within its Kato-Temple bound r^2 / gap of eigvalsh's eigenvalue, give
    # or take the rounding of the two eigensolves
    h = _hamiltonians(delta, grid, omega, g, t)
    exact = np.linalg.eigvalsh(h)
    for b, es in enumerate(reduced):
        if es.values.size != K:
            continue
        resid = np.linalg.norm(h[b] @ es.vectors - es.vectors * es.values, axis=0)
        others = np.where(np.eye(K, t.dim), np.inf, np.abs(exact[b] - es.values[:, None]))
        rounding = 16 * np.finfo(float).eps * np.abs(exact[b]).max()
        assert np.all(np.abs(es.values - exact[b][:K]) <= resid**2 / others.min(axis=1) + rounding)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    delta=st.floats(0.0, 1.0),
    omega=st.floats(0.5, 3.0),
    g=st.floats(0.0, 10.0),
    n_max=st.integers(1, 80),
    eps=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_ldlt_count_is_the_eigvalsh_count(delta, omega, g, n_max, eps, seed):
    t = FockTruncation(n_max)
    exact = np.linalg.eigvalsh(_hamiltonians(delta, eps, omega, g, t))
    span = exact[-1] - exact[0] + 1.0
    shifts = np.random.default_rng(seed).uniform(exact[0] - 0.1 * span, exact[-1] + 0.1 * span, 50)
    # shifts within rounding of an eigenvalue may count it either way
    shifts = shifts[np.abs(shifts[:, None] - exact).min(axis=1) > 1e-9 * np.abs(exact).max()]
    counts = _count_below(delta, np.full(len(shifts), eps), omega, g, t, shifts)
    assert counts.tolist() == np.searchsorted(exact, shifts).tolist()


def test_singular_or_non_finite_pivot_fails_the_count():
    # delta 0, bias 2: the first pivot block is diag(-1 - sigma, 1 - sigma),
    # singular at sigma = 1
    t, shifts = FockTruncation(8), np.array([1.0, np.nan, np.inf, 0.5])
    exact = np.linalg.eigvalsh(_hamiltonians(0.0, 2.0, 1.5, 5.0, t))
    counts = _count_below(0.0, np.full(4, 2.0), 1.5, 5.0, t, shifts)
    assert counts.tolist() == [-1, -1, -1, np.searchsorted(exact, 0.5)]


def test_one_node_basis_falls_back_where_it_misses(monkeypatch):
    # a basis from one snapshot (bias ~0) certifies only the biases next to
    # it; every other bias falls back to the dense path, and the lines are
    # the dense path's; the snapshot's own call keeps K + 1 vectors, a
    # fallback's K
    from dscqed import rabi

    fallbacks = []
    dense = rabi._eigenpairs

    def recorded(delta, biases, omega1, g1, t, k):
        if k == K:
            fallbacks.extend(biases.tolist())
        return dense(delta, biases, omega1, g1, t, k)

    monkeypatch.setattr(rabi, "_SNAPSHOTS", 1)
    monkeypatch.setattr(rabi, "_eigenpairs", recorded)
    t, grid = FockTruncation(64), np.linspace(-1e-4, 1e-4, 21)
    reduced = list(_sweep_eigensystems(0.15, grid, 1.5, 5.0, t, K))
    certified = [eps for eps, es in zip(grid.tolist(), reduced) if es.values.size == K]
    assert certified and all(abs(eps) < 5e-5 for eps in certified)
    assert sorted(fallbacks + certified) == grid.tolist()
    got, ref = _lines(grid, reduced), _lines(grid, _dense(0.15, grid, 1.5, 5.0, t))
    assert got.keys() == ref.keys()
    for key, (f, amplitude, isolated) in ref.items():
        assert abs(got[key][0] - f) <= 1e-9
        assert not isolated or abs(got[key][1] - amplitude) <= 1e-9


def test_basis_without_the_lowest_levels_fails_the_inertia_count(monkeypatch):
    # at g1 = 0 the Fock states are exact, so a basis missing the n = 0 pair
    # gives exact eigenpairs of the levels above it: every residual passes,
    # and only the count of the levels below sigma refuses them; each
    # snapshot keeps K + 1 vectors, as many as the certificate reads
    from dscqed import rabi

    def without_lowest_pair(h, k):
        if k != K + 1:
            return eigensystem(h, k)
        es = eigensystem(h, k + 2)
        return EigenSystem(es.values, es.vectors[..., 2:])

    monkeypatch.setattr(rabi, "eigensystem", without_lowest_pair)
    t, grid = FockTruncation(64), np.linspace(-1.0, 1.0, 21)
    reduced = list(_sweep_eigensystems(0.15, grid, 1.5, 0.0, t, K))
    assert all(es.values.size == t.dim for es in reduced)  # every bias fell back
    assert _lines(grid, reduced).keys() == _lines(grid, _dense(0.15, grid, 1.5, 0.0, t)).keys()


@pytest.mark.parametrize("chunk", [1, 7])
def test_reduced_chunks_give_the_one_chunk_result(chunk, monkeypatch):
    # memory is bounded by chunks of nonzero biases; a chunk may hold only
    # the zero bias (one of 41 with chunks of 1, none of 6 with chunks of 7),
    # and chunking changes no bit of the result
    from dscqed import rabi

    t, grid = FockTruncation(64), np.linspace(-1.0, 1.0, 41)
    stacks = {1: 40, 7: 6}[chunk]  # the chunks holding a nonzero bias
    reduced = []

    def counted(h, k):  # the reduced stacks, narrower than H
        if h.shape[-1] < t.dim:
            reduced.append(h.shape)
        return eigensystem(h, k)

    monkeypatch.setattr(rabi, "eigensystem", counted)
    whole = list(_sweep_eigensystems(0.15, grid, 1.5, 5.0, t, K))
    (width,) = {shape[-1] for shape in reduced}
    assert reduced == [(40, width, width)]
    reduced.clear()
    monkeypatch.setattr(rabi, "_STACK_BYTES", chunk * 8 * t.dim * width)
    for a, b in zip(whole, _sweep_eigensystems(0.15, grid, 1.5, 5.0, t, K), strict=True):
        assert np.array_equal(a.values, b.values) and np.array_equal(a.vectors, b.vectors)
    assert len(reduced) == stacks and {shape[0] for shape in reduced} <= {chunk, chunk - 1}


def test_snapshots_are_chunked_like_every_stack(monkeypatch):
    # the reduced basis's 5 snapshots are one _eigenpairs call, so
    # _STACK_BYTES bounds them too: two matrices of dim 130 a chunk solve
    # them in 3 eigensystem calls keeping K + 1 vectors, and chunking
    # changes no bit of the result
    from dscqed import rabi

    t, grid = FockTruncation(64), np.linspace(-1.0, 1.0, 41)
    whole = list(_sweep_eigensystems(0.15, grid, 1.5, 5.0, t, K))
    snapshots = []

    def counted(h, k):
        if k == K + 1:
            snapshots.append(h.shape)
        return eigensystem(h, k)

    monkeypatch.setattr(rabi, "eigensystem", counted)
    monkeypatch.setattr(rabi, "_STACK_BYTES", 2 * 8 * t.dim**2)
    for a, b in zip(whole, _sweep_eigensystems(0.15, grid, 1.5, 5.0, t, K), strict=True):
        assert np.array_equal(a.values, b.values) and np.array_equal(a.vectors, b.vectors)
    assert snapshots == [(2, t.dim, t.dim), (2, t.dim, t.dim), (1, t.dim, t.dim)]


@pytest.mark.parametrize("n_max, grid", [
    (16, np.linspace(-1.0, 1.0, 41)),
    (32, np.linspace(-1.0, 1.0, 41)),
    (64, np.linspace(0.0, 1.0, 6)),
])
def test_small_truncations_and_grids_stay_per_bias(n_max, grid, monkeypatch):
    # dim 34 and 66 (the bundled sweep and its probes) and a grid of 5
    # nonzero biases never build a reduced basis: one eigensystem per bias
    from dscqed import rabi

    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("reduced basis built"))
    monkeypatch.setattr(rabi, "eigensystem", lambda h, k: calls.append(h.shape) or eigensystem(h, k))
    assert len(list(_sweep_eigensystems(0.15, grid, 1.5, 5.0, FockTruncation(n_max), K))) == len(grid)
    assert calls == [(1, 2 * n_max + 2, 2 * n_max + 2)] * len(grid)
