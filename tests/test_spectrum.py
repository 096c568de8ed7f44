import math

import numpy as np
import pytest

from dscqed import SweepConfig, sweep

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


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(epsilon_grid=(), freq_window=(2.0, 8.0))
    with pytest.raises(ValueError):
        SweepConfig(epsilon_grid=(0.0,), freq_window=(8.0, 2.0))
    with pytest.raises(ValueError):
        SweepConfig(epsilon_grid=(0.0,), freq_window=(2.0, 8.0), k_levels=1)


def test_sweep_propagates_truncation_failure(monkeypatch):
    import dscqed.rabi as rabi_mod
    from dscqed import ConvergenceError

    monkeypatch.setattr(rabi_mod, "N_MAX_CEILING", 8)
    cfg = SweepConfig(
        epsilon_grid=(0.0,), freq_window=(2.0, 8.0), truncation_tol=1e-30
    )
    with pytest.raises(ConvergenceError):
        sweep(0.147, 2.57, 2.39, cfg)
