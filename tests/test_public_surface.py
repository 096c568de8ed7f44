import importlib

import dscqed

PUBLIC = (
    "ConfigError",
    "ConvergenceError",
    "EigenSystem",
    "FitResult",
    "FockTruncation",
    "LambShiftReport",
    "ModeTable",
    "PeakData",
    "QrmParams",
    "ResonatorModel",
    "RunConfig",
    "SpectralLine",
    "SweepConfig",
    "asymptotic_sum",
    "build_hamiltonian",
    "converged_truncation",
    "coupling_strength_at",
    "cutoff_frequency",
    "cutoff_sum",
    "drive_matrix_element",
    "eigensystem",
    "fit",
    "full_report",
    "load_config",
    "mode_table",
    "mode_wavenumbers",
    "multimode_renorm",
    "paper_device_path",
    "per_mode_shifts",
    "read_peaks_csv",
    "single_mode_renorm",
    "solve",
    "sweep",
    "synthetic_peaks_path",
    "zero_point_current",
)

# Second entry points into code the CLI reaches another way, and the
# defaults that served only them, by module.
REMOVED = (
    ("fitting", "model_frequency"),
    ("fitting", "profile_objective"),
    ("fitting", "report_chain"),
    ("spectrum", "indirect_delta"),
    ("lamb", "full_report_from_bare"),
    ("lamb", "_assemble_report"),
    ("resonator", "mode_frequencies"),
    ("errors", "TruncationLimitError"),
    ("rabi", "DEFAULT_N_MAX"),
    ("rabi", "transition_frequency"),
    ("resonator", "PLANCK_H"),
    ("resonator", "coupling_strengths"),
)


def test_public_surface_is_pinned():
    # adding or removing a public name has to change this list
    assert len(PUBLIC) == 35 and list(PUBLIC) == sorted(PUBLIC)
    assert tuple(sorted(dscqed.__all__)) == PUBLIC
    for name in PUBLIC:
        assert getattr(dscqed, name) is not None
    for module, name in REMOVED:
        assert not hasattr(dscqed, name), name
        assert not hasattr(importlib.import_module(f"dscqed.{module}"), name), name
