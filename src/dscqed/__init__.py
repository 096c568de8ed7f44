"""Deep-strong-coupling circuit QED toolkit.

Models a flux qubit coupled through a shared inductance to a multimode
quarter-wave resonator: quantum Rabi spectra and selection rules, the
resonator's transcendental mode structure with its high-frequency coupling
cutoff, and the resulting cascade of renormalized qubit gaps.

Each public name is imported from its module on first access (PEP 562), so
``import dscqed`` runs no submodule and a program pays only for the layers
it uses.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each public name
_HOME = {
    name: module
    for module, names in {
        "_record": ("QrmParams", "SweepConfig"),
        "config": ("RunConfig", "load_config", "paper_device_path", "synthetic_peaks_path"),
        "errors": ("ConfigError", "ConvergenceError"),
        "fitting": ("FitResult", "PeakData", "fit", "read_peaks_csv"),
        "lamb": (
            "LambShiftReport", "asymptotic_sum", "cutoff_sum", "multimode_renorm",
            "per_mode_shifts", "single_mode_renorm",
        ),
        "rabi": (
            "EigenSystem", "FockTruncation", "build_hamiltonian",
            "converged_truncation", "drive_matrix_element", "eigensystem", "solve",
        ),
        "resonator": (
            "ModeTable", "ResonatorModel", "coupling_strength_at", "cutoff_frequency",
            "mode_table", "mode_wavenumbers", "zero_point_current",
        ),
        "spectrum": ("SpectralLine", "sweep"),
    }.items()
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
