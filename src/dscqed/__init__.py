"""Deep-strong-coupling circuit QED toolkit.

Models a flux qubit coupled through a shared inductance to a multimode
quarter-wave resonator: quantum Rabi spectra and selection rules, the
resonator's transcendental mode structure with its high-frequency coupling
cutoff, and the resulting cascade of renormalized qubit gaps.
"""

from .config import RunConfig, load_config, paper_device_path, synthetic_peaks_path
from .errors import ConfigError, ConvergenceError
from .fitting import FitResult, PeakData, fit, read_peaks_csv
from .lamb import (
    LambShiftReport,
    asymptotic_sum,
    cutoff_sum,
    full_report,
    multimode_renorm,
    per_mode_shifts,
    single_mode_renorm,
)
from .rabi import (
    EigenSystem,
    FockTruncation,
    QrmParams,
    build_hamiltonian,
    converged_truncation,
    drive_matrix_element,
    eigensystem,
    solve,
)
from .resonator import (
    ModeTable,
    ResonatorModel,
    coupling_strength_at,
    cutoff_frequency,
    mode_table,
    mode_wavenumbers,
    zero_point_current,
)
from .spectrum import SpectralLine, SweepConfig, sweep

__version__ = "0.1.0"

__all__ = [
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
]
