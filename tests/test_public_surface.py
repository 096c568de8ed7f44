import dataclasses
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

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
    assert set(PUBLIC) <= set(dir(dscqed))
    for name in PUBLIC:
        assert getattr(dscqed, name) is not None
    for module, name in REMOVED:
        assert not hasattr(dscqed, name), name
        assert not hasattr(importlib.import_module(f"dscqed.{module}"), name), name


def test_import_runs_no_submodule():
    # the package imports each public name from its module on first access
    script = (
        "import sys\n"
        "import dscqed\n"
        "print(sorted(name for name in sys.modules if name.startswith('dscqed')))\n"
        "import dscqed.cli\n"  # binds fitting without executing it, on the package too
        "import dscqed.fitting\n"
        "print(callable(dscqed.fitting.fit))\n"
        "names = {}\n"
        "exec('from dscqed import *', names)\n"
        "print(sorted(set(names) - {'__builtins__'}) == sorted(dscqed.__all__), len(dscqed.__all__))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dscqed.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout.splitlines() == ["['dscqed']", "True", "True 35"], proc.stderr


def test_eigen_system_holds_values_and_vectors_only():
    # a state's parity is read from its vector, not carried beside it
    assert [f.name for f in dataclasses.fields(dscqed.EigenSystem)] == ["values", "vectors"]


def test_readme_python_blocks_run(capsys):
    # every ```python block of the README, in order, in one namespace
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out
