import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

# Second entry points into code the CLI reaches another way, the defaults
# that served only them, and records whose values RunConfig now holds
# itself, by module.
REMOVED = (
    ("fitting", "model_frequency"),
    ("fitting", "profile_objective"),
    ("fitting", "report_chain"),
    ("spectrum", "indirect_delta"),
    ("lamb", "full_report_from_bare"),
    ("lamb", "_assemble_report"),
    ("lamb", "full_report"),
    ("resonator", "mode_frequencies"),
    ("errors", "TruncationLimitError"),
    ("rabi", "DEFAULT_N_MAX"),
    ("rabi", "transition_frequency"),
    ("resonator", "PLANCK_H"),
    ("resonator", "coupling_strengths"),
    ("fitting", "_layout"),
    ("fitting", "_descend"),
    ("config", "LambSettings"),
    ("config", "FitSettings"),
    ("config", "OutputSettings"),
)


def test_public_surface_is_pinned():
    # adding or removing a public name has to change this list
    assert len(PUBLIC) == 34 and list(PUBLIC) == sorted(PUBLIC)
    assert tuple(sorted(dscqed.__all__)) == PUBLIC
    assert set(PUBLIC) <= set(dir(dscqed))
    for name in PUBLIC:
        assert getattr(dscqed, name) is not None
    for module, name in REMOVED:
        assert not hasattr(dscqed, name), name
        assert not hasattr(importlib.import_module(f"dscqed.{module}"), name), name
    # the input records of the Rabi layer live in _record, the base's module
    assert importlib.util.find_spec("dscqed._params") is None
    record, rabi = (importlib.import_module(f"dscqed.{m}") for m in ("_record", "rabi"))
    assert dscqed.QrmParams is rabi.QrmParams is record.QrmParams
    assert dscqed.SweepConfig is record.SweepConfig


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
    assert proc.stdout.splitlines() == ["['dscqed']", "True", "True 34"], proc.stderr


def test_lazy_import_of_a_missing_module_is_an_import_error():
    # the CLI binds its array layers lazily; a missing module fails as
    # `import` itself would
    from dscqed.cli import _lazy_import

    with pytest.raises(ModuleNotFoundError, match="No module named 'dscqed_no_such_module'"):
        _lazy_import("dscqed_no_such_module")


def test_only_the_cli_binds_modules_lazily():
    # rabi, spectrum and fitting import numpy outright: the CLI's bindings
    # keep them, and with them numpy, off the scalar commands' path
    script = (
        "import importlib.util, sys\n"
        "import dscqed.rabi, dscqed.spectrum, dscqed.fitting\n"
        "np = sys.modules['numpy']\n"
        "print(type(np) is importlib.util._LazyModule, callable(np.zeros))\n"
        "print(all(m.np is np for m in (dscqed.rabi, dscqed.spectrum, dscqed.fitting)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dscqed.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout.splitlines() == ["False True", "True"], proc.stderr
    named = {
        path.name
        for path in sorted(Path(dscqed.__file__).parent.glob("*.py"))
        if "LazyLoader" in path.read_text(encoding="utf-8")
    }
    assert named == {"cli.py"}
    assert importlib.util.find_spec("dscqed._lazy") is None


def test_eigen_system_holds_values_and_vectors_only():
    # a state's parity is read from its vector, not carried beside it
    es = dscqed.EigenSystem(np.zeros(2), np.eye(2))
    assert dscqed.EigenSystem.__match_args__ == ("values", "vectors")
    assert list(vars(es)) == ["values", "vectors"]


# Every value record: its module, its constructor's parameters as the
# frozen dataclasses that preceded the records printed them, and valid
# arguments.
RECORDS = (
    ("rabi", "QrmParams",
     "(delta_prime: 'float', epsilon: 'float', omega1: 'float', g1: 'float')",
     (0.1, 0.0, 2.6, 2.4)),
    ("rabi", "FockTruncation", "(n_max: 'int')", (8,)),
    ("rabi", "EigenSystem", "(values: 'np.ndarray', vectors: 'np.ndarray')",
     ((0.0, 1.0), ((1.0, 0.0), (0.0, 1.0)))),
    ("_record", "SweepConfig",
     "(epsilon_grid: 'tuple', freq_window: 'tuple', k_levels: 'int' = 6, "
     "amplitude_floor: 'float' = 1e-06, truncation_tol: 'float' = 1e-06)",
     ((0.0, 0.5), (2.0, 8.0), 4, 1e-5, 1e-7)),
    ("spectrum", "SpectralLine",
     "(epsilon: 'float', i: 'int', j: 'int', frequency: 'float', amplitude: 'float')",
     (0.1, 0, 3, 4.5, 0.2)),
    ("resonator", "ResonatorModel",
     "(z0: 'float', l_total: 'float', omega1_bare: 'float', l_c: 'float', l_2: 'float')",
     (50.0, 1.93e-9, 2.8525, 231e-12, 823e-12)),
    ("resonator", "ModeTable",
     "(n: 'tuple', omega_ghz: 'tuple', k_x: 'tuple', i_zpf: 'tuple', g_ghz: 'tuple')",
     ((1,), (2.6,), (1.4,), (1e-8,), (2.4,))),
    ("lamb", "LambShiftReport",
     "(g1: 'float', omega1: 'float', n_cutoff: 'float', delta: 'float', n_modes: 'int' = 30)",
     (2.39, 2.57, 13.2, 0.026, 5)),
    ("config", "RunConfig",
     "(resonator: 'ResonatorModel', qrm: 'QrmParams', sweep: 'SweepConfig', "
     "n_cutoff: 'float', delta_measured: 'float', n_modes: 'int', initial: 'tuple', "
     "bounds: 'tuple', format: 'str', out: 'str | None')",
     ("r", "q", "s", 13.2, 0.026, 30, (0.15, 2.6, 2.4), ((0.01, 1.0),) * 3, "csv", None)),
    ("config", "Field",
     "(path: 'str', kind: 'type', default: 'object', domain: 'object' = None, "
     "flag: 'str | None' = None)",
     ("qrm.g1_ghz", float, 1.0, "[0, 1e6]", "--g1")),
    ("fitting", "PeakData",
     "(epsilon: 'np.ndarray', frequency: 'np.ndarray', label: 'tuple', "
     "weight: 'np.ndarray', source: 'tuple | None' = None)",
     (np.array([-0.1, 0.0, 0.1]), np.array([2.5, 2.6, 2.7]), ("03",) * 3, np.ones(3),
      ("peaks.csv", (2, 3, 4)))),
    ("fitting", "FitResult",
     "(delta_prime: 'float', omega1: 'float', g1: 'float', residual_rms: 'float', "
     "per_point_residuals: 'np.ndarray', iterations: 'int', stderr: 'tuple', "
     "reason: 'str')",
     (0.1, 2.6, 2.4, 1e-3, (0.0, 1e-3), 5, (1e-4,) * 3, "cost")),
    ("fitting", "_Layout", "(data: 'PeakData', k_levels: 'int')",
     (dscqed.PeakData(np.array([-0.1, 0.0, 0.1]), np.array([2.5, 2.6, 2.7]), ("03", None, "12"),
                      np.ones(3)), 6)),
)


@pytest.mark.parametrize(("module", "name", "parameters", "args"), RECORDS, ids=[r[1] for r in RECORDS])
def test_records_behave_as_frozen_dataclasses(module, name, parameters, args):
    cls = getattr(importlib.import_module(f"dscqed.{module}"), name)
    signature = inspect.signature(cls)
    assert str(signature.replace(return_annotation=inspect.Signature.empty)) == parameters
    assert inspect.signature(cls, eval_str=True).return_annotation is None
    fields = tuple(signature.parameters)
    assert cls.__match_args__ == fields
    record, twin = cls(*args), cls(*args)
    assert record == twin and record != args and not record != twin
    try:
        expected = hash(args)
    except TypeError:  # array fields: unhashable, as a tuple of arrays is
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected
    assert repr(record) == f"{name}(" + ", ".join(f"{f}={a!r}" for f, a in zip(fields, args)) + ")"
    for field in (fields[0], "extra"):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(record, field, args[0])
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(record, fields[0])
    assert record._replace() == record and record._replace() is not record


def test_sources_parse_at_the_python_floor():
    # requires-python in pyproject.toml is the floor every source must parse at
    root = Path(__file__).parents[1]
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (root / "pyproject.toml").read_text())
    assert floor and floor.group(1) == "10"
    paths = [p for d in ("src", "tests", "scripts") for p in sorted((root / d).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_only_rabi_names_the_numpy_eigensolvers():
    # the benchmark counts every numpy eigensolve, wherever it is made, against
    # exact numbers: a second call site would break that count
    solvers = {"eigh", "eigvalsh"}
    named = set()
    for path in sorted((Path(dscqed.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name in solvers:
                named.add(path.name)
    assert named == {"rabi.py"}


def test_every_lapack_call_is_converted():
    # numpy's LinAlgError is a ValueError, which the CLI reports as bad
    # input (exit 1): each np.linalg call but norm sits in the body of a try
    # that catches it, to convert it or to handle it
    calls = []  # (module, function, line, guarded)

    def catches(handler):
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any(t is not None and ast.unparse(t) == "np.linalg.LinAlgError" for t in types)

    def visit(node, module, guarded):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            guarded = False  # a body runs where it is called, not where it is defined
        if isinstance(node, ast.Try):
            inner = guarded or any(map(catches, node.handlers))
            for child in node.body:
                visit(child, module, inner)
            for child in (*node.handlers, *node.orelse, *node.finalbody):
                visit(child, module, guarded)
            return
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Attribute) and ast.unparse(func.value) == "np.linalg":
            calls.append((module, func.attr, node.lineno, guarded))
        for child in ast.iter_child_nodes(node):
            visit(child, module, guarded)

    for path in sorted((Path(dscqed.__file__).parent).glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, False)
    assert {name for _, name, _, _ in calls} >= {"eigh", "eigvalsh", "svd", "lstsq", "inv"}
    assert [c for c in calls if c[1] != "norm" and not c[3]] == []


def test_only_the_kernel_calls_eigensystem():
    # every solved stack of H goes through rabi._eigenpairs: eigensystem is
    # called there, or in a private rabi helper that only _eigenpairs calls
    callers = {}  # called name -> {(module, calling function)}
    for path in sorted((Path(dscqed.__file__).parent).glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    callers.setdefault(name, set()).add((path.stem, fn.name))
    assert ("rabi", "_eigenpairs") in callers["_dense"]
    for module, name in callers["eigensystem"]:
        assert module == "rabi", name
        assert name == "_eigenpairs" or (
            name.startswith("_") and callers.get(name) == {("rabi", "_eigenpairs")}
        ), name


def test_one_descent_sizes_and_runs_the_fit():
    # fit alone runs the Levenberg-Marquardt descent and chooses its
    # truncation, as the sweep chooses its own: a call in a nested closure
    # is its enclosing function's, and one outside any function is None's
    callers = {}  # called name -> {(module, outermost calling function)}
    for path in sorted((Path(dscqed.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = tree.body + [m for c in tree.body if isinstance(c, ast.ClassDef) for m in c.body]
        owner = {
            node: fn.name
            for fn in scopes
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                callers.setdefault(name, set()).add((path.stem, owner.get(node)))
    assert callers["_levenberg_marquardt"] == {("fitting", "fit")}
    assert callers["_grid_truncation"] == {("spectrum", "sweep"), ("fitting", "fit")}


def test_readme_python_blocks_run(capsys):
    # every ```python block of the README, in order, in one namespace
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out
