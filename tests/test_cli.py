import ast
import json
import os
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml

import dscqed
from dscqed import paper_device_path, synthetic_peaks_path
from dscqed.cli import main


def _config_variant(tmp_path, mutate, name="config.yaml"):
    with open(paper_device_path()) as fh:
        tree = yaml.safe_load(fh)
    mutate(tree)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree))
    return str(path)


# ---------------------------------------------------------------------------
# reproduce-paper
# ---------------------------------------------------------------------------


def test_reproduce_paper_passes(capsys):
    assert main(["reproduce-paper"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_reproduce_paper_detects_mismatch(tmp_path, capsys):
    path = _config_variant(tmp_path, lambda t: t["qrm"].update(g1_ghz=2.0))
    assert main(["reproduce-paper", "--config", path]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_reproduce_paper_prints_requested_format(capsys):
    assert main(["reproduce-paper", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 6
    assert all(row["status"] == "PASS" for row in rows)


def test_scalar_commands_run_without_numpy(tmp_path):
    # lamb-shift, reproduce-paper, modes and couplings compute in plain
    # floats, and a refused config stops before any array, as does a report
    # that double precision cannot represent (exit 2): a fresh process
    # running them never imports numpy, nor executes `rabi` and `spectrum`,
    # which spectrum does, and with rabi numpy, nor `fitting`, which only
    # fit does (a module not yet executed is still of LazyLoader's module
    # type); the value records are plain classes, so no command loads
    # `dataclasses`, and the scalar ones do not load `inspect`, which it
    # imports; the bundled config is in the plain subset, so PyYAML is
    # imported first by a config outside it (a quoted value), which reads
    # the same
    bad = _config_variant(tmp_path, lambda t: t["qrm"].update(omega1_ghz="fast"))
    deep = _config_variant(tmp_path, lambda t: t["qrm"].update(g1_ghz=60.0), "deep.yaml")
    quoted = tmp_path / "quoted.yaml"
    quoted.write_text(paper_device_path().read_text().replace("format: csv", "format: 'csv'"))
    script = (
        "import contextlib, importlib.util, io, sys\n"
        "import dscqed.cli\n"
        "from dscqed.config import load_config, paper_device_path\n"
        "load_config(paper_device_path())\n"
        "print('yaml.reader' in sys.modules)\n"
        "from dscqed.cli import main\n"
        "def lazy(name='dscqed.fitting'):\n"
        "    return type(sys.modules[name]) is importlib.util._LazyModule\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        return main(list(argv))\n"
        "def output(*argv):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        return main(list(argv)), out.getvalue(), err.getvalue()\n"
        "codes = [run('lamb-shift'), run('lamb-shift', '--format', 'json'), run('reproduce-paper'),\n"
        "         run('modes', '--format', 'json'), run('couplings', '--l-c-ph', '100,231,400')]\n"
        "bundled = output('modes')\n"
        "print('yaml' in sys.modules)\n"
        f"print(output('modes', '--config', {str(quoted)!r}) == bundled, 'yaml' in sys.modules)\n"
        f"codes += [bundled[0], run('lamb-shift', '--config', {bad!r}), run('lamb-shift', '--config', {deep!r})]\n"
        "print(codes, 'numpy._core' in sys.modules, lazy(), lazy('dscqed.rabi'), lazy('dscqed.spectrum'),\n"
        "      'dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
        "print(run('spectrum', '--epsilon-min', '0.3', '--epsilon-max', '0.3', '--epsilon-steps', '1'),\n"
        "      'numpy._core' in sys.modules, lazy(), lazy('dscqed.rabi'), lazy('dscqed.spectrum'))\n"
        f"print(run('fit', '--data', {str(synthetic_peaks_path())!r}), lazy(),\n"
        "      'dataclasses' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dscqed.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.stdout.splitlines() == [
        "False",
        "False",
        "True True",
        "[0, 0, 0, 0, 0, 0, 1, 2] False True True True False False",
        "0 True True False False",
        "0 False False",
    ], proc.stderr


_SCALAR_RUNS = (
    ["lamb-shift"],
    ["reproduce-paper", "--format", "json"],
    ["modes", "--n-modes", "5"],
    ["couplings", "--l-c-ph", "100,231,400", "--n-modes", "3"],
    ["modes", "--n-modes", "0"],
)


def test_scalar_commands_load_no_resource_machinery(capsys):
    # the scalar commands need the standard library alone: with only the
    # package's source on the path and no site-packages (-S), numpy and
    # PyYAML cannot be found, and each command prints what it prints with
    # them; config finds the bundled data beside its own source, so neither
    # importlib.resources nor typing loads either
    script = (
        "import contextlib, importlib.util, io, json, sys\n"
        "print(importlib.util.find_spec('numpy'), importlib.util.find_spec('yaml'))\n"
        "from dscqed.cli import main\n"
        "runs = []\n"
        f"for argv in {_SCALAR_RUNS!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        runs.append([main(list(argv)), out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(runs))\n"
        "print(sorted({'numpy', 'yaml', 'importlib.resources', 'typing'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dscqed.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    expected = []
    for argv in _SCALAR_RUNS:
        code = main(list(argv))
        expected.append([code, *capsys.readouterr()])
    assert [run[0] for run in expected] == [0, 0, 0, 0, 1]
    lines = proc.stdout.splitlines()
    assert lines[0] == "None None" and len(lines) == 3, proc.stderr
    assert json.loads(lines[1]) == expected
    assert lines[2] == "[]"


def test_fit_does_not_execute_spectrum():
    # the fit reads its candidate lines and truncation rule from rabi, so a
    # fresh process running only `fit` leaves `spectrum` bound but unexecuted
    script = (
        "import contextlib, importlib.util, io, sys\n"
        "from dscqed.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['fit', '--data', {str(synthetic_peaks_path())!r}])\n"
        "print(code, type(sys.modules['dscqed.spectrum']) is importlib.util._LazyModule,\n"
        "      type(sys.modules['dscqed.fitting']) is importlib.util._LazyModule)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dscqed.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.stdout.splitlines() == ["0 True False"], proc.stderr


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def _single_bias(value):
    """The flags of a one-point bias window at ``value``."""
    return ["--epsilon-min", value, "--epsilon-max", value, "--epsilon-steps", "1"]


def test_spectrum_single_bias_stdout(capsys):
    assert main(["spectrum", *_single_bias("0.0")]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "epsilon_ghz,i,j,label,frequency_ghz,amplitude"
    labels = [row.split(",")[3] for row in lines[1:]]
    assert "03" in labels and "12" in labels
    assert "01" not in labels  # below the probe band


def test_spectrum_decoupled_single_line(tmp_path, capsys):
    def mutate(tree):
        tree["qrm"].update(g1_ghz=0.0)
        tree["sweep"].update(freq_min_ghz=0.01, freq_max_ghz=8.0, k_levels=2)

    path = _config_variant(tmp_path, mutate)
    assert main(["spectrum", *_single_bias("0.0"), "--config", path]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 1
    eps, i, j, label, freq, _amp = rows[0].split(",")
    assert label == "01"
    assert float(freq) == pytest.approx(0.147, abs=1e-9)


@pytest.mark.parametrize("form, out", [
    ("json", "[]\n"), ("csv", "epsilon_ghz,i,j,label,frequency_ghz,amplitude\n"),
])
def test_spectrum_with_no_line_in_the_band_prints_an_empty_table(form, out, tmp_path, capsys):
    # a probe band above every candidate line: no rows, exit 0
    path = _config_variant(tmp_path, lambda t: t["sweep"].update(freq_min_ghz=500.0, freq_max_ghz=600.0))
    assert main(["spectrum", "--config", path, "--epsilon-steps", "3", "--format", form]) == 0
    assert capsys.readouterr() == (out, "")


def test_spectrum_byte_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["spectrum", "--epsilon-min", "-0.4", "--epsilon-max", "0.4", "--epsilon-steps", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_bytes()) > 0


def test_spectrum_csv_json_numeric_duality(tmp_path):
    csv_path = tmp_path / "lines.csv"
    json_path = tmp_path / "lines.json"
    args = ["spectrum", *_single_bias("0.25")]
    assert main(args + ["--out", str(csv_path), "--format", "csv"]) == 0
    assert main(args + ["--out", str(json_path), "--format", "json"]) == 0
    rows = csv_path.read_text().strip().split("\n")[1:]
    objs = json.loads(json_path.read_text())
    assert len(rows) == len(objs)
    for row, obj in zip(rows, objs):
        eps, i, j, label, freq, amp = row.split(",")
        # identical 12-significant-digit tokens on both sides
        assert float(freq) == obj["frequency_ghz"]
        assert float(amp) == obj["amplitude"]
        assert freq == f"{obj['frequency_ghz']:.12g}".rstrip()


# ---------------------------------------------------------------------------
# modes / couplings
# ---------------------------------------------------------------------------


def test_modes_table(capsys):
    assert main(["modes", "--n-modes", "5"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0] == "n,omega_n_ghz,k_x,i_zpf_a,g_n_ghz"
    assert len(rows) == 6
    w1 = float(rows[1].split(",")[1])
    assert w1 == pytest.approx(2.61, abs=0.005)


def test_couplings_multiple_inductances(capsys):
    assert main(["couplings", "--n-modes", "3", "--l-c-ph", "100,231,400"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 9
    lcs = sorted({float(r.split(",")[0]) for r in rows})
    assert lcs == [100.0, 231.0, 400.0]


def test_modes_csv_json_numeric_duality(tmp_path):
    csv_path = tmp_path / "modes.csv"
    json_path = tmp_path / "modes.json"
    assert main(["modes", "--n-modes", "4", "--out", str(csv_path), "--format", "csv"]) == 0
    assert main(["modes", "--n-modes", "4", "--out", str(json_path), "--format", "json"]) == 0
    rows = csv_path.read_text().strip().split("\n")[1:]
    objs = json.loads(json_path.read_text())
    for row, obj in zip(rows, objs):
        _n, omega, kx, izpf, g = row.split(",")
        assert omega == f"{obj['omega_n_ghz']:.12g}"
        assert kx == f"{obj['k_x']:.12g}"
        assert izpf == f"{obj['i_zpf_a']:.12g}"
        assert g == f"{obj['g_n_ghz']:.12g}"


def test_report_csv_json_numeric_duality(tmp_path):
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    assert main(["lamb-shift", "--out", str(csv_path), "--format", "csv"]) == 0
    assert main(["lamb-shift", "--out", str(json_path), "--format", "json"]) == 0
    kv = dict(
        line.split(",", 1) for line in csv_path.read_text().strip().split("\n")[1:]
    )
    report = json.loads(json_path.read_text())
    for key in ("delta0_ghz", "delta0_prime_ghz", "delta_ghz", "sum_value", "total_shift"):
        assert kv[key] == f"{report[key]:.12g}"
    for n, shift in enumerate(report["per_mode_shift"], start=1):
        assert kv[f"per_mode_shift_{n}"] == f"{shift:.12g}"


# ---------------------------------------------------------------------------
# lamb-shift
# ---------------------------------------------------------------------------


def test_lamb_shift_text_report(capsys):
    assert main(["lamb-shift"]) == 0
    out = capsys.readouterr().out
    assert "96.42 %" in out
    assert "82.27 %" in out


def test_lamb_shift_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["lamb-shift", "--out", str(out_path), "--format", "json"]) == 0
    report = json.loads(out_path.read_text())
    assert report["delta_ghz"] == 0.026
    assert abs(report["delta0_ghz"] - 0.732) <= 0.010
    assert len(report["per_mode_shift"]) == 30


def test_lamb_shift_cutoff_override(capsys):
    assert main(["lamb-shift", "--n-cutoff", "100", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_cutoff"] == 100


def test_lamb_shift_has_no_tolerance_flag(capsys):
    # the mode sum is in closed form; there is no accuracy to choose
    assert main(["lamb-shift", "--tolerance", "1e-9"]) == 1
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, count_rows, rows",
    [
        (["modes", "--n-modes", "5000"], lambda out: len(out.splitlines()) - 1, 5000),
        (["lamb-shift", "--n-cutoff", "30000"], lambda out: out.count("\n  mode "), 30),
        (
            ["lamb-shift", "--n-cutoff", "30000", "--format", "json"],
            lambda out: len(json.loads(out)["per_mode_shift"]),
            30,
        ),
        (
            ["couplings", "--l-c-ph", "100,231,400", "--n-modes", "1000"],
            lambda out: len(out.splitlines()) - 1,
            3000,
        ),
    ],
)
def test_mode_structure_extremes(argv, count_rows, rows, capsys):
    # the largest calls of the benchmark's mode-structure workload
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert count_rows(captured.out) == rows


@pytest.mark.parametrize("command", ["modes", "couplings", "lamb-shift"])
def test_mode_count_ceiling_exits_1(command, capsys):
    assert main([command, "--n-modes", "1000000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n-modes: must be <= 1000000, got 1000000000000\n"


@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "--epsilon-min", "nan"], "--epsilon-min"),
    (["spectrum", "--epsilon-min", "inf"], "--epsilon-min"),
    (["spectrum", "--epsilon-min", "1e300"], "--epsilon-min"),
    (["spectrum", "--epsilon-max", "1e50"], "--epsilon-max"),
    (["spectrum", "--epsilon-max", "nan"], "--epsilon-max"),
    (["spectrum", "--epsilon-min", "2", "--epsilon-max", "1"], "--epsilon-min"),
    (["spectrum", "--epsilon-steps=-1"], "--epsilon-steps"),
    (["spectrum", "--epsilon-steps", "1000001"], "--epsilon-steps"),
    (["spectrum", "--tolerance", "0"], "--tolerance"),
    (["couplings", "--l-c-ph", "1e400"], "--l-c-ph"),
    (["couplings", "--l-c-ph="], "--l-c-ph"),
    (["couplings", "--l-c-ph", "100,abc"], "--l-c-ph"),
    (["lamb-shift", "--delta-ghz", "inf"], "--delta-ghz"),
    (["lamb-shift", "--delta-ghz", "1e307"], "--delta-ghz"),
    (["lamb-shift", "--n-cutoff", "1e300"], "--n-cutoff"),
    (["lamb-shift", "--n-cutoff", "1"], "--n-cutoff"),
    (["modes", "--n-modes", "2.5"], "--n-modes"),
    (["modes", "--out="], "--out"),
])
def test_flag_refusals_name_the_flag(argv, flag, capsys):
    import time
    import warnings

    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}: ")
    assert captured.err.count("\n") == 1


def test_flag_help_names_the_config_key(capsys):
    from dscqed.cli import _COMMANDS
    from dscqed.config import FIELDS

    for command, (_handler, _help, flags) in _COMMANDS.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for f in FIELDS:
            if f.flag in flags + ("--format", "--out"):
                assert f"{f.flag} " in text and f"sets {f.path}" in text


def test_single_bias_is_a_one_point_window(capsys):
    # a window of -0.25, 0, 0.25 sizes its truncation at zero and at 0.25,
    # as the one-point window at 0.25 does, so its rows at 0.25 are those
    assert main(["spectrum", *_single_bias("0.25")]) == 0
    single = capsys.readouterr().out.splitlines()
    argv = ["spectrum", "--epsilon-min", "-0.25", "--epsilon-max", "0.25", "--epsilon-steps", "3"]
    assert main(argv) == 0
    window = capsys.readouterr().out.splitlines()
    assert len(single) > 1 and {row.split(",")[0] for row in single[1:]} == {"0.25"}
    assert single == window[:1] + [row for row in window[1:] if row.startswith("0.25,")]


def test_couplings_refuse_zero_coupling_naming_the_key(tmp_path, capsys):
    path = _config_variant(tmp_path, lambda t: t["qrm"].update(g1_ghz=0.0))
    assert main(["couplings", "--config", path]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: qrm.g1_ghz: ")
    assert main(["modes", "--n-modes", "2", "--config", path]) == 0


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_out_file_mode_follows_the_umask(umask, mode, tmp_path):
    out = tmp_path / "perm.csv"
    old = os.umask(umask)
    try:
        assert main(["modes", "--n-modes", "2", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == mode


@pytest.mark.parametrize("argv, qrm, message", [
    (["lamb-shift"], {"omega1_ghz": 1.5, "g1_ghz": 5.0}, "numerical failure: total shift"),
    (["reproduce-paper"], {"g1_ghz": 1000.0}, "numerical failure: total shift"),
    (["reproduce-paper"], {"delta_prime_ghz": 0.0}, "reference-value mismatch"),
])
def test_unrepresentable_reports_exit_2(argv, qrm, message, tmp_path, capsys):
    # the deep device of the benchmark's spectrum workload, a coupling that
    # overflowed the bare gap, and a zero gap that divided by zero
    path = _config_variant(tmp_path, lambda t: t["qrm"].update(qrm))
    assert main(argv + ["--config", path]) == 2
    assert message in capsys.readouterr().err


def test_library_warning_prints_one_line(tmp_path, capsys):
    import warnings

    path = _config_variant(tmp_path, lambda t: t["qrm"].update(delta_prime_ghz=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        shown = warnings.showwarning
        assert main(["reproduce-paper", "--config", path]) == 2
        assert warnings.showwarning is shown
    assert capsys.readouterr().err == (
        "warning: delta0/omega = 0.389 exceeds 0.2; the exponential formula assumes "
        "delta0 << omega\nreference-value mismatch\n"
    )


def test_uncertified_mode_roots_exit_2(tmp_path, capsys):
    # l_c = 1e-7 pH puts the inductance ratio near 2e10, where the
    # fundamental root cannot be certified to 1e-9 in double precision
    path = _config_variant(tmp_path, lambda t: t["device"].update(l_c_ph=1.0e-7))
    assert main(["modes", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: mode-equation residual")


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_bundled_dataset_recovers_parameters(tmp_path):
    out_path = tmp_path / "fit.json"
    rc = main(
        ["fit", "--data", str(synthetic_peaks_path()), "--out", str(out_path), "--format", "json"]
    )
    assert rc == 0
    result = json.loads(out_path.read_text())
    assert result["converged"] is True
    for key, true in (
        ("delta_prime_ghz", 0.147),
        ("omega1_ghz", 2.57),
        ("g1_ghz", 2.39),
    ):
        assert abs(result[key] / true - 1.0) < 0.01
    assert result["residual_rms_ghz"] == pytest.approx(0.002, abs=0.001)


def test_fit_malformed_csv_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("epsilon_ghz,frequency_ghz\n0.0,oops\n")
    assert main(["fit", "--data", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_fit_names_the_file_of_degenerate_data(tmp_path, capsys):
    path = tmp_path / "eq.csv"
    path.write_text("epsilon_ghz,frequency_ghz\n0.1,3.0\n-0.1,3.1\n0.1,3.2\n")
    assert main(["fit", "--data", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: degenerate data: all bias values are equal in magnitude\n"
    )


@pytest.mark.parametrize("column, value", [
    (3, "inf"), (3, "nan"), (3, "0"), (3, "-1"),
    (2, "bad"), (2, "30"), (2, "003"), (2, "0003"),
    (1, "nan"), (0, "-inf"),
])
def test_peak_row_refusals_name_file_and_line(column, value, tmp_path, capfd):
    # the 5th data row (line 6) of the bundled set, one cell changed; capfd
    # also sees what the eigensolver's Fortran would print to fd 1
    lines = Path(synthetic_peaks_path()).read_text().splitlines(keepends=True)
    cells = lines[5].rstrip("\n").split(",")
    cells[column] = value
    lines[5] = ",".join(cells) + "\n"
    path = tmp_path / "peaks.csv"
    path.write_text("".join(lines))
    assert main(["fit", "--data", str(path)]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}:6: ")
    assert captured.err.count("\n") == 1


def test_fit_refuses_a_label_above_k_levels(tmp_path, capsys):
    # the 2nd data row of the bundled set relabeled to level 6 of k_levels 6,
    # after a blank line: the refusal names the file line, not the data row
    lines = Path(synthetic_peaks_path()).read_text().splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[2] = "06"
    lines[2] = ",".join(cells)
    lines.insert(2, "\n")
    path = tmp_path / "peaks.csv"
    path.write_text("".join(lines))
    assert main(["fit", "--data", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}:4: transition label '06' needs j < k_levels (6)\n"


def test_fit_refuses_a_repeated_column(tmp_path, capfd):
    # a second label column would silently win over the first
    lines = Path(synthetic_peaks_path()).read_text().splitlines()
    lines = [lines[0] + ",label"] + [line + ",03" for line in lines[1:]]
    path = tmp_path / "peaks.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--data", str(path)]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}:1: duplicate column 'label'\n"


def test_fit_with_no_line_above_the_floor_names_the_row_and_floor(tmp_path, capfd):
    # the bundled peaks with every label blanked, behind two blank lines, no
    # line above the floor: the refusal names the file line of data row 1
    lines = Path(synthetic_peaks_path()).read_text().splitlines()
    for n in range(1, len(lines)):
        cells = lines[n].split(",")
        cells[2] = ""
        lines[n] = ",".join(cells)
    data = tmp_path / "peaks.csv"
    data.write_text("\n".join([lines[0], "", "", *lines[1:]]) + "\n")
    config = _config_variant(tmp_path, lambda t: t["sweep"].update(amplitude_floor=10.0))
    assert main(["fit", "--data", str(data), "--config", config]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {data}:4: no drive-allowed transition within k_levels (6) above the amplitude floor 10.0\n"
    )


def test_fit_floor_refusal_names_the_first_row_whose_bias_fails(tmp_path, capfd):
    # the bundled peaks with every label blanked at floor 0.9: data row 55,
    # file line 56, is the first in row order whose |bias| has no line
    # above the floor
    lines = Path(synthetic_peaks_path()).read_text().splitlines()
    for n in range(1, len(lines)):
        cells = lines[n].split(",")
        cells[2] = ""
        lines[n] = ",".join(cells)
    data = tmp_path / "peaks.csv"
    data.write_text("\n".join(lines) + "\n")
    config = _config_variant(tmp_path, lambda t: t["sweep"].update(amplitude_floor=0.9))
    assert main(["fit", "--data", str(data), "--config", config]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {data}:56: no drive-allowed transition within k_levels (6) above the amplitude floor 0.9\n"
    )


@pytest.mark.parametrize("flag, value", [
    ("--epsilon-max", "-1e-3"), ("--epsilon-min", "-1e-3"), ("--epsilon-min", "-2.5E-1"),
])
def test_negative_exponent_value_is_read_as_the_value(flag, value, capsys):
    argv = ["spectrum", "--epsilon-steps", "3"]
    assert main(argv + [f"{flag}={value}"]) == 0
    joined = capsys.readouterr()
    assert main(argv + [flag, value]) == 0
    assert capsys.readouterr() == joined


def test_non_numeric_dash_value_is_still_a_flag(capsys):
    assert main(["spectrum", "--epsilon-min", "-x"]) == 1
    assert capsys.readouterr().err == "error: --epsilon-min: expected one argument\n"


@pytest.mark.parametrize("argv", [
    ["modes", "--n-mod", "2"],
    ["spectrum", "--tol", "1e-3"],
    ["lamb-shift", "--form", "json"],
    ["lamb-shift", "--form", "json", "--n-cut", "20"],
    ["spectrum", "--epsilon", "0.3"],
    ["spectrum", "--epsilon=-0.3"],
], ids=" ".join)
def test_only_full_flag_names_are_accepted(argv, capsys):
    # no prefix of a flag stands in for it, and --epsilon is not a flag
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unrecognized arguments: {' '.join(argv[1:])}\n"


# ---------------------------------------------------------------------------
# exit codes and plumbing
# ---------------------------------------------------------------------------


def test_missing_config_exits_1(capsys):
    assert main(["modes", "--config", "/nonexistent.yaml"]) == 1
    assert "no such file" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main(["spectrum", "--format", "xml"]) == 1


def test_numerical_failure_exits_2(monkeypatch, capsys):
    from dscqed import ConvergenceError
    from dscqed import cli as cli_mod

    def stalled(*args, **kwargs):
        raise ConvergenceError("did not settle")

    monkeypatch.setattr(cli_mod.spectrum, "sweep", stalled)
    assert main(["spectrum"]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_tmpdir_override_honored(tmp_path, monkeypatch):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setenv("DSCQED_TMPDIR", str(scratch))
    out = tmp_path / "modes.csv"
    assert main(["modes", "--n-modes", "2", "--out", str(out)]) == 0
    assert out.exists()
    assert os.listdir(scratch) == []  # temp file renamed away


def test_rename_across_file_systems_is_refused_and_leaves_the_target(tmp_path, monkeypatch, capsys):
    # a temp directory on another file system makes the rename fail with
    # EXDEV: the write is refused and the target keeps its old bytes, since
    # rewriting it in place could leave a partial file
    import errno

    out = tmp_path / "modes.csv"
    out.write_text("old\n")

    def cross_device(src, dst):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

    monkeypatch.setattr(os, "replace", cross_device)
    assert main(["modes", "--n-modes", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {out}: {os.strerror(errno.EXDEV)}\n"
    assert out.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["modes.csv"]  # no temp file left


@pytest.mark.parametrize(
    "argv, field",
    [
        (["modes", "--n-modes", "0"], "n_modes"),
        (["couplings", "--n-modes", "0"], "n_modes"),
        (["lamb-shift", "--n-cutoff", "0"], "n_cutoff"),
        (["lamb-shift", "--delta-ghz", "0"], "delta_measured"),
    ],
)
def test_explicit_zero_is_validated_not_replaced(argv, field, capsys):
    # the refusal names the flag, which sets the config key of the field
    from dscqed.config import FIELDS

    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {argv[1]}: must be")
    assert field in {f.flag: f.path for f in FIELDS}[argv[1]]


@pytest.mark.parametrize("solver, qrm, argv", [
    ("eigvalsh", {}, []),
    # the deep device reaches the reduced basis, whose SVD is the one LAPACK
    # call outside the eigensolvers that the sweep makes
    ("svd", {"delta_prime_ghz": 0.15, "omega1_ghz": 1.5, "g1_ghz": 5.0}, ["--epsilon-steps", "21"]),
], ids=["bundled-eigvalsh", "deep-svd"])
def test_eigensolver_failure_exits_2(solver, qrm, argv, tmp_path, monkeypatch, capsys):
    import numpy as np

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{solver} did not converge")

    path = _config_variant(tmp_path, lambda t: t["qrm"].update(qrm))
    monkeypatch.setattr(np.linalg, solver, broken)
    assert main(["spectrum", "--config", path, *argv]) == 2
    assert "numerical failure:" in capsys.readouterr().err


def test_non_finite_config_value_exits_1(tmp_path, capsys):
    text = paper_device_path().read_text().replace(
        "epsilon_min_ghz: -1.0", "epsilon_min_ghz: .nan"
    )
    path = tmp_path / "nan.yaml"
    path.write_text(text)
    assert main(["spectrum", "--config", str(path)]) == 1
    assert "sweep.epsilon_min_ghz" in capsys.readouterr().err


def test_huge_integer_config_value_exits_1(tmp_path, capsys):
    text = paper_device_path().read_text().replace(
        "omega1_ghz: 2.57", "omega1_ghz: 1" + "0" * 400
    )
    path = tmp_path / "huge.yaml"
    path.write_text(text)
    assert main(["spectrum", "--config", str(path)]) == 1
    assert "qrm.omega1_ghz: must be finite" in capsys.readouterr().err


def _count_calls(monkeypatch, targets):
    """Counter of numpy's eigh and eigvalsh calls by kind and dimension
    ("eigh@34") and of the calls of each (module, name) in ``targets`` by
    name, for the rest of the test."""
    import numpy as np

    calls = Counter()

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key(*args)] += 1
            return fn(*args, **kwargs)

        return wrapper

    for kind in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, kind)
        monkeypatch.setattr(
            np.linalg, kind, counted(fn, lambda h, *_, kind=kind: f"{kind}@{h.shape[-1]}")
        )
    for mod, name in targets:
        monkeypatch.setattr(mod, name, counted(getattr(mod, name), lambda *_, n=name: n))
    return calls


# The bundled sweep's exact counts: 81 biases at n_max 16 (dim 34), after
# two truncation searches that each probe n_max 8, 16 and 32.  The
# benchmark's traced run checks the same counts (bench/tracer.py SELF_CHECK).
BUNDLED_SPECTRUM_COUNTS = {
    "eigensystem": 81,
    "eigh@34": 81,
    "drive_matrix_element": 612,
    "converged_truncation": 2,
    "eigvalsh@18": 2,
    "eigvalsh@34": 2,
    "eigvalsh@66": 2,
}


def test_bundled_spectrum_call_counts(monkeypatch, capsys):
    from dscqed import rabi, spectrum

    targets = (
        (rabi, "eigensystem"), (spectrum, "drive_matrix_element"), (rabi, "converged_truncation")
    )
    calls = _count_calls(monkeypatch, targets)
    assert main(["spectrum"]) == 0
    capsys.readouterr()
    assert calls == BUNDLED_SPECTRUM_COUNTS


def _tracer_constant(name):
    """The literal value of the top-level ``name = ...`` of bench/tracer.py,
    read as source, so the benchmark is neither imported nor run."""
    tracer = Path(__file__).parents[1] / "bench" / "tracer.py"
    (value,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == [name]
    ]
    return value


def test_bundled_count_pin_is_the_benchmark_self_check():
    # SELF_CHECK names each rabi function with its module and adds the
    # eigvalsh total; re-pinning one of the two without the other fails here
    self_check = _tracer_constant("SELF_CHECK")
    total = self_check.pop("eigvalsh")
    assert {key.removeprefix("rabi."): n for key, n in self_check.items()} == BUNDLED_SPECTRUM_COUNTS
    assert total == sum(n for key, n in self_check.items() if key.startswith("eigvalsh@"))


def test_cli_import_registers_every_traced_layer():
    # the benchmark's tracer reads sys.modules["dscqed.<layer>"] for each of
    # its LAYERS right after `import dscqed.cli`; a layer bound lazily is
    # registered there without being executed
    layers = _tracer_constant("LAYERS")
    script = (
        "import sys\n"
        "import dscqed.cli\n"
        f"print([layer for layer in {layers!r} if f'dscqed.{{layer}}' not in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dscqed.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert "rabi" in layers and proc.stdout.splitlines() == ["[]"], proc.stderr


def test_deep_spectrum_call_counts(tmp_path, monkeypatch, capsys):
    # The benchmark's deep device (0.15, 1.5, 5 GHz) over 201 biases at
    # n_max 64 (dim 130): one kernel call over the grid, which makes one
    # stacked eigensystem at the 5 snapshot biases, one over the 200 nonzero
    # biases in the 22-column reduced basis, all certified, and one at zero,
    # after two truncation searches that each probe n_max 16, 32, 64 and 128.
    from dscqed import rabi, spectrum

    targets = (
        (rabi, "eigensystem"),
        (spectrum, "_eigenpairs"),
        (spectrum, "drive_matrix_element"),
        (rabi, "converged_truncation"),
    )
    calls = _count_calls(monkeypatch, targets)
    qrm = {"delta_prime_ghz": 0.15, "omega1_ghz": 1.5, "g1_ghz": 5.0}
    path = _config_variant(tmp_path, lambda t: t["qrm"].update(qrm))

    assert main(["spectrum", "--config", path, "--epsilon-steps", "201"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 902
    assert calls == {
        "eigensystem": 3,
        "eigh@130": 2,
        "eigh@22": 1,
        "_eigenpairs": 1,
        "drive_matrix_element": 902,
        "converged_truncation": 2,
        "eigvalsh@34": 2,
        "eigvalsh@66": 2,
        "eigvalsh@130": 2,
        "eigvalsh@258": 2,
    }


def test_bundled_spectrum_builds_the_bands_once_per_dimension(capsys):
    # the truncation searches touch dims 18, 34 and 66 and the sweep stays
    # at 34: three builds, every other read of the bands a cache hit
    from dscqed import rabi

    rabi._photons_and_spin.cache_clear()
    assert main(["spectrum"]) == 0
    capsys.readouterr()
    info = rabi._photons_and_spin.cache_info()
    assert info.misses == 3 and info.hits > 0


def test_fit_takes_line_selection_from_config(tmp_path, monkeypatch, capsys):
    from dscqed import fitting

    seen = {}
    real_fit = fitting.fit

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(fitting, "fit", spy)
    path = _config_variant(
        tmp_path, lambda t: t["sweep"].update(k_levels=7, amplitude_floor=2.0e-6)
    )
    assert main(["fit", "--data", str(synthetic_peaks_path()), "--config", path]) == 0
    assert seen["k_levels"] == 7
    assert seen["amplitude_floor"] == 2.0e-6


# ---------------------------------------------------------------------------
# one emission path
# ---------------------------------------------------------------------------

EMITTING = [
    ["modes", "--n-modes", "5"],
    ["couplings", "--l-c-ph", "100,231", "--n-modes", "5"],
    ["lamb-shift"],
    ["spectrum", "--epsilon-steps", "5"],
    ["fit", "--data", str(synthetic_peaks_path())],
    ["reproduce-paper"],
]


@pytest.mark.parametrize("form", ["csv", "json"])
@pytest.mark.parametrize("argv", EMITTING, ids=lambda argv: argv[0])
def test_out_file_bytes_equal_stdout_bytes(argv, form, tmp_path, capsys):
    assert main(argv + ["--format", form]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / f"out.{form}"
    assert main(argv + ["--format", form, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == printed.encode()


@pytest.mark.parametrize("command, first_line", [
    ("lamb-shift", "Lamb-shift report"),
    ("reproduce-paper", "quantity "),
])
def test_text_report_printed_when_writing_a_file(command, first_line, tmp_path, capsys):
    assert main([command]) == 0
    text = capsys.readouterr().out
    assert text.startswith(first_line)
    for form in ("csv", "json"):
        out = tmp_path / f"report.{form}"
        assert main([command, "--out", str(out), "--format", form]) == 0
        assert capsys.readouterr().out == text
        assert out.read_text() != text


@pytest.mark.parametrize("argv, named, tmpdir", [
    (["modes", "--out", "{tmp}/no/x.csv"], "{tmp}/no/x.csv", None),
    (["lamb-shift", "--out", "{tmp}/no/x.json"], "{tmp}/no/x.json", None),
    (["reproduce-paper", "--out", "{tmp}/no/x.csv"], "{tmp}/no/x.csv", None),
    (["modes", "--out", "{tmp}"], "{tmp}", None),
    (["modes", "--out", "{tmp}/x.csv"], "{tmp}/gone", "{tmp}/gone"),
    (["fit", "--data", "{tmp}/no.csv"], "{tmp}/no.csv", None),
    (["fit", "--data", "{tmp}"], "{tmp}", None),
    (["modes", "--config", "{tmp}"], "{tmp}", None),
    (["fit", "--data", "{tmp}/peaks.csv"], "{tmp}/peaks.csv", None),
    (["modes", "--config", "{tmp}/device.yaml"], "{tmp}/device.yaml", None),
], ids=[
    "out-dir-missing", "out-dir-missing-text", "out-dir-missing-table", "out-is-directory",
    "tmpdir-missing", "data-missing", "data-is-directory", "config-is-directory",
    "data-not-utf8", "config-not-utf8",
])
def test_file_errors_exit_1_naming_the_path(argv, named, tmpdir, tmp_path, monkeypatch, capsys):
    for source, name in ((synthetic_peaks_path(), "peaks.csv"), (paper_device_path(), "device.yaml")):
        (tmp_path / name).write_bytes(Path(source).read_bytes() + b"# \xff\n")
    if tmpdir:
        monkeypatch.setenv("DSCQED_TMPDIR", tmpdir.format(tmp=tmp_path))
    else:
        monkeypatch.delenv("DSCQED_TMPDIR", raising=False)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert named.format(tmp=tmp_path) in captured.err
    assert captured.err.count("\n") == 1


def test_byte_order_marked_peaks_fit_as_unmarked(tmp_path, capsys):
    # a UTF-8 byte-order mark before the header is read as no text
    marked = tmp_path / "peaks.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + synthetic_peaks_path().read_bytes())
    assert main(["fit", "--data", str(synthetic_peaks_path()), "--format", "json"]) == 0
    plain = capsys.readouterr()
    assert main(["fit", "--data", str(marked), "--format", "json"]) == 0
    assert capsys.readouterr() == plain


def test_out_writes_through_a_symlink(tmp_path, capsys):
    # the link stays a link; the file it names gets the output, and a
    # dangling link's file is created
    assert main(["modes", "--n-modes", "2"]) == 0
    printed = capsys.readouterr().out
    for target in (tmp_path / "old.csv", tmp_path / "new.csv"):
        if target.name == "old.csv":
            target.write_text("old\n")
        link = tmp_path / f"link-{target.name}"
        link.symlink_to(target)
        assert main(["modes", "--n-modes", "2", "--out", str(link)]) == 0
        assert link.is_symlink() and target.read_text() == printed
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link-new.csv", "link-old.csv", "new.csv", "old.csv"
    ]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("through_link", [False, True])
def test_out_refuses_a_fifo_and_leaves_it(through_link, tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    out = fifo
    if through_link:
        out = tmp_path / "link"
        out.symlink_to(fifo)
    assert main(["modes", "--n-modes", "2", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {out}: not a regular file\n")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert out.is_symlink() == through_link
    assert len(list(tmp_path.iterdir())) == 1 + through_link  # no temp file left

