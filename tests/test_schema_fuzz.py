"""The CLI's failure contract, fuzzed from the config field table.

Each case changes one key of the bundled config, in the YAML file or through
the flag that overrides it, to a value drawn from the key's own row in
``config.FIELDS``: inside the domain, on its edges, just outside, NaN, +-inf,
huge, of the wrong type, or an unknown key next to it.  The subcommand run is
a cheap one that reads the key.  Whatever the value, the run exits 0, 1 or 2
without a traceback or a warning (other than the documented delta0/omega
validity warning); an exit 1 names a flag, a dotted path or ``file:line``;
an exit 0 prints output that parses and holds only finite numbers.

The integer keys size the work (``sweep.epsilon_steps``, ``sweep.k_levels``,
``lamb.n_modes``), so they are drawn valid only up to a few units above
their floor, and the ``fit`` section runs under ``modes``: each case stays
in milliseconds.
"""

import contextlib
import copy
import io
import json
import math
import os
import re
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import parser_outcomes
from dscqed import paper_device_path
from dscqed.cli import main
from dscqed.config import FIELDS

BUNDLED = yaml.safe_load(paper_device_path().read_text())
FIELD = {f.path: f for f in FIELDS}
VALIDITY_WARNING = "the exponential formula assumes delta0 << omega"
# "--flag:", argparse's "unrecognized arguments: --flag", "file: dotted.path:"
# or "file:line:"
NAMED = re.compile(
    r"error: ((unrecognized arguments: )?--[a-z][a-z-]*"
    r"|\S+: [a-z_]+(\.[a-z0-9_]+)+|\S+:\d+)[:.=\n]"
)

# the subcommand that reads each section, with the output as JSON
PROBE = {
    "device": ["modes", "--n-modes", "2"],
    "qrm": ["reproduce-paper"],
    "sweep": ["spectrum", "--epsilon-steps", "2"],
    "lamb": ["lamb-shift"],
    "fit": ["modes", "--n-modes", "2"],
    "output": ["modes", "--n-modes", "2"],
}
PROBE_OF_FLAG = {
    "--n-modes": ["lamb-shift"],
    "--l-c-ph": ["couplings", "--n-modes", "2"],
}


def _interval(domain):
    low, high = (float(s) for s in domain[1:-1].split(","))
    return low, high, domain[0] == "(", domain[-1] == ")"


def _values(f):
    """Strategy of values for the key ``f``: valid, edge, invalid."""
    if f.kind is str:
        words = list(f.domain) if f.domain else ["{tmp}/out.txt"]
        return st.sampled_from(words + ["", "xml", "{tmp}/missing/out.txt"])
    low, high, open_low, open_high = _interval(f.domain)
    if f.kind is int:
        valid = st.integers(int(low), int(low) + 3)
        edges = st.sampled_from([int(low) - 1, int(high) + 1, 10**400, 2.0, -1])
    else:
        valid = st.floats(low, high, exclude_min=open_low, exclude_max=open_high)
        edges = st.sampled_from([
            low, high, math.nextafter(low, -math.inf), math.nextafter(high, math.inf),
            math.nextafter(low, math.inf), math.nextafter(high, -math.inf),
            math.nan, math.inf, -math.inf, 1e300, -1e300, 10**400,
        ])
    scalar = st.one_of(valid, edges)
    if f.kind is tuple:
        pairs = st.tuples(scalar, scalar)
        return st.one_of(pairs.map(sorted), pairs, st.just([1.0]))
    return scalar


WRONG_TYPES = st.sampled_from(["text", "1e-3", True, None, [1, 2], {"a": 1}])


def _text(value):
    return str(value) if isinstance(value, str) else repr(value)


@st.composite
def yaml_cases(draw):
    f = draw(st.sampled_from(FIELDS))
    value = draw(st.one_of(_values(f), WRONG_TYPES))
    return f.path, value, draw(st.booleans())


@st.composite
def argv_cases(draw):
    f = draw(st.sampled_from([f for f in FIELDS if f.flag]))
    value = draw(st.one_of(_values(f), st.sampled_from(["", "abc", "1,2", "1e3"])))
    argv = [f"{f.flag}={_text(value)}"]
    return argv + draw(st.sampled_from([[], [], [], ["--no-such-key=1"]]))


def _probe_for_path(path):
    return list(PROBE[path.split(".")[0]])


def _argv_probe(flag_argv):
    flag = flag_argv[0].split("=")[0]
    if flag in PROBE_OF_FLAG:
        return PROBE_OF_FLAG[flag] + flag_argv
    path = next(f.path for f in FIELDS if f.flag == flag)
    probe = _probe_for_path(path)
    if flag == "--epsilon-steps":
        probe = probe[:1]
    return probe + flag_argv


def _run(argv, tmp, form="json"):
    """``main(argv)`` in-process, with the output as ``form`` unless argv
    chooses the format itself; the warnings are those ``main`` prints as
    "warning:" lines, which are taken out of stderr."""
    argv = [a.replace("{tmp}", str(tmp)) for a in argv]
    if not any(a.startswith("--format") for a in argv) and form:
        argv += ["--format", form]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    lines = err.getvalue().splitlines(keepends=True)
    caught = [line for line in lines if line.startswith("warning: ")]
    err = "".join(line for line in lines if line not in caught)
    return rc, out.getvalue(), err, argv, caught


def _option(argv, flag):
    """The value ``argv`` gives ``flag``, as ``--flag value`` or ``--flag=value``."""
    for n, arg in enumerate(argv):
        if arg == flag:
            return argv[n + 1]
        if arg.startswith(flag + "="):
            return arg.split("=", 1)[1]
    return None


def _check_contract(rc, out, err, argv, caught, form=None):
    assert rc in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    assert all(VALIDITY_WARNING in w for w in caught), (argv, caught)
    if rc == 1:
        # a file that cannot be written is named itself
        target = _option(argv, "--out")
        assert out == ""
        assert err.count("\n") == 1, (argv, err)
        assert NAMED.match(err) or target and err.startswith(f"error: {target}: "), (argv, err)
    if rc == 0:
        assert err == ""
        target = _option(argv, "--out")
        text = Path(target).read_text() if target else out
        form = _option(argv, "--format") or form
        if form == "json":
            numbers = _json_numbers(json.loads(text))
        else:
            numbers = [float(cell) for line in text.splitlines()[1:] for cell in line.split(",")
                       if re.fullmatch(r"[-+0-9.e]+|nan|inf|-inf", cell)]
        assert all(math.isfinite(x) for x in numbers), (argv, text[:200])


def _json_numbers(value):
    if isinstance(value, dict):
        return [x for v in value.values() for x in _json_numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _json_numbers(v)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    """A scratch directory, also the working directory, where relative
    ``--out`` values land."""
    path = tmp_path_factory.mktemp("fuzz")
    cwd = os.getcwd()
    os.chdir(path)
    yield path
    os.chdir(cwd)


FUZZ = settings(
    max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ
@given(case=yaml_cases())
@example(case=("qrm.delta_prime_ghz", 0.0, False))  # divided by zero in reproduce-paper
@example(case=("qrm.g1_ghz", 1e6, False))  # overflowed the bare gap
@example(case=("qrm.omega1_ghz", 1e-9, False))
@example(case=("device.z0_ohm", 1e-9, False))
@example(case=("lamb.n_cutoff", 2.1658227454391343, False))
@example(case=("output.out", "{tmp}/missing/out.txt", False))
@example(case=("sweep.k_levels", 10**400, True))
def test_config_values_keep_the_failure_contract(case, tmp):
    path, value, unknown_key = case
    tree = copy.deepcopy(BUNDLED)
    *sections, key = path.split(".")
    node = tree
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value.replace("{tmp}", str(tmp)) if isinstance(value, str) else value
    if unknown_key:
        node["bogus_key"] = 1.0
    config = tmp / "config.yaml"
    config.write_text(yaml.safe_dump(tree))
    read, pure = parser_outcomes(config)
    assert read == pure
    probe = ["spectrum"] if path == "sweep.epsilon_steps" else _probe_for_path(path)
    if path == "output.out":
        probe += ["--format", "csv"]
    form = None if path == "output.format" else "json"
    rc, out, err, argv, caught = _run(probe + ["--config", str(config)], tmp, form)
    if path == "output.out" and isinstance(node[key], str):
        argv += ["--out", node[key]]  # where the contract looks for the output
    _check_contract(rc, out, err, argv, caught, value if form is None else form)
    if unknown_key:
        assert rc == 1


@FUZZ
@given(flag_argv=argv_cases())
@example(flag_argv=["--epsilon-min", "nan"])
@example(flag_argv=["--epsilon-min", "inf"])
@example(flag_argv=["--epsilon-min", "1e300"])
@example(flag_argv=["--epsilon-max", "1e50"])
@example(flag_argv=["--epsilon-max", "nan"])
@example(flag_argv=["--epsilon-min", "2", "--epsilon-max", "1"])
@example(flag_argv=["--epsilon-steps", "-1"])
@example(flag_argv=["--epsilon-steps", "1000001"])
@example(flag_argv=["--l-c-ph", "1e400"])
@example(flag_argv=["--l-c-ph", ""])
@example(flag_argv=["--delta-ghz", "inf"])
@example(flag_argv=["--delta-ghz", "1e307"])
@example(flag_argv=["--n-cutoff", "1e300"])
def test_flag_values_keep_the_failure_contract(flag_argv, tmp):
    rc, out, err, argv, caught = _run(_argv_probe(flag_argv), tmp)
    _check_contract(rc, out, err, argv, caught)
    if "--no-such-key=1" in flag_argv:
        assert rc == 1
