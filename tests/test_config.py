import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dscqed
from conftest import parser_outcomes
from dscqed import ConfigError, config, load_config, paper_device_path
from dscqed.config import FIELDS, _linspace


@pytest.fixture
def bundled():
    return load_config(paper_device_path())


def _write_variant(tmp_path, mutate):
    with open(paper_device_path()) as fh:
        tree = yaml.safe_load(fh)
    mutate(tree)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(tree))
    return path


def test_bundled_published_constants(bundled):
    # in nH and pH: pytest.approx's 1e-12 absolute floor would swallow any
    # error on values of order 1e-10 H
    m = bundled.resonator
    assert m.l_total * 1e9 == pytest.approx(1.93)
    assert m.l_2 * 1e12 == pytest.approx(823.0)
    assert m.l_c * 1e12 == pytest.approx(231.0)
    assert m.z0 == 50.0
    q = bundled.qrm
    assert (q.delta_prime, q.omega1, q.g1) == (0.147, 2.57, 2.39)
    assert bundled.n_cutoff == 13.2


def test_sweep_section_materializes_grid(bundled):
    grid = bundled.sweep.epsilon_grid
    assert len(grid) == 81
    assert grid[0] == -1.0 and grid[-1] == 1.0
    assert 0.0 in grid
    assert bundled.sweep.freq_window == (2.0, 8.0)


_ENDS = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(-1e-300, 1e-300),  # steps that underflow towards zero
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e6, -1e6]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    start=_ENDS,
    stop=_ENDS,
    num=st.one_of(st.sampled_from([1, 2]), st.integers(1, 10**4)),
    same=st.booleans(),
)
@example(start=0.0, stop=5e-324, num=3, same=False)  # step rounds to zero
@example(start=-5e-324, stop=5e-324, num=10**4, same=False)
@example(start=-0.0, stop=-0.0, num=1, same=False)
@example(start=-0.0, stop=0.0, num=2, same=False)
@example(start=-1e6, stop=1e6, num=10**4, same=False)
def test_grid_is_numpy_linspace_bitwise(start, stop, num, same):
    stop = start if same else stop
    want = tuple(np.linspace(start, stop, num).tolist())
    got = _linspace(start, stop, num)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_missing_file():
    with pytest.raises(ConfigError, match="no such file"):
        load_config("/nonexistent/config.yaml")


def test_empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        load_config(path)


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("device:\n  z0_ohm: 50\n bad_indent: {\n")
    with pytest.raises(ConfigError, match=r":\d+:"):
        load_config(path)


def test_control_character_names_its_line(tmp_path):
    # the parser gives a character position; the refusal names the line
    path = tmp_path / "bad.yaml"
    path.write_text("device:\n  z0_ohm: 50.0\x01\n")
    with pytest.raises(ConfigError) as refusal:
        load_config(path)
    assert str(refusal.value) == (
        f"{path}:2: unacceptable character #x0001: special characters are not allowed"
    )


DEEP = 30000  # levels that overflow libyaml's recursive composer


@pytest.mark.parametrize(("value", "line"), [
    ("[" * DEEP + "1" + "]" * DEEP, 5),
    ("{b: " * DEEP + "1" + "}" * DEEP, 5),
    ("\n    " + "- " * DEEP + "1", 6),
    ("[" * DEEP + "1" + "]" * DEEP + "  # \u00e9", 5),  # read by the pure parser
], ids=["flow-sequence", "flow-mapping", "block-sequence", "pure-parser"])
def test_deep_nesting_is_refused_at_its_line(tmp_path, value, line):
    # the composers recurse once per level, and libyaml's overflows the C
    # stack: a subprocess, so that a crash fails the test and spares pytest
    path = tmp_path / "deep.yaml"
    path.write_text(paper_device_path().read_text().replace("z0_ohm: 50.0", "z0_ohm: " + value))
    env = dict(os.environ, PYTHONPATH=str(Path(dscqed.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "dscqed.cli", "modes", "--config", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {path}:{line}: nested deeper than {config._MAX_DEPTH} levels\n"


def test_nesting_to_the_limit_reaches_the_validator(tmp_path):
    depth = config._MAX_DEPTH - 2  # under the top-level and device mappings
    path = tmp_path / "deep.yaml"
    value = "[" * depth + "1" + "]" * depth
    path.write_text(paper_device_path().read_text().replace("z0_ohm: 50.0", "z0_ohm: " + value))
    assert parser_outcomes(path)[0] == parser_outcomes(path)[1]
    with pytest.raises(ConfigError, match=r"device\.z0_ohm: expected a number, got \[\[\["):
        load_config(path)


def test_nesting_one_level_past_the_limit_is_refused(tmp_path):
    depth = config._MAX_DEPTH - 1  # under the top-level and device mappings
    path = tmp_path / "deep.yaml"
    value = "[" * depth + "1" + "]" * depth
    path.write_text(paper_device_path().read_text().replace("z0_ohm: 50.0", "z0_ohm: " + value))
    with pytest.raises(ConfigError) as refusal:
        load_config(path)
    assert str(refusal.value) == f"{path}:5: nested deeper than {config._MAX_DEPTH} levels"


@pytest.mark.parametrize(("value", "quoted"), [
    ("[" + ", ".join(["1"] * 200000) + "]", "[1, 1, 1, 1, 1, 1, ...]"),
    ("&r [1, *r]", "[1, [1, [...]]]"),  # a list that holds itself
    ('"' + "x" * 5000 + '"', "'" + "x" * 12 + "..." + "x" * 13 + "'"),
    ("{b: 1, a: [2, 3]}", "{'b': 1, 'a': [2, 3]}"),  # small: repr, in file order
    ('"' + "x" * 98 + '"', "'" + "x" * 98 + "'"),
], ids=["wide", "self-holding", "long-text", "small-mapping", "short-text"])
def test_refused_values_are_quoted_within_bounds(tmp_path, value, quoted):
    path = tmp_path / "config.yaml"
    path.write_text(paper_device_path().read_text().replace("z0_ohm: 50.0", "z0_ohm: " + value))
    with pytest.raises(ConfigError) as refusal:
        load_config(path)
    assert str(refusal.value) == f"{path}: device.z0_ohm: expected a number, got {quoted}"


# printable ASCII, a tab, YAML's other line breaks, a control character, a
# byte-order mark and a letter beyond ASCII
MUTATION_CHARS = [chr(c) for c in range(32, 127)] + list("\t\x01\x85\xa0\u2028\ufeff\xe9")


def _mutant(text, rng):
    """``text`` with one character deleted, inserted or replaced."""
    p, c = rng.randrange(len(text) + 1), rng.choice(MUTATION_CHARS)
    return rng.choice((text[:p] + text[p + 1:], text[:p] + c + text[p:], text[:p] + c + text[p + 1:]))


def test_reader_reads_mutated_configs_as_the_pure_parser_does(tmp_path):
    # the bundled config with one and two characters changed: a tree the
    # plain subset reader builds is the pure parser's, and every refusal is
    # the pure parser's
    text = paper_device_path().read_text()
    rng = random.Random(0)
    mutants = [_mutant(text, rng) for _ in range(400)]
    mutants += [_mutant(m, rng) for m in mutants[:200]]
    path = tmp_path / "config.yaml"
    refused = 0
    for mutant in mutants:
        path.write_text(mutant, encoding="utf-8", newline="")
        read, pure = parser_outcomes(path)
        assert read == pure, repr(mutant)
        refused += read.startswith("refused")
    read_by_the_reader = sum(config._plain_tree(m) is not None for m in mutants)
    assert 100 < refused < 500 and read_by_the_reader == 340


def _parsed(text, loader):
    try:
        return repr(yaml.load(text, Loader=loader))
    except yaml.YAMLError:
        return "refused"


@pytest.mark.parametrize("text", [
    "a:\tb\n",  # a tab as a separator
    "a: [1.0?]\n",  # '?' inside a flow scalar
    "a: [!, 1]\n",  # an empty tag
    "h: |#\n  t\n",  # a comment against a block indicator
    "%YAML 1.1#\n---\na: 1\n",
    "a:\n\ufeff b: 1\n  c: 2\n",  # a byte-order mark as indentation
    "a:\n  b: 1\n\ufeff c: 2\n",  # ... where the pure parser reads it as part of a key
])
def test_text_libyaml_reads_otherwise_goes_to_the_pure_parser(text, tmp_path):
    # text that libyaml and the pure parser read differently is outside the
    # plain subset too
    if yaml.__with_libyaml__:
        assert _parsed(text, yaml.CSafeLoader) != _parsed(text, yaml.SafeLoader)
    assert config._plain_tree(text) is None
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    read, pure = parser_outcomes(path)
    assert read == pure


def _nested(depth):
    """``depth`` mappings, one inside the next, around one scalar."""
    return "".join(" " * n + f"k{n}:\n" for n in range(depth - 1)) + " " * (depth - 1) + "v: 1\n"


@pytest.mark.parametrize("text", [
    *(f"a: {word}\n" for word in ("yes", "No", "TRUE", "false", "on", "OFF", "null", "Null", "~")),
    *(f"{word}: 1\n" for word in ("yes", "no", "true", "false", "on", "off", "null")),
    "a:\n", "a:\nb: 1\n", "a:  # a comment\n", "a:\n  b:\n",  # a key with no value
    "a: 012\n", "a: 0x1f\n", "a: +1\n", "a: .5\n", "a: 1e-3\n", "a: 1.0e6\n", "a: 1:30\n",
    "a: 'b'\n", 'a: "b"\n', *(f"a: {c}b\n" for c in "!&*%@`|>?{}"), "a: [1, ?b]\n",
    "a: b#c\n", "a: 1#c\n", "a#: 1\n",  # a '#' inside a token
    "a: b\n  c\n",  # a plain scalar's continuation line
    "---\na: 1\n", "a:\n- 1\n", "a:\n  - 1\n",
    "a: 1\na: 2\n",  # a repeated key
    "a:\n  b: 1\n c: 2\n", "  a: 1\nb: 2\n",  # indentation that matches no block
    "a: 1\r\n", "a:\t1\n", "\ufeffa: 1\n", "a: \u00e9\n",
    pytest.param(_nested(config._MAX_DEPTH + 1), id="depth-65"),
    "a: 1" + "0" * 30 + "\n",  # an integer too long for the subset
    "a: [1, 2, 3]\n", "a: [1]\n", "a: [1, 2,]\n",
    "", "# only a comment\n",
], ids=repr)
def test_plain_reader_leaves_yaml_traps_to_pyyaml(text):
    assert config._plain_tree(text) is None


@pytest.mark.parametrize("text", [
    "a: -0\nb: -0.0\nc: 1.\nd: 1.5E-3\ne: 00.5\nf: 1" + "0" * 29 + "\n",
    "a: nan\nb: inf\nc: nonzero\nd: yes_\ne: _\n",
    "# c\n  a:   [ 1 ,2.0]   # c\n\n  b:  # c\n        # c\n     c: x # c: 'q'\n",
    pytest.param(_nested(config._MAX_DEPTH - 1), id="depth-63"),
], ids=repr)
def test_plain_reader_builds_the_pure_parsers_tree(text):
    read = config._plain_tree(text)
    assert read is not None and repr(read) == repr(yaml.load(text, Loader=yaml.SafeLoader))


_WORDS = st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True) | st.sampled_from(
    [w for word in ("yes", "no", "true", "false", "on", "off", "null", "y", "n")
     for w in (word, word.title(), word.upper())]
)
_SCALARS = st.integers() | st.floats() | st.floats(-1e6, 1e6) | _WORDS | st.none()
_VALUES = _SCALARS | st.lists(_SCALARS, min_size=2, max_size=2) | st.lists(_SCALARS, max_size=3)


class _FlowListDumper(yaml.SafeDumper):
    """Block mappings, flow lists: the layout of the bundled config."""


_FlowListDumper.add_representer(
    list, lambda dumper, value: dumper.represent_sequence("tag:yaml.org,2002:seq", value, True)
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    values=st.dictionaries(st.sampled_from([f.path for f in FIELDS]), _VALUES),
    style=st.sampled_from(["block", "flow", "flow lists"]),
)
@example(values={"fit.bounds.g1_ghz": [0.5, 5.0], "output.format": "json"}, style="flow lists")
def test_plain_reader_reads_dumped_trees_as_the_pure_parser_does(values, style):
    # PyYAML's dumps of trees over the config's paths, in block style, with
    # scalar-only collections in flow style, and with flow lists alone: the
    # reader builds the pure parser's tree or leaves the text to it
    tree = {}
    for path, value in values.items():
        *sections, key = path.split(".")
        node = tree
        for name in sections:
            node = node.setdefault(name, {})
        node[key] = value
    if style == "flow lists":
        text = yaml.dump(tree, Dumper=_FlowListDumper)
    else:
        text = yaml.safe_dump(tree, default_flow_style=None if style == "flow" else False)
    read = config._plain_tree(text)
    assert read is None or repr(read) == repr(yaml.load(text, Loader=yaml.SafeLoader)), text


def test_negative_frequency_carries_field_path(tmp_path):
    path = _write_variant(tmp_path, lambda t: t["qrm"].update(omega1_ghz=-2.57))
    with pytest.raises(ConfigError, match=r"qrm\.omega1_ghz"):
        load_config(path)


def test_unknown_key_refused(tmp_path):
    path = _write_variant(tmp_path, lambda t: t["device"].update(bogus=1.0))
    with pytest.raises(ConfigError, match=r"device\.bogus"):
        load_config(path)


def test_unknown_key_refusal_lists_the_keys_in_field_order(tmp_path):
    # the same bytes under any hash seed: the allowed keys come from FIELDS,
    # not from a set
    path = _write_variant(tmp_path, lambda t: t["device"].update(bogus=1.0))
    env = dict(os.environ, PYTHONPATH=str(Path(dscqed.__file__).parents[1]))
    errs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "dscqed.cli", "modes", "--config", str(path)],
            env=dict(env, PYTHONHASHSEED=seed), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    keys = ", ".join(f.path.split(".")[1] for f in FIELDS if f.path.startswith("device."))
    assert errs[0] == f"error: {path}: device.bogus: unknown key (allowed: {keys})\n"


@pytest.mark.parametrize(("key", "shown"), [
    ("? " + "k" * 200000 + "\n  : 1.0", "'" + "k" * 12 + "..." + "k" * 13 + "'"),
    ('? "' + "k" * 60 + "\\n" + "k" * 60 + '"\n  : 1.0', "'" + "k" * 12 + "..." + "k" * 13 + "'"),
    ("k" * 99 + ": 1.0", "k" * 99),  # short: as written
    ('? "ab\\ncd"\n  : 1.0', "'ab\\ncd'"),  # short, but not printable: quoted
], ids=["explicit", "explicit-with-newline", "short", "short-with-newline"])
def test_unknown_key_refusal_quotes_a_long_key_within_bounds(tmp_path, key, shown):
    # an explicit "? key" has no length limit, and a quoted one can hold a
    # line break; the refusal stays one short line
    path = tmp_path / "config.yaml"
    path.write_text(paper_device_path().read_text().replace("device:\n", f"device:\n  {key}\n", 1))
    env = dict(os.environ, PYTHONPATH=str(Path(dscqed.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "dscqed.cli", "modes", "--config", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    keys = ", ".join(f.path.split(".")[1] for f in FIELDS if f.path.startswith("device."))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {path}: device.{shown}: unknown key (allowed: {keys})\n"


def test_single_mode_bias_is_not_a_config_key(tmp_path, bundled):
    # the bias comes from the sweep window alone; the model is built at the
    # symmetry point
    assert bundled.qrm.epsilon == 0.0
    path = _write_variant(tmp_path, lambda t: t["qrm"].update(epsilon_ghz=0.3))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == (
        f"{path}: qrm.epsilon_ghz: unknown key (allowed: delta_prime_ghz, omega1_ghz, g1_ghz)"
    )


def test_missing_required_key(tmp_path):
    path = _write_variant(tmp_path, lambda t: t["device"].pop("l_c_ph"))
    with pytest.raises(ConfigError, match=r"device\.l_c_ph"):
        load_config(path)


def test_bad_alpha(tmp_path):
    path = _write_variant(tmp_path, lambda t: t["device"].update(alpha=1.5))
    with pytest.raises(ConfigError, match=r"device\.alpha"):
        load_config(path)


def test_initial_outside_bounds(tmp_path):
    path = _write_variant(
        tmp_path, lambda t: t["fit"]["initial"].update(g1_ghz=99.0)
    )
    with pytest.raises(ConfigError, match=r"fit\.initial\.g1_ghz"):
        load_config(path)


def test_bad_bounds_pair(tmp_path):
    path = _write_variant(
        tmp_path, lambda t: t["fit"]["bounds"].update(g1_ghz=[5.0, 0.5])
    )
    with pytest.raises(ConfigError, match=r"fit\.bounds\.g1_ghz"):
        load_config(path)


def test_bound_outside_model_domain_carries_field_path(tmp_path):
    path = _write_variant(
        tmp_path, lambda t: t["fit"]["bounds"].update(omega1_ghz=[-1.0, 100.0])
    )
    with pytest.raises(ConfigError, match=r"fit\.bounds\.omega1_ghz\.0: must be >= 1e-9, got -1\.0$"):
        load_config(path)


def test_bound_below_the_parameter_floor_is_refused(tmp_path):
    # each fit.bounds entry lies in its qrm key's domain: omega1's floor
    # 1e-9 keeps ratios finite, so a low end of 1e-12 is refused too
    path = _write_variant(
        tmp_path, lambda t: t["fit"]["bounds"].update(omega1_ghz=[1.0e-12, 5.0])
    )
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: fit.bounds.omega1_ghz.0: must be >= 1e-9, got 1e-12"


@pytest.mark.parametrize("mutate, message", [
    (lambda t: t.update(device=3), "device: expected a mapping"),
    (lambda t: t["fit"]["bounds"].update(g1_ghz=0.5), "fit.bounds.g1_ghz: expected a [low, high] pair"),
], ids=["section-not-a-mapping", "bound-not-a-pair"])
def test_misshapen_values_name_their_path(tmp_path, mutate, message):
    path = _write_variant(tmp_path, mutate)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: {message}"


def test_top_level_list_names_the_file(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- device\n- qrm\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}:1: top level must be a mapping"


@pytest.mark.parametrize("n_modes", [10**6 + 1, 10**400])
def test_mode_count_above_ceiling_carries_field_path(tmp_path, n_modes):
    path = _write_variant(tmp_path, lambda t: t["lamb"].update(n_modes=n_modes))
    with pytest.raises(ConfigError, match=r"lamb\.n_modes: must be <= 1000000"):
        load_config(path)


def test_overlong_integer_names_the_file(tmp_path):
    path = tmp_path / "long.yaml"
    text = paper_device_path().read_text()
    path.write_text(text.replace("n_modes: 30", "n_modes: 1" + "0" * 5000))
    with pytest.raises(ConfigError, match=f"^{path}: Exceeds the limit"):
        load_config(path)


def test_bad_output_format(tmp_path):
    path = _write_variant(tmp_path, lambda t: t["output"].update(format="xml"))
    with pytest.raises(ConfigError, match=r"output\.format"):
        load_config(path)


def test_optional_persistent_current(tmp_path, bundled):
    # metadata only, like e_j_ghz: accepted, checked against its domain,
    # and without effect on the run
    path = _write_variant(tmp_path, lambda t: t["device"].update(i_q_na=300.0))
    assert load_config(path) == bundled
    path = _write_variant(tmp_path, lambda t: t["device"].update(i_q_na=0.0))
    with pytest.raises(ConfigError, match=r"device\.i_q_na"):
        load_config(path)


def test_null_optional_key_means_absent(tmp_path, bundled):
    cfg = load_config(_write_variant(tmp_path, lambda t: t["device"].update(i_q_na=None)))
    assert cfg == bundled


def test_out_key_is_not_checked_at_load(tmp_path):
    # write_atomic refuses an unwritable target by name when the run writes it
    path = _write_variant(tmp_path, lambda t: t["output"].update(out="/nonexistent/x.csv"))
    assert load_config(path).out == "/nonexistent/x.csv"


def test_refusals_name_the_file_and_the_path(tmp_path):
    path = _write_variant(tmp_path, lambda t: t["sweep"].update(epsilon_steps=0))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: sweep.epsilon_steps: must be >= 1, got 0"


def test_epsilon_window_ordering(tmp_path):
    path = _write_variant(
        tmp_path, lambda t: t["sweep"].update(epsilon_min_ghz=2.0, epsilon_max_ghz=-2.0)
    )
    with pytest.raises(ConfigError, match=r"sweep\.epsilon_min_ghz"):
        load_config(path)


def test_non_finite_number_carries_field_path(tmp_path):
    text = paper_device_path().read_text().replace(
        "epsilon_min_ghz: -1.0", "epsilon_min_ghz: .nan"
    )
    path = tmp_path / "nan.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=r"sweep\.epsilon_min_ghz: must be finite"):
        load_config(path)


def test_non_finite_bound_carries_field_path(tmp_path):
    path = _write_variant(
        tmp_path, lambda t: t["fit"]["bounds"].update(g1_ghz=[0.5, float("inf")])
    )
    with pytest.raises(ConfigError, match=r"fit\.bounds\.g1_ghz\.1: must be finite"):
        load_config(path)


def test_bound_entry_must_be_a_number(tmp_path):
    # YAML 1.1 reads 1e-3 (no '.') as text; the message says so
    path = _write_variant(
        tmp_path, lambda t: t["fit"]["bounds"].update(g1_ghz=["1e-3", 5.0])
    )
    with pytest.raises(ConfigError, match=r"fit\.bounds\.g1_ghz\.0: .*1\.0e-3"):
        load_config(path)


def test_omitted_settings_take_library_defaults(tmp_path):
    from dscqed import SweepConfig
    from dscqed.config import DEFAULT_BOUNDS
    from dscqed.lamb import DEFAULT_N_MODES

    def mutate(tree):
        del tree["fit"]["bounds"]
        del tree["lamb"]
        for key in ("k_levels", "amplitude_floor"):
            del tree["sweep"][key]

    cfg = load_config(_write_variant(tmp_path, mutate))
    assert cfg.bounds == DEFAULT_BOUNDS
    assert (cfg.n_cutoff, cfg.delta_measured, cfg.n_modes) == (13.2, 0.026, DEFAULT_N_MODES)
    assert cfg.sweep.k_levels == SweepConfig.k_levels
    assert cfg.sweep.amplitude_floor == SweepConfig.amplitude_floor
    assert cfg.sweep.truncation_tol == SweepConfig.truncation_tol
