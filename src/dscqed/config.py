"""Run-configuration loading.

Configs are a single YAML tree with explicit unit suffixes in key names
(``l_c_ph``, ``omega1_ghz``); no unit inference.  One table, ``FIELDS``,
declares every key: its dotted path, its kind, its domain, its default and
the command-line flag that overrides it.  Unknown keys are rejected, parse
errors carry line numbers, and every other refusal names
``file: dotted.path`` for a value from the file or ``--flag`` for a value
given on the command line.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import re
import reprlib
from importlib import resources
from pathlib import Path

from ._lazy import _lazy_import
from ._params import QrmParams, SweepConfig
from ._record import Record
from .errors import ConfigError, io_error
from .lamb import DEFAULT_N_MODES, N_CUTOFF_MIN
from .resonator import N_MODES_CEILING, ResonatorModel

yaml = _lazy_import("yaml")  # executed only for a config outside _plain_tree's subset


class LambSettings(Record):
    n_cutoff = 13.2  # omega_cutoff / omega_1 of the published device
    delta_measured = 0.026  # GHz, the published renormalized gap
    n_modes = DEFAULT_N_MODES

    def __init__(
        self,
        n_cutoff: float = n_cutoff,
        delta_measured: float = delta_measured,
        n_modes: int = n_modes,
    ) -> None:
        self.__dict__.update(n_cutoff=n_cutoff, delta_measured=delta_measured, n_modes=n_modes)


class FitSettings(Record):
    """The fit's start (delta_prime, omega1, g1) and its three (lo, hi)
    bounds, GHz."""

    def __init__(self, initial: tuple, bounds: tuple) -> None:
        self.__dict__.update(initial=initial, bounds=bounds)


class OutputSettings(Record):
    def __init__(self, format: str, out: str | None) -> None:
        self.__dict__.update(format=format, out=out)


class RunConfig(Record):
    def __init__(
        self,
        resonator: ResonatorModel,
        qrm: QrmParams,
        sweep: SweepConfig,
        lamb: LambSettings,
        fit: FitSettings,
        output: OutputSettings,
    ) -> None:
        self.__dict__.update(
            resonator=resonator, qrm=qrm, sweep=sweep, lamb=lamb, fit=fit, output=output
        )


REQUIRED = object()  # the default of a key that must be given


class Field(Record):
    """One config key.

    kind    -- float, int, str, or tuple for a [low, high] pair of floats
    default -- REQUIRED, None (the key may be absent or null), a value, or the
               dotted path of an earlier key whose value it copies
    domain  -- an interval such as "(0, 1e6]" for numbers (each entry of a
               pair), the allowed words for text
    flag    -- the command-line flag that overrides the key
    """

    def __init__(
        self, path: str, kind: type, default: object, domain: object = None, flag: str | None = None
    ) -> None:
        self.__dict__.update(path=path, kind=kind, default=default, domain=domain, flag=flag)


GHZ = "[-1e6, 1e6]"
POSITIVE = "[1e-9, 1e6]"  # a magnitude in its unit; the floor keeps ratios finite
NON_NEGATIVE = "[0, 1e6]"
# the model domain of each parameter of the fitted triple, read by its qrm
# key and by each entry of its fit.bounds pair
DOMAIN = {"delta_prime_ghz": NON_NEGATIVE, "omega1_ghz": POSITIVE, "g1_ghz": NON_NEGATIVE}
PARAMS = tuple(DOMAIN)
DEFAULT_BOUNDS = ((1e-6, 100.0), (1e-3, 100.0), (0.0, 100.0))  # the fit's box, GHz

FIELDS = (
    Field("device.z0_ohm", float, REQUIRED, POSITIVE),
    Field("device.l_total_nh", float, REQUIRED, POSITIVE),
    Field("device.omega1_bare_ghz", float, REQUIRED, POSITIVE),
    Field("device.l_c_ph", float, REQUIRED, POSITIVE, "--l-c-ph"),
    Field("device.l_2_ph", float, REQUIRED, POSITIVE),
    Field("device.i_q_na", float, None, POSITIVE),
    Field("device.alpha", float, REQUIRED, "(0, 1)"),
    Field("device.e_j_ghz", float, REQUIRED, POSITIVE),
    *(Field(f"qrm.{k}", float, REQUIRED, DOMAIN[k]) for k in PARAMS),
    Field("sweep.epsilon_min_ghz", float, -1.0, GHZ, "--epsilon-min"),
    Field("sweep.epsilon_max_ghz", float, 1.0, GHZ, "--epsilon-max"),
    Field("sweep.epsilon_steps", int, 81, "[1, 1000000]", "--epsilon-steps"),
    Field("sweep.freq_min_ghz", float, 2.0, GHZ),
    Field("sweep.freq_max_ghz", float, 8.0, GHZ),
    Field("sweep.k_levels", int, SweepConfig.k_levels, "[2, 1000]"),
    Field("sweep.amplitude_floor", float, SweepConfig.amplitude_floor, NON_NEGATIVE),
    Field("sweep.truncation_tol_ghz", float, SweepConfig.truncation_tol, "(0, 1e6]", "--tolerance"),
    Field("lamb.n_cutoff", float, LambSettings.n_cutoff, f"[{N_CUTOFF_MIN}, 1e6]", "--n-cutoff"),
    Field("lamb.delta_measured_ghz", float, LambSettings.delta_measured, POSITIVE, "--delta-ghz"),
    Field("lamb.n_modes", int, LambSettings.n_modes, f"[1, {N_MODES_CEILING}]", "--n-modes"),
    *(Field(f"fit.initial.{k}", float, f"qrm.{k}", GHZ) for k in PARAMS),
    *(Field(f"fit.bounds.{k}", tuple, b, DOMAIN[k]) for k, b in zip(PARAMS, DEFAULT_BOUNDS)),
    Field("output.format", str, "csv", ("csv", "json"), "--format"),
    Field("output.out", str, None, None, "--out"),
)

# (path, relation, path) pairs of keys that must be ordered
ORDERED = (
    ("sweep.epsilon_min_ghz", "<=", "sweep.epsilon_max_ghz"),
    ("sweep.freq_min_ghz", "<", "sweep.freq_max_ghz"),
)

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_PATHS = {f.path for f in FIELDS}
_SECTIONS = {p.rsplit(".", n)[0] for p in _PATHS for n in range(1, p.count(".") + 1)}


def paper_device_path() -> Path:
    """Path of the bundled device configuration (the published constants)."""
    return Path(str(resources.files("dscqed").joinpath("data/paper_device.yaml")))


def synthetic_peaks_path() -> Path:
    """Path of the bundled synthetic peak dataset (see scripts/make_synthetic_peaks.py)."""
    return Path(str(resources.files("dscqed").joinpath("data/synthetic_peaks.csv")))


def load_config(path) -> RunConfig:
    """Parse and fully validate a run configuration."""
    return validate(read_tree(path), path)


# PyYAML's pure-Python composer recurses once per level of nesting, and
# Python's stack overflows about 10^3 levels down; the schema needs 4.  The
# loader refuses a deeper collection where the composer meets it, and
# _plain_tree leaves any text it could not read within the limit to it.
_MAX_DEPTH = 64

# The plain subset _plain_tree reads: a line is blank, a comment, or a
# lowercase key with a value (a number, a word, or a [low, high] pair of
# them), or with none, to open a block.  YAML 1.1 reads each such scalar one
# way: an int with no leading zero, a float with a '.' and a signed exponent,
# or text; the words it reads as booleans or null are not in the subset.
_WORD = r"(?!(?:yes|no|true|false|on|off|null)\b)[a-z_][a-z0-9_]*"
_SCALAR = rf"-?(?:0|[1-9][0-9]{{0,29}})|-?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|{_WORD}"
_PLAIN_LINE = re.compile(
    rf"( *)(?:({_WORD}):(?: +({_SCALAR}|\[ *({_SCALAR}) *, *({_SCALAR}) *\]))?(?: +#[ -~]*| *)"
    r"|#[ -~]*)?"
)


def _plain_tree(text: str) -> dict | None:
    """The tree PyYAML's SafeLoader builds from ``text``, when every line is
    in the plain subset (_PLAIN_LINE), sibling keys share one indentation and
    differ, each key without a value opens a more indented block, and blocks
    nest less than _MAX_DEPTH deep; else None, and PyYAML reads ``text``."""
    root = opened = {}  # opened: the mapping of a key with no value, until its first line
    blocks = []  # (indentation, mapping) from the top level to the current block
    for line in text.split("\n"):
        m = _PLAIN_LINE.fullmatch(line)
        if m is None:
            return None
        if m[2] is None:  # blank or comment
            continue
        indent = len(m[1])
        if opened is not None:
            if blocks and indent <= blocks[-1][0] or len(blocks) == _MAX_DEPTH - 1:
                return None  # a key with no value (null), or nesting too deep
            blocks.append((indent, opened))
            opened = None
        else:
            while len(blocks) > 1 and indent < blocks[-1][0]:
                blocks.pop()
            if indent != blocks[-1][0]:
                return None
        mapping = blocks[-1][1]
        if m[2] in mapping:
            return None
        if m[3] is None:
            mapping[m[2]] = opened = {}
        elif m[4] is None:
            mapping[m[2]] = _plain_scalar(m[3])
        else:
            mapping[m[2]] = [_plain_scalar(m[4]), _plain_scalar(m[5])]
    return root if opened is None else None


def _plain_scalar(token: str):
    """A token of _SCALAR as YAML 1.1 reads it."""
    if token[0] in "-0123456789":
        return float(token) if "." in token else int(token)
    return token


@functools.cache
def _loader():
    """PyYAML's SafeLoader, refusing a collection nested deeper than
    _MAX_DEPTH before it composes it."""

    class Loader(yaml.SafeLoader):
        depth = 0

        def compose_node(self, parent, index):
            event = self.peek_event()
            if not isinstance(event, yaml.CollectionStartEvent):
                return super().compose_node(parent, index)
            if self.depth == _MAX_DEPTH:
                raise yaml.MarkedYAMLError(
                    problem=f"nested deeper than {_MAX_DEPTH} levels", problem_mark=event.start_mark
                )
            self.depth += 1
            try:
                return super().compose_node(parent, index)
            finally:
                self.depth -= 1

    return Loader


def read_tree(path) -> dict:
    """The YAML tree of the config file at ``path``; parse errors carry
    ``path:line``."""
    path = os.fspath(path)
    if not os.path.exists(path):
        raise ConfigError(f"{path}: no such file")
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                tree = _plain_tree(fh.read())
            except UnicodeDecodeError:  # left to PyYAML: it reports this or an error before it
                tree = None
            if tree is None:
                fh.seek(0)
                tree = yaml.load(fh, Loader=_loader())
    except (OSError, UnicodeDecodeError) as exc:
        raise io_error(path, exc) from None
    except yaml.reader.ReaderError as exc:  # a character YAML does not allow: a position, no mark
        with open(path, encoding="utf-8") as fh:
            head = fh.read(exc.position)
        line = 1 + sum(head.count(brk) for brk in "\n\x85\u2028\u2029")  # YAML's line breaks
        raise ConfigError(f"{path}:{line}: {str(exc).splitlines()[0]}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else "?"
        raise ConfigError(f"{path}:{line}: {getattr(exc, 'problem', exc)}") from None
    except ValueError as exc:  # an integer literal too long to convert
        raise ConfigError(f"{path}: {exc}") from None
    if tree is None:
        raise ConfigError(f"{path}:1: empty config")
    if not isinstance(tree, dict):
        raise ConfigError(f"{path}:1: top level must be a mapping")
    return tree


def validate(tree: dict, source, overrides=None) -> RunConfig:
    """Check ``tree`` (read from ``source``) against ``FIELDS`` and build the
    run configuration.

    ``overrides`` maps dotted paths to ``(flag, text)`` pairs given on the
    command line; they replace the file's values and are read by the same
    rules, and a refusal of one names the flag instead of ``source: path``.
    """
    source = os.fspath(source)
    overrides = overrides or {}

    def name(path):
        return overrides[path][0] if path in overrides else f"{source}: {path}"

    given = _flatten(tree, source)
    v = {}
    for f in FIELDS:
        if f.path in overrides:
            value = _from_text(f.kind, overrides[f.path][1])
        elif f.path in given and not (given[f.path] is None and f.default is None):
            value = given[f.path]
        elif f.default is REQUIRED:
            raise ConfigError(f"{name(f.path)}: required key missing")
        else:
            v[f.path] = v[f.default] if f.default in _PATHS else f.default
            continue
        v[f.path] = _check(f, value, name(f.path))
    for lo, op, hi in ORDERED:
        if not _OPS[op](v[lo], v[hi]):
            raise ConfigError(f"{name(lo)}: {v[lo]} must be {op} {name(hi)} ({v[hi]})")

    for k in PARAMS:
        lo, hi = v[f"fit.bounds.{k}"]
        if not lo <= v[f"fit.initial.{k}"] <= hi:
            raise ConfigError(
                f"{name(f'fit.initial.{k}')}: value {v[f'fit.initial.{k}']} "
                f"outside bounds [{lo}, {hi}]"
            )
    return RunConfig(
        resonator=ResonatorModel(
            z0=v["device.z0_ohm"],
            l_total=v["device.l_total_nh"] * 1e-9,
            omega1_bare=v["device.omega1_bare_ghz"],
            l_c=v["device.l_c_ph"] * 1e-12,
            l_2=v["device.l_2_ph"] * 1e-12,
        ),
        qrm=QrmParams(v["qrm.delta_prime_ghz"], 0.0, v["qrm.omega1_ghz"], v["qrm.g1_ghz"]),
        sweep=SweepConfig(
            epsilon_grid=_linspace(
                v["sweep.epsilon_min_ghz"], v["sweep.epsilon_max_ghz"], v["sweep.epsilon_steps"]
            ),
            freq_window=(v["sweep.freq_min_ghz"], v["sweep.freq_max_ghz"]),
            k_levels=v["sweep.k_levels"],
            amplitude_floor=v["sweep.amplitude_floor"],
            truncation_tol=v["sweep.truncation_tol_ghz"],
        ),
        lamb=LambSettings(v["lamb.n_cutoff"], v["lamb.delta_measured_ghz"], v["lamb.n_modes"]),
        fit=FitSettings(
            initial=tuple(v[f"fit.initial.{k}"] for k in PARAMS),
            bounds=tuple(v[f"fit.bounds.{k}"] for k in PARAMS),
        ),
        output=OutputSettings(v["output.format"], v["output.out"]),
    )


def _linspace(start: float, stop: float, num: int) -> tuple:
    """``tuple(np.linspace(start, stop, num).tolist())`` without numpy, in
    numpy's arithmetic: k * step + start and the last point set to ``stop``,
    or k / div * delta + start where step underflows to zero."""
    if num == 1:
        return (0.0 * (stop - start) + start,)
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        points = [k / div * delta + start for k in range(num)]
    else:
        points = [k * step + start for k in range(num)]
    points[-1] = stop
    return tuple(points)


def _flatten(tree: dict, source: str, prefix: str = "") -> dict:
    """The tree's values keyed by dotted path; unknown keys are refused."""
    flat = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if path in _PATHS:
            flat[path] = value
        elif path in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"{source}: {path}: expected a mapping")
            flat.update(_flatten(value, source, path + "."))
        else:
            allowed = dict.fromkeys(
                f.path[len(prefix):].split(".")[0] for f in FIELDS if f.path.startswith(prefix)
            )
            # an explicit "? key" has no length limit, and a quoted one can
            # hold a line break: quoted, so the refusal stays one short line
            if len(path) - len(prefix) >= _QUOTE_SIZE or not path.isprintable():
                path = prefix + _QUOTE.repr(key)
            raise ConfigError(f"{source}: {path}: unknown key (allowed: {', '.join(allowed)})")
    return flat


def _from_text(kind, text):
    """A command-line value read as ``kind``, else as a float, else left as
    text, for ``_check`` to judge."""
    for parse in (kind, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _check(f: Field, value, name: str):
    """``value`` of the key ``f`` checked against its kind and domain."""
    if f.kind is tuple:
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise ConfigError(f"{name}: expected a [low, high] pair")
        pair = tuple(_check(f._replace(kind=float), x, f"{name}.{n}") for n, x in enumerate(value))
        if not pair[0] < pair[1]:
            raise ConfigError(f"{name}: low must be < high, got {value}")
        return pair
    if f.kind is str:
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{name}: expected non-empty text, got {_quote(value)}")
        if f.domain and value not in f.domain:
            words = " or ".join(map(repr, f.domain))
            raise ConfigError(f"{name}: must be {words}, got {_quote(value)}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float) if f.kind is float else int):
        hint = ""
        if f.kind is float and isinstance(value, str) and _parses_as_float(value):
            hint = " (YAML reads exponent notation as text unless written like 1.0e-3 or 1.0e+6)"
        noun = "a number" if f.kind is float else "an integer"
        raise ConfigError(f"{name}: expected {noun}, got {_quote(value)}{hint}")
    if f.kind is float:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(
                f"{name}: must be finite, got an integer too large for a float"
            ) from None
        if not math.isfinite(value):
            raise ConfigError(f"{name}: must be finite, got {value}")
    low, high = (s.strip() for s in f.domain[1:-1].split(","))
    for op, bound in ((">" if f.domain[0] == "(" else ">=", low),
                      ("<" if f.domain[-1] == ")" else "<=", high)):
        if not _OPS[op](value, float(bound)):
            raise ConfigError(f"{name}: must be {op} {bound}, got {value}")
    return value


_QUOTE = reprlib.Repr()  # a few items a level, two levels, 30 characters an item
_QUOTE.maxlevel = 2
_QUOTE_SIZE = 100  # items and characters of a value quoted whole


def _quote(value) -> str:
    """``repr(value)``, or reprlib's abbreviation of it when ``value``
    holds more than _QUOTE_SIZE items and characters in all (YAML aliases
    can make a short file hold a huge or self-containing value)."""
    budget, stack = _QUOTE_SIZE, [value]
    while stack and budget >= 0:
        item = stack.pop()
        if isinstance(item, (str, bytes)):
            budget -= len(item)
        elif isinstance(item, (dict, list, tuple, set, frozenset)):
            stack.extend(item.items() if isinstance(item, dict) else item)
        budget -= 1
    return repr(value) if budget >= 0 else _QUOTE.repr(value)


def _parses_as_float(text) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False
