"""Deterministic CSV / JSON rendering and atomic file writes.

Two renderers cover every output.  ``table`` takes field names and rows and
gives CSV under that header or a JSON list of objects keyed by the fields
(spectral lines, modes, couplings, the reference checks).  ``record`` takes
one dict holding one list field and gives the JSON object or ``field,value``
CSV with the list expanded to numbered rows (the Lamb-shift report, the fit
result).  Floats are rendered with 12 significant digits ('.' separator, no
locale), so the CSV and JSON forms carry byte-identical numeric tokens.
Files are written whole (temp file + rename); the ``DSCQED_TMPDIR``
environment variable overrides where temp files go, and must name a
directory on the output's file system (the rename is refused elsewhere).
"""

from __future__ import annotations

import json
import os
import stat
import tempfile

from .errors import ConfigError, io_error

TMPDIR_ENV = "DSCQED_TMPDIR"

LINE_FIELDS = ("epsilon_ghz", "i", "j", "label", "frequency_ghz", "amplitude")
MODE_FIELDS = ("n", "omega_n_ghz", "k_x", "i_zpf_a", "g_n_ghz")
COUPLING_FIELDS = ("l_c_ph", "n", "omega_n_ghz", "g_over_g1", "g_n_ghz")
CHECK_FIELDS = ("quantity", "computed", "reference", "tol", "status")


def fmt(value) -> str:
    """Canonical token for one cell: floats at 12 significant digits."""
    if isinstance(value, float):  # the common cell first; + 0.0 turns -0.0 into 0.0
        return format(value + 0.0, ".12g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def json_text(value, _indent: int = 0) -> str:
    """Render JSON with the same float tokens as the CSV emitters."""
    pad = "  " * _indent
    inner = "  " * (_indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {json_text(v, _indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        items = ",\n".join(f"{inner}{json_text(v, _indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def csv_text(header: str, rows) -> str:
    """CSV with a fixed header line and '\\n' terminators."""
    out = [header]
    for row in rows:
        out.append(",".join(map(fmt, row)))
    return "\n".join(out) + "\n"


def write_atomic(path, text: str) -> None:
    """Whole-file write: temp file then rename over the target, which is
    the file a symlink at ``path`` names.  Any other target that exists and
    is neither a regular file nor a directory (a FIFO, a device) is refused
    and left as it is, as is every target when the temp directory lies on
    another file system (the rename fails with EXDEV).

    Any OSError becomes a ConfigError naming ``path``.
    """
    path = os.fspath(path)
    target = os.path.realpath(path) if os.path.islink(path) else path
    try:
        mode = os.lstat(target).st_mode
    except OSError:
        mode = stat.S_IFREG  # absent, or unreachable: the write says why
    if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):  # a directory refuses the rename
        raise ConfigError(f"{path}: not a regular file")
    directory = os.environ.get(TMPDIR_ENV) or os.path.dirname(os.path.abspath(target))
    try:
        fd, tmp = tempfile.mkstemp(prefix=".dscqed-", dir=directory)
    except OSError as exc:
        raise ConfigError(
            f"{path}: cannot create a temp file in {directory}: {exc.strerror or exc}"
        ) from None
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            # mkstemp makes the file 0600; give it open()'s 0666 less the umask,
            # which can only be read by setting it (to 0077: the safe side)
            umask = os.umask(0o077)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, target)  # refused (EXDEV) from another file system
    except OSError as exc:
        raise io_error(path, exc) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def table(fields, rows, form: str) -> str:
    """A table as CSV with ``fields`` for a header, or as a JSON list of
    objects keyed by ``fields``."""
    if form == "csv":
        return csv_text(",".join(fields), rows)
    return json_text([dict(zip(fields, row)) for row in rows]) + "\n"


def record(values: dict, item: str, form: str) -> str:
    """One record as a JSON object, or as ``field,value`` CSV in which its
    list field is expanded to rows ``<item>_1, <item>_2, ...``."""
    if form == "json":
        return json_text(values) + "\n"
    rows = []
    for key, value in values.items():
        if isinstance(value, list):
            rows += [(f"{item}_{n}", v) for n, v in enumerate(value, start=1)]
        else:
            rows.append((key, value))
    return csv_text("field,value", rows)


def report_text(report) -> str:
    """Human-readable rendering of a renormalization report."""
    lines = [
        "Lamb-shift report",
        "-----------------",
        f"bare gap delta0            : {fmt(report.delta0)} GHz",
        f"partially renormalized     : {fmt(report.delta0_prime)} GHz",
        f"fully renormalized delta   : {fmt(report.delta)} GHz",
        f"mode sum S(n_cutoff)       : {fmt(report.sum_value)}",
        f"n_cutoff                   : {fmt(report.n_cutoff)}",
        f"total shift 1-delta/delta0 : {100.0 * report.total_shift:.2f} %",
        f"fundamental 1-delta/delta0': {100.0 * report.fundamental_shift:.2f} %",
        "",
        "per-mode shifts (each mode alone, relative to the bare gap):",
    ]
    for n, s in enumerate(report.per_mode_shift):
        lines.append(f"  mode {n + 1:3d}: {100.0 * s:9.4f} %")
    return "\n".join(lines) + "\n"
