"""Command-line front-end.

Subcommands: modes, couplings, lamb-shift, spectrum, fit, reproduce-paper.
Exit codes: 0 success, 1 configuration / validation error, 2 numerical
failure (non-convergence or a reference-value mismatch).
"""

from __future__ import annotations

import argparse
import re
import sys
import warnings
from functools import partial

from . import config as cfg_mod
from . import lamb, output, resonator
from ._lazy import _lazy_import
from .errors import ConfigError, ConvergenceError

# Registered in sys.modules, not executed: `spectrum` and `fit` execute rabi
# and spectrum, `fit` alone fitting.  rabi is bound, not read, so that every
# layer that bench/tracer.py wraps is in sys.modules once cli is imported.
rabi = _lazy_import("dscqed.rabi")
spectrum = _lazy_import("dscqed.spectrum")
fitting = _lazy_import("dscqed.fitting")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # one spelling per flag: no unique prefix stands in for it
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # argparse's own pattern has no exponent, so "-1e-3" would be read as
        # a flag rather than as the value of the flag before it
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with 2 on usage errors; route them through ConfigError
    # so every validation problem maps to exit code 1, naming the flag as
    # "--flag: ..." like every other flag refusal.
    def error(self, message):
        raise ConfigError(message.removeprefix("argument "))


_FIELD = {f.flag: f for f in cfg_mod.FIELDS if f.flag}
_COMMON = ("--format", "--out")
_METAVAR = {
    "--l-c-ph": "X[,Y...]", "--format": "{%s}" % ",".join(_FIELD["--format"].domain), "--out": "PATH"
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _add_overrides(parser, flags) -> None:
    for flag in flags:
        metavar = _METAVAR.get(flag, "N" if _FIELD[flag].kind is int else "X")
        parser.add_argument(flag, metavar=metavar, help=f"sets {_FIELD[flag].path}")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="dscqed",
        description=(
            "Flux qubit deep-strongly coupled to a multimode quarter-wave "
            "resonator: spectra, mode structure, and gap renormalization."
        ),
        epilog=(
            "A flag that sets a config key overrides that key of the --config "
            f"file and is checked by the same rules. Set {output.TMPDIR_ENV} to "
            "redirect temp files used for atomic writes; it must be on the "
            "output's file system, and elsewhere the write is refused."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="run configuration (default: bundled device)")
    _add_overrides(common, _COMMON)

    for command, (_handler, text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=text)
        _add_overrides(p, flags)
        if command == "fit":
            p.add_argument(
                "--data", required=True, metavar="CSV",
                help="peaks: epsilon_ghz,frequency_ghz[,label][,weight]",
            )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    with warnings.catch_warnings():  # restores the caller's showwarning
        # a library warning prints as one line, without the source file and line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = parser.parse_args(argv)
            source = args.config or cfg_mod.paper_device_path()
            tree = cfg_mod.read_tree(source)
            runs = [cfg_mod.validate(tree, source, over) for over in _overrides(args)]
            return _COMMANDS[args.command][0](args, *runs)
        except ConvergenceError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def _overrides(args) -> list:
    """The flags given, as {dotted path: (flag, text)} overrides of the
    config; one mapping per comma-separated value of --l-c-ph."""
    over = {}
    for flag in _COMMON + _COMMANDS[args.command][2]:
        if getattr(args, _dest(flag)) is not None:
            over[_FIELD[flag].path] = (flag, getattr(args, _dest(flag)))
    if "device.l_c_ph" not in over:
        return [over]
    return [{**over, "device.l_c_ph": ("--l-c-ph", text)} for text in args.l_c_ph.split(",")]


def _emit(args, run, render, text=None) -> int:
    """Write ``render(format)`` to the target file, or to stdout when there
    is none.  A command with a human-readable ``text`` prints it to stdout
    when it writes a file, and in place of ``render`` when no ``--format``
    was given."""
    target = run.output.out
    if target:
        output.write_atomic(target, render(run.output.format))
    if text is not None and (target or args.format is None):
        sys.stdout.write(text)
    elif not target:
        sys.stdout.write(render(run.output.format))
    return 0


def _cmd_modes(args, run) -> int:
    table = resonator.mode_table(run.resonator, run.lamb.n_modes, run.qrm.g1, run.qrm.omega1)
    return _emit(args, run, partial(output.table, output.MODE_FIELDS, table.rows()))


def _cmd_couplings(args, *runs) -> int:
    if not runs[0].qrm.g1 > 0.0:  # the table is relative to g1
        source = args.config or cfg_mod.paper_device_path()
        raise ConfigError(f"{source}: qrm.g1_ghz: couplings needs g1 > 0, got {runs[0].qrm.g1}")
    rows = []
    for run in runs:
        table = resonator.mode_table(run.resonator, run.lamb.n_modes, run.qrm.g1, run.qrm.omega1)
        for n, omega, _kx, _izpf, g in table.rows():
            rows.append((run.resonator.l_c * 1e12, n, omega, g / run.qrm.g1, g))
    return _emit(args, runs[0], partial(output.table, output.COUPLING_FIELDS, rows))


def _cmd_lamb(args, run) -> int:
    report = lamb.LambShiftReport(
        run.qrm.g1, run.qrm.omega1, run.lamb.n_cutoff, run.lamb.delta_measured, run.lamb.n_modes
    )
    return _emit(
        args, run,
        partial(output.record, report.as_dict(), "per_mode_shift"),
        output.report_text(report),
    )


def _cmd_spectrum(args, run) -> int:
    lines = spectrum.sweep(run.qrm.delta_prime, run.qrm.omega1, run.qrm.g1, run.sweep)
    rows = [(l.epsilon, l.i, l.j, l.label, l.frequency, l.amplitude) for l in lines]
    return _emit(args, run, partial(output.table, output.LINE_FIELDS, rows))


def _cmd_fit(args, run) -> int:
    result = fitting.fit(
        fitting.read_peaks_csv(args.data),
        initial=run.fit.initial,
        bounds=run.fit.bounds,
        k_levels=run.sweep.k_levels,
        amplitude_floor=run.sweep.amplitude_floor,
    )
    return _emit(args, run, partial(output.record, result.as_dict(), "residual"))


def _cmd_reproduce(args, run) -> int:
    checks = _reference_checks(run)
    widths = max(len(name) for name, *_ in checks)
    lines = [f"{'quantity'.ljust(widths)}  {'computed':>12}  {'reference':>10}  {'tol':>8}  status"]
    rows = []
    for name, computed, reference, tol in checks:
        status = "PASS" if abs(computed - reference) <= tol else "FAIL"
        rows.append((name, computed, reference, tol, status))
        lines.append(
            f"{name.ljust(widths)}  {computed:12.6g}  {reference:10.6g}  "
            f"{tol:8.2g}  {status}"
        )
    _emit(args, run, partial(output.table, output.CHECK_FIELDS, rows), "\n".join(lines) + "\n")
    if any(row[-1] == "FAIL" for row in rows):
        print("reference-value mismatch", file=sys.stderr)
        return 2
    return 0


def _reference_checks(run):
    """The six published numbers with their tolerances."""
    q = run.qrm
    delta = lamb.single_mode_renorm(q.delta_prime, q.g1, q.omega1)
    report = lamb.LambShiftReport(q.g1, q.omega1, run.lamb.n_cutoff, run.lamb.delta_measured)
    return [
        ("renormalized gap (GHz)", delta, 0.026, 0.001),
        ("fundamental-mode shift (%)", 100 * report.fundamental_shift, 82.3, 0.3),
        ("mode sum S", report.sum_value, 1.93, 0.01),
        ("total shift (%)", 100 * report.total_shift, 96.5, 0.3),
        ("bare gap (GHz)", report.delta0, 0.732, 0.010),
        ("cutoff frequency (GHz)", resonator.cutoff_frequency(run.resonator, lc_only=True), 34.4, 0.1),
    ]


# subcommand: (handler, help, flags that override config keys)
_COMMANDS = {
    "modes": (_cmd_modes, "per-mode frequency / current / coupling table", ("--n-modes",)),
    "couplings": (
        _cmd_couplings,
        "cutoff-suppressed coupling curves per coupling inductance",
        ("--n-modes", "--l-c-ph"),
    ),
    "lamb-shift": (
        _cmd_lamb, "bare / renormalized gap report", ("--n-cutoff", "--n-modes", "--delta-ghz")
    ),
    "spectrum": (
        _cmd_spectrum,
        "transition lines over a bias sweep",
        ("--epsilon-min", "--epsilon-max", "--epsilon-steps", "--tolerance"),
    ),
    "fit": (_cmd_fit, "recover (delta', omega1, g1) from peak data", ()),
    "reproduce-paper": (
        _cmd_reproduce, "check the toolkit against the published reference values", ()
    ),
}

if __name__ == "__main__":
    sys.exit(main())
