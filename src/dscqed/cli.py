"""Command-line front-end.

Subcommands: modes, couplings, lamb-shift, spectrum, fit, reproduce-paper.
Exit codes: 0 success, 1 configuration / validation error, 2 numerical
failure (non-convergence or a reference-value mismatch).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

import numpy as np

from . import config as cfg_mod
from . import fitting, lamb, output, resonator, spectrum
from .errors import ConfigError, ConvergenceError


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; route them through ConfigError
    # so every validation problem maps to exit code 1.
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="dscqed",
        description=(
            "Flux qubit deep-strongly coupled to a multimode quarter-wave "
            "resonator: spectra, mode structure, and gap renormalization."
        ),
        epilog=f"Set {output.TMPDIR_ENV} to redirect temp files used for atomic writes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="run configuration (default: bundled device)")
    common.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), help="output format")

    p = sub.add_parser("modes", parents=[common], help="per-mode frequency / current / coupling table")
    p.add_argument("--n-modes", type=int, metavar="N", help="number of modes (default from config)")

    p = sub.add_parser("couplings", parents=[common], help="cutoff-suppressed coupling curves per coupling inductance")
    p.add_argument("--n-modes", type=int, metavar="N")
    p.add_argument("--l-c-ph", metavar="X[,Y...]", help="coupling inductances in pH (default: config value)")

    p = sub.add_parser("lamb-shift", parents=[common], help="bare / renormalized gap report")
    p.add_argument("--n-cutoff", type=float, metavar="X")
    p.add_argument("--n-modes", type=int, metavar="N")
    p.add_argument("--delta-ghz", type=float, metavar="D", help="measured renormalized gap")

    p = sub.add_parser("spectrum", parents=[common], help="transition lines over a bias sweep")
    p.add_argument("--epsilon", type=float, metavar="E", help="single bias point (GHz)")
    p.add_argument("--epsilon-min", type=float, metavar="E")
    p.add_argument("--epsilon-max", type=float, metavar="E")
    p.add_argument("--epsilon-steps", type=int, metavar="N")
    p.add_argument("--tolerance", type=float, metavar="T", help="Fock-cutoff convergence tolerance (GHz)")

    p = sub.add_parser("fit", parents=[common], help="recover (delta', omega1, g1) from peak data")
    p.add_argument("--data", required=True, metavar="CSV", help="peaks: epsilon_ghz,frequency_ghz[,label][,weight]")

    p = sub.add_parser(
        "reproduce-paper",
        parents=[common],
        help="check the toolkit against the published reference values",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        run = cfg_mod.load_config(args.config or cfg_mod.paper_device_path())
        handler = {
            "modes": _cmd_modes,
            "couplings": _cmd_couplings,
            "lamb-shift": _cmd_lamb,
            "spectrum": _cmd_spectrum,
            "fit": _cmd_fit,
            "reproduce-paper": _cmd_reproduce,
        }[args.command]
        return handler(args, run)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, but numerical
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def _emit(args, run, render, text=None) -> int:
    """Write ``render(format)`` to the target file, or to stdout when there
    is none.  A command with a human-readable ``text`` prints it to stdout
    when it writes a file, and in place of ``render`` when no ``--format``
    was given."""
    target = args.out or run.output.out
    form = args.format or run.output.format
    if target:
        output.write_atomic(target, render(form))
    if text is not None and (target or args.format is None):
        sys.stdout.write(text)
    elif not target:
        sys.stdout.write(render(form))
    return 0


def _given(value, default):
    """The command-line value when one was passed (zero included), else the default."""
    return default if value is None else value


def _cmd_modes(args, run) -> int:
    n_modes = _given(args.n_modes, run.lamb.n_modes)
    table = resonator.mode_table(run.resonator, n_modes, run.qrm.g1, run.qrm.omega1)
    return _emit(args, run, partial(output.table, output.MODE_FIELDS, table.rows()))


def _cmd_couplings(args, run) -> int:
    n_modes = _given(args.n_modes, run.lamb.n_modes)
    if args.l_c_ph:
        try:
            lc_values = [float(tok) for tok in args.l_c_ph.split(",")]
        except ValueError:
            raise ConfigError(f"--l-c-ph: expected numbers, got {args.l_c_ph!r}")
    else:
        lc_values = [run.resonator.l_c * 1e12]
    rows = []
    for lc_ph in lc_values:
        m = resonator.ResonatorModel(
            z0=run.resonator.z0,
            l_total=run.resonator.l_total,
            omega1_bare=run.resonator.omega1_bare,
            l_c=lc_ph * 1e-12,
            l_2=run.resonator.l_2,
            i_q=run.resonator.i_q,
        )
        table = resonator.mode_table(m, n_modes, run.qrm.g1, run.qrm.omega1)
        for n, omega, _kx, _izpf, g in table.rows():
            rows.append((lc_ph, n, omega, g / run.qrm.g1, g))
    return _emit(args, run, partial(output.table, output.COUPLING_FIELDS, rows))


def _cmd_lamb(args, run) -> int:
    report = lamb.full_report(
        g1=run.qrm.g1,
        omega1=run.qrm.omega1,
        n_cutoff=_given(args.n_cutoff, run.lamb.n_cutoff),
        delta_measured=_given(args.delta_ghz, run.lamb.delta_measured),
        n_modes=_given(args.n_modes, run.lamb.n_modes),
    )
    return _emit(
        args, run,
        partial(output.record, report.as_dict(), "per_mode_shift"),
        output.report_text(report),
    )


def _cmd_spectrum(args, run) -> int:
    sweep_cfg = run.sweep
    replacements = {}
    if args.epsilon is not None:
        replacements["epsilon_grid"] = (args.epsilon,)
    elif any(v is not None for v in (args.epsilon_min, args.epsilon_max, args.epsilon_steps)):
        lo = args.epsilon_min if args.epsilon_min is not None else min(sweep_cfg.epsilon_grid)
        hi = args.epsilon_max if args.epsilon_max is not None else max(sweep_cfg.epsilon_grid)
        steps = args.epsilon_steps if args.epsilon_steps is not None else len(sweep_cfg.epsilon_grid)
        replacements["epsilon_grid"] = tuple(float(e) for e in np.linspace(lo, hi, steps))
    if args.tolerance is not None:
        replacements["truncation_tol"] = args.tolerance
    if replacements:
        import dataclasses

        sweep_cfg = dataclasses.replace(sweep_cfg, **replacements)
    lines = spectrum.sweep(run.qrm.delta_prime, run.qrm.omega1, run.qrm.g1, sweep_cfg)
    rows = [(l.epsilon, l.i, l.j, l.label, l.frequency, l.amplitude) for l in lines]
    return _emit(args, run, partial(output.table, output.LINE_FIELDS, rows))


def _cmd_fit(args, run) -> int:
    data = fitting.read_peaks_csv(args.data)
    result = fitting.fit(
        data,
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
    report = lamb.full_report(q.g1, q.omega1, run.lamb.n_cutoff, run.lamb.delta_measured)
    return [
        ("renormalized gap (GHz)", delta, 0.026, 0.001),
        ("fundamental-mode shift (%)", 100 * (1 - delta / q.delta_prime), 82.3, 0.3),
        ("mode sum S", report.sum_value, 1.93, 0.01),
        ("total shift (%)", 100 * report.total_shift, 96.5, 0.3),
        ("bare gap (GHz)", report.delta0, 0.732, 0.010),
        ("cutoff frequency (GHz)", resonator.cutoff_frequency(run.resonator, lc_only=True), 34.4, 0.1),
    ]


if __name__ == "__main__":
    sys.exit(main())
