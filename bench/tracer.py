"""In-process run of a command list through `dscqed.cli.main`, with or
without per-layer tracing.

Run as a child of run.py, one fresh interpreter per pass:

    python3 bench/tracer.py OPS_JSON OUT_DIR TRACED

OPS_JSON holds a list of argv lists.  Each command's stdout, stderr and
exit code go to OUT_DIR/<k>.out, <k>.err and <k>.rc, so the parent checks
them with the same code as the fresh-process runs.  The last stdout line
is a JSON object with the pass's wall time and, when TRACED is 1, the
per-function counters and the exact-count self-check.

Tracing wraps every public function of the layers named in LAYERS, and
`numpy.linalg.eigh` / `eigvalsh` as the eigensolve span of `rabi`.  There
is one wrapper per function object, bound in every `dscqed` namespace that
holds the function: `spectrum` and `fitting` import rabi's functions by
name, and wrapping each namespace on its own would count their calls twice.
`operators` is not wrapped; its time is self time of the rabi function that
calls it.  A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "config", "rabi", "spectrum", "fitting", "resonator", "lamb", "output")

# The bundled `dscqed spectrum` sweeps 81 biases at n_max 16 (dim 34) after
# two truncation searches that each probe n_max 8, 16 and 32.
SELF_CHECK = {
    "rabi.eigensystem": 81,
    "eigh@34": 81,
    "rabi.drive_matrix_element": 612,
    "rabi.converged_truncation": 2,
    "eigvalsh@18": 2,
    "eigvalsh@34": 2,
    "eigvalsh@66": 2,
    "eigvalsh": 6,
}


class Tracer:
    """Span counters: calls, total and self time per name, plus named tallies."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.tally = Counter()
        self.stack = []  # [name, time spent in child spans]

    def wrap(self, name, fn, after=None):
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def active(self, prefix):
        return any(name.startswith(prefix) for name, _ in self.stack)

    def install(self):
        """Wrap the layers; return a function that undoes it."""
        import numpy as np

        import dscqed.cli  # noqa: F401  (imports every layer)

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"dscqed.{layer}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if layer == "output" and attr == "fmt":
                    continue  # per-cell formatter: its time stays with the emitter that calls it
                name = f"{layer}.{attr}"
                wrappers[fn] = self.wrap(name, fn, AFTER.get(name, _output_bytes if layer == "output" else None))
        patches = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "dscqed" and not mod_name.startswith("dscqed."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        for kind in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, kind)
            patches.append((np.linalg, kind, fn))
            setattr(np.linalg, kind, self.wrap("rabi.eigensolve", fn, _eig_tally(kind)))

        def uninstall():
            for mod, attr, value in patches:
                setattr(mod, attr, value)

        return uninstall


def _eig_tally(kind):
    def after(tracer, args, result):
        dim = args[0].shape[-1]
        tracer.tally[kind] += 1
        tracer.tally[f"{kind}@{dim}"] += 1
        tracer.tally["rabi.eigensolve.dim_max"] = max(tracer.tally["rabi.eigensolve.dim_max"], dim)
        if tracer.active("fitting.fit"):
            tracer.tally["fitting.fit.eigensolves"] += 1

    return after


def _output_bytes(tracer, args, result):
    if isinstance(result, str) and not tracer.active("output."):
        tracer.tally["output.bytes"] += len(result.encode())


def _n_max(tracer, args, result):
    key = "rabi.converged_truncation.n_max_max"
    tracer.tally[key] = max(tracer.tally[key], result.n_max)


def _count(key, measure):
    def after(tracer, args, result):
        tracer.tally[key] += measure(result)

    return after


AFTER = {
    "rabi.converged_truncation": _n_max,
    "spectrum.sweep": _count("spectrum.sweep.lines", len),
    "resonator.mode_wavenumbers": _count("resonator.mode_wavenumbers.modes", len),
    "fitting.fit": _count("fitting.fit.iterations", lambda r: r.iterations),
}


def run_ops(ops, out_dir):
    """Run each argv through dscqed.cli.main; return the summed wall time."""
    import dscqed.cli

    wall = 0.0
    for k, argv in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = dscqed.cli.main(argv)
            except Exception:  # an escaped exception is a traceback and exit 1 in the CLI
                traceback.print_exc()
                rc = 1
        wall += time.perf_counter() - start
        (out_dir / f"{k}.out").write_text(out.getvalue())
        (out_dir / f"{k}.err").write_text(err.getvalue())
        (out_dir / f"{k}.rc").write_text(str(rc))
    return wall


def self_check():
    """Exact counts for the bundled `dscqed spectrum`; returns (ok, counts)."""
    import dscqed.cli

    tracer = Tracer()
    uninstall = tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = dscqed.cli.main(["spectrum"])
    finally:
        uninstall()
    counts = {key: tracer.calls[key] if key.startswith("rabi.") else tracer.tally[key] for key in SELF_CHECK}
    return rc == 0 and counts == SELF_CHECK, counts


def span_cost(n=100_000, repeats=3):
    """Seconds one span wrapper adds to a call: a wrapped no-op against a
    bare one, best of ``repeats``."""

    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    best = []
    for fn in (noop, wrapped):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(n):
                fn()
            times.append(time.perf_counter() - start)
        best.append(min(times))
    return (best[1] - best[0]) / n


def main(argv):
    ops_path, out_dir, traced = Path(argv[0]), Path(argv[1]), argv[2] == "1"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import dscqed.cli  # noqa: F401  (import cost is not part of the pass)

    ops = json.loads(ops_path.read_text())
    result = {}
    if traced:
        tracer = Tracer()
        uninstall = tracer.install()
        try:
            result["wall_s"] = run_ops(ops, out_dir)
        finally:
            uninstall()
        result.update(
            calls=tracer.calls,
            total=tracer.total,
            self_time=tracer.self_time,
            tally=tracer.tally,
        )
        result["self_check_ok"], result["self_check"] = self_check()
        result["span_cost_s"] = span_cost()
    else:
        result["wall_s"] = run_ops(ops, out_dir)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
