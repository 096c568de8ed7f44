#!/usr/bin/env python3
"""dscqed benchmark: fresh-process CLI workloads and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload fit-peaks --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 10   # every workload, both modes

Workloads (see workloads.py for the inputs and the checks):

  fit-peaks       `dscqed fit` on a seeded labeled peak set: Rabi assembly and
                  eigvalsh at dim 82, about 10^4 times per call.
  spectrum-sweep  `dscqed spectrum` on dense bias grids through zero, on the
                  bundled device (dim 34) and a deep-coupling one (dim 130).
  mode-structure  reproduce-paper, lamb-shift, modes and couplings: no Rabi
                  work, mostly start-up, emission, mode roots and mode sums.

With --trace 0 every operation is a fresh `python -m dscqed.cli` process,
import included, run one at a time (closed loop, one client).  The command
list of a round runs again until --seconds have passed; each output is
checked between invocations, outside the timed interval.  End-to-end
metrics:

  wall_s       median over rounds of the summed latency of one command list
  cmd_p50_s    median latency of one invocation
  setup_s      median fresh-process time to import dscqed.cli and load the
               workload's config, no compute (sampled before each round)
  peak_rss_mb  largest max-RSS of any invocation
  ok_frac      share of invocations that exit 0, print no traceback and pass
               their check (1 - fail_frac)

With --trace 1 the first round's command list runs in-process through
`dscqed.cli.main`, each pass in a fresh interpreter: untraced and traced,
alternating twice, then traced with OPENBLAS_NUM_THREADS=1 as the
single-threaded baseline.  Per-layer metrics are exact counts from a traced
pass and self times averaged over the two; trace.overhead_frac compares the
traced and untraced passes, and trace.span_cost_s is the calibrated cost of
the wrappers themselves.  Each traced pass ends with an exact-count
self-check on the bundled `dscqed spectrum`.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PER_ROUND = 2
INVOCATION_TIMEOUT_S = 150
SETUP_CODE = (
    "import sys, dscqed.cli\n"
    "from dscqed.config import load_config, paper_device_path\n"
    "load_config(sys.argv[1] if len(sys.argv) > 1 else paper_device_path())\n"
)

END_TO_END = {
    "wall_s": "s",
    "cmd_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# name -> unit; "<name>.calls" of a span is its exact call count, "_s" its
# self time unless the name says total_s.
PER_LAYER = {
    "rabi.build_hamiltonian.calls": "count",
    "rabi.build_hamiltonian.self_s": "s",
    "rabi.eigensolve.calls": "count",
    "rabi.eigensolve.self_s": "s",
    "rabi.eigensolve.dim_max": "count",
    "rabi.eigensystem.calls": "count",
    "rabi.eigensystem.self_s": "s",
    "rabi.drive_matrix_element.calls": "count",
    "rabi.drive_matrix_element.self_s": "s",
    "rabi.converged_truncation.calls": "count",
    "rabi.converged_truncation.total_s": "s",
    "rabi.converged_truncation.n_max_max": "count",
    "spectrum.sweep.calls": "count",
    "spectrum.sweep.self_s": "s",
    "spectrum.sweep.lines": "count",
    "fitting.fit.calls": "count",
    "fitting.fit.total_s": "s",
    "fitting.fit.self_s": "s",
    "fitting.fit.iterations": "count",
    "fitting.fit.eigensolves_per_iteration": "1/iteration",
    "fitting.read_peaks_csv.self_s": "s",
    "resonator.mode_wavenumbers.calls": "count",
    "resonator.mode_wavenumbers.self_s": "s",
    "resonator.mode_wavenumbers.modes": "count",
    "resonator.mode_table.self_s": "s",
    "lamb.cutoff_sum.calls": "count",
    "lamb.cutoff_sum.self_s": "s",
    "lamb.full_report.self_s": "s",
    "config.load_config.calls": "count",
    "config.load_config.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "output.emit.calls": "count",
    "output.emit.self_s": "s",
    "output.bytes": "B",
    **{f"layer.{layer}.self_s": "s" for layer in ("cli", "config", "rabi", "spectrum", "fitting", "resonator", "lamb", "output")},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.span_calls": "count",
    "trace.span_cost_s": "s",
    "blas1.trace.wall_s": "s",
    "blas1.rabi.eigensolve.self_s": "s",
}


class Invoker:
    """Spawns `python -m dscqed.cli` one at a time and measures each run."""

    def __init__(self, work):
        self.out = work / "stdout"
        self.err = work / "stderr"
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))
        self.pidfd = None
        signal.signal(signal.SIGALRM, self._kill)

    def _kill(self, signum, frame):
        if self.pidfd is not None:
            signal.pidfd_send_signal(self.pidfd, signal.SIGKILL)

    def run(self, args):
        """Return (seconds, exit code, max RSS in KiB, stdout, stderr)."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(self.out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.err), flags, 0o644),
        ]
        argv = [sys.executable, *args]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        self.pidfd = os.pidfd_open(pid)
        signal.setitimer(signal.ITIMER_REAL, INVOCATION_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            os.close(self.pidfd)
            self.pidfd = None
        elapsed = time.perf_counter() - start
        return (
            elapsed,
            os.waitstatus_to_exitcode(status),
            usage.ru_maxrss,
            self.out.read_text(),
            self.err.read_text(),
        )


class Verdicts:
    """Judges each invocation; a failure is known when it is the documented
    mode-equation defect on an invocation that expects it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.unexpected = []
        self._cache = {}

    def judge(self, op, rc, out, err):
        self.attempted += 1
        problem = None
        if rc != 0 or "Traceback (most recent call last)" in err:
            tail = err.strip().splitlines()[-1:] or [""]
            problem = f"exit {rc}: {tail[0]}"
        else:
            key = (op.argv, hashlib.sha256(out.encode()).digest())
            if key not in self._cache:
                try:
                    op.check(out)
                    self._cache[key] = None
                except Exception as exc:  # any parse error is a wrong output
                    self._cache[key] = f"check failed: {type(exc).__name__}: {exc}"
            problem = self._cache[key]
        if problem is None:
            return
        self.failed += 1
        if op.known_defect and rc == 1 and workloads.KNOWN_DEFECT in err:
            self.known += 1
        else:
            self.unexpected.append(f"dscqed {' '.join(op.argv)}: {problem}")


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def tail_percentile(samples):
    """(p, value, samples beyond it) for the highest whole percentile above
    the median with at least ten samples beyond it (nearest rank), or None."""
    n = len(samples)
    pct = (100 * (n - 10)) // n if n > 10 else 0
    if pct <= 50:
        return None
    rank = -(-pct * n // 100)
    return pct, sorted(samples)[rank - 1], n - rank


def measure(workload, seconds, invoker):
    """Closed loop of fresh-process rounds for ``seconds``; end-to-end metrics.

    Set-up is sampled twice before every round, so that its median spans
    the whole run like the other metrics do."""
    setup_args = ["-c", SETUP_CODE, *([workload.setup_config] if workload.setup_config else [])]
    invoker.run(setup_args)  # fills the bytecode cache, as any earlier run would have
    verdicts = Verdicts()
    setup, walls, latencies, peak_kib = [], [], [], 0
    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        for _ in range(SETUP_PER_ROUND):
            elapsed, rc, _, _, err = invoker.run(setup_args)
            if rc != 0:
                raise RuntimeError(f"set-up import failed: {err.strip()}")
            setup.append(elapsed)
        wall = 0.0
        for op in workload.rounds(r):
            elapsed, rc, rss, out, err = invoker.run(["-m", "dscqed.cli", *op.argv])
            wall += elapsed
            latencies.append(elapsed)
            peak_kib = max(peak_kib, rss)
            verdicts.judge(op, rc, out, err)
        walls.append(wall)
        r += 1

    metrics = {
        "wall_s": statistics.median(walls),
        "cmd_p50_s": statistics.median(latencies),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kib / 1024.0,
        "ok_frac": 1.0 - verdicts.failed / verdicts.attempted,
    }
    notes = {
        "rounds": len(walls),
        "invocations": len(latencies),
        "setup_samples": len(setup),
        "tail": tail_percentile(latencies),
        "fail_frac": verdicts.failed / verdicts.attempted,
        "known_defect_failures": verdicts.known,
    }
    return metrics, notes, verdicts


def trace(workload, work, invoker):
    """In-process passes of the first round's command list, each in a fresh
    interpreter: untraced and traced, alternating twice, then traced with
    one OpenBLAS thread."""
    ops = workload.rounds(0)
    ops_path = work / "ops.json"
    ops_path.write_text(json.dumps([list(op.argv) for op in ops]))
    passes = {"untraced": [], "traced": [], "blas1": []}
    plan = [("untraced", "0", {}), ("traced", "1", {})] * 2 + [("blas1", "1", {"OPENBLAS_NUM_THREADS": "1"})]
    for name, traced, extra_env in plan:
        out_dir = work / f"{name}{len(passes[name])}"
        out_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "tracer.py"), str(ops_path), str(out_dir), traced],
            env=dict(invoker.env, **extra_env),
            capture_output=True,
            text=True,
            timeout=INVOCATION_TIMEOUT_S,
            check=True,
        )
        passes[name].append(json.loads(proc.stdout.strip().splitlines()[-1]))

    verdicts = Verdicts()
    out_dir = work / "traced0"
    for k, op in enumerate(ops):
        rc = int((out_dir / f"{k}.rc").read_text())
        verdicts.judge(op, rc, (out_dir / f"{k}.out").read_text(), (out_dir / f"{k}.err").read_text())
    first, second = passes["traced"]
    for t in passes["traced"]:
        if not t["self_check_ok"]:
            verdicts.unexpected.append(f"tracer self-check failed: {t['self_check']}")
    if (first["calls"], first["tally"]) != (second["calls"], second["tally"]):
        verdicts.unexpected.append("span counts differ between two traced passes of the same commands")

    # Counts from one pass; times are the mean of the two traced passes.
    mean = {key: {n: (first[key].get(n, 0.0) + second[key].get(n, 0.0)) / 2 for n in first[key]}
            for key in ("total", "self_time")}
    metrics = layer_metrics(first["calls"], mean["total"], mean["self_time"], first["tally"])
    traced_wall = statistics.mean(t["wall_s"] for t in passes["traced"])
    untraced_wall = statistics.mean(t["wall_s"] for t in passes["untraced"])
    blas1 = passes["blas1"][0]
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        "trace.span_calls": sum(first["calls"].values()),
        "trace.span_cost_s": sum(first["calls"].values()) * statistics.mean(t["span_cost_s"] for t in passes["traced"]),
        "blas1.trace.wall_s": blas1["wall_s"],
        "blas1.rabi.eigensolve.self_s": blas1["self_time"].get("rabi.eigensolve", 0.0),
    })
    return metrics, {"self_check": first["self_check"]}, verdicts


def layer_metrics(calls, total, self_time, tally):
    """Per-layer metrics from span counters.  A layer's self time sums the
    self time of its spans; output.emit covers every public emitter."""

    def layer_sum(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    m = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in tally:
            m[name] = tally[name]
        elif span.startswith("layer."):
            m[name] = layer_sum(self_time, span[len("layer."):] + ".")
        elif span == "output.emit":
            m[name] = layer_sum(calls if field == "calls" else self_time, "output.")
        elif field == "calls":
            m[name] = calls.get(span, 0)
        elif field == "self_s":
            m[name] = self_time.get(span, 0.0)
        elif field == "total_s":
            m[name] = total.get(span, 0.0)
        else:
            m[name] = 0
    iterations = tally.get("fitting.fit.iterations", 0)
    m["fitting.fit.eigensolves_per_iteration"] = tally.get("fitting.fit.eigensolves", 0) / iterations if iterations else 0.0
    return m


def run_workload(name, seed, seconds, traced, root_work):
    work = root_work / f"{name}-seed{seed}-{'trace' if traced else 'e2e'}"
    work.mkdir(parents=True)
    invoker = Invoker(work)
    workload = workloads.WORKLOADS[name](seed, work)
    if traced:
        metrics, notes, verdicts = trace(workload, work, invoker)
    else:
        metrics, notes, verdicts = measure(workload, seconds, invoker)
    units = PER_LAYER if traced else END_TO_END
    report = {
        "workload": name,
        "seed": seed,
        "mode": "trace" if traced else "end-to-end",
        "inputs_sha256": workload.inputs,
        **notes,
        "unexpected_failures": verdicts.unexpected,
    }
    print(json.dumps(report, default=str))
    for key, unit in units.items():
        print(f"  {name:15s} {key:42s} {metrics[key]:>14.6g} {unit}")
    if not traced:
        tail = notes["tail"]
        print(f"  {name:15s} samples: wall_s n={notes['rounds']}, cmd_p50_s n={notes['invocations']}, "
              f"setup_s n={notes['setup_samples']}; "
              + (f"cmd_p{tail[0]}_s = {tail[1]:.6g} s ({tail[2]} samples beyond it)" if tail
                 else "no percentile above p50 has 10 samples beyond it")
              + f"; fail_frac {notes['fail_frac']:.4g} ({notes['known_defect_failures']} known-defect)")
    return {
        "correct": not verdicts.unexpected,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dscqed" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'dscqed'} not found; run from a checkout of the repository")

    print(json.dumps({"env": environment()}))
    root_work = WORK / f"run-{os.getpid()}"
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace == 1, root_work)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in workloads.WORKLOADS:
                for traced in (False, True):
                    part = run_workload(name, args.seed, args.seconds, traced, root_work)
                    result["correct"] &= part["correct"]
                    result["attempted"] += part["attempted"]
                    result["failed"] += part["failed"]
                    result["metrics"].update({f"{name}:{k}": v for k, v in part["metrics"].items()})
    finally:
        shutil.rmtree(root_work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))


if __name__ == "__main__":
    main()
