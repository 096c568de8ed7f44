"""The benchmark's workloads: seeded inputs, command lists and output checks.

A workload is built once per run from its seed.  It writes its input files
into the run's work directory, records their SHA-256, and hands out the
command list of each round.  Every command comes with a check that reads
the command's stdout and raises on a wrong answer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import model

# Each round moves every seeded draw along the golden-ratio sequence, so the
# rounds of one run spread evenly over each stratum.  Their median then sits
# near the stratum's median whatever the seed, instead of on a single draw.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

LINES_HEADER = "epsilon_ghz,i,j,label,frequency_ghz,amplitude"
MODES_HEADER = "n,omega_n_ghz,k_x,i_zpf_a,g_n_ghz"
COUPLINGS_HEADER = "l_c_ph,n,omega_n_ghz,g_over_g1,g_n_ghz"

# `dscqed modes --n-modes N` fails for N >~ 2600 at the bundled device: the
# 1e-9 relative residual check in resonator.mode_wavenumbers cannot be met
# in double precision near kX ~ 1e4.  The 3000-5000 stratum keeps that
# defect in view; its invocations count as failed until the program is
# fixed, and a failure with exactly this message is the expected one.
KNOWN_DEFECT = "RuntimeError: mode-equation residual"
MODE_STRATA = ((30, 100), (100, 1000), (1000, 2500), (3000, 5000))
DEFECT_STRATUM = MODE_STRATA[-1]

TRUNCATION_TOL = 1e-6  # GHz, the spectrum command's default
FORMAT_TOL = 1e-10  # GHz, slack for 12-significant-digit output
SUM_RTOL = 1e-8  # relative, mode sum against the closed form


@dataclass(frozen=True)
class Op:
    """One CLI invocation: arguments after `dscqed`, and its output check."""

    argv: tuple
    check: Callable[[str], None]
    known_defect: bool = False


@dataclass(frozen=True)
class Workload:
    inputs: dict  # input file name -> SHA-256
    setup_config: str | None  # config loaded by setup_s; None: bundled device
    rounds: Callable[[int], list]  # round index -> list of Op


class CheckFailed(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def _wrap(u, r):
    return (u + r * GOLDEN) % 1.0


# ---------------------------------------------------------------------------
# fit-peaks
# ---------------------------------------------------------------------------


def fit_peaks(seed, work):
    """One `dscqed fit` on a seeded, fully labeled peak set per round."""
    path = work / "peaks.csv"
    text = model.peak_csv(np.random.default_rng(seed))
    sha = model.write_text(path, text)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    peaks = (
        [float(row[0]) for row in rows],
        [row[2] for row in rows],
        np.array([float(row[1]) for row in rows]),
    )
    truth_cost = float(np.sum((model.labeled_frequencies(model.PAPER_TRIPLE, *peaks[:2]) - peaks[2]) ** 2))
    op = Op(("fit", "--data", str(path), "--format", "json"), partial(_check_fit, peaks, truth_cost))
    return Workload({"peaks.csv": sha}, None, lambda r: [op])


def _check_fit(peaks, truth_cost, out):
    """The fit is right when its residuals are those of the reference model
    at the reported parameters, and when those parameters fit the data no
    worse than the generating triple does, give or take one noise variance.

    Distance from the generating triple is no test: the least-squares
    optimum moves with the noise draw, by about 0.5 % (one standard error)
    in delta_prime at 2 MHz, so a correct fit misses any fixed 1 % bound on
    a few seeds in a hundred."""
    d = json.loads(out)
    expect(d["converged"] is True, "fit reports converged = false")
    eps, labels, freq = peaks
    params = (d["delta_prime_ghz"], d["omega1_ghz"], d["g1_ghz"])
    ref = model.labeled_frequencies(params, eps, labels) - freq
    got = np.asarray(d["per_point_residuals_ghz"], dtype=float)
    expect(got.shape == ref.shape, f"{got.size} residuals for {ref.size} peaks")
    err = float(np.max(np.abs(got - ref)))
    expect(err <= TRUNCATION_TOL + FORMAT_TOL, f"residuals off the reference model by {err:.3g} GHz at {params}")
    rms = math.sqrt(float(np.mean(ref**2)))
    expect(abs(d["residual_rms_ghz"] - rms) <= TRUNCATION_TOL + FORMAT_TOL,
           f"residual_rms_ghz {d['residual_rms_ghz']}, reference {rms}")
    cost = float(np.sum(ref**2))
    expect(cost <= truth_cost + model.NOISE_SIGMA_GHZ**2,
           f"fit at {params} has cost {cost:.6g} GHz^2, the generating triple {truth_cost:.6g}")


# ---------------------------------------------------------------------------
# spectrum-sweep
# ---------------------------------------------------------------------------


def spectrum_sweep(seed, work):
    """`dscqed spectrum` on the bundled device (401 steps) and twice on a
    deep-coupling device (201 steps), over seeded bias windows around zero.

    The deep call runs twice per round, over two windows, so that the
    median invocation falls inside one kind of call rather than between the
    two kinds."""
    rng = np.random.default_rng(seed)
    halves = (_half_width(rng), _half_width(rng))
    deep = (round(float(rng.uniform(0.1, 0.2)), 4), model.DEEP_OMEGA1, model.DEEP_G1)
    cfg = work / "deep.yaml"
    sha = model.write_text(cfg, model.deep_config_yaml(deep[0]))
    ops = []
    for triple, steps, half, extra in (
        (model.PAPER_TRIPLE, 401, halves[0], ()),
        (deep, 201, halves[0], ("--config", str(cfg))),
        (deep, 201, halves[1], ("--config", str(cfg))),
    ):
        grid = np.linspace(-half, half, steps)
        picks = sorted({steps // 2, *rng.choice(steps, size=3, replace=False).tolist()})
        window = ("--epsilon-min", model.fmt(-half), "--epsilon-max", model.fmt(half))
        check = partial(_check_spectrum, triple, grid, picks)
        ops.append(Op(("spectrum", *extra, *window, "--epsilon-steps", str(steps)), check))
    return Workload({"deep.yaml": sha}, str(cfg), lambda r: ops)


def _half_width(rng):
    # A half-width whose 401- and 201-point grids hold epsilon = 0 exactly,
    # so the parity path runs at one grid point of each call.
    for _ in range(100):  # about nine draws in ten qualify
        half = float(model.fmt(rng.uniform(0.6, 1.4)))
        if all(np.linspace(-half, half, n)[n // 2] == 0.0 for n in (401, 201)):
            return half
    raise RuntimeError("no bias window with an exact zero grid point in 100 draws")


def _check_spectrum(triple, grid, picks, out):
    lines = out.splitlines()
    expect(lines and lines[0] == LINES_HEADER, f"header is {lines[:1]}")
    by_bias = {}
    for row in lines[1:]:
        eps, i, j, label, freq, amp = row.split(",")
        expect(label == f"{i}{j}", f"label {label} for ({i},{j})")
        expect(float(amp) >= 0.0 and math.isfinite(float(amp)), f"amplitude {amp}")
        by_bias.setdefault(float(eps), {})[(int(i), int(j))] = float(freq)
    expect(len(by_bias) == len(grid), f"{len(by_bias)} biases, expected {len(grid)}")
    lo, hi = model.FREQ_WINDOW
    for k in picks:
        eps = float(model.fmt(grid[k]))
        got = by_bias.get(eps)
        expect(got is not None, f"no lines at bias {eps}")
        ref = model.window_lines(model.rabi_levels(triple[0], eps, *triple[1:]))
        edge = 10 * TRUNCATION_TOL  # lines this close to the band edge may fall either way
        for pair in set(ref) | set(got):
            f = ref.get(pair, got.get(pair))
            if min(abs(f - lo), abs(f - hi)) < edge:
                continue
            expect(pair in ref and pair in got, f"line {pair} at bias {eps}: ref {ref.get(pair)}, got {got.get(pair)}")
            err = abs(got[pair] - ref[pair])
            expect(err <= TRUNCATION_TOL + FORMAT_TOL, f"line {pair} at bias {eps} off by {err:.3g} GHz")


# ---------------------------------------------------------------------------
# mode-structure
# ---------------------------------------------------------------------------


def mode_structure(seed, work):
    """reproduce-paper, lamb-shift per n_cutoff decade, modes per stratum
    and two coupling tables: no Rabi work, mostly start-up and emission."""
    rng = np.random.default_rng(seed)
    u_cut = rng.random(4)
    u_modes = rng.random(len(MODE_STRATA))

    def ops(r):
        out = [Op(("reproduce-paper",), _check_reproduce)]
        for decade, u in enumerate(u_cut):
            text = format(3.0 * 10.0 ** (decade + _wrap(u, r)), ".6g")
            n_cutoff = float(text)
            out.append(Op(("lamb-shift", "--n-cutoff", text), partial(_check_lamb_text, n_cutoff)))
            out.append(
                Op(("lamb-shift", "--n-cutoff", text, "--format", "json"), partial(_check_lamb_json, n_cutoff))
            )
        for (lo, hi), u in zip(MODE_STRATA, u_modes):
            n = lo + int(_wrap(u, r) * (hi - lo + 1))
            out.append(
                Op(("modes", "--n-modes", str(n)), partial(_check_modes, n), (lo, hi) == DEFECT_STRATUM)
            )
        for n in (60, 1000):
            out.append(
                Op(("couplings", "--l-c-ph", "100,231,400", "--n-modes", str(n)), partial(_check_couplings, n))
            )
        return out

    return Workload({}, None, ops)


def _check_reproduce(out):
    rows = out.strip().splitlines()[1:]
    expect(len(rows) == 6, f"{len(rows)} rows, expected 6")
    expect(all(row.split()[-1] == "PASS" for row in rows), "a reference value does not PASS")


def _check_sum(n_cutoff, value):
    ref = model.mode_sum(n_cutoff)
    expect(math.isfinite(value), f"mode sum {value}")
    expect(abs(value - ref) <= SUM_RTOL * ref, f"mode sum {value}, reference {ref}")


def _check_lamb_text(n_cutoff, out):
    fields = {k.strip(): v for k, v in (line.split(":", 1) for line in out.splitlines() if ":" in line)}
    _check_sum(n_cutoff, float(fields["mode sum S(n_cutoff)"]))


def _check_lamb_json(n_cutoff, out):
    d = json.loads(out)
    expect(d["n_cutoff"] == n_cutoff, f"n_cutoff {d['n_cutoff']}, asked {n_cutoff}")
    _check_sum(n_cutoff, d["sum_value"])


def _check_modes(n_modes, out):
    lines = out.splitlines()
    expect(lines and lines[0] == MODES_HEADER, f"header is {lines[:1]}")
    rows = [[float(v) for v in row.split(",")] for row in lines[1:]]
    expect(len(rows) == n_modes, f"{len(rows)} rows, asked {n_modes}")
    prev = 0.0
    for k, (n, omega, kx, _izpf, _g) in enumerate(rows, start=1):
        expect(n == k, f"row {k} has n = {n}")
        expect((k - 1) * math.pi < kx < (k - 0.5) * math.pi, f"kX {kx} outside branch {k}")
        expect(omega > prev, f"frequency {omega} of mode {k} does not increase")
        prev = omega


def _check_couplings(n_modes, out):
    lines = out.splitlines()
    expect(lines and lines[0] == COUPLINGS_HEADER, f"header is {lines[:1]}")
    rows = [[float(v) for v in row.split(",")] for row in lines[1:]]
    expect(len(rows) == 3 * n_modes, f"{len(rows)} rows, expected {3 * n_modes}")
    g1 = model.PAPER_TRIPLE[2]
    for block, lc in enumerate((100.0, 231.0, 400.0)):
        prev = 0.0
        for k, (l_c, n, omega, ratio, g) in enumerate(rows[block * n_modes:(block + 1) * n_modes], start=1):
            expect(l_c == lc and n == k, f"row ({l_c}, {n}), expected ({lc}, {k})")
            expect(omega > prev, f"frequency {omega} of mode {k} does not increase")
            expect(ratio > 0.0 and abs(g - ratio * g1) <= 1e-9 * g, f"coupling {g} vs ratio {ratio}")
            prev = omega


WORKLOADS = {
    "fit-peaks": fit_peaks,
    "spectrum-sweep": spectrum_sweep,
    "mode-structure": mode_structure,
}
