"""Least-squares recovery of (delta_prime, omega1, g1) from measured
spectral peaks, using a derivative-free simplex descent on the Rabi spectrum.

Data rows carry a bias, a frequency, an optional transition label ("03",
"12", ...) and an optional positive weight.  Labeled rows are matched to the
named transition; unlabeled rows fall back to the nearest drive-allowed line,
which can be unstable near avoided crossings -- down-weight such points.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .lamb import LambShiftReport, full_report, single_mode_renorm
from .rabi import (
    DEFAULT_N_MAX,
    FockTruncation,
    QrmParams,
    build_hamiltonian,
    converged_truncation,
    drive_matrix_element,
    solve,
)

DEFAULT_BOUNDS = ((1e-6, 100.0), (1e-3, 100.0), (0.0, 100.0))

_SIMPLEX_DIAM_TOL = 1e-6  # GHz, per-parameter spread at convergence
_OBJECTIVE_TOL = 1e-12  # improvement per full cycle at convergence


@dataclass(frozen=True)
class PeakData:
    """Measured peak positions: bias and frequency in GHz."""

    epsilon: np.ndarray
    frequency: np.ndarray
    label: tuple
    weight: np.ndarray

    def __post_init__(self):
        n = len(self.epsilon)
        if n < 3:
            raise ValueError(f"need at least 3 rows, got {n}")
        if not (len(self.frequency) == len(self.label) == len(self.weight) == n):
            raise ValueError("column lengths differ")
        if not (np.all(np.isfinite(self.epsilon)) and np.all(np.isfinite(self.frequency))):
            raise ValueError("bias and frequency values must be finite")
        if not np.all(self.weight > 0.0):
            raise ValueError("weights must be positive")

    def __len__(self):
        return len(self.epsilon)

    @classmethod
    def from_rows(cls, rows):
        """Build from (epsilon, frequency[, label[, weight]]) tuples."""
        eps, freq, labels, weights = [], [], [], []
        for row in rows:
            eps.append(float(row[0]))
            freq.append(float(row[1]))
            labels.append(row[2] if len(row) > 2 else None)
            weights.append(float(row[3]) if len(row) > 3 else 1.0)
        return cls(
            epsilon=np.array(eps),
            frequency=np.array(freq),
            label=tuple(labels),
            weight=np.array(weights),
        )


@dataclass(frozen=True)
class FitResult:
    delta_prime: float
    omega1: float
    g1: float
    residual_rms: float
    per_point_residuals: np.ndarray
    iterations: int
    converged: bool

    @property
    def params(self):
        return (self.delta_prime, self.omega1, self.g1)


def read_peaks_csv(path) -> PeakData:
    """Load peaks from CSV with header epsilon_ghz,frequency_ghz[,label][,weight]."""
    allowed = ("epsilon_ghz", "frequency_ghz", "label", "weight")
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}:1: empty file") from None
        header = [h.strip() for h in header]
        if header[:2] != ["epsilon_ghz", "frequency_ghz"]:
            raise ConfigError(
                f"{path}:1: header must start with epsilon_ghz,frequency_ghz"
            )
        for name in header[2:]:
            if name not in allowed[2:]:
                raise ConfigError(f"{path}:1: unknown column {name!r}")
        cols = {name: k for k, name in enumerate(header)}
        for lineno, raw in enumerate(reader, start=2):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            if len(raw) != len(header):
                raise ConfigError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(raw)}"
                )
            try:
                eps = float(raw[cols["epsilon_ghz"]])
                freq = float(raw[cols["frequency_ghz"]])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            label = None
            if "label" in cols and raw[cols["label"]].strip():
                label = raw[cols["label"]].strip()
            weight = 1.0
            if "weight" in cols and raw[cols["weight"]].strip():
                try:
                    weight = float(raw[cols["weight"]])
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from None
            rows.append((eps, freq, label, weight))
    try:
        return PeakData.from_rows(rows)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_label(label: str):
    if len(label) < 2 or not label.isdigit():
        raise ValueError(f"transition label {label!r} is not of the form 'ij'")
    i, j = int(label[0]), int(label[1:])
    if not i < j:
        raise ValueError(f"transition label {label!r} must have i < j")
    return i, j


def model_frequency(
    params,
    epsilon: float,
    label: str | None = None,
    measured: float | None = None,
    n_max: int = DEFAULT_N_MAX,
    k_levels: int = 6,
    amplitude_floor: float = 1e-6,
) -> float:
    """Model transition frequency at one bias point.

    ``params`` is the (delta_prime, omega1, g1) triple.  With a label, the
    named transition's frequency is returned; without one, ``measured`` must
    be given and the closest drive-allowed line from states {0, 1} is used.
    """
    if label is None and measured is None:
        raise ValueError("nearest-line mode requires the measured frequency")
    return _frequencies_at_bias(
        params, epsilon, [(label, measured)], n_max, k_levels, amplitude_floor
    )[0]


def _frequencies_at_bias(params, epsilon, rows, n_max, k_levels, floor):
    """Model frequency of each (label, measured) row at one bias point.

    Labeled rows give the named transition; unlabeled rows give the
    drive-allowed line nearest their measured frequency.  When every row is
    labeled only the eigenvalues are computed.
    """
    delta_prime, omega1, g1 = params
    p = QrmParams(delta_prime, epsilon, omega1, g1)
    trunc = FockTruncation(n_max)
    if all(label is not None for label, _ in rows):
        values = np.linalg.eigvalsh(build_hamiltonian(p, trunc))
        es = None
    else:
        es = solve(p, trunc)
        values = es.values
    out = []
    for label, measured in rows:
        if label is None:
            out.append(_nearest_allowed(es, trunc, measured, k_levels, floor))
            continue
        i, j = _parse_label(label)
        if j >= len(values):
            raise ValueError(f"label {label!r} outside the computed spectrum")
        out.append(float(values[j] - values[i]))
    return out


def _nearest_allowed(es, trunc, measured, k_levels, floor):
    best = None
    for i in (0, 1):
        for j in range(i + 1, k_levels):
            if drive_matrix_element(es, i, j, trunc) <= floor:
                continue
            f = float(es.values[j] - es.values[i])
            key = (abs(f - measured), i, j)
            if best is None or key < best[0]:
                best = (key, f)
    if best is None:
        raise ValueError("no drive-allowed transition within k_levels")
    return best[1]


def _predicted(params, data: PeakData, n_max: int, k_levels: int, floor: float):
    """Model frequencies for every data row, diagonalizing once per bias."""
    pred = np.empty(len(data))
    for eps in np.unique(data.epsilon):
        idx = np.nonzero(data.epsilon == eps)[0]
        rows = [(data.label[k], float(data.frequency[k])) for k in idx]
        pred[idx] = _frequencies_at_bias(params, float(eps), rows, n_max, k_levels, floor)
    return pred


def _nelder_mead(f, x0, max_iter: int):
    """Simplex descent with reflection 1, expansion 2, contraction 0.5,
    shrink 0.5.  Returns (x_best, f_best, iterations, converged, trace)
    where trace records the best objective after every iteration."""
    n = len(x0)
    simplex = [np.asarray(x0, dtype=float)]
    for k in range(n):
        x = np.array(x0, dtype=float)
        x[k] = x[k] * 1.05 if x[k] != 0.0 else 2.5e-4
        simplex.append(x)
    fv = [f(x) for x in simplex]
    trace = []
    converged = False
    it = 0
    while it < max_iter:
        order = sorted(range(n + 1), key=lambda k: fv[k])
        simplex = [simplex[k] for k in order]
        fv = [fv[k] for k in order]
        trace.append(fv[0])

        # Converged when the simplex is tiny in every parameter or when a
        # full cycle cannot improve the objective beyond the value spread.
        diam = max(np.max(np.abs(v - simplex[0])) for v in simplex[1:])
        if diam < _SIMPLEX_DIAM_TOL or fv[-1] - fv[0] < _OBJECTIVE_TOL:
            converged = True
            break
        it += 1

        centroid = np.mean(simplex[:-1], axis=0)
        xr = centroid + (centroid - simplex[-1])
        fr = f(xr)
        if fr < fv[0]:
            xe = centroid + 2.0 * (centroid - simplex[-1])
            fe = f(xe)
            if fe < fr:
                simplex[-1], fv[-1] = xe, fe
            else:
                simplex[-1], fv[-1] = xr, fr
        elif fr < fv[-2]:
            simplex[-1], fv[-1] = xr, fr
        else:
            if fr < fv[-1]:
                xc = centroid + 0.5 * (xr - centroid)
                fc = f(xc)
                accept = fc <= fr
            else:
                xc = centroid + 0.5 * (simplex[-1] - centroid)
                fc = f(xc)
                accept = fc < fv[-1]
            if accept:
                simplex[-1], fv[-1] = xc, fc
            else:
                for k in range(1, n + 1):
                    simplex[k] = simplex[0] + 0.5 * (simplex[k] - simplex[0])
                    fv[k] = f(simplex[k])
    order = sorted(range(n + 1), key=lambda k: fv[k])
    return simplex[order[0]], fv[order[0]], it, converged, trace


def fit(
    data: PeakData,
    initial,
    bounds=DEFAULT_BOUNDS,
    n_max: int = DEFAULT_N_MAX,
    k_levels: int = 6,
    amplitude_floor: float = 1e-6,
    max_iter: int = 400,
) -> FitResult:
    """Weighted least squares over the peak data.

    Runs the simplex descent from ``initial`` and restarts once from the
    found optimum.  The optimization evaluates the spectrum at a fixed
    truncation for speed; the reported residuals are re-computed at a
    converged truncation.  Out-of-bounds trial points are rejected through
    an infinite objective.
    """
    initial = tuple(float(v) for v in initial)
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if len(initial) != 3 or len(bounds) != 3:
        raise ValueError("expected 3 parameters (delta_prime, omega1, g1)")
    for v, (lo, hi) in zip(initial, bounds):
        if not lo <= v <= hi:
            raise ValueError(f"initial value {v} outside bounds [{lo}, {hi}]")
    if np.all(data.epsilon == data.epsilon[0]):
        raise ValueError("degenerate data: all bias values are equal")
    for lab in data.label:
        if lab is not None:
            _parse_label(lab)  # fail loudly here, not inside the objective

    objective = _objective_factory(data, bounds, n_max, k_levels, amplitude_floor)
    x1, f1, it1, conv1, _ = _nelder_mead(objective, np.array(initial), max_iter)
    x2, f2, it2, conv2, _ = _nelder_mead(objective, x1, max_iter)
    best = x2 if f2 <= f1 else x1

    # Correctness backstop: residuals at a converged truncation.
    p_best = QrmParams(best[0], 0.0, best[1], best[2])
    trunc = converged_truncation(p_best, k_levels=k_levels, tol=1e-8)
    pred = _predicted(tuple(best), data, trunc.n_max, k_levels, amplitude_floor)
    residuals = pred - data.frequency
    rms = float(np.sqrt(np.sum(data.weight * residuals**2) / np.sum(data.weight)))
    return FitResult(
        delta_prime=float(best[0]),
        omega1=float(best[1]),
        g1=float(best[2]),
        residual_rms=rms,
        per_point_residuals=residuals,
        iterations=it1 + it2,
        converged=conv1 and conv2,
    )


def _objective_factory(data, bounds, n_max, k_levels, floor):
    def objective(x):
        for v, (lo, hi) in zip(x, bounds):
            if not lo <= v <= hi:
                return math.inf
        try:
            pred = _predicted(tuple(x), data, n_max, k_levels, floor)
        except ValueError:
            return math.inf
        return float(np.sum(data.weight * (pred - data.frequency) ** 2))

    return objective


def profile_objective(
    data: PeakData,
    result: FitResult,
    param: str,
    span: float = 0.2,
    n: int = 7,
    bounds=DEFAULT_BOUNDS,
    n_max: int = DEFAULT_N_MAX,
    k_levels: int = 6,
    amplitude_floor: float = 1e-6,
    max_iter: int = 150,
):
    """Profile the objective along one parameter around the fitted optimum,
    re-optimizing the remaining two parameters at every grid point.

    A flat profile flags a poorly constrained parameter, e.g. g1 when all
    peaks sit far from the mode frequency.  Returns (values, objectives).
    """
    names = ("delta_prime", "omega1", "g1")
    if param not in names:
        raise ValueError(f"param must be one of {names}")
    k = names.index(param)
    free = [i for i in range(3) if i != k]
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    full = _objective_factory(data, bounds, n_max, k_levels, amplitude_floor)

    center = result.params[k]
    values = np.linspace(center * (1.0 - span), center * (1.0 + span), n)
    objectives = np.empty(n)
    # scan outward from the optimum so each refit warm-starts from a neighbor
    warm_lo = [result.params[i] for i in free]
    warm_hi = list(warm_lo)
    for idx in np.argsort(np.abs(values - center)):
        warm = warm_lo if values[idx] <= center else warm_hi
        fixed = float(values[idx])

        def reduced(y):
            x = [0.0, 0.0, 0.0]
            x[k] = fixed
            x[free[0]], x[free[1]] = y
            return full(x)

        y_best, f_best, _, _, _ = _nelder_mead(reduced, np.array(warm), max_iter)
        warm[0], warm[1] = float(y_best[0]), float(y_best[1])
        objectives[idx] = f_best
    return values, objectives


def report_chain(
    result: FitResult,
    n_cutoff: float,
    measured_delta: float | None = None,
    n_modes: int = 30,
) -> LambShiftReport:
    """Pipe fitted parameters into the renormalization report.

    When ``measured_delta`` is omitted, the fully renormalized gap is
    predicted from the fitted triple via the single-mode exponential.
    """
    if not result.converged:
        raise ValueError("fit did not converge; refusing to chain the report")
    delta = (
        measured_delta
        if measured_delta is not None
        else single_mode_renorm(result.delta_prime, result.g1, result.omega1)
    )
    return full_report(result.g1, result.omega1, n_cutoff, delta, n_modes=n_modes)
