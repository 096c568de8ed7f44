"""Least-squares recovery of (delta_prime, omega1, g1) from measured
spectral peaks by a bounded Levenberg-Marquardt descent on the Rabi spectrum.

Data rows carry a bias, a frequency, an optional transition label ("03",
"12", ...) and an optional positive weight.  Labeled rows are matched to the
named transition; unlabeled rows fall back to the nearest drive-allowed line
of ``rabi.solve``'s spectrum, which can be unstable near avoided crossings --
down-weight such points.

H is linear in the three parameters, so by the Hellmann-Feynman theorem each
level's gradient is dE_k/dtheta = <k| dH/dtheta |k>, with

    dH/d delta_prime = -sigma_x / 2          offset-1 band at even rows
    dH/d omega1      = n_hat                 diagonal
    dH/d g1          = sigma_z (a + a^dag)   offset-2 band

One eigh per distinct bias thus gives the residuals and their exact Jacobian
together.  An unlabeled row takes the gradient of the line it was matched
to.  A level closer than _DEGENERATE_TOL to a neighbour has no well-defined
eigenvector, so rows using one take central differences instead.

The Fock truncation is sized as the sweep sizes it, at zero bias and at the
data's largest |bias|, first at the start point; the descent is repeated
from its optimum while the optimum needs a larger one.  The reported
residuals are the descent's own at the optimum, so they come from a
truncation no smaller than the one that converges there.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, io_error
from .rabi import (
    FockTruncation,
    QrmParams,
    _photons_and_spin,
    build_hamiltonian,
    drive_matrix_element,
    solve,
)
from .spectrum import SweepConfig, _grid_truncation

DEFAULT_BOUNDS = ((1e-6, 100.0), (1e-3, 100.0), (0.0, 100.0))

_TRUNCATION_TOL = 1e-8  # GHz, movement of the lowest k_levels on doubling n_max
_DEGENERATE_TOL = 1e-6  # GHz, level spacing below which gradients are differenced
_FD_STEP = 1e-6  # step of those differences, relative to max(|x|, 1 GHz)
_DAMPING_START = 1e-3  # initial damping, relative to mean(diag(J^T J))
_COST_RTOL = 1e-10  # relative cost decrease of an accepted step at convergence
_STEP_RTOL = 1e-10  # step length relative to |x| at convergence


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
        if not np.all(np.isfinite(self.weight) & (self.weight > 0.0)):
            raise ValueError("weights must be finite and > 0")

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
    stderr: tuple  # per parameter, GHz: sqrt(diag((J^T W J)^-1) * chi2 / dof)
    reason: str  # termination: "cost", "step" or "max_iter"

    @property
    def params(self):
        return (self.delta_prime, self.omega1, self.g1)

    def as_dict(self) -> dict:
        return {
            "delta_prime_ghz": self.delta_prime,
            "omega1_ghz": self.omega1,
            "g1_ghz": self.g1,
            "residual_rms_ghz": self.residual_rms,
            "iterations": self.iterations,
            "converged": self.converged,
            "per_point_residuals_ghz": [float(r) for r in self.per_point_residuals],
        }


def read_peaks_csv(path, k_levels: int = SweepConfig.k_levels) -> PeakData:
    """Load peaks from CSV with header epsilon_ghz,frequency_ghz[,label][,weight];
    labels are checked against ``k_levels`` as ``fit`` checks them."""
    allowed = ("epsilon_ghz", "frequency_ghz", "label", "weight")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise io_error(path, exc) from None
    if not records:
        raise ConfigError(f"{path}:1: empty file")
    header = [h.strip() for h in records[0]]
    if header[:2] != ["epsilon_ghz", "frequency_ghz"]:
        raise ConfigError(f"{path}:1: header must start with epsilon_ghz,frequency_ghz")
    for name in header[2:]:
        if name not in allowed[2:]:
            raise ConfigError(f"{path}:1: unknown column {name!r}")
    rows = []
    for lineno, raw in enumerate(records[1:], start=2):
        if not raw or all(not cell.strip() for cell in raw):
            continue
        if len(raw) != len(header):
            raise ConfigError(f"{path}:{lineno}: expected {len(header)} fields, got {len(raw)}")
        cell = dict(zip(header, raw))
        try:
            eps, freq = float(cell["epsilon_ghz"]), float(cell["frequency_ghz"])
            if not (math.isfinite(eps) and math.isfinite(freq)):
                raise ValueError("bias and frequency values must be finite")
            label = cell.get("label", "").strip() or None
            if label is not None:
                _parse_label(label, k_levels)
            weight = float(cell["weight"]) if cell.get("weight", "").strip() else 1.0
            if not (math.isfinite(weight) and weight > 0.0):
                raise ValueError(f"weight must be finite and > 0, got {weight}")
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        rows.append((eps, freq, label, weight))
    try:
        return PeakData.from_rows(rows)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_label(label: str, k_levels: int):
    """(i, j) of a label "ij"; the truncation certifies only levels j < k_levels."""
    if len(label) < 2 or not label.isdigit():
        raise ValueError(f"transition label {label!r} is not of the form 'ij'")
    i, j = int(label[0]), int(label[1:])
    if not i < j:
        raise ValueError(f"transition label {label!r} must have i < j")
    if j >= k_levels:
        raise ValueError(f"transition label {label!r} needs j < k_levels ({k_levels})")
    return i, j


def _frequencies_at_bias(params, epsilon, rows, n_max, k_levels, floor, jacobian=False):
    """Model frequency of each (label, measured) row at one bias point and,
    with ``jacobian``, its gradient in (delta_prime, omega1, g1).

    Labeled rows give the named transition; unlabeled rows give the
    drive-allowed line nearest their measured frequency, so a bias with one
    diagonalizes through ``solve`` and any other through a bare eigh.
    Returns (frequencies, gradients or None).
    """
    delta_prime, omega1, g1 = params
    p, t = QrmParams(delta_prime, epsilon, omega1, g1), FockTruncation(n_max)
    es = None
    if any(label is None for label, _ in rows):
        es = solve(p, t)
        values, vectors = es.values, es.vectors
    else:
        values, vectors = np.linalg.eigh(build_hamiltonian(p, t))
    i, j = np.array([
        _parse_label(label, k_levels) if label is not None
        else _nearest_allowed(es, measured, k_levels, floor)
        for label, measured in rows
    ]).T
    freqs = values[j] - values[i]
    if not jacobian:
        return freqs, None
    level_grad = _level_gradients(vectors[:, : j.max() + 1])
    grad = level_grad[j] - level_grad[i]
    close = np.diff(values) < _DEGENERATE_TOL
    degenerate = np.append(close, False) | np.insert(close, 0, False)
    fallback = degenerate[i] | degenerate[j]
    if fallback.any():
        grad[fallback] = _central_differences(
            params, epsilon, [r for r, f in zip(rows, fallback) if f], n_max, k_levels, floor
        )
    return freqs, grad


def _level_gradients(v):
    """Hellmann-Feynman gradients <k| dH/dtheta |k> of the eigenvector
    columns of ``v``, one row (d/d delta_prime, d/d omega1, d/d g1) per
    column, each a product with one band of dH (both triangles counted)."""
    n, s = _photons_and_spin(v.shape[0])
    return np.stack(
        [
            -np.sum(v[0::2] * v[1::2], axis=0),
            n @ (v * v),
            2.0 * ((s[:-2] * np.sqrt(n[:-2] + 1.0)) @ (v[:-2] * v[2:])),
        ],
        axis=1,
    )


def _central_differences(params, epsilon, rows, n_max, k_levels, floor):
    """Central differences of the rows' model frequencies in each parameter
    (unlabeled rows pick their nearest line again at every point).  The
    spectrum is even in delta_prime and g1 (conjugation by sigma_z or
    (-1)^n flips their sign), so abs() keeps the lower point valid at zero."""
    grad = np.empty((len(rows), 3))
    for p in range(3):
        step = _FD_STEP * max(abs(params[p]), 1.0)
        ends = []
        for sign in (1.0, -1.0):
            x = list(params)
            x[p] = abs(x[p] + sign * step)
            ends.append(_frequencies_at_bias(x, epsilon, rows, n_max, k_levels, floor)[0])
        grad[:, p] = (ends[0] - ends[1]) / (2.0 * step)
    return grad


def _nearest_allowed(es, measured, k_levels, floor):
    """Level pair (i, j) of the drive-allowed line nearest ``measured``."""
    best = None
    for i in (0, 1):
        for j in range(i + 1, k_levels):
            if drive_matrix_element(es, i, j) <= floor:
                continue
            key = (abs(float(es.values[j] - es.values[i]) - measured), i, j)
            if best is None or key < best:
                best = key
    if best is None:
        raise ValueError("no drive-allowed transition within k_levels")
    return best[1:]


def _predicted(params, data: PeakData, n_max: int, k_levels: int, floor: float, jacobian=False):
    """Model frequencies for every data row, diagonalizing once per bias;
    with ``jacobian``, (frequencies, (rows, 3) gradient matrix)."""
    pred = np.empty(len(data))
    jac = np.empty((len(data), 3)) if jacobian else None
    for eps in np.unique(data.epsilon):
        idx = np.nonzero(data.epsilon == eps)[0]
        rows = [(data.label[k], float(data.frequency[k])) for k in idx]
        pred[idx], grad = _frequencies_at_bias(
            params, float(eps), rows, n_max, k_levels, floor, jacobian
        )
        if jacobian:
            jac[idx] = grad
    return (pred, jac) if jacobian else pred


def _levenberg_marquardt(residuals, x0, lo, hi, max_iter: int):
    """Minimize |r(x)|^2 inside the box [lo, hi]; ``residuals(x)`` returns r
    and its Jacobian.

    Each iteration solves the Gauss-Newton step damped by ``damping *
    mean(diag(J^T J))`` times the identity, as a least-squares problem.  A
    step that leaves the box or does not lower the cost is refused and the
    damping grows tenfold, which shortens the next step and turns it towards
    steepest descent; an accepted step shrinks the damping tenfold.  Refusing
    rather than clipping keeps a long early step from being projected into a
    corner of the box that is a local minimum.  A parameter that starts on a
    bound stays on it while the step points out of the box.

    Returns (x, r, jacobian, iterations, reason, trace), with r and the
    jacobian at x: trace holds the cost after every accepted step; reason is
    "cost" (an accepted step lowered the cost by at most _COST_RTOL
    relative), "step" (a step no longer than _STEP_RTOL relative to |x|) or
    "max_iter".
    """
    x = np.array(x0, dtype=float)
    r, jac = residuals(x)
    cost = float(r @ r)
    trace = [cost]
    damping = _DAMPING_START
    for it in range(1, max_iter + 1):
        mu = damping * np.mean(np.sum(jac * jac, axis=0))
        step = np.linalg.lstsq(
            np.vstack([jac, np.sqrt(mu) * np.eye(len(x))]),
            np.concatenate([-r, np.zeros(len(x))]),
            rcond=None,
        )[0]
        # a parameter sitting on a bound stays there while the step pushes out
        step[((x <= lo) & (step < 0.0)) | ((x >= hi) & (step > 0.0))] = 0.0
        trial = x + step
        accepted = False
        if np.all((lo <= trial) & (trial <= hi)):
            r_trial, jac_trial = residuals(trial)
            cost_trial = float(r_trial @ r_trial)
            accepted = cost_trial < cost
        if accepted:
            decrease = cost - cost_trial
            x, r, jac, cost = trial, r_trial, jac_trial, cost_trial
            trace.append(cost)
            damping *= 0.1
            if decrease <= _COST_RTOL * cost:
                return x, r, jac, it, "cost", trace
        else:
            damping *= 10.0
        if np.linalg.norm(step) <= _STEP_RTOL * (np.linalg.norm(x) + _STEP_RTOL):
            return x, r, jac, it, "step", trace
    return x, r, jac, max_iter, "max_iter", trace


def _descend(data, x0, bounds, k_levels, floor, max_iter):
    """Levenberg-Marquardt on the weighted residuals at the truncation that
    converges at ``x0``, repeated from the optimum while the optimum needs a
    larger one.  A truncation converges at x when the lowest ``k_levels``
    levels settle to _TRUNCATION_TOL both at zero bias and at the data's
    largest |bias|, as in ``spectrum.sweep``.  ``max_iter`` bounds the
    iterations of all passes together.

    Returns (x, weighted residuals, weighted jacobian, iterations, reason),
    all from the last pass, whose truncation is no smaller than the one that
    converges at x.
    """
    lo, hi = (np.array(b) for b in zip(*bounds))
    root_w = np.sqrt(data.weight)

    def converged_at(x):
        return _grid_truncation(*x, data.epsilon, k_levels, _TRUNCATION_TOL).n_max

    def residuals(x):
        pred, jac = _predicted(tuple(x), data, n_max, k_levels, floor, jacobian=True)
        return root_w * (pred - data.frequency), root_w[:, None] * jac

    x, n_max, iterations = np.array(x0, dtype=float), converged_at(x0), 0
    while True:
        x, r, jac, it, reason, _ = _levenberg_marquardt(residuals, x, lo, hi, max_iter - iterations)
        iterations += it
        needed = converged_at(x)
        if needed <= n_max:
            return x, r, jac, iterations, reason
        n_max = needed


def _standard_errors(jac, chi2, dof):
    """sqrt(diag((J^T W J)^-1) * chi2 / dof) for a weighted Jacobian."""
    if dof <= 0:
        return (math.nan,) * 3
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        return (math.inf,) * 3
    return tuple(float(v) for v in np.sqrt(np.abs(np.diag(cov)) * chi2 / dof))


def fit(
    data: PeakData,
    initial,
    bounds=DEFAULT_BOUNDS,
    k_levels: int = SweepConfig.k_levels,
    amplitude_floor: float = SweepConfig.amplitude_floor,
    max_iter: int = 400,
) -> FitResult:
    """Weighted least squares over the peak data.

    Runs the bounded Levenberg-Marquardt descent from ``initial`` (see the
    module docstring for the Jacobian and the truncation).  When ``max_iter``
    runs out, the best point so far is returned with ``converged=False``.
    """
    initial = tuple(float(v) for v in initial)
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if len(initial) != 3 or len(bounds) != 3:
        raise ValueError("expected 3 parameters (delta_prime, omega1, g1)")
    for v, (lo, hi) in zip(initial, bounds):
        if not lo <= v <= hi:
            raise ValueError(f"initial value {v} outside bounds [{lo}, {hi}]")
    try:
        QrmParams(bounds[0][0], 0.0, bounds[1][0], bounds[2][0])
    except ValueError as exc:
        raise ValueError(f"lower bounds outside the model domain: {exc}") from None
    if np.all(data.epsilon == data.epsilon[0]):
        raise ValueError("degenerate data: all bias values are equal")
    # fail loudly here, not inside the descent
    for row, label in enumerate(data.label, start=1):
        if label is not None:
            try:
                _parse_label(label, k_levels)
            except ValueError as exc:
                raise ValueError(f"row {row}: {exc}") from None

    best, r, jac, iterations, reason = _descend(
        data, initial, bounds, k_levels, amplitude_floor, max_iter
    )
    chi2 = float(r @ r)
    rms = float(np.sqrt(chi2 / np.sum(data.weight)))
    return FitResult(
        delta_prime=float(best[0]),
        omega1=float(best[1]),
        g1=float(best[2]),
        residual_rms=rms,
        per_point_residuals=r / np.sqrt(data.weight),
        iterations=iterations,
        converged=reason != "max_iter",
        stderr=_standard_errors(jac, chi2, len(data) - 3),
        reason=reason,
    )
