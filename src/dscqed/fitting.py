"""Least-squares recovery of (delta_prime, omega1, g1) from measured
spectral peaks by a bounded Levenberg-Marquardt descent on the Rabi spectrum.

Data rows carry a bias, a frequency, an optional transition label ("03",
"12", ...) and an optional positive weight.  Labeled rows are matched to the
named transition.  An unlabeled row takes the nearest of ``spectrum``'s
candidate lines (i, j) whose drive amplitude is above the floor, ties going
to the lowest (i, j); this can be unstable near avoided crossings, so
down-weight such points.  One band product from ``rabi`` per distinct |bias|
gives all the amplitudes.

The eigenvectors give the residuals' exact Jacobian with the residuals:
each level's gradient is its Hellmann-Feynman product with the bands of
dH/dtheta (``rabi``), and an unlabeled row takes the gradient of its line.
The parity P = sigma_x (-1)^n maps H(epsilon) to H(-epsilon) and commutes
with all three dH/dtheta and maps the drive (a + a^dag) to minus itself, so
the levels, their gradients and the drive amplitudes are even in the bias.
Every row is therefore evaluated at its |bias|, all distinct |bias| in one
stacked eigensolve per evaluation by ``rabi``'s kernel, the one ``solve``
uses: the eigenpairs kept are checked as ``eigensystem`` checks them, and
zero bias enters the stack as the two parity chains, so its eigenvectors
keep their parity and the forbidden lines of a near-degenerate doublet stay
forbidden.  A level closer than _DEGENERATE_TOL to a neighbour has no
well-defined eigenvector, so rows using one take central differences
instead, through the same evaluation.

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

from ._lazy import np
from .errors import ConfigError, ConvergenceError, io_error
from .rabi import FockTruncation, QrmParams, _drive, _eigenpairs, _grid_truncation, _level_gradients
from .spectrum import SweepConfig, _candidate_lines

DEFAULT_BOUNDS = ((1e-6, 100.0), (1e-3, 100.0), (0.0, 100.0))

_TRUNCATION_TOL = 1e-8  # GHz, movement of the lowest k_levels on doubling n_max
_DEGENERATE_TOL = 1e-6  # GHz, level spacing below which gradients are differenced
_FD_STEP = 1e-6  # step of those differences, relative to max(|x|, 1 GHz)
_DAMPING_START = 1e-3  # initial damping, relative to mean(diag(J^T J))
_COST_RTOL = 1e-10  # relative cost change, actual and predicted, at convergence
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
    for k, name in enumerate(header[2:], start=2):
        if name in header[:k]:
            raise ConfigError(f"{path}:1: duplicate column {name!r}")
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
    if label != f"{i}{j}":
        raise ValueError(f"transition label {label!r} must be written {f'{i}{j}'!r}")
    if not i < j:
        raise ValueError(f"transition label {label!r} must have i < j")
    if j >= k_levels:
        raise ValueError(f"transition label {label!r} needs j < k_levels ({k_levels})")
    return i, j


@dataclass(frozen=True)
class _Layout:
    """The data rows as the evaluation reads them, with their labels
    parsed; built once per fit.

    Row m (data row ``row[m]``, from 1) is the transition (``i[m]``, ``j[m]``)
    at bias +-``biases[at[m]]``, ``biases`` being the data's distinct |bias|
    in ascending order.  An unlabeled row has i = j = -1 and takes the
    drive-allowed line nearest its measured frequency ``measured[m]``.
    """

    row: np.ndarray
    at: np.ndarray
    biases: np.ndarray
    i: np.ndarray
    j: np.ndarray
    measured: np.ndarray
    k_levels: int


def _layout(data: PeakData, k_levels: int) -> _Layout:
    """Lay ``data`` out for evaluation; a malformed label raises ValueError
    naming its row."""
    pairs = []
    for row, label in enumerate(data.label, start=1):
        try:
            pairs.append((-1, -1) if label is None else _parse_label(label, k_levels))
        except ValueError as exc:
            raise ValueError(f"row {row}: {exc}") from None
    biases, at = np.unique(np.abs(data.epsilon), return_inverse=True)
    i, j = np.array(pairs, dtype=int).T
    return _Layout(np.arange(1, len(data) + 1), at, biases, i, j, data.frequency, k_levels)


def _predicted(params, layout: _Layout, n_max: int, floor: float, jacobian=False):
    """Model frequencies for every data row; with ``jacobian``,
    (frequencies, (rows, 3) gradient matrix).  All rows come from one
    stacked eigensolve over the distinct |bias|.  An unlabeled row gives the
    drive-allowed line nearest its measured frequency (the lowest (i, j) on
    ties) and the gradient of that line."""
    at, i, j = layout.at, layout.i.copy(), layout.j.copy()
    unlabeled = np.nonzero(j < 0)[0]
    k = layout.k_levels if unlabeled.size else (j.max() + 1 if jacobian else 0)
    es = _eigenpairs(params[0], layout.biases, params[1], params[2], FockTruncation(n_max), k)
    values, vectors = es.values, es.vectors
    lower, upper = np.array(_candidate_lines(layout.k_levels)).T
    for b in dict.fromkeys(at[unlabeled].tolist()):  # row order; one (lines, dim) block at a time
        rows = unlabeled[at[unlabeled] == b]
        v = vectors[b].T
        allowed = ~(np.abs(_drive(v[lower], v[upper])) <= floor)
        if not allowed.any():
            raise ValueError(
                f"row {layout.row[rows[0]]}: no drive-allowed transition within k_levels "
                f"({layout.k_levels}) above the amplitude floor {floor}"
            )
        li, lj = lower[allowed], upper[allowed]
        best = np.abs(values[b, lj] - values[b, li] - layout.measured[rows, None]).argmin(axis=1)
        i[rows], j[rows] = li[best], lj[best]
    freqs = values[at, j] - values[at, i]
    if not jacobian:
        return freqs
    level_grad = _level_gradients(vectors[..., : j.max() + 1])
    grad = level_grad[at, j] - level_grad[at, i]
    near = _degenerate(values)
    fallback = near[at, i] | near[at, j]
    if fallback.any():  # the same evaluation, on those rows and their biases
        used, sub_at = np.unique(at[fallback], return_inverse=True)
        sub = _Layout(
            layout.row[fallback],
            sub_at,
            layout.biases[used],
            layout.i[fallback],
            layout.j[fallback],
            layout.measured[fallback],
            layout.k_levels,
        )
        grad[fallback] = _central_differences(lambda x: _predicted(x, sub, n_max, floor), params)
    return freqs, grad


def _degenerate(values):
    """Whether each level lies closer than _DEGENERATE_TOL to a neighbour;
    such a level has no well-defined eigenvector."""
    close = np.diff(values, axis=-1) < _DEGENERATE_TOL
    pad = np.zeros(close.shape[:-1] + (1,), dtype=bool)
    return np.concatenate([close, pad], axis=-1) | np.concatenate([pad, close], axis=-1)


def _central_differences(frequencies, params):
    """Central differences of ``frequencies(x)`` in each parameter (unlabeled
    rows pick their nearest line again at every point).  The spectrum is
    even in delta_prime and g1 (conjugation by sigma_z or (-1)^n flips
    their sign), so abs() keeps the lower point valid at zero."""
    grad = []
    for p in range(3):
        step = _FD_STEP * max(abs(params[p]), 1.0)
        ends = []
        for sign in (1.0, -1.0):
            x = list(params)
            x[p] = abs(x[p] + sign * step)
            ends.append(frequencies(x))
        grad.append((ends[0] - ends[1]) / (2.0 * step))
    return np.stack(grad, axis=-1)


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
    bound stays on it while the step points out of the box.  A failed
    least-squares solve raises ConvergenceError.

    Returns (x, r, jacobian, iterations, reason, trace), with r and the
    jacobian at x, the best point evaluated: trace holds the cost after
    every accepted step; reason is "cost" (a trial, accepted or not, whose
    actual and predicted cost changes are both at most _COST_RTOL of the
    cost: the rest is roundoff, as in MINPACK's ftol test), "step" (a step
    no longer than _STEP_RTOL relative to |x|) or "max_iter".
    """
    x = np.array(x0, dtype=float)
    r, jac = residuals(x)
    cost = float(r @ r)
    trace = [cost]
    damping = _DAMPING_START
    for it in range(1, max_iter + 1):
        mu = damping * np.mean(np.sum(jac * jac, axis=0))
        try:
            step = np.linalg.lstsq(
                np.vstack([jac, np.sqrt(mu) * np.eye(len(x))]),
                np.concatenate([-r, np.zeros(len(x))]),
                rcond=None,
            )[0]
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"least-squares step failed: {exc}") from exc
        # a parameter sitting on a bound stays there while the step pushes out
        step[((x <= lo) & (step < 0.0)) | ((x >= hi) & (step > 0.0))] = 0.0
        trial = x + step
        accepted = roundoff = False
        if np.all((lo <= trial) & (trial <= hi)):
            r_trial, jac_trial = residuals(trial)
            cost_trial = float(r_trial @ r_trial)
            linear = r + jac @ step  # the model the step minimized
            roundoff = (
                abs(cost - cost_trial) <= _COST_RTOL * cost
                and abs(cost - float(linear @ linear)) <= _COST_RTOL * cost
            )
            accepted = cost_trial < cost
        if accepted:
            x, r, jac, cost = trial, r_trial, jac_trial, cost_trial
            trace.append(cost)
            damping *= 0.1
        else:
            damping *= 10.0
        if roundoff:
            return x, r, jac, it, "cost", trace
        if np.linalg.norm(step) <= _STEP_RTOL * (np.linalg.norm(x) + _STEP_RTOL):
            return x, r, jac, it, "step", trace
    return x, r, jac, max_iter, "max_iter", trace


def _descend(data, layout, x0, bounds, floor, max_iter):
    """Levenberg-Marquardt on the weighted residuals at the truncation that
    converges at ``x0``, repeated from the optimum while the optimum needs a
    larger one.  A truncation converges at x when the lowest k_levels
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
        return _grid_truncation(*x, data.epsilon, layout.k_levels, _TRUNCATION_TOL).n_max

    def residuals(x):
        pred, jac = _predicted(tuple(x), layout, n_max, floor, jacobian=True)
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
    if np.all(np.abs(data.epsilon) == abs(data.epsilon[0])):  # the spectrum is even in the bias
        raise ValueError("degenerate data: all bias values are equal in magnitude")
    layout = _layout(data, k_levels)  # fails loudly here, not inside the descent
    best, r, jac, iterations, reason = _descend(
        data, layout, initial, bounds, amplitude_floor, max_iter
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
