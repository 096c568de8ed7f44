"""Least-squares recovery of (delta_prime, omega1, g1) from measured
spectral peaks by a bounded Levenberg-Marquardt descent on the Rabi spectrum.

Data rows carry a bias, a frequency, an optional transition label ("03",
"12", ...) and an optional positive weight; each rule on a row is checked
once, and a refusal names the row by "path:line", or by "row N" for rows
built in memory (``_refusal``).  Labeled rows are matched to the named
transition.  An unlabeled row takes the nearest of ``rabi``'s candidate
lines (i, j) whose drive amplitude is above the floor, ties going to the
lowest (i, j); this can be unstable near avoided crossings, so down-weight
such points.  One band product from ``rabi`` per distinct |bias| gives all
the amplitudes.  A bias within 4 ulps of the data's largest |bias| of zero
is zero, as in the sweep (``rabi._zero_snapped``).

The eigenvectors give the residuals' exact Jacobian with the residuals:
each level's gradient is its Hellmann-Feynman product with the bands of
dH/dtheta (``rabi``), and an unlabeled row takes the gradient of its line.
The parity P = sigma_x (-1)^n maps H(epsilon) to H(-epsilon) and commutes
with all three dH/dtheta and maps the drive (a + a^dag) to minus itself, so
the levels, their gradients and the drive amplitudes are even in the bias.
Every row is therefore evaluated at its |bias|, all distinct |bias| in one
call per evaluation of ``rabi``'s kernel, which ``solve`` and the sweep use:
its pairs are checked as ``eigensystem`` checks them, zero bias is solved as
the two parity chains, so forbidden lines of a near-degenerate doublet stay
forbidden, and a deep device's biases take the certified reduced basis.  It
is asked for one level more than the rows read, their top level's upper
neighbour: a level closer than _DEGENERATE_TOL to a neighbour has no
well-defined eigenvector, so rows using one take central differences of
their own line's levels (the label's line, or the line the unlabeled match
picked at the centre point) over those rows' biases, one values-only
eigensolve per point.

The Fock truncation is sized as the sweep sizes it (``rabi._grid_truncation``):
the lowest k_levels levels settle to _TRUNCATION_TOL at zero bias and at the
data's largest |bias|, first at the start point.  ``fit`` repeats the descent
from its optimum while the optimum needs a larger one, _MAX_ITER bounding
the iterations of all descents together.  The reported residuals are the
last descent's own at the optimum, so they come from a truncation no
smaller than the one that converges there.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from ._record import QrmParams, Record, SweepConfig
from .errors import ConfigError, ConvergenceError, io_error
from .rabi import (
    _candidate_lines, _drive, _eigenpairs, _grid_truncation, _level_gradients, _zero_snapped,
)

_TRUNCATION_TOL = 1e-8  # GHz, movement of the lowest k_levels on doubling n_max
_DEGENERATE_TOL = 1e-6  # GHz, level spacing below which gradients are differenced
_FD_STEP = 1e-6  # step of those differences, relative to max(|x|, 1 GHz)
_DAMPING_START = 1e-3  # initial damping, relative to mean(diag(J^T J))
_COST_RTOL = 1e-10  # relative cost change, actual and predicted, at convergence
_STEP_RTOL = 1e-10  # step length relative to |x| at convergence
_MAX_ITER = 400  # descent iterations of all passes together


class PeakData(Record):
    """Measured peak positions: bias and frequency in GHz; ``source`` is
    (path, each row's file line) for rows read from a file, else None."""

    def __init__(
        self,
        epsilon: np.ndarray,
        frequency: np.ndarray,
        label: tuple,
        weight: np.ndarray,
        source: tuple | None = None,
    ) -> None:
        self.__dict__.update(
            epsilon=epsilon, frequency=frequency, label=label, weight=weight, source=source
        )
        n = len(self.epsilon)
        if n < 3:
            raise _refusal(source, None, f"need at least 3 rows, got {n}")
        if not (len(self.frequency) == len(self.label) == len(self.weight) == n):
            raise _refusal(source, None, "column lengths differ")
        bad = ~(np.isfinite(self.epsilon) & np.isfinite(self.frequency))
        if bad.any():
            raise _refusal(source, bad.argmax(), "bias and frequency values must be finite")
        bad = ~(np.isfinite(self.weight) & (self.weight > 0.0))
        if bad.any():
            m = bad.argmax()
            raise _refusal(source, m, f"weight must be finite and > 0, got {float(self.weight[m])}")

    def __len__(self):
        return len(self.epsilon)

    @classmethod
    def from_rows(cls, rows, source=None):
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
            source=source,
        )


def _refusal(source, m, reason: str) -> ValueError:
    """The error refusing row ``m`` (from 0; None: all rows) of peak data from
    ``source``: a ConfigError naming "path:line", or a ValueError "row N"."""
    if source is None:
        return ValueError(reason if m is None else f"row {m + 1}: {reason}")
    path, lines = source
    return ConfigError(f"{path}: {reason}" if m is None else f"{path}:{lines[m]}: {reason}")


class FitResult(Record):
    """The fitted triple (GHz), the residuals, and how the descent ended:
    ``stderr`` per parameter, GHz, is sqrt(diag((J^T W J)^-1) * chi2 / dof)
    and ``reason`` is "cost", "step" or "max_iter"; ``converged`` is false
    after "max_iter" only."""

    def __init__(
        self,
        delta_prime: float,
        omega1: float,
        g1: float,
        residual_rms: float,
        per_point_residuals: np.ndarray,
        iterations: int,
        stderr: tuple,
        reason: str,
    ) -> None:
        self.__dict__.update(
            delta_prime=delta_prime,
            omega1=omega1,
            g1=g1,
            residual_rms=residual_rms,
            per_point_residuals=per_point_residuals,
            iterations=iterations,
            stderr=stderr,
            reason=reason,
        )

    @property
    def params(self):
        return (self.delta_prime, self.omega1, self.g1)

    @property
    def converged(self) -> bool:
        return self.reason != "max_iter"

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


def read_peaks_csv(path) -> PeakData:
    """Load peaks from CSV with header epsilon_ghz,frequency_ghz[,label][,weight];
    ``PeakData`` and ``fit`` check the rows that the file holds."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
        if name not in ("label", "weight"):
            raise ConfigError(f"{path}:1: unknown column {name!r}")
    rows, lines = [], []
    for lineno, raw in enumerate(records[1:], start=2):
        if not raw or all(not cell.strip() for cell in raw):
            continue
        if len(raw) != len(header):
            raise ConfigError(f"{path}:{lineno}: expected {len(header)} fields, got {len(raw)}")
        cell = dict(zip(header, raw))
        try:
            eps, freq = float(cell["epsilon_ghz"]), float(cell["frequency_ghz"])
            weight = float(cell["weight"]) if cell.get("weight", "").strip() else 1.0
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        rows.append((eps, freq, cell.get("label", "").strip() or None, weight))
        lines.append(lineno)
    return PeakData.from_rows(rows, (path, tuple(lines)))


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


class _Layout(Record):
    """The rows of ``data`` as the evaluation reads them, built once per fit;
    a malformed label is refused by row.

    Row m is the transition (``i[m]``, ``j[m]``) at bias +-``biases[at[m]]``,
    ``biases`` being the data's distinct |bias| in ascending order.  The
    ``unlabeled`` rows have i = j = -1 and take the drive-allowed line
    nearest their measured frequency.
    """

    def __init__(self, data: PeakData, k_levels: int) -> None:
        self.__dict__.update(data=data, k_levels=k_levels)
        pairs = []
        for m, label in enumerate(data.label):
            try:
                pairs.append((-1, -1) if label is None else _parse_label(label, k_levels))
            except ValueError as exc:
                raise _refusal(data.source, m, str(exc)) from None
        biases, at = np.unique(np.abs(_zero_snapped(data.epsilon)), return_inverse=True)
        i, j = np.array(pairs, dtype=int).T
        self.__dict__.update(at=at, biases=biases, i=i, j=j, unlabeled=np.nonzero(j < 0)[0])


def _predicted(params, layout: _Layout, t, floor: float):
    """Model frequencies for every row of ``layout`` at truncation ``t`` and
    their (rows, 3) gradient matrix.  All rows come from one kernel call
    over the distinct |bias|.  An unlabeled row gives the drive-allowed line
    nearest its measured frequency (the lowest (i, j) on ties) and the
    gradient of that line."""
    at, i, j, unlabeled = layout.at, layout.i.copy(), layout.j.copy(), layout.unlabeled
    k = layout.k_levels if unlabeled.size else j.max() + 1
    es = _eigenpairs(params[0], layout.biases, params[1], params[2], t, min(k + 1, t.dim))
    values, vectors = es.values, es.vectors
    lower, upper = np.array(_candidate_lines(layout.k_levels)).T
    for b in dict.fromkeys(at[unlabeled].tolist()):  # row order; one (lines, dim) block at a time
        rows = unlabeled[at[unlabeled] == b]
        v = vectors[b].T
        allowed = ~(np.abs(_drive(v[lower], v[upper])) <= floor)
        if not allowed.any():
            raise _refusal(
                layout.data.source, rows[0],
                f"no drive-allowed transition within k_levels ({layout.k_levels}) "
                f"above the amplitude floor {floor}",
            )
        li, lj = lower[allowed], upper[allowed]
        best = np.abs(values[b, lj] - values[b, li] - layout.data.frequency[rows, None]).argmin(axis=1)
        i[rows], j[rows] = li[best], lj[best]
    freqs = values[at, j] - values[at, i]
    level_grad = _level_gradients(vectors[..., : j.max() + 1])
    grad = level_grad[at, j] - level_grad[at, i]
    near = _degenerate(values)
    fallback = near[at, i] | near[at, j]
    if fallback.any():  # those rows' lines, over those rows' biases
        used, sub_at = np.unique(at[fallback], return_inverse=True)
        sub_i, sub_j = i[fallback], j[fallback]

        def lines(x):
            levels = _eigenpairs(x[0], layout.biases[used], x[1], x[2], t, 0).values
            return levels[sub_at, sub_j] - levels[sub_at, sub_i]

        grad[fallback] = _central_differences(lines, params)
    return freqs, grad


def _degenerate(values):
    """Whether each level lies closer than _DEGENERATE_TOL to a neighbour;
    such a level has no well-defined eigenvector."""
    close = np.diff(values, axis=-1) < _DEGENERATE_TOL
    pad = np.zeros(close.shape[:-1] + (1,), dtype=bool)
    return np.concatenate([close, pad], axis=-1) | np.concatenate([pad, close], axis=-1)


def _central_differences(frequencies, params):
    """Central differences of ``frequencies(x)`` in each parameter.  The
    spectrum is even in delta_prime and g1 (conjugation by sigma_z or
    (-1)^n flips their sign), so abs() keeps the lower point valid at zero."""
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
    bound stays on it while the step points out of the box.  A non-finite
    cost or Jacobian, and a failed least-squares solve, raise
    ConvergenceError.

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
        if not (math.isfinite(cost) and np.isfinite(jac).all()):
            raise ConvergenceError("the weighted cost or its Jacobian is not finite")
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
    bounds,
    k_levels: int = SweepConfig.k_levels,
    amplitude_floor: float = SweepConfig.amplitude_floor,
) -> FitResult:
    """Weighted least squares over the peak data.

    Runs the bounded Levenberg-Marquardt descent from ``initial`` at the
    truncation that converges there, and again from its optimum while the
    optimum needs a larger one (see the module docstring for the Jacobian
    and the truncation).  The statistics come from the last descent.  When
    _MAX_ITER iterations of all descents together run out, the best point
    so far is returned with ``converged=False``.
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
    layout = _Layout(data, k_levels)  # fails loudly here, not inside the descent
    if len(layout.biases) == 1:  # the spectrum is even in the bias
        raise _refusal(data.source, None, "degenerate data: all bias values are equal in magnitude")
    # the optimum, rms and stderr do not depend on the weights' scale, and
    # at most 1 they neither overflow nor underflow the cost; the floor keeps
    # a weight more than 1e308 times below the largest from rounding to 0,
    # so that its row's residual can still be unweighted
    weight = np.maximum(data.weight / data.weight.max(), np.finfo(float).tiny)
    root_w = np.sqrt(weight)
    lo, hi = (np.array(b) for b in zip(*bounds))

    def residuals(x):
        pred, jac = _predicted(tuple(x), layout, t, amplitude_floor)
        return root_w * (pred - data.frequency), root_w[:, None] * jac

    best, t, iterations = initial, None, 0
    while True:
        needed = _grid_truncation(*best, data.epsilon, k_levels, _TRUNCATION_TOL)
        if t is not None and needed.n_max <= t.n_max:
            break
        t = needed
        with np.errstate(over="ignore"):  # an overflowing cost is refused as not finite
            best, r, jac, it, reason, _ = _levenberg_marquardt(
                residuals, best, lo, hi, _MAX_ITER - iterations
            )
        iterations += it
    chi2 = float(r @ r)
    rms = float(np.sqrt(chi2 / np.sum(weight)))
    return FitResult(
        delta_prime=float(best[0]),
        omega1=float(best[1]),
        g1=float(best[2]),
        residual_rms=rms,
        per_point_residuals=r / root_w,
        iterations=iterations,
        stderr=_standard_errors(jac, chi2, len(data) - 3),
        reason=reason,
    )
