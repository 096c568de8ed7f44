"""Reference physics and seeded inputs for the benchmark.

Everything here is independent of the ``dscqed`` package, so the parent and
the changed program read byte-identical inputs and are checked against the
same numbers:

* a dense Rabi model (``kron`` assembly plus ``eigvalsh`` at a fixed large
  truncation), used to generate the peak set and to check spectrum output;
* the odd-harmonic mode sum in closed form, through the digamma function;
* writers for the seeded input files, which return their SHA-256.
"""

from __future__ import annotations

import cmath
import hashlib
import math

import numpy as np

# The published device, as written in the package's bundled YAML.  Copied
# here so that generated configs do not depend on the program's data files.
DEVICE_YAML = """\
device:
  z0_ohm: 50.0
  l_total_nh: 1.93
  omega1_bare_ghz: 2.8525
  l_c_ph: 231.0
  l_2_ph: 823.0
  alpha: 0.46
  e_j_ghz: 397.0
"""

PAPER_TRIPLE = (0.147, 2.57, 2.39)  # (delta_prime, omega1, g1) GHz
DEEP_OMEGA1 = 1.5  # GHz; with DEEP_G1 inside the bundled fit bounds
DEEP_G1 = 5.0
FREQ_WINDOW = (2.0, 8.0)  # GHz, the measurable band of the bundled config
K_LEVELS = 6

# Recipe of scripts/make_synthetic_peaks.py.
BRANCH_GRID = tuple(float(e) for e in np.linspace(-0.9, 0.9, 33))
QUAD_BIAS = (-0.01, 0.01)
QUAD_REPEATS = 40
NOISE_SIGMA_GHZ = 0.002

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def rabi_levels(delta_prime, epsilon, omega1, g1, n_max=128, k=K_LEVELS):
    """Lowest ``k`` eigenvalues (GHz) of the Rabi Hamiltonian truncated to
    Fock states 0..n_max, composite index 2 * n_fock + qubit."""
    n = n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    h = np.kron(np.eye(n), -0.5 * (delta_prime * _SIGMA_X + epsilon * _SIGMA_Z))
    h += omega1 * np.kron(np.diag(np.arange(n, dtype=float)), np.eye(2))
    h += g1 * np.kron(a + a.T, _SIGMA_Z)
    return np.linalg.eigvalsh(h)[:k]


def labeled_frequencies(triple, epsilon, labels, n_max=128):
    """Frequency of each labeled transition "ij" at its bias, diagonalizing
    once per distinct bias."""
    out = np.empty(len(labels))
    levels = {}
    for k, (eps, label) in enumerate(zip(epsilon, labels)):
        if eps not in levels:
            levels[eps] = rabi_levels(triple[0], eps, *triple[1:], n_max=n_max)
        out[k] = levels[eps][int(label[1])] - levels[eps][int(label[0])]
    return out


def window_lines(levels, window=FREQ_WINDOW):
    """{(i, j): frequency} for transitions from states 0 and 1 inside the band."""
    lo, hi = window
    out = {}
    for i in (0, 1):
        for j in range(i + 1, len(levels)):
            f = float(levels[j] - levels[i])
            if lo <= f <= hi:
                out[(i, j)] = f
    return out


def mode_sum(n_cutoff):
    """S(N) = sum over odd n of 1 / (n (1 + n^2 / N^2)) in closed form,
    S(N) = (Re psi(1/2 + i N / 2) - psi(1/2)) / 2  (partial fractions over
    odd n; Abramowitz & Stegun 6.3)."""
    psi_half = -0.5772156649015329 - 2.0 * math.log(2.0)
    return 0.5 * (_digamma(complex(0.5, 0.5 * n_cutoff)).real - psi_half)


def _digamma(z):
    # Upward recurrence to |z| >= 20, then the Bernoulli asymptotic series.
    acc = 0.0
    while abs(z) < 20.0:
        acc -= 1.0 / z
        z += 1.0
    w2 = 1.0 / (z * z)
    series = w2 * (1 / 12 - w2 * (1 / 120 - w2 * (1 / 252 - w2 * (1 / 240 - w2 / 132))))
    return acc + cmath.log(z) - 0.5 / z - series


def fmt(x):
    return format(float(x), ".12g")


def write_text(path, text):
    """Write ``text`` and return its SHA-256 hex digest."""
    data = text.encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def peak_csv(rng):
    """Labeled peak set of the paper triple: 03/12 on the branch grid, 02/13
    off the symmetry point, 40 repeats of the 03/13/02/12 quadruple at
    +-0.01 GHz, all inside the band, with 2 MHz Gaussian noise."""
    rows = []
    for eps in sorted(set(BRANCH_GRID) | set(QUAD_BIAS)):
        lines = window_lines(rabi_levels(PAPER_TRIPLE[0], eps, *PAPER_TRIPLE[1:]))
        for (i, j), f in sorted(lines.items()):
            label = f"{i}{j}"
            if label not in ("03", "12", "02", "13"):
                continue
            if eps == 0.0 and label in ("02", "13"):
                continue
            rows += [(eps, f, label)] * (QUAD_REPEATS if eps in QUAD_BIAS else 1)
    out = ["epsilon_ghz,frequency_ghz,label,weight"]
    for eps, f, label in rows:
        out.append(f"{fmt(eps)},{fmt(f + NOISE_SIGMA_GHZ * rng.standard_normal())},{label},1")
    return "\n".join(out) + "\n"


def deep_config_yaml(delta_prime):
    """Run configuration of the deep-coupling device (omega1 1.5, g1 5 GHz)."""
    return DEVICE_YAML + (
        "qrm:\n"
        f"  delta_prime_ghz: {fmt(delta_prime)}\n"
        f"  omega1_ghz: {fmt(DEEP_OMEGA1)}\n"
        f"  g1_ghz: {fmt(DEEP_G1)}\n"
    )
