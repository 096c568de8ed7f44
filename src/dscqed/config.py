"""Run-configuration loading.

Configs are a single YAML tree with explicit unit suffixes in key names
(``l_c_ph``, ``omega1_ghz``); no unit inference.  Loading is strict: unknown
keys are rejected (a flag downgrades that to a warning), parse errors carry
line numbers, invariant violations carry the dotted field path.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, io_error
from .fitting import DEFAULT_BOUNDS
from .lamb import DEFAULT_N_MODES
from .rabi import QrmParams
from .resonator import N_MODES_CEILING, DeviceMeta, ResonatorModel
from .spectrum import SweepConfig


@dataclass(frozen=True)
class LambSettings:
    n_cutoff: float = 13.2  # omega_cutoff / omega_1 of the published device
    delta_measured: float = 0.026  # GHz, the published renormalized gap
    n_modes: int = DEFAULT_N_MODES


@dataclass(frozen=True)
class FitSettings:
    initial: tuple  # (delta_prime, omega1, g1) GHz
    bounds: tuple  # three (lo, hi) pairs, GHz


@dataclass(frozen=True)
class OutputSettings:
    format: str = "csv"
    out: str | None = None


@dataclass(frozen=True)
class RunConfig:
    resonator: ResonatorModel
    meta: DeviceMeta
    qrm: QrmParams
    sweep: SweepConfig
    lamb: LambSettings
    fit: FitSettings
    output: OutputSettings


def paper_device_path() -> Path:
    """Path of the bundled device configuration (the published constants)."""
    return Path(str(resources.files("dscqed").joinpath("data/paper_device.yaml")))


def synthetic_peaks_path() -> Path:
    """Path of the bundled synthetic peak dataset (see scripts/make_synthetic_peaks.py)."""
    return Path(str(resources.files("dscqed").joinpath("data/synthetic_peaks.csv")))


def load_config(path, strict: bool = True) -> RunConfig:
    """Parse and fully validate a run configuration.

    ``strict=False`` downgrades unknown keys from errors to warnings.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise ConfigError(f"{path}: no such file")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise io_error(path, exc) from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else "?"
        raise ConfigError(f"{path}:{line}: {getattr(exc, 'problem', exc)}") from None
    if raw is None:
        raise ConfigError(f"{path}:1: empty config")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}:1: top level must be a mapping")
    try:
        return _build(raw, strict)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _build(raw: dict, strict: bool) -> RunConfig:
    sections = ("device", "qrm", "sweep", "lamb", "fit", "output")
    _check_keys(raw, sections, "", strict, required=("device", "qrm"))

    dev = _section(raw, "device")
    _check_keys(
        dev,
        ("z0_ohm", "l_total_nh", "omega1_bare_ghz", "l_c_ph", "l_2_ph", "i_q_na",
         "alpha", "e_j_ghz"),
        "device",
        strict,
        required=("z0_ohm", "l_total_nh", "omega1_bare_ghz", "l_c_ph", "l_2_ph",
                  "alpha", "e_j_ghz"),
    )
    resonator = ResonatorModel(
        z0=_positive(dev, "device", "z0_ohm"),
        l_total=_positive(dev, "device", "l_total_nh") * 1e-9,
        omega1_bare=_positive(dev, "device", "omega1_bare_ghz"),
        l_c=_positive(dev, "device", "l_c_ph") * 1e-12,
        l_2=_positive(dev, "device", "l_2_ph") * 1e-12,
        i_q=_positive(dev, "device", "i_q_na") * 1e-9 if "i_q_na" in dev else None,
    )
    alpha = _number(dev, "device", "alpha")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"device.alpha: must lie in (0, 1), got {alpha}")
    meta = DeviceMeta(alpha=alpha, e_j=_positive(dev, "device", "e_j_ghz"))

    qrm_raw = _section(raw, "qrm")
    _check_keys(
        qrm_raw,
        ("delta_prime_ghz", "epsilon_ghz", "omega1_ghz", "g1_ghz"),
        "qrm",
        strict,
        required=("delta_prime_ghz", "omega1_ghz", "g1_ghz"),
    )
    delta_prime = _number(qrm_raw, "qrm", "delta_prime_ghz")
    if delta_prime < 0.0:
        raise ConfigError(f"qrm.delta_prime_ghz: must be >= 0, got {delta_prime}")
    g1 = _number(qrm_raw, "qrm", "g1_ghz")
    if g1 < 0.0:
        raise ConfigError(f"qrm.g1_ghz: must be >= 0, got {g1}")
    qrm = QrmParams(
        delta_prime=delta_prime,
        epsilon=_number(qrm_raw, "qrm", "epsilon_ghz") if "epsilon_ghz" in qrm_raw else 0.0,
        omega1=_positive(qrm_raw, "qrm", "omega1_ghz"),
        g1=g1,
    )

    sweep_raw = raw.get("sweep", {})
    _check_keys(
        sweep_raw,
        ("epsilon_min_ghz", "epsilon_max_ghz", "epsilon_steps", "freq_min_ghz",
         "freq_max_ghz", "k_levels", "amplitude_floor", "truncation_tol_ghz"),
        "sweep",
        strict,
    )
    eps_min = _number(sweep_raw, "sweep", "epsilon_min_ghz") if "epsilon_min_ghz" in sweep_raw else -1.0
    eps_max = _number(sweep_raw, "sweep", "epsilon_max_ghz") if "epsilon_max_ghz" in sweep_raw else 1.0
    steps = _integer(sweep_raw, "sweep", "epsilon_steps", 1) if "epsilon_steps" in sweep_raw else 81
    if eps_min > eps_max:
        raise ConfigError(
            f"sweep.epsilon_min_ghz: must be <= epsilon_max_ghz, got {eps_min} > {eps_max}"
        )
    freq_min = _number(sweep_raw, "sweep", "freq_min_ghz") if "freq_min_ghz" in sweep_raw else 2.0
    freq_max = _number(sweep_raw, "sweep", "freq_max_ghz") if "freq_max_ghz" in sweep_raw else 8.0
    if not freq_min < freq_max:
        raise ConfigError(
            f"sweep.freq_min_ghz: window requires min < max, got {freq_min}, {freq_max}"
        )
    k_levels = _integer(sweep_raw, "sweep", "k_levels", 2) if "k_levels" in sweep_raw else SweepConfig.k_levels
    floor = (
        _number(sweep_raw, "sweep", "amplitude_floor")
        if "amplitude_floor" in sweep_raw
        else SweepConfig.amplitude_floor
    )
    if floor < 0.0:
        raise ConfigError(f"sweep.amplitude_floor: must be >= 0, got {floor}")
    trunc_tol = (
        _positive(sweep_raw, "sweep", "truncation_tol_ghz")
        if "truncation_tol_ghz" in sweep_raw
        else SweepConfig.truncation_tol
    )
    sweep_cfg = SweepConfig(
        epsilon_grid=tuple(float(e) for e in np.linspace(eps_min, eps_max, steps)),
        freq_window=(freq_min, freq_max),
        k_levels=k_levels,
        amplitude_floor=floor,
        truncation_tol=trunc_tol,
    )

    lamb_raw = raw.get("lamb", {})
    _check_keys(
        lamb_raw, ("n_cutoff", "delta_measured_ghz", "n_modes"), "lamb", strict
    )
    lamb_cfg = LambSettings(
        n_cutoff=(
            _positive(lamb_raw, "lamb", "n_cutoff")
            if "n_cutoff" in lamb_raw
            else LambSettings.n_cutoff
        ),
        delta_measured=(
            _positive(lamb_raw, "lamb", "delta_measured_ghz")
            if "delta_measured_ghz" in lamb_raw
            else LambSettings.delta_measured
        ),
        n_modes=(
            _integer(lamb_raw, "lamb", "n_modes", 1, N_MODES_CEILING)
            if "n_modes" in lamb_raw
            else LambSettings.n_modes
        ),
    )

    fit_raw = raw.get("fit", {})
    _check_keys(fit_raw, ("initial", "bounds"), "fit", strict)
    param_keys = ("delta_prime_ghz", "omega1_ghz", "g1_ghz")
    init_raw = fit_raw.get("initial", {})
    _check_keys(init_raw, param_keys, "fit.initial", strict)
    initial = tuple(
        _number(init_raw, "fit.initial", k)
        if k in init_raw
        else (qrm.delta_prime, qrm.omega1, qrm.g1)[n]
        for n, k in enumerate(param_keys)
    )
    bounds_raw = fit_raw.get("bounds", {})
    _check_keys(bounds_raw, param_keys, "fit.bounds", strict)
    bounds = []
    for n, k in enumerate(param_keys):
        if k in bounds_raw:
            pair = bounds_raw[k]
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ConfigError(f"fit.bounds.{k}: expected a [low, high] pair")
            lo = _number(pair, f"fit.bounds.{k}", 0)
            hi = _number(pair, f"fit.bounds.{k}", 1)
            if not lo < hi:
                raise ConfigError(f"fit.bounds.{k}: low must be < high, got {pair}")
            try:  # QrmParams holds the model domain
                replace(qrm, **{k.removesuffix("_ghz"): lo})
            except ValueError as exc:
                raise ConfigError(f"fit.bounds.{k}.0: {exc}") from None
            bounds.append((lo, hi))
        else:
            bounds.append(DEFAULT_BOUNDS[n])
    for v, (lo, hi), k in zip(initial, bounds, param_keys):
        if not lo <= v <= hi:
            raise ConfigError(
                f"fit.initial.{k}: value {v} outside bounds [{lo}, {hi}]"
            )
    fit_cfg = FitSettings(initial=initial, bounds=tuple(bounds))

    out_raw = raw.get("output", {})
    _check_keys(out_raw, ("format", "out"), "output", strict)
    fmt = out_raw.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format: must be 'csv' or 'json', got {fmt!r}")
    out_path = out_raw.get("out")
    if out_path is not None:
        parent = os.path.dirname(os.path.abspath(str(out_path))) or "."
        if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
            raise ConfigError(f"output.out: directory {parent!r} is not writable")
    output_cfg = OutputSettings(format=fmt, out=out_path)

    return RunConfig(
        resonator=resonator,
        meta=meta,
        qrm=qrm,
        sweep=sweep_cfg,
        lamb=lamb_cfg,
        fit=fit_cfg,
        output=output_cfg,
    )


def _section(raw: dict, name: str) -> dict:
    sec = raw.get(name)
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: required section missing or not a mapping")
    return sec


def _check_keys(section, allowed, prefix, strict, required=()):
    if not isinstance(section, dict):
        raise ConfigError(f"{prefix or 'top level'}: expected a mapping")
    for key in required:
        if key not in section:
            where = f"{prefix}.{key}" if prefix else key
            raise ConfigError(f"{where}: required key missing")
    for key in section:
        if key not in allowed:
            where = f"{prefix}.{key}" if prefix else key
            if strict:
                raise ConfigError(f"{where}: unknown key (allowed: {', '.join(allowed)})")
            warnings.warn(f"{where}: unknown key ignored", stacklevel=2)


def _number(section, prefix, key) -> float:
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        hint = ""
        if isinstance(v, str) and _parses_as_float(v):
            hint = " (YAML reads exponent notation as text unless written like 1.0e-3 or 1.0e+6)"
        raise ConfigError(f"{prefix}.{key}: expected a number, got {v!r}{hint}")
    try:
        v = float(v)
    except OverflowError:
        raise ConfigError(
            f"{prefix}.{key}: must be finite, got an integer too large for a float"
        ) from None
    if not math.isfinite(v):
        raise ConfigError(f"{prefix}.{key}: must be finite, got {v}")
    return v


def _parses_as_float(text) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _positive(section, prefix, key) -> float:
    v = _number(section, prefix, key)
    if not v > 0.0:
        raise ConfigError(f"{prefix}.{key}: must be > 0, got {v}")
    return v


def _integer(section, prefix, key, minimum, maximum=None) -> int:
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{prefix}.{key}: expected an integer, got {v!r}")
    if v < minimum:
        raise ConfigError(f"{prefix}.{key}: must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{prefix}.{key}: must be <= {maximum}, got {v}")
    return v
