"""Experiment config schema: one JSON document describes one run.

Every value is read by one reader per value kind (`_field`, `_number`, ...),
so a malformed or out-of-range value, model parameters included, raises
ConfigError naming its field.

Angles are radians, except probe angles which also accept a string with a
``deg`` suffix (probe tables are conventionally tabulated in degrees). The
probe angle phi maps to the state cos(2 phi)|0> + sin(2 phi)|1>.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import ConfigError, NumericsError
from .models import PARAMS, HamiltonianModel, hamiltonian

# The largest shot count the binomial sampler takes (a C int64).
MAX_SHOTS = 2**63 - 1
# The largest probe angle in radians: 2 phi, stop - start and degrees stay finite.
MAX_ANGLE = sys.float_info.max / 64
# The most points a time grid or probe sweep may have: `qfi`, `optimal` and
# `dilate` hold arrays over the whole grid at once.
MAX_STEPS = 10**5
# The most trials an `estimate` sweep point may run; it also keeps each trial
# number k within the one 32-bit entropy word the trial seeding takes.
MAX_TRIALS = 10**6


@dataclass(frozen=True)
class Grid:
    """Evenly spaced points from start to stop: evolution times, or probe
    angles in radians (phi of cos2phi|0> + sin2phi|1>)."""

    start: float
    stop: float
    steps: int

    def linspace(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class EstimationSpec:
    n: int
    trials: int
    seed: int
    # One (lo, hi) pair per sweep point; a single configured pair is repeated.
    bracket: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    model: HamiltonianModel
    probe: np.ndarray
    measurement: np.ndarray
    time_grid: Grid
    estimation: Optional[EstimationSpec] = None
    probe_sweep: Optional[Grid] = None
    csv_path: Optional[str] = None


def probe_from_angle(phi: float) -> np.ndarray:
    return np.array([math.cos(2 * phi), math.sin(2 * phi)], dtype=complex)


def _field(doc, key, path, kind=None):
    """Required doc[key] of section `path`, of exactly type `kind` if given
    (so a bool is never an int)."""
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an object, got {type(doc).__name__}")
    where = f"{path}.{key}" if path else key
    if key not in doc:
        raise ConfigError(where, "missing required field")
    value = doc[key]
    if kind is not None and type(value) is not kind:
        raise ConfigError(where, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _number(value, path) -> float:
    """A finite int or float, never a bool."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(path, f"expected a finite number, got {value!r}")


def _complex(value, path) -> complex:
    """A number, or an [re, im] pair of numbers."""
    if not isinstance(value, list):
        return complex(_number(value, path))
    if len(value) != 2:
        raise ConfigError(path, f"expected a number or an [re, im] pair, got {value!r}")
    return complex(_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))


def _angle(value, path) -> float:
    """Radians, or a string 'Ndeg' in degrees; at most MAX_ANGLE radians."""
    if isinstance(value, str):
        text = value.strip().lower()
        if not text.endswith("deg"):
            raise ConfigError(path, f"string angles need a 'deg' suffix, got {value!r}")
        try:
            value = math.radians(_number(float(text[:-3]), path))
        except ValueError:
            raise ConfigError(path, f"cannot parse angle {value!r}")
    angle = _number(value, path)
    if abs(angle) > MAX_ANGLE:
        raise ConfigError(path, f"must lie within +-{MAX_ANGLE:.6g} rad, got {angle!r}")
    return angle


def _count(doc, key, path, minimum, maximum=None) -> int:
    value = _field(doc, key, path, int)
    if value < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}.{key}", f"must be <= {maximum}, got {value}")
    return value


def _grid(doc, path, read) -> Grid:
    """A time or probe-angle grid; `read` converts its start and stop."""
    start = read(_field(doc, "start", path), f"{path}.start")
    stop = read(_field(doc, "stop", path), f"{path}.stop")
    steps = _count(doc, "steps", path, 1, MAX_STEPS)
    if steps == 1 and stop != start:
        raise ConfigError(f"{path}.stop", f"must equal start ({start}) when steps is 1, got {stop}")
    return Grid(start, stop, steps)


def _parse_model(doc) -> HamiltonianModel:
    family = _field(doc, "family", "model", str)
    if family not in PARAMS:
        raise ConfigError("model.family", f"must be one of {tuple(PARAMS)}, got {family!r}")
    names = PARAMS[family]
    params = _field(doc, "params", "model", dict)
    values = {name: _number(_field(params, name, "model.params"), f"model.params.{name}")
              for name in names}
    estimated = names[0]
    if len(names) > 1:
        estimated = _field(doc, "estimated_param", "model", str)
        if estimated not in names:
            raise ConfigError("model.estimated_param",
                              f"{family} estimates one of {names}, got {estimated!r}")
    model = HamiltonianModel(family, values, estimated)
    try:
        hamiltonian(model, model.true_value)
    except NumericsError as exc:
        raise ConfigError("model", str(exc))
    return model


def _parse_probe(doc) -> np.ndarray:
    if "angle" in doc:
        return probe_from_angle(_angle(doc["angle"], "probe.angle"))
    if "amplitudes" in doc:
        amps = doc["amplitudes"]
        if not (isinstance(amps, list) and len(amps) == 2):
            raise ConfigError("probe.amplitudes", "expected two amplitudes")
        parts = np.array([_complex(a, f"probe.amplitudes[{i}]")
                          for i, a in enumerate(amps)]).view(float)
        # Scaled to a largest real or imaginary part of 1 first, so the norm
        # can neither overflow nor underflow.
        scale = np.abs(parts).max()
        if scale == 0:
            raise ConfigError("probe.amplitudes", "all amplitudes are zero")
        vec = (parts / scale).view(complex)
        return vec / np.linalg.norm(vec)
    raise ConfigError("probe", "needs 'angle' or 'amplitudes'")


def _parse_measurement(doc) -> np.ndarray:
    if "basis_state" in doc:
        idx = _field(doc, "basis_state", "measurement", int)
        if idx not in (0, 1):
            raise ConfigError("measurement.basis_state", f"must be 0 or 1, got {idx!r}")
        return linalg.projector(linalg.basis_state(idx))
    if "matrix" in doc:
        rows = doc["matrix"]
        if not (isinstance(rows, list) and len(rows) == 2
                and all(isinstance(r, list) and len(r) == 2 for r in rows)):
            raise ConfigError("measurement.matrix", "expected a 2x2 nested list")
        return np.array([[_complex(x, f"measurement.matrix[{i}][{j}]") for j, x in enumerate(r)]
                         for i, r in enumerate(rows)])
    raise ConfigError("measurement", "needs 'basis_state' or 'matrix'")


def _parse_bracket(value, n_points) -> tuple:
    def pair(v, path):
        if not (isinstance(v, list) and len(v) == 2):
            raise ConfigError(path, "expected [lo, hi]")
        lo, hi = _number(v[0], f"{path}[0]"), _number(v[1], f"{path}[1]")
        if not lo < hi:
            raise ConfigError(path, f"needs lo < hi, got [{lo}, {hi}]")
        return (lo, hi)

    if isinstance(value, list) and value and isinstance(value[0], list):
        if len(value) != n_points:
            raise ConfigError("estimation.bracket",
                              f"per-point bracket list has {len(value)} entries for {n_points} grid points")
        return tuple(pair(v, f"estimation.bracket[{i}]") for i, v in enumerate(value))
    return (pair(value, "estimation.bracket"),) * n_points


def _parse_estimation(doc, n_points) -> EstimationSpec:
    n = _count(doc, "n", "estimation", 1, MAX_SHOTS)
    trials = _count(doc, "trials", "estimation", 2, MAX_TRIALS)
    seed = _count(doc, "seed", "estimation", 0)
    bracket = _parse_bracket(_field(doc, "bracket", "estimation"), n_points)
    return EstimationSpec(n=n, trials=trials, seed=seed, bracket=bracket)


def parse_config(doc: dict) -> ExperimentConfig:
    model = _parse_model(_field(doc, "model", "", dict))
    probe = _parse_probe(_field(doc, "probe", "", dict))
    measurement = _parse_measurement(_field(doc, "measurement", "", dict))
    time_grid = _grid(_field(doc, "time_grid", ""), "time_grid", _number)
    if time_grid.start < 0:
        raise ConfigError("time_grid.start", f"must be >= 0, got {time_grid.start}")
    if time_grid.stop < time_grid.start:
        raise ConfigError("time_grid.stop", f"must be >= start, got {time_grid.stop}")
    probe_sweep = _grid(doc["probe_sweep"], "probe_sweep", _angle) if "probe_sweep" in doc else None
    if probe_sweep is not None and time_grid.steps != 1:
        raise ConfigError("probe_sweep", "sweeps probes at one time, but time_grid has "
                          f"{time_grid.steps} steps from {time_grid.start} to {time_grid.stop}")
    n_points = probe_sweep.steps if probe_sweep is not None else time_grid.steps
    estimation = _parse_estimation(doc["estimation"], n_points) if "estimation" in doc else None
    csv_path = _field(doc["output"], "csv_path", "output", str) if "output" in doc else None
    return ExperimentConfig(model=model, probe=probe, measurement=measurement,
                            time_grid=time_grid, estimation=estimation,
                            probe_sweep=probe_sweep, csv_path=csv_path)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError("", f"cannot read config file: {exc}")
    except (ValueError, RecursionError) as exc:
        raise ConfigError("", f"invalid JSON: {exc}")
    return parse_config(doc)
