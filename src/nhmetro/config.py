"""Experiment config schema: one JSON document describes one run.

Angles are radians, except probe angles which also accept a string with a
``deg`` suffix (probe tables are conventionally tabulated in degrees). The
probe angle phi maps to the state cos(2 phi)|0> + sin(2 phi)|1>.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import ConfigError
from .models import (FAMILIES, HamiltonianModel, ep_demo_model, kappa_model,
                     pt_model)


@dataclass(frozen=True)
class Grid:
    """Evenly spaced points from start to stop: evolution times, or probe
    angles in radians (phi of cos2phi|0> + sin2phi|1>)."""

    start: float
    stop: float
    steps: int

    def linspace(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([self.start])
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class EstimationSpec:
    n: int
    trials: int
    seed: int
    # Either one (lo, hi) pair for the whole sweep, or one pair per grid point.
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


def _angle(value, path) -> float:
    if isinstance(value, str):
        text = value.strip().lower()
        if text.endswith("deg"):
            try:
                return math.radians(float(text[:-3]))
            except ValueError:
                raise ConfigError(path, f"cannot parse angle {value!r}")
        raise ConfigError(path, f"string angles need a 'deg' suffix, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    raise ConfigError(path, f"expected a number (radians) or 'Ndeg' string, got {value!r}")


def _require(doc, key, path, kind=None):
    if key not in doc:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}" if path else key,
                          f"expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}")
    return value


def _parse_model(doc) -> HamiltonianModel:
    family = _require(doc, "family", "model", str)
    params = _require(doc, "params", "model", dict)
    if family == "pt":
        estimated = _require(doc, "estimated_param", "model", str)
        try:
            return pt_model(float(params["s"]), float(params["alpha"]), estimated)
        except KeyError as exc:
            raise ConfigError(f"model.params.{exc.args[0]}", "missing required field")
        except Exception as exc:
            raise ConfigError("model", str(exc))
    if family == "kappa":
        if "kappa" not in params:
            raise ConfigError("model.params.kappa", "missing required field")
        return kappa_model(float(params["kappa"]))
    if family == "ep_demo":
        if "alpha" not in params:
            raise ConfigError("model.params.alpha", "missing required field")
        return ep_demo_model(float(params["alpha"]))
    raise ConfigError("model.family", f"must be one of {FAMILIES[:-1]}, got {family!r}")


def _parse_complex_matrix(rows, path) -> np.ndarray:
    def entry(x, p):
        if isinstance(x, (int, float)):
            return complex(x)
        if isinstance(x, list) and len(x) == 2:
            return complex(x[0], x[1])
        raise ConfigError(p, f"matrix entries are numbers or [re, im] pairs, got {x!r}")

    if not (isinstance(rows, list) and len(rows) == 2
            and all(isinstance(r, list) and len(r) == 2 for r in rows)):
        raise ConfigError(path, "expected a 2x2 nested list")
    return np.array([[entry(rows[i][j], f"{path}[{i}][{j}]") for j in range(2)] for i in range(2)])


def _parse_probe(doc) -> np.ndarray:
    if "angle" in doc:
        return probe_from_angle(_angle(doc["angle"], "probe.angle"))
    if "amplitudes" in doc:
        amps = doc["amplitudes"]
        if not (isinstance(amps, list) and len(amps) == 2):
            raise ConfigError("probe.amplitudes", "expected two amplitudes")
        vec = np.array([complex(a[0], a[1]) if isinstance(a, list) else complex(a) for a in amps])
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ConfigError("probe.amplitudes", "zero vector")
        return vec / norm
    raise ConfigError("probe", "needs 'angle' or 'amplitudes'")


def _parse_measurement(doc) -> np.ndarray:
    if "basis_state" in doc:
        idx = doc["basis_state"]
        if idx not in (0, 1):
            raise ConfigError("measurement.basis_state", f"must be 0 or 1, got {idx!r}")
        return linalg.projector(linalg.basis_state(idx))
    if "matrix" in doc:
        return _parse_complex_matrix(doc["matrix"], "measurement.matrix")
    raise ConfigError("measurement", "needs 'basis_state' or 'matrix'")


def _parse_time_grid(doc) -> Grid:
    start = float(_require(doc, "start", "time_grid", (int, float)))
    stop = float(_require(doc, "stop", "time_grid", (int, float)))
    steps = _require(doc, "steps", "time_grid", int)
    if steps < 1:
        raise ConfigError("time_grid.steps", f"must be >= 1, got {steps}")
    if start < 0:
        raise ConfigError("time_grid.start", f"must be >= 0, got {start}")
    if stop < start:
        raise ConfigError("time_grid.stop", f"must be >= start, got {stop}")
    return Grid(start, stop, steps)


def _parse_probe_sweep(doc) -> Grid:
    start = _angle(_require(doc, "start", "probe_sweep"), "probe_sweep.start")
    stop = _angle(_require(doc, "stop", "probe_sweep"), "probe_sweep.stop")
    steps = _require(doc, "steps", "probe_sweep", int)
    if steps < 1:
        raise ConfigError("probe_sweep.steps", f"must be >= 1, got {steps}")
    return Grid(start, stop, steps)


def _parse_bracket(value, n_points):
    def pair(v, path):
        if not (isinstance(v, list) and len(v) == 2):
            raise ConfigError(path, "expected [lo, hi]")
        lo, hi = float(v[0]), float(v[1])
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
    n = _require(doc, "n", "estimation", int)
    trials = _require(doc, "trials", "estimation", int)
    seed = _require(doc, "seed", "estimation", int)
    if n < 1:
        raise ConfigError("estimation.n", f"must be >= 1, got {n}")
    if trials < 2:
        raise ConfigError("estimation.trials", f"must be >= 2, got {trials}")
    bracket = _parse_bracket(_require(doc, "bracket", "estimation"), n_points)
    return EstimationSpec(n=n, trials=trials, seed=seed, bracket=bracket)


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("", "config document must be a JSON object")
    model = _parse_model(_require(doc, "model", "", dict))
    probe = _parse_probe(_require(doc, "probe", "", dict))
    measurement = _parse_measurement(_require(doc, "measurement", "", dict))
    time_grid = _parse_time_grid(_require(doc, "time_grid", "", dict))
    probe_sweep = _parse_probe_sweep(doc["probe_sweep"]) if "probe_sweep" in doc else None
    n_points = probe_sweep.steps if probe_sweep is not None else time_grid.steps
    estimation = _parse_estimation(doc["estimation"], n_points) if "estimation" in doc else None
    csv_path = None
    if "output" in doc:
        csv_path = _require(doc["output"], "csv_path", "output", str)
    return ExperimentConfig(model=model, probe=probe, measurement=measurement,
                            time_grid=time_grid, estimation=estimation,
                            probe_sweep=probe_sweep, csv_path=csv_path)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError("", f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}")
    return parse_config(doc)
