"""Seeded workloads: each is a list of `nhmetro` CLI jobs built from a seed.

The benchmark seed only picks inputs; the program sees nothing but the
config files written here (and, for `estimate`, the `--seed` flag).
Generation uses `random.Random` seeded with a string, which hashes with
SHA-512, so the same seed gives the same configs on every platform and in
every process.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# The estimation seed of the shipped configs; reference outputs are captured
# at this seed.
DEFAULT_SEED = 20260823

WORKLOADS = ("mle_sweep", "qfi_sweep", "dilation_scan")

# ep_demo has its exceptional point at alpha = pi/4 = 0.78540.
NEAR_EP_ALPHA = (0.78, 0.785)
# Closer still, where the adaptive quadrature mostly runs to its 1024-node
# cap at late times (about 3,400 kernel calls per generator call on average,
# against 384 elsewhere).
DEEP_ALPHA = (0.784, 0.785)


@dataclass(frozen=True)
class Job:
    """One CLI call: `nhmetro <command> --config <name>.json [--seed n]`."""

    name: str
    command: str
    config: dict
    cli_seed: Optional[int] = None
    # True when the outputs do not depend on the workload seed, so they are
    # compared with the reference outputs at every seed.
    seed_free: bool = False

    @property
    def near_ep(self) -> bool:
        model = self.config["model"]
        return model["family"] == "ep_demo" and model["params"]["alpha"] >= NEAR_EP_ALPHA[0]

    @property
    def expected_rows(self) -> int:
        """Result rows a fully successful run writes (trial estimates for
        `estimate`, CSV rows otherwise)."""
        grid = self.config.get("probe_sweep") or self.config["time_grid"]
        rows = grid["steps"]
        if self.command == "estimate":
            rows *= self.config["estimation"]["trials"]
        return rows


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    # The jobs cut to their first sweep point, run once untimed before
    # measuring. Each warm-up output must be a byte prefix of the same job's
    # output in the first measured pass.
    warmup: tuple


def _shipped(root: Path, name: str) -> dict:
    with open(root / "configs" / f"{name}.json") as handle:
        return json.load(handle)


def _first_point(doc: dict) -> dict:
    """The same config cut to its first sweep point. Rows do not depend on
    other sweep points (every `estimate` point draws trials k = 0..n-1 from
    its own seeded streams), so its output is a prefix of the full one."""
    doc = copy.deepcopy(doc)
    grid = doc.get("probe_sweep") or doc["time_grid"]
    grid["stop"], grid["steps"] = grid["start"], 1
    bracket = doc.get("estimation", {}).get("bracket")
    if bracket and isinstance(bracket[0], list):
        doc["estimation"]["bracket"] = bracket[:1]
    return doc


def _workload(name: str, jobs) -> Workload:
    jobs = tuple(jobs)
    warmup = tuple(Job(j.name, j.command, _first_point(j.config), j.cli_seed, j.seed_free)
                   for j in jobs)
    return Workload(name, jobs, warmup)


def mle_sweep(seed: int, root: Path) -> Workload:
    names = ("estimate_pt_s", "estimate_pt_alpha", "estimate_kappa")
    return _workload("mle_sweep", (Job(n, "estimate", _shipped(root, n), cli_seed=seed)
                                   for n in names))


def _doc(family: str, params: dict, estimated: str, probe_angle: float,
         time_grid: tuple, probe_sweep: Optional[tuple] = None) -> dict:
    doc = {
        "model": {"family": family, "params": params, "estimated_param": estimated},
        "probe": {"angle": probe_angle},
        "measurement": {"basis_state": 0},
        "time_grid": {"start": time_grid[0], "stop": time_grid[1], "steps": time_grid[2]},
    }
    if probe_sweep is not None:
        doc["probe_sweep"] = {"start": probe_sweep[0], "stop": probe_sweep[1],
                              "steps": probe_sweep[2]}
    return doc


def _kappa(rng: random.Random) -> float:
    # The kappa family excludes kappa = 1.
    return rng.uniform(0.2, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 4.0)


def _model(rng: random.Random, stratum: str) -> tuple:
    """(family, params, estimated_param) drawn from the unbroken regime."""
    if stratum in ("pt_s", "pt_alpha"):
        params = {"s": rng.uniform(0.5, 1.5), "alpha": rng.uniform(0.1, 1.4)}
        return "pt", params, stratum[3:]
    if stratum == "kappa":
        return "kappa", {"kappa": _kappa(rng)}, "kappa"
    if stratum == "ep_demo":
        return "ep_demo", {"alpha": rng.uniform(0.05, 0.75)}, "alpha"
    if stratum == "ep_demo_near_ep":
        return "ep_demo", {"alpha": rng.uniform(*NEAR_EP_ALPHA)}, "alpha"
    if stratum == "ep_demo_deep":
        return "ep_demo", {"alpha": rng.uniform(*DEEP_ALPHA)}, "alpha"
    raise ValueError(f"unknown stratum {stratum!r}")


# Generated qfi configs: (stratum, probe |0>?, time-grid kind). Each seed
# draws one config per entry, so every seed has the same mix of families,
# probes and near-EP rows; only the values inside each stratum change.
QFI_STRATA = (
    ("pt_s", True, "wide"),
    ("pt_alpha", True, "wide"),
    ("kappa", True, "wide"),
    ("pt_s", False, "wide"),
    ("ep_demo", False, "wide"),
    ("ep_demo_deep", False, "late"),
    ("ep_demo_deep", True, "late"),
)
OPTIMAL_STRATA = ("pt_alpha", "kappa")


def _time_grid(rng: random.Random, kind: str) -> tuple:
    if kind == "wide":
        return (rng.uniform(0.2, 1.0), rng.uniform(5.0, 50.0), 10)
    # Late times next to the EP: where the adaptive quadrature runs past 128
    # nodes, up to its 1024-node cap. Few rows, because each costs up to ten
    # ordinary ones and their depth varies from row to row.
    return (rng.uniform(30.0, 40.0), 50.0, 3)


def qfi_sweep(seed: int, root: Path) -> Workload:
    rng = random.Random(f"qfi_sweep:{seed}")
    jobs = [Job(n, "qfi", _shipped(root, n), seed_free=True)
            for n in ("qfi_pt_s", "qfi_pt_alpha", "qfi_kappa")]
    jobs.append(Job("optimal_probe_sweep", "optimal",
                    _shipped(root, "optimal_probe_sweep"), seed_free=True))
    for i, (stratum, ket0, kind) in enumerate(QFI_STRATA):
        family, params, estimated = _model(rng, stratum)
        angle = 0.0 if ket0 else rng.uniform(0.0, math.pi / 2)
        jobs.append(Job(f"gen_qfi_{i}_{stratum}", "qfi",
                        _doc(family, params, estimated, angle, _time_grid(rng, kind))))
    for i, stratum in enumerate(OPTIMAL_STRATA):
        family, params, estimated = _model(rng, stratum)
        t = rng.uniform(0.5, 5.0)
        jobs.append(Job(f"gen_optimal_{i}_{stratum}", "optimal",
                        _doc(family, params, estimated, 0.0, (t, t, 1),
                             probe_sweep=("0deg", "45deg", 11))))
    return _workload("qfi_sweep", jobs)


# Parameter points per dilation stratum: about 100 in all, a third of the
# ep_demo points next to the exceptional point.
DILATION_STRATA = (("pt_alpha", 34), ("kappa", 33), ("ep_demo", 22), ("ep_demo_near_ep", 11))
DILATION_STEPS = 50


def dilation_scan(seed: int, root: Path) -> Workload:
    rng = random.Random(f"dilation_scan:{seed}")
    jobs = []
    for stratum, count in DILATION_STRATA:
        for i in range(count):
            family, params, estimated = _model(rng, stratum)
            grid = (0.0, rng.uniform(2.0, 10.0), DILATION_STEPS)
            angle = rng.uniform(0.0, math.pi / 2)
            jobs.append(Job(f"gen_dilate_{stratum}_{i:02d}", "dilate",
                            _doc(family, params, estimated, angle, grid)))
    return _workload("dilation_scan", jobs)


_BY_NAME = {"mle_sweep": mle_sweep, "qfi_sweep": qfi_sweep, "dilation_scan": dilation_scan}


def build(name: str, seed: int, root: Path) -> Workload:
    return _BY_NAME[name](seed, root)
