"""Seeded config generation: deterministic, valid, and stratified."""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pytest  # noqa: E402

import workloads  # noqa: E402
from nhmetro.cli import main  # noqa: E402
from nhmetro.config import parse_config  # noqa: E402


def dump(workload):
    return json.dumps([[j.name, j.command, j.config, j.cli_seed, j.seed_free]
                       for j in workload.jobs + workload.warmup], sort_keys=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_configs(name):
    assert dump(workloads.build(name, 11, ROOT)) == dump(workloads.build(name, 11, ROOT))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_configs_in_a_fresh_process(name):
    code = ("import sys, pathlib; sys.path.insert(0, sys.argv[1]); import workloads;"
            "from test_workloads import dump;"
            f"print(dump(workloads.build({name!r}, 11, pathlib.Path(sys.argv[2]))))")
    env = dict(os.environ, PYTHONHASHSEED="123")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH), str(ROOT)],
                         env=env, cwd=Path(__file__).parent, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == dump(workloads.build(name, 11, ROOT))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_only_generated_configs(name):
    a, b = workloads.build(name, 1, ROOT), workloads.build(name, 2, ROOT)
    assert [j.name for j in a.jobs] == [j.name for j in b.jobs]
    for ja, jb in zip(a.jobs, b.jobs):
        if ja.seed_free:
            assert ja == jb
        elif ja.cli_seed is None:
            assert ja.config != jb.config
        else:
            assert (ja.config, ja.cli_seed, jb.cli_seed) == (jb.config, 1, 2)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 3, 4])
def test_every_config_parses(name, seed):
    wl = workloads.build(name, seed, ROOT)
    for job in wl.jobs + wl.warmup:
        cfg = parse_config(job.config)
        assert job.expected_rows >= 1
        assert cfg.time_grid.start >= 0


def test_strata_are_fixed_per_seed():
    for seed in range(5):
        qfi = workloads.build("qfi_sweep", seed, ROOT).jobs
        deep = [j for j in qfi if j.near_ep]
        assert len(qfi) == 13 and len(deep) == 2
        assert all(workloads.DEEP_ALPHA[0] <= j.config["model"]["params"]["alpha"]
                   < workloads.DEEP_ALPHA[1] for j in deep)
        dil = workloads.build("dilation_scan", seed, ROOT).jobs
        assert sum(j.expected_rows for j in dil) == 5000
        assert sum(j.near_ep for j in dil) == 11


def test_first_point_rows_prefix_the_full_output(tmp_path):
    doc = json.loads((ROOT / "configs" / "estimate_pt_s.json").read_text())
    doc["estimation"].update(n=200, trials=20)
    outs = []
    for label, config in (("full", doc), ("first", workloads._first_point(doc))):
        cfg_path, out = tmp_path / f"{label}.json", tmp_path / f"{label}.csv"
        cfg_path.write_text(json.dumps(config))
        assert main(["estimate", "--config", str(cfg_path), "--out", str(out),
                     "--quiet", "--seed", "5"]) == 0
        outs.append((out.read_text(), Path(f"{out}.trials.csv").read_text()))
    (full, full_trials), (first, first_trials) = outs
    assert full.startswith(first) and len(first.splitlines()) == 2
    assert full_trials.startswith(first_trials) and len(first_trials.splitlines()) == 21
