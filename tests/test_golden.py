"""Byte-identity guard for the shipped outputs of `nhmetro`.

Every estimate is a root polished to 1e-12 from a frozen PRNG stream, so a
change in evaluation order anywhere on the p(theta) path (kernel, evolve,
scan, polish) moves the CSV bytes; the `qfi`, `optimal` and `dilate` columns
move with any change on their paths too. A speed-up that is meant to keep
results must keep these digests; a change that means to move them updates the
digests and says so.
"""

import hashlib
import os

import pytest

from nhmetro.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

# sha256 of (<out>, <out>.trials.csv) at each config's shipped seed.
DIGESTS = {
    "estimate_pt_s": ("0ca976b1164f74b6798938346ba1bf6e9908c35e7163b2c98faba57038f5c2f7",
                      "415cce41cd9c736715a27f6bf3560d0c3627240e54307178a107fc65d70c7acf"),
    "estimate_kappa": ("7e823ff40943b553795f1e687bd95d10ffe8956374b6c049a2779c8dcf08db07",
                       "26d638d981c94ebe99914474ec27b3895e82cf47a8dc8f47ceeb0976d02be028"),
    "estimate_pt_alpha": ("3748fe6e7430402091144a2016e2ca3a2fae22504c07810e9f37e601735bbd66",
                          "235fdcebd03661bb2c4bccb2bf02702f1b0f8453f5c77cd20edfea2fca17ca2f"),
    "estimate_smoke": ("eb9a5841b14a2909ca13b2e876a67fbbc9d3d5e04d9817f322a15efb2a75d54c",
                       "3ab3e7644792f282ef9e1d98965fb40b10c317cb669e7a6517a4af0385a6a5d3"),
}

# sha256 of the CSV of each shipped qfi, optimal and dilate config; the
# command is the config name up to its first underscore.
OUTPUT_DIGESTS = {
    "qfi_pt_s": "bec45601c662b93b44d548e650cd262d3c180f4ac7047be93476a601ebff5bb1",
    "qfi_pt_alpha": "459521314c37cfbd0b44829d053f1f6f6274405155449403e099456173be23bc",
    "qfi_kappa": "2398390bf899f185b852b7a1bd1f416cafa2a151da635c3a03ded7f278279ccc",
    "optimal_probe_sweep": "7a73f16e3d9b9abd49eae26634542cd52ba70166531e9914427752824ef2354c",
    "dilate_pt": "f8319f19e11f55818698a14ad258c819b13be84a209bbac5a1471bf31012f99e",
}

# sha256 of `optimal` on each shipped qfi config: a sweep over time with one
# probe, where the shipped optimal config sweeps the probe at one time.
TIME_SWEEP_OPTIMAL_DIGESTS = {
    "qfi_pt_s": "e29e24fd5cf1d690707aedc42219f65feefef8ce85c6f5a9085547c73e324814",
    "qfi_pt_alpha": "7a6b91012cac7bbb71f2f26c9bc76732b248421b1322e46005685db8e999fafa",
    "qfi_kappa": "2433ea80ce7c0d2e1847d9704021caff951459072f80a340a2cd15ae4a5794da",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_shipped(tmp_path, name, command=None):
    out = tmp_path / f"{name}.csv"
    config = os.path.join(CONFIG_DIR, f"{name}.json")
    command = command or name.split("_")[0]
    assert main([command, "--config", config, "--out", str(out), "--quiet"]) == 0
    return out


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_estimate_outputs_are_byte_identical(tmp_path, name):
    out = run_shipped(tmp_path, name)
    trials = tmp_path / f"{name}.csv.trials.csv"
    assert (sha256(out), sha256(trials)) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(OUTPUT_DIGESTS))
def test_outputs_are_byte_identical(tmp_path, name):
    assert sha256(run_shipped(tmp_path, name)) == OUTPUT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(TIME_SWEEP_OPTIMAL_DIGESTS))
def test_time_sweep_optimal_is_byte_identical(tmp_path, name):
    assert sha256(run_shipped(tmp_path, name, "optimal")) == TIME_SWEEP_OPTIMAL_DIGESTS[name]
