"""Byte-identity guard for `nhmetro estimate`.

Every estimate is a root polished to 1e-12 from a frozen PRNG stream, so a
change in evaluation order anywhere on the p(theta) path (kernel, evolve,
scan, polish) moves the CSV bytes. A speed-up that is meant to keep results
must keep these digests; a change that means to move them updates the
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
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_estimate_outputs_are_byte_identical(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    config = os.path.join(CONFIG_DIR, f"{name}.json")
    assert main(["estimate", "--config", config, "--out", str(out), "--quiet"]) == 0
    trials = tmp_path / f"{name}.csv.trials.csv"
    assert (sha256(out), sha256(trials)) == DIGESTS[name]
