"""The layer tracer rebinds every import site and checks its own coverage."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
from nhmetro import cli, dynamics, estimate, fisher, measure, models  # noqa: E402
from tracer import LayerTracer  # noqa: E402

ORIGINAL_EVOLVE = dynamics.evolve
ORIGINAL_COMMANDS = dict(cli.COMMANDS)


@pytest.fixture
def tracer():
    t = LayerTracer().install()
    yield t
    t.uninstall()


def smoke_config(tmp_path):
    doc = json.loads((ROOT / "configs" / "estimate_smoke.json").read_text())
    doc["estimation"]["trials"] = 5
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_every_import_site_is_rebound(tracer):
    assert tracer.stale_references() == []
    for module in (dynamics, estimate, cli, fisher, measure):
        assert module.evolve is not ORIGINAL_EVOLVE
        assert module.evolve.__wrapped__ is ORIGINAL_EVOLVE
    assert measure.generator_quadrature is fisher.generator_quadrature
    assert all(cli.COMMANDS[k] is not v for k, v in ORIGINAL_COMMANDS.items())


def test_uninstall_restores_originals():
    LayerTracer().install().uninstall()
    assert estimate.evolve is ORIGINAL_EVOLVE and cli.evolve is ORIGINAL_EVOLVE
    assert cli.COMMANDS == ORIGINAL_COMMANDS


def test_missed_import_site_is_reported(tracer):
    estimate.evolve = ORIGINAL_EVOLVE
    assert tracer.stale_references() == ["evolve -> dynamics.evolve"]
    errors = run.check_coverage("mle_sweep", tracer, tracer.stale_references(),
                                ["estimate"], 1.0)
    assert "tracer missed import site evolve -> dynamics.evolve" in errors


def test_estimate_run_passes_the_coverage_check(tracer, tmp_path):
    import time
    start = time.perf_counter()
    assert cli.main(["estimate", "--config", smoke_config(tmp_path),
                     "--out", str(tmp_path / "o.csv"), "--quiet"]) == 0
    wall = time.perf_counter() - start
    assert run.check_coverage("mle_sweep", tracer, [], ["estimate"], wall) == []
    assert tracer.edges[("estimate.mle_invert", "dynamics.evolve")] > 0
    assert tracer.calls["estimate.sample_shots"] == 2 * 5


def test_unreached_layer_fails_the_coverage_check(tracer, tmp_path):
    cli.main(["estimate", "--config", smoke_config(tmp_path),
              "--out", str(tmp_path / "o.csv"), "--quiet"])
    errors = run.check_coverage("qfi_sweep", tracer, [], ["qfi"], 1e-9)
    assert "layer fisher recorded 0 calls" in errors
    assert "cli.cmd_qfi recorded 0 calls" in errors


def test_generator_kernel_calls_are_counted(tracer):
    model = models.pt_model(1.0, 0.7, "s")
    fisher.generator_quadrature(model, 1.0, 1.0)
    assert tracer.generator_kernel_calls == [2 * (64 + 128)]
    assert tracer.calls["linalg.mat_exp"] == 2 * (64 + 128)
