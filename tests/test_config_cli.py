import hashlib
import importlib
import json
import math
import os
import sys
import tracemalloc
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmetro import cli, ep_demo_model, estimate, fisher, linalg, measure, pt_model
from nhmetro.cli import main
from nhmetro.config import MAX_STEPS, MAX_TRIALS, load_config, parse_config, probe_from_angle
from nhmetro.dynamics import evolve, outcome_probability
from nhmetro.errors import ConfigError, NonFinite, NotNormalized, OutOfRange

from conftest import SQRT_F_S
from reference import qfi_generator, trial_rng

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(PKG_ROOT, "configs")
BENCH_DIR = os.path.join(PKG_ROOT, "perfbench")


def base_config(**overrides):
    doc = {
        "model": {"family": "pt", "params": {"s": 1.0, "alpha": math.pi / 4},
                  "estimated_param": "s"},
        "probe": {"amplitudes": [1.0, 0.0]},
        "measurement": {"basis_state": 0},
        "time_grid": {"start": math.pi / 8, "stop": 10 * math.pi / 8, "steps": 10},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_config(base_config())
        assert cfg.model.family == "pt"
        assert np.allclose(cfg.probe, [1.0, 0.0])
        assert cfg.time_grid.steps == 10

    def test_probe_angle_degrees(self):
        cfg = parse_config(base_config(probe={"angle": "18deg"}))
        assert np.allclose(cfg.probe, probe_from_angle(math.radians(18.0)))

    def test_probe_normalized(self):
        cfg = parse_config(base_config(probe={"amplitudes": [[3.0, 0.0], [0.0, 4.0]]}))
        assert abs(np.linalg.norm(cfg.probe) - 1.0) < 1e-12

    @pytest.mark.parametrize("amplitudes, expected", [
        ([1e200, 0.0], [1.0, 0.0]),
        ([1e-200, 1e-200], [math.sqrt(0.5)] * 2),
    ], ids=["large", "small"])
    def test_probe_amplitudes_of_any_magnitude(self, amplitudes, expected):
        # the norm of the raw amplitudes would overflow or underflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = parse_config(base_config(probe={"amplitudes": amplitudes}))
        assert np.abs(cfg.probe - expected).max() <= 1e-15

    def test_missing_field_names_path(self):
        doc = base_config()
        del doc["model"]["params"]
        with pytest.raises(ConfigError, match="model.params"):
            parse_config(doc)

    def test_bad_bracket_count(self):
        doc = base_config(estimation={"n": 100, "trials": 5, "seed": 1,
                                      "bracket": [[0.5, 1.5], [0.5, 1.5]]})
        with pytest.raises(ConfigError, match="bracket"):
            parse_config(doc)

    @pytest.mark.parametrize("bracket", [[0.5, 1.5], [[0.5, 1.5]] * 10])
    def test_bracket_is_one_pair_per_point(self, bracket):
        doc = base_config(estimation={"n": 100, "trials": 5, "seed": 1, "bracket": bracket})
        assert parse_config(doc).estimation.bracket == ((0.5, 1.5),) * 10

    def test_bad_angle_string(self):
        with pytest.raises(ConfigError, match="probe.angle"):
            parse_config(base_config(probe={"angle": "18 degrees"}))

    def test_bad_family(self):
        doc = base_config()
        doc["model"]["family"] = "ising"
        with pytest.raises(ConfigError, match="model.family"):
            parse_config(doc)

    def test_trials_floor(self):
        doc = base_config(estimation={"n": 100, "trials": 1, "seed": 1,
                                      "bracket": [0.5, 1.5]})
        with pytest.raises(ConfigError, match="trials"):
            parse_config(doc)

    def test_shipped_configs_validate(self):
        names = sorted(os.listdir(CONFIG_DIR))
        assert names, "no shipped configs found"
        for name in names:
            assert main(["validate", "--config", os.path.join(CONFIG_DIR, name),
                         "--quiet"]) == 0


def benchmark_module(name):
    """A module of the benchmark, `perfbench/<name>.py`, imported without
    leaving `perfbench/` on sys.path."""
    path = sys.path[:]
    sys.path.insert(0, BENCH_DIR)
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:] = path


@pytest.mark.parametrize("seed", [20260823, *range(101, 107)])
def test_every_benchmark_config_loads(seed, tmp_path):
    # a config error exits 1, which fails every row of a benchmark job: no
    # config check may reject a job or warm-up config of the benchmark (the
    # shipped configs are `test_shipped_configs_validate`'s)
    workloads = benchmark_module("workloads")
    for name in workloads.WORKLOADS:
        built = workloads.build(name, seed, Path(PKG_ROOT))
        for i, job in enumerate(built.jobs + built.warmup):
            load_config(write_config(tmp_path, job.config, f"{name}_{i}.json"))


# (attempted, failed) rows of one pass of each benchmark workload. At seed
# 102 one estimate_kappa trial at t = pi/6 has an x/n outside p on the
# bracket [1.145, 2.855].
FAILED_SHARE = {"mle_sweep": (29_000, 0), "qfi_sweep": (118, 0), "dilation_scan": (5_000, 0)}
FAILED_SHARE_AT = {("mle_sweep", 102): (29_000, 1)}


@pytest.mark.parametrize("seed", [20260823, *range(101, 107)])
def test_failed_share_per_workload(seed, tmp_path):
    # A change meant to keep results keeps failed/attempted exactly: one
    # pass of every job through cli.main, counted as the benchmark counts.
    workloads, run = benchmark_module("workloads"), benchmark_module("run")
    for name in workloads.WORKLOADS:
        jobs = workloads.build(name, seed, Path(PKG_ROOT)).jobs
        m = run.measure(run.Runner(cli, tmp_path, name, jobs), jobs, 0.0)
        assert (m.attempted, m.failed) == FAILED_SHARE_AT.get((name, seed), FAILED_SHARE[name])


class TestCliQfi:
    def test_golden_sqrt_f_column(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "qfi.csv"
        assert main(["qfi", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = out.read_text().split("\n")
        header = lines[0].split(",")
        assert header == ["t", "F", "sqrtF", "K", "I", "sqrtI", "gap",
                          "F_closed_form", "route_deviation"]
        rows = [line.split(",") for line in lines[1:] if line]
        assert len(rows) == 10
        col = header.index("sqrtF")
        for row, expected in zip(rows, SQRT_F_S):
            assert abs(float(row[col]) - expected) < 1e-3

    def test_single_point_t0(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            time_grid={"start": 0.0, "stop": 0.0, "steps": 1}))
        out = tmp_path / "qfi0.csv"
        assert main(["qfi", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        row = out.read_text().split("\n")[1].split(",")
        assert float(row[1]) == 0.0      # F
        assert float(row[3]) == 1.0      # K
        assert float(row[4]) == 0.0      # I

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["qfi", "--config", cfg, "--out", str(out1), "--quiet"])
        main(["qfi", "--config", cfg, "--out", str(out2), "--quiet"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_one_evolution_per_config(self, tmp_path, monkeypatch):
        # the whole 10-step time grid goes through one stacked evolve and one
        # generator stack (the closed form's one call: the test below)
        counts = {"evolve": 0, "generator_closed_form": 0}

        def count(module, attr):
            real = getattr(module, attr)

            def counted(*args):
                counts[attr] += 1
                return real(*args)
            monkeypatch.setattr(module, attr, counted)

        for module in (cli, fisher, measure):
            count(module, "evolve")
        count(fisher, "generator_closed_form")
        out = tmp_path / "qfi.csv"
        assert main(["qfi", "--config", write_config(tmp_path, base_config()),
                     "--out", str(out), "--quiet"]) == 0
        assert counts == {"evolve": 1, "generator_closed_form": 1}

    @pytest.mark.parametrize("doc, closed", [
        (base_config(), True),
        (base_config(probe={"angle": "30deg"}), False),
        (base_config(model={"family": "ep_demo", "params": {"alpha": 0.5}}), False)])
    def test_closed_form_is_decided_once(self, tmp_path, monkeypatch, doc, closed):
        # one closed-form call per config, over every row at once; a family
        # without one, or a probe other than |0>, leaves every row nan
        seen = []
        real = cli.qfi_closed_form
        monkeypatch.setattr(cli, "qfi_closed_form",
                            lambda *args: seen.append(args[2]) or real(*args))
        out = tmp_path / "qfi.csv"
        assert main(["qfi", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--quiet"]) == 0
        assert [len(times) for times in seen] == [10]
        column = [row.split(",")[7] for row in out.read_text().splitlines()[1:]]
        assert (column.count("nan") == 0) if closed else column == ["nan"] * 10

    NEAR_EP_ALPHA = 0.785393  # 5.2e-6 below the ep_demo EP at pi/4

    def near_ep_rows(self, tmp_path, capsys):
        """Run qfi next to the EP; (exit code, stderr, rows)."""
        doc = base_config(
            model={"family": "ep_demo", "params": {"alpha": self.NEAR_EP_ALPHA},
                   "estimated_param": "alpha"},
            time_grid={"start": 1.0, "stop": 10.0, "steps": 4})
        out = tmp_path / "ep.csv"
        code = main(["qfi", "--config", write_config(tmp_path, doc), "--out", str(out)])
        lines = out.read_text().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:] if line]
        return code, capsys.readouterr().err, rows

    def test_exact_cross_check_next_to_the_ep(self, tmp_path, capsys):
        # the exact derivative takes no step in theta, so it cannot cross the EP
        code, err, rows = self.near_ep_rows(tmp_path, capsys)
        assert code == 0 and "cross-check" not in err
        assert len(rows) == 4
        for row in rows:
            assert 0.0 <= float(row["route_deviation"]) <= 1e-10
            assert row["F_closed_form"] == "nan"

    def test_failed_cross_check_keeps_the_row(self, tmp_path, capsys, monkeypatch):
        def failing(*args):
            raise OutOfRange("theta + eps is past the EP")

        monkeypatch.setattr(cli, "qfi_state_derivative", failing)
        code, err, rows = self.near_ep_rows(tmp_path, capsys)
        assert code == 0
        assert err.count("cross-check") == 4 and "exit 3" not in err
        assert len(rows) == 4
        alpha = self.NEAR_EP_ALPHA
        model = ep_demo_model(alpha)
        for row in rows:
            assert row["route_deviation"] == "nan" and row["F_closed_form"] == "nan"
            assert all(row[col] != "nan" for col in ("F", "sqrtF", "K", "I", "sqrtI", "gap"))
            t = float(row["t"])
            f_quad = qfi_generator(fisher.generator_quadrature(model, alpha, t),
                                   evolve(model, alpha, t, linalg.basis_state(0)).phi_out)
            assert abs(float(row["F"]) - f_quad) <= 1e-9 * f_quad

    def test_huge_times_fail_row_by_row(self, tmp_path, capsys):
        # at t = 5e99 and 1e100 the output state turns nan, so F fails there;
        # the row at t = 1 keeps every column, its cross-check included
        doc = shipped_config("qfi_pt_s.json")
        doc["time_grid"] = {"start": 1.0, "stop": 1e100, "steps": 3}
        out = tmp_path / "huge.csv"
        code = main(["qfi", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 3
        assert out.read_text() == (
            "t,F,sqrtF,K,I,sqrtI,gap,F_closed_form,route_deviation\n"
            "1,0.498801799358,0.706259017187,2.83182225123,1.41251803437,1.18849401949,"
            "1.41421356237,0.498801799358,1.78062392887e-15\n"
            "5e+99,nan,nan,nan,nan,nan,nan,nan,nan\n"
            "1e+100,nan,nan,nan,nan,nan,nan,nan,nan\n")
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "QFI imaginary residue" in line] == [
            "t=5e+99: QFI imaginary residue nan", "t=1e+100: QFI imaginary residue nan"]

    @pytest.mark.parametrize("cross_check_fails", [False, True])
    def test_failed_row_and_failed_cross_check(self, tmp_path, capsys, monkeypatch,
                                               cross_check_fails):
        # the failed row logs only its failure and is nan throughout; the other
        # row logs nothing, or the failed cross-check and keeps every column
        # but route_deviation
        def failing(*args):
            raise OutOfRange("theta + eps is past the EP")

        if cross_check_fails:
            monkeypatch.setattr(cli, "qfi_state_derivative", failing)
        doc = shipped_config("qfi_pt_s.json")
        doc["time_grid"] = {"start": 1.0, "stop": 5e99, "steps": 2}
        out = tmp_path / "mixed.csv"
        assert main(["qfi", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
        assert out.read_text() == (
            "t,F,sqrtF,K,I,sqrtI,gap,F_closed_form,route_deviation\n"
            "1,0.498801799358,0.706259017187,2.83182225123,1.41251803437,1.18849401949,"
            "1.41421356237,0.498801799358," + ("nan" if cross_check_fails else "1.78062392887e-15")
            + "\n5e+99,nan,nan,nan,nan,nan,nan,nan,nan\n")
        assert capsys.readouterr().err.splitlines() == [
            *["t=1.0: cross-check theta + eps is past the EP"] * cross_check_fails,
            "t=5e+99: QFI imaginary residue nan",
            "completed with failed rows (exit 3)"]


# (command, config overrides, the failed row's sweep value) where a
# coefficient of the closed-form generator overflows, and before it the
# Frobenius norm of the exponent Ht of the propagator
OVERFLOWING_GENERATOR = {
    "qfi_t_1e300": ("qfi", {"time_grid": {"start": 1e300, "stop": 1e300, "steps": 1}},
                    "t=1e+300"),
    "optimal_t_1e300": ("optimal", {"time_grid": {"start": 1e300, "stop": 1e300, "steps": 1}},
                        "t=1e+300"),
    "qfi_kappa_1e300": ("qfi", {"model": {"family": "kappa", "params": {"kappa": 1e300}},
                                "time_grid": {"start": 1.0, "stop": 1.0, "steps": 1}}, "t=1.0"),
    "optimal_kappa_1e300": ("optimal", {"model": {"family": "kappa",
                                                  "params": {"kappa": 1e300}},
                                        "time_grid": {"start": 1.0, "stop": 1.0, "steps": 1}},
                            "t=1.0"),
    "optimal_probe_sweep_t_1e300": ("optimal", {
        "time_grid": {"start": 1e300, "stop": 1e300, "steps": 1},
        "probe_sweep": {"start": "0deg", "stop": "0deg", "steps": 1}}, "phi_deg=0.0"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_GENERATOR))
def test_overflowing_generator_is_a_failed_row(case, tmp_path, capsys):
    # |Ht| is near 1e300, so the Frobenius norm of the exponent overflows:
    # evolve raises NonFinite before the generator's coefficients overflow,
    # and the row fails with it, never a traceback
    command, overrides, where = OVERFLOWING_GENERATOR[case]
    doc = shipped_config("qfi_pt_s.json")
    doc.update(overrides)
    out = tmp_path / "out.csv"
    code = main([command, "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{where}: the Frobenius norm of a finite mat_exp input overflows\n" in err
    assert "Traceback" not in err
    header, row = out.read_text().splitlines()
    assert row.split(",")[1:] == ["nan"] * (len(header.split(",")) - 1)


@pytest.mark.parametrize("command, module, name", [
    ("qfi", cli, "qfi_record"), ("qfi", cli, "evolve"),
    ("optimal", cli, "evolve"), ("optimal", measure, "evolve")])
def test_failed_stack_fails_every_row(command, module, name, tmp_path, monkeypatch, capsys):
    # a typed error from a stacked call fails all rows of the config, one
    # log line each, with exit 3; the two evolutions of precision_ep (in
    # measure) blank that column only, and each row logs `precision_ep: ...`
    def failing(*args):
        raise NonFinite("injected")

    cfg = write_config(tmp_path, base_config())
    clean = tmp_path / "clean.csv"
    assert main([command, "--config", cfg, "--out", str(clean), "--quiet"]) == 0
    monkeypatch.setattr(module, name, failing)
    out = tmp_path / "out.csv"
    code = main([command, "--config", cfg, "--out", str(out)])
    assert code == 3
    header, *rows = [line.split(",") for line in clean.read_text().splitlines()]
    if module is measure:
        assert capsys.readouterr().err.count(": precision_ep: injected\n") == 10
        col = header.index("precision_ep")
        expected = [row[:col] + ["nan"] + row[col + 1:] for row in rows]
    else:
        assert capsys.readouterr().err.count(": injected\n") == 10
        expected = [row[:1] + ["nan"] * (len(header) - 1) for row in rows]
    assert [line.split(",") for line in out.read_text().splitlines()] == [header, *expected]


# every typed failure prints alone: no NumPy warning goes ahead of it, and
# none turns into an error when warnings are errors
SILENT_OVERFLOWS = {
    "dilate_s_1e307": ("dilate", "dilate_pt.json", {"model": {
        "family": "pt", "params": {"s": 1e307, "alpha": math.pi / 4},
        "estimated_param": "s"}}, 2,
        ["numerical failure: dilation Hamiltonian contains NaN/Inf entries"]),
    "qfi_t_1e300": ("qfi", "qfi_pt_s.json", {"time_grid": {"start": 1.0, "stop": 1e300,
                                                           "steps": 2}}, 3,
                    ["t=1.0: the Frobenius norm of a finite mat_exp input overflows",
                     "t=1e+300: the Frobenius norm of a finite mat_exp input overflows",
                     "completed with failed rows (exit 3)"]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(SILENT_OVERFLOWS))
def test_overflow_prints_only_typed_lines(case, tmp_path, capsys):
    command, name, overrides, code, lines = SILENT_OVERFLOWS[case]
    doc = shipped_config(name)
    doc.update(overrides)
    out = tmp_path / "out.csv"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == code
    assert capsys.readouterr().err.splitlines() == lines


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


# float cells: exact integers, 1e-300..1e300 of either sign, values that
# print in exponent form at 12 digits, nan (a failed row) and +-inf (the
# precision of a point with one solved trial)
CSV_FLOATS = (st.integers(-10**15, 10**15).map(float)
              | st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300)
              | st.sampled_from([1e12, 1e16, 1.5e-5, 1e-4, 123456789012.5, -0.0, 0.0,
                                 math.nan, math.inf, -math.inf])
              | st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(CSV_FLOATS, st.integers(0, 10**12 - 1), CSV_FLOATS),
                     max_size=20))
def test_every_cell_is_12_significant_digits(tmp_path_factory, rows):
    # the one row format of every table: a float cell is format(x, ".12g"),
    # a count is str(k), and the rows go through one template in one write
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    with cli._csv_rows(path, ["value", "trial", "estimate"]) as write:
        write(rows)
    assert path.read_text() == "value,trial,estimate\n" + "".join(
        f"{format(value, '.12g')},{k},{format(est, '.12g')}\n" for value, k, est in rows)


def test_a_long_block_is_written_in_bounded_chunks(tmp_path):
    # 100,003 trial rows span ten chunk boundaries: every cell keeps its
    # text, and the write holds one chunk's lists and text at a time (about
    # 2 MB), where the whole block formatted at once peaked at about 17 MB
    count = 10 * cli.CSV_CHUNK_ROWS + 3
    rows = np.column_stack([np.full(count, 2.5), np.arange(count), np.linspace(0.9, 1.1, count)])
    path = tmp_path / "trials.csv"
    tracemalloc.start()
    try:
        with cli._csv_rows(path, ["t", "trial", "estimate"]) as write:
            write(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
    assert path.read_text() == "t,trial,estimate\n" + "".join(
        f"2.5,{k},{format(est, '.12g')}\n" for k, est in enumerate(rows[:, 2].tolist()))


class TestCliEstimate:
    def test_smoke_two_trials(self, tmp_path):
        doc = base_config(
            time_grid={"start": math.pi / 4, "stop": math.pi / 2, "steps": 2},
            estimation={"n": 200, "trials": 2, "seed": 7, "bracket": [0.6, 1.4]})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "est.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = [line for line in out.read_text().split("\n") if line]
        assert lines[0].split(",")[0] == "t"
        assert len(lines) == 3
        trials = [line for line in (tmp_path / "est.csv.trials.csv").read_text().split("\n") if line]
        assert len(trials) == 1 + 2 * 2  # header + 2 trials x 2 grid points

    def test_seed_override_changes_output(self, tmp_path):
        doc = base_config(
            time_grid={"start": math.pi / 4, "stop": math.pi / 4, "steps": 1},
            estimation={"n": 200, "trials": 5, "seed": 7, "bracket": [0.6, 1.4]})
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "s7.csv", tmp_path / "s8.csv"
        main(["estimate", "--config", cfg, "--out", str(out1), "--quiet"])
        main(["estimate", "--config", cfg, "--out", str(out2), "--seed", "8", "--quiet"])
        assert out1.read_text() != out2.read_text()

    def test_probe_sweep_p0_column(self, tmp_path):
        doc = base_config(
            model={"family": "pt", "params": {"s": 1.0, "alpha": math.pi / 10},
                   "estimated_param": "alpha"},
            time_grid={"start": math.pi / (2 * math.cos(math.pi / 10)),
                       "stop": math.pi / (2 * math.cos(math.pi / 10)), "steps": 1},
            probe_sweep={"start": "0deg", "stop": "45deg", "steps": 11},
            estimation={"n": 100, "trials": 2, "seed": 7, "bracket": [0.15, 0.5]})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sweep.csv"
        code = main(["estimate", "--config", cfg, "--out", str(out), "--quiet"])
        assert code == 3  # every trial fails at phi = 22.5, 27 and 31.5 deg
        lines = [line for line in out.read_text().split("\n") if line]
        header = lines[0].split(",")
        assert header[0] == "phi_deg" and header[1] == "p0"
        p0 = [float(line.split(",")[1]) for line in lines[1:]]
        assert abs(p0[0] - 0.0872) < 1e-3
        assert abs(p0[-1] - 0.9128) < 1e-3
        # the bytes of a probe-sweep estimate, its failed rows included
        digests = [hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (out, tmp_path / "sweep.csv.trials.csv")]
        assert digests == ["38ba32f6c8ab59a0941fc967908b2d57c7ba0b35657f6f81a3c5fbd70b9a8ab7",
                           "ef24995dca3a7fb327c8d850ce32819ea43282f7d9c3712dffd0eeea9081133c"]

    def test_partial_exit_code(self, tmp_path):
        # a far-off bracket makes every inversion fail at this grid point
        doc = base_config(
            time_grid={"start": math.pi, "stop": math.pi, "steps": 1},
            estimation={"n": 2000, "trials": 3, "seed": 3, "bracket": [2.9, 2.95]})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "partial.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out), "--quiet"]) == 3


    def test_trial_column_names_the_rng_stream(self, tmp_path, ket0, proj0):
        # the bracket covers about +-1.3 sigma of the shot frequency, so some
        # trials fail; each written row keeps the k of its trial_rng(seed, k)
        seed, n, trials, t, bracket = 20260823, 2000, 12, math.pi / 8, [0.97, 1.03]
        doc = base_config(time_grid={"start": t, "stop": t, "steps": 1},
                          estimation={"n": n, "trials": trials, "seed": seed,
                                      "bracket": bracket})
        out = tmp_path / "est.csv"
        assert main(["estimate", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--quiet"]) == 0
        model = pt_model(1.0, math.pi / 4, "s")
        p = outcome_probability(evolve(model, 1.0, t, ket0).phi_out, proj0)
        expected = []
        for k in range(trials):
            x = estimate.sample_shots(p, n, trial_rng(seed, k))
            est = estimate.mle_invert(model, t, ket0, proj0, [x / n], bracket).estimates[0]
            if not np.isnan(est):
                expected.append([format(t, ".12g"), str(k), format(est, ".12g")])
        rows = [line.split(",")
                for line in (tmp_path / "est.csv.trials.csv").read_text().split("\n")[1:]
                if line]
        assert 0 < len(expected) < trials
        assert [int(row[1]) for row in expected] != list(range(len(expected)))
        assert rows == expected
        assert out.read_text().split("\n")[1].split(",")[-1] == str(trials - len(expected))

    def test_failed_p0_is_a_failed_row(self, tmp_path, monkeypatch):
        real = cli.outcome_probability

        def failing_at_second_point(phi, A):
            failing_at_second_point.calls += 1
            if failing_at_second_point.calls == 2:
                raise NotNormalized("injected")
            return real(phi, A)

        failing_at_second_point.calls = 0
        monkeypatch.setattr(cli, "outcome_probability", failing_at_second_point)
        doc = base_config(
            time_grid={"start": math.pi / 4, "stop": math.pi / 2, "steps": 2},
            estimation={"n": 200, "trials": 2, "seed": 7, "bracket": [0.6, 1.4]})
        out = tmp_path / "est.csv"
        code = main(["estimate", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--quiet"])
        assert code == 3
        rows = [line.split(",") for line in out.read_text().split("\n")[1:] if line]
        assert len(rows) == 2
        assert rows[0][1] != "nan" and rows[0][-1] == "0"
        assert rows[1][1:] == ["nan"] * 5 + ["2"]

    def test_unconverged_polish_is_a_failed_row(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(estimate, "MAX_ROOT_ITER", 1)
        doc = base_config(
            time_grid={"start": math.pi / 4, "stop": math.pi / 4, "steps": 1},
            estimation={"n": 2000, "trials": 5, "seed": 7, "bracket": [0.6, 1.4]})
        out = tmp_path / "est.csv"
        assert main(["estimate", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 3
        assert "polish rounds" in capsys.readouterr().err
        rows = [line.split(",") for line in out.read_text().split("\n")[1:] if line]
        assert len(rows) == 1
        assert rows[0][1] != "nan" and rows[0][2:] == ["nan"] * 4 + ["5"]
        assert (tmp_path / "est.csv.trials.csv").read_text() == "t,trial,estimate\n"

    def test_non_monotone_bracket_is_logged(self, tmp_path, capsys):
        # p(s) at t = pi/2 has its minimum inside the bracket (at s = 2.121)
        doc = base_config(
            model={"family": "pt", "params": {"s": 1.8, "alpha": math.pi / 4},
                   "estimated_param": "s"},
            time_grid={"start": math.pi / 2, "stop": math.pi / 2, "steps": 1},
            estimation={"n": 2000, "trials": 3, "seed": 3, "bracket": [1.5, 2.6]})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "nm.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert "not monotone on the bracket" in capsys.readouterr().err
        doc["estimation"]["bracket"] = [1.5, 2.0]
        assert main(["estimate", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        assert "not monotone" not in capsys.readouterr().err


class TestCliOptimalAndDilate:
    def test_failed_generator_is_a_failed_row(self, tmp_path, monkeypatch):
        real = fisher.centered_state

        def failing_at_third_point(*args):
            f = real(*args)
            f[2] = np.nan  # the third probe's generator state fails
            return f

        monkeypatch.setattr(fisher, "centered_state", failing_at_third_point)
        doc = base_config(
            model={"family": "pt", "params": {"s": 1.0, "alpha": math.pi / 10},
                   "estimated_param": "alpha"},
            time_grid={"start": math.pi / (2 * math.cos(math.pi / 10)),
                       "stop": math.pi / (2 * math.cos(math.pi / 10)), "steps": 1},
            probe_sweep={"start": "0deg", "stop": "45deg", "steps": 6})
        out = tmp_path / "opt.csv"
        code = main(["optimal", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--quiet"])
        assert code == 3
        rows = [line.split(",") for line in out.read_text().split("\n")[1:] if line]
        assert [row[0] for row in rows] == ["0", "9", "18", "27", "36", "45"]
        assert rows[2][1:] == ["nan"] * 5
        assert all("nan" not in row[5] for i, row in enumerate(rows) if i != 2)

    def test_optimal_config_evolves_three_times_and_builds_h_once(self, tmp_path, monkeypatch):
        # For all six probes: one evolution and one QFI record (one generator)
        # for phi, f and sqrtF; two more evolutions, at theta + eps and
        # theta - eps, for the central-difference precision_ep.
        evolves, generators = [], []
        for module in (cli, fisher, measure):
            real = module.evolve
            monkeypatch.setattr(module, "evolve",
                                lambda *args, real=real: evolves.append(args) or real(*args))
        real = fisher.generator_closed_form
        monkeypatch.setattr(fisher, "generator_closed_form",
                            lambda *args: generators.append(args) or real(*args))
        doc = base_config(
            model={"family": "pt", "params": {"s": 1.0, "alpha": math.pi / 10},
                   "estimated_param": "alpha"},
            time_grid={"start": 1.5, "stop": 1.5, "steps": 1},
            probe_sweep={"start": "0deg", "stop": "45deg", "steps": 6})
        assert main(["optimal", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "opt.csv"), "--quiet"]) == 0
        assert len(evolves) == 3
        assert len(generators) == 1

    def test_precision_ep_next_to_the_ep_blanks_only_its_column(self, tmp_path, capsys):
        # alpha + eps lies past the EP at pi/4, so only the central
        # difference of precision_ep leaves the range; the other columns stay
        doc = base_config(model=ep_demo_doc(0.785395), probe={"angle": 0.3},
                          time_grid={"start": 1.0, "stop": 3.0, "steps": 3})
        cfg = write_config(tmp_path, doc)
        opt, qfi = tmp_path / "opt.csv", tmp_path / "qfi.csv"
        assert main(["qfi", "--config", cfg, "--out", str(qfi), "--quiet"]) == 0
        assert main(["optimal", "--config", cfg, "--out", str(opt)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[:2] for line in err[:3]] == [
            [f"t={t}", "precision_ep"] for t in (1.0, 2.0, 3.0)]
        assert "Traceback" not in "\n".join(err)
        header, *rows = [line.split(",") for line in opt.read_text().splitlines()]
        qfi_header, *qfi_rows = [line.split(",") for line in qfi.read_text().splitlines()]
        assert [row[header.index("precision_ep")] for row in rows] == ["nan"] * 3
        assert all(math.isfinite(float(row[header.index("residual")])) for row in rows)
        assert [row[header.index("sqrtF")] for row in rows] == [
            row[qfi_header.index("sqrtF")] for row in qfi_rows]

    def test_optimal_probe_sweep(self, tmp_path):
        doc = base_config(
            model={"family": "pt", "params": {"s": 1.0, "alpha": math.pi / 10},
                   "estimated_param": "alpha"},
            time_grid={"start": math.pi / (2 * math.cos(math.pi / 10)),
                       "stop": math.pi / (2 * math.cos(math.pi / 10)), "steps": 1},
            probe_sweep={"start": "0deg", "stop": "45deg", "steps": 11})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "opt.csv"
        assert main(["optimal", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = [line for line in out.read_text().split("\n") if line]
        header = lines[0].split(",")
        rows = {float(line.split(",")[0]): line.split(",") for line in lines[1:]}
        i_res = header.index("residual")
        i_prec = header.index("precision_ep")
        assert float(rows[0.0][i_res]) < 1e-6
        assert abs(float(rows[0.0][i_prec]) - 1 / 0.3813) / (1 / 0.3813) < 0.01
        assert float(rows[18.0][i_res]) > 0.01
        assert abs(float(rows[18.0][i_prec]) - 1 / 1.6165) / (1 / 1.6165) < 0.01
        assert float(rows[45.0][i_res]) < 1e-6
        # mid-sweep the measurement carries little signal: well below optimum
        assert 0.0 < float(rows[22.5][i_prec]) < 0.5 * float(rows[0.0][i_prec])

    @pytest.mark.parametrize("name", ["qfi_pt_s", "qfi_pt_alpha", "qfi_kappa"])
    def test_optimal_sqrt_f_is_the_qfi_sqrt_f(self, tmp_path, name):
        # both commands read F from the one QFI record: the same text per row
        config = os.path.join(CONFIG_DIR, f"{name}.json")
        columns = []
        for command in ("qfi", "optimal"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", config, "--out", str(out), "--quiet"]) == 0
            header, *rows = [line.split(",") for line in out.read_text().splitlines()]
            columns.append([(row[0], row[header.index("sqrtF")]) for row in rows])
        assert len(columns[0]) > 1 and columns[0] == columns[1]

    def test_dilate(self, tmp_path):
        doc = base_config(time_grid={"start": 0.0, "stop": 4.0, "steps": 10})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "dil.csv"
        assert main(["dilate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = [line for line in out.read_text().split("\n") if line]
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert float(row["fidelity"]) >= 1 - 1e-8
            assert float(row["norm_drift"]) < 1e-9

    def test_dilate_overflowing_metric_is_a_numerical_failure(self, tmp_path, capsys):
        # at s = 1e307 the metric G overflows to NaN, on which eigh would
        # fail with an untyped LinAlgError
        doc = shipped_config("dilate_pt.json")
        doc["model"]["params"]["s"] = 1e307
        out = tmp_path / "dil.csv"
        assert main(["dilate", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: dilation Hamiltonian") and "Traceback" not in err

    def test_dilate_zero_hamiltonian(self, tmp_path):
        # pt at s = 0 is H = 0: eta = I/2 and the dilation is trivial
        doc = base_config(model={"family": "pt", "params": {"s": 0.0, "alpha": 0.5},
                                 "estimated_param": "alpha"},
                          probe={"angle": "20deg"},
                          time_grid={"start": 0.0, "stop": 4.0, "steps": 5})
        out = tmp_path / "dil.csv"
        assert main(["dilate", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--quiet"]) == 0
        rows = [line.split(",") for line in out.read_text().split("\n")[1:] if line]
        assert [row[1:] for row in rows] == [["1", "0.5", "0", "0"]] * 5

    def test_dilate_evolves_the_grid_in_one_call(self, tmp_path, monkeypatch):
        calls = []
        for module, name in ((cli.dilation, "evolve_dilated"), (cli, "evolve")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, real=real: calls.append(args) or real(*args))
        doc = base_config(time_grid={"start": 0.0, "stop": 4.0, "steps": 10})
        assert main(["dilate", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "dil.csv"), "--quiet"]) == 0
        assert len(calls) == 2 and all(len(args[2]) == 10 for args in calls)

    def test_failed_evolution_fails_every_dilate_row(self, tmp_path, monkeypatch, capsys):
        def failing(*args):
            raise NonFinite("injected")

        monkeypatch.setattr(cli, "evolve", failing)
        doc = base_config(time_grid={"start": 0.0, "stop": 4.0, "steps": 5})
        out = tmp_path / "dil.csv"
        assert main(["dilate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("injected") == 1
        rows = [line.split(",") for line in out.read_text().split("\n")[1:] if line]
        assert [row[0] for row in rows] == ["0", "1", "2", "3", "4"]
        for row in rows:
            assert row[1:4] == ["nan"] * 3 and 0.0 <= float(row[4]) < 1e-12


class TestCliErrors:
    def test_invalid_json_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["qfi", "--config", str(path), "--quiet"]) == 1

    def test_missing_field_exit_code(self, tmp_path, capsys):
        doc = base_config()
        del doc["measurement"]
        cfg = write_config(tmp_path, doc)
        assert main(["qfi", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                     "--quiet"]) == 1
        assert "measurement" in capsys.readouterr().err

    def test_validate_ok(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        assert main(["validate", "--config", cfg, "--quiet"]) == 0

    def test_twelve_significant_digits(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            time_grid={"start": 1.0, "stop": 1.0, "steps": 1}))
        out = tmp_path / "digits.csv"
        main(["qfi", "--config", cfg, "--out", str(out), "--quiet"])
        f_text = out.read_text().split("\n")[1].split(",")[1]
        assert len(f_text.replace(".", "").replace("-", "").lstrip("0")) >= 11


def kappa_doc(kappa):
    return {"family": "kappa", "params": {"kappa": kappa}, "estimated_param": "kappa"}


def ep_demo_doc(alpha):
    return {"family": "ep_demo", "params": {"alpha": alpha}, "estimated_param": "alpha"}


ESTIMATION = {"n": 100, "trials": 2, "seed": 1, "bracket": [0.5, 1.5]}

# (config overrides, the field the error must name). Each used to end in a
# traceback or pass `validate`.
MALFORMED = {
    "amplitude_too_short": ({"probe": {"amplitudes": [[1.0], 0]}}, "probe.amplitudes[0]"),
    "amplitude_string": ({"probe": {"amplitudes": ["a", 0]}}, "probe.amplitudes[0]"),
    "amplitude_too_long": ({"probe": {"amplitudes": [[1, 2, 3], 0]}}, "probe.amplitudes[0]"),
    "kappa_string": ({"model": kappa_doc("abc")}, "model.params.kappa"),
    "kappa_null": ({"model": kappa_doc(None)}, "model.params.kappa"),
    "kappa_negative": ({"model": kappa_doc(-1)}, "model"),
    "ep_demo_alpha_string": ({"model": ep_demo_doc("abc")}, "model.params.alpha"),
    "ep_demo_alpha_past_ep": ({"model": ep_demo_doc(0.8)}, "model"),
    "pt_alpha_out_of_range": ({"model": {"family": "pt", "params": {"s": 1.0, "alpha": 2},
                                         "estimated_param": "s"}}, "model"),
    "bracket_string": ({"estimation": dict(ESTIMATION, bracket=["a", 1])},
                       "estimation.bracket[0]"),
    "probe_sweep_not_an_object": ({"probe_sweep": 3}, "probe_sweep"),
    "nan_time": ({"time_grid": {"start": math.nan, "stop": 1.0, "steps": 2}},
                 "time_grid.start"),
    "shots_beyond_int64": ({"estimation": dict(ESTIMATION, n=10**20)}, "estimation.n"),
    # a probe sweep runs at one time: the rest of a time grid was dropped
    "probe_sweep_over_a_time_grid": ({"probe_sweep": {"start": "0deg", "stop": "45deg",
                                                      "steps": 3}}, "probe_sweep"),
    "probe_sweep_stop_past_start": ({"probe_sweep": {"start": "0deg", "stop": "45deg",
                                                     "steps": 3},
                                     "time_grid": {"start": 1.0, "stop": 9.0, "steps": 1}},
                                    "time_grid.stop"),
    # a one-point grid's one point is its start: the stop was dropped
    "time_grid_one_step_stop_past_start": ({"time_grid": {"start": 1.0, "stop": 5.0,
                                                          "steps": 1}}, "time_grid.stop"),
    "probe_sweep_one_step_stop_past_start": ({"probe_sweep": {"start": "0deg", "stop": "45deg",
                                                              "steps": 1},
                                              "time_grid": {"start": 1.0, "stop": 1.0,
                                                            "steps": 1}}, "probe_sweep.stop"),
}


class TestMalformedInput:
    """Every malformed input exits 1 with `config error: <field>`, no traceback."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_config_error_names_the_field(self, case, tmp_path, capsys):
        overrides, field = MALFORMED[case]
        cfg = write_config(tmp_path, base_config(**overrides))
        assert main(["validate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and "Traceback" not in err

    def test_shot_count_bound(self, tmp_path, capsys):
        doc = base_config(time_grid={"start": 1.0, "stop": 1.0, "steps": 1},
                          estimation=dict(ESTIMATION, n=2**63))
        out = tmp_path / "est.csv"
        assert main(["estimate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: estimation.n: ") and "Traceback" not in err
        assert not out.exists()
        doc["estimation"]["n"] = 2**63 - 1
        assert parse_config(doc).estimation.n == 2**63 - 1

    def test_trial_count_bound(self, tmp_path, capsys):
        # rejected while parsing, so no trial is ever run
        doc = base_config(time_grid={"start": 1.0, "stop": 1.0, "steps": 1},
                          estimation=dict(ESTIMATION, trials=10**20))
        cfg, out = write_config(tmp_path, doc), tmp_path / "est.csv"
        assert main(["validate", "--config", cfg]) == 1
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("config error: estimation.trials: ") == 2 and "Traceback" not in err
        assert not out.exists()
        doc["estimation"]["trials"] = MAX_TRIALS + 1
        with pytest.raises(ConfigError, match="estimation.trials"):
            parse_config(doc)
        doc["estimation"]["trials"] = MAX_TRIALS
        assert parse_config(doc).estimation.trials == MAX_TRIALS
        # so a trial number or failed_trials prints through %.12g as str does
        assert MAX_TRIALS < 10**12

    @pytest.mark.parametrize("command, section", [("qfi", "time_grid"),
                                                  ("optimal", "probe_sweep")])
    def test_grid_steps_bound(self, tmp_path, capsys, command, section):
        # rejected while parsing, so no grid is ever allocated
        doc = base_config(probe_sweep={"start": "0deg", "stop": "45deg", "steps": 3})
        if command == "qfi":
            del doc["probe_sweep"]
        else:
            doc["time_grid"] = {"start": 1.0, "stop": 1.0, "steps": 1}
        doc[section]["steps"] = 10**13
        out = tmp_path / "out.csv"
        assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {section}.steps: ") and "Traceback" not in err
        assert not out.exists()
        doc[section]["steps"] = MAX_STEPS + 1
        with pytest.raises(ConfigError, match=f"{section}.steps"):
            parse_config(doc)
        doc[section]["steps"] = MAX_STEPS
        assert getattr(parse_config(doc), section).steps == MAX_STEPS

    @pytest.mark.parametrize("overrides, field", [
        ({"probe": {"angle": 1e308}}, "probe.angle"),
        ({"probe_sweep": {"start": -1e308, "stop": 1e308, "steps": 3}}, "probe_sweep.start"),
        ({"probe_sweep": {"start": 0.0, "stop": 1e308, "steps": 3}}, "probe_sweep.stop"),
    ])
    def test_overflowing_probe_angle(self, tmp_path, capsys, overrides, field):
        # 2 phi or the sweep span stop - start would overflow to inf
        cfg = write_config(tmp_path, base_config(**overrides))
        out = tmp_path / "opt.csv"
        assert main(["optimal", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and "Traceback" not in err
        assert not out.exists()

    def test_estimate_needs_a_projector(self, tmp_path, capsys):
        doc = base_config(time_grid={"start": 1.0, "stop": 2.0, "steps": 2},
                          measurement={"matrix": [[1, 0], [0, 0.5]]}, estimation=ESTIMATION)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "est.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: measurement.matrix: ") and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "est.csv.trials.csv").exists()
        # any Hermitian observable still suits `optimal`
        assert main(["optimal", "--config", cfg, "--out", str(tmp_path / "opt.csv"),
                     "--quiet"]) == 0

    def test_estimate_needs_a_nonzero_true_value(self, tmp_path, capsys):
        # s = 0 is a valid pt model, but bias_pct is relative to the true value
        doc = base_config(model={"family": "pt", "params": {"s": 0.0, "alpha": math.pi / 4},
                                 "estimated_param": "s"},
                          estimation={"n": 100, "trials": 2, "seed": 1, "bracket": [0.0, 1.0]})
        parse_config(doc)
        out = tmp_path / "est.csv"
        assert main(["estimate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: model.params.s: ") and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "est.csv.trials.csv").exists()

    def test_optimal_needs_a_hermitian_observable(self, tmp_path, capsys):
        doc = shipped_config("optimal_probe_sweep.json")
        doc["measurement"] = {"matrix": [[1, 1], [0, 0]]}
        out = tmp_path / "opt.csv"
        assert main(["optimal", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: measurement.matrix: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["qfi", "dilate"])
    def test_time_sweep_commands_reject_a_probe_sweep(self, tmp_path, capsys, command):
        doc = base_config(probe_sweep={"start": "0deg", "stop": "45deg", "steps": 3})
        out = tmp_path / "out.csv"
        assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: probe_sweep: ")
        assert not out.exists()

    def test_unwritable_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["qfi", "--config", cfg, "--out", str(tmp_path / "no" / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: output: ") and "Traceback" not in err

    def test_unwritable_trials_file(self, tmp_path, capsys):
        # the trials file cannot open after the main CSV did
        cfg = write_config(tmp_path, base_config(
            time_grid={"start": 1.0, "stop": 1.0, "steps": 1}, estimation=ESTIMATION))
        (tmp_path / "est.csv.trials.csv").mkdir()
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "est.csv")]) == 1
        assert capsys.readouterr().err.startswith("config error: output: ")
        assert (tmp_path / "est.csv").read_text().startswith("t,p0,")

    def test_negative_seed_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(estimation=ESTIMATION))
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                     "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("config error: --seed: ")

    def test_unreadable_config_has_no_empty_field(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 1
        assert capsys.readouterr().err.startswith("config error: cannot read config file")


# Any JSON value: what a config field can be replaced with.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=5)


def shipped_config(name):
    with open(os.path.join(CONFIG_DIR, name)) as handle:
        return json.load(handle)


def field_paths(doc, prefix=()):
    """The path of every object member and list item in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_one_changed_field_parses_or_is_a_config_error(data):
    doc = shipped_config(data.draw(st.sampled_from(sorted(os.listdir(CONFIG_DIR)))))
    path = data.draw(st.sampled_from(list(field_paths(doc))))
    container = reduce(lambda node, key: node[key], path[:-1], doc)
    if data.draw(st.booleans()):
        del container[path[-1]]
    else:
        container[path[-1]] = data.draw(JSON_VALUES)
    try:
        parse_config(doc)
    except ConfigError:
        pass
