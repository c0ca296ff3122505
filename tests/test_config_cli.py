import json
import math
import os

import numpy as np
import pytest

from nhmetro import cli, ep_demo_model, estimate, fisher, linalg
from nhmetro.cli import main
from nhmetro.config import parse_config, probe_from_angle
from nhmetro.dynamics import evolve
from nhmetro.errors import ConfigError, NotNormalized
from nhmetro.fisher import qfi_generator

from conftest import SQRT_F_S

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(PKG_ROOT, "configs")


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

    def test_one_evolution_per_row(self, tmp_path, monkeypatch):
        calls = []
        for module in (cli, fisher):
            real = module.evolve
            monkeypatch.setattr(module, "evolve",
                                lambda *args, real=real: calls.append(args) or real(*args))
        out = tmp_path / "qfi.csv"
        assert main(["qfi", "--config", write_config(tmp_path, base_config()),
                     "--out", str(out), "--quiet"]) == 0
        assert len(calls) == 10

    def test_failed_cross_check_keeps_the_row(self, tmp_path, capsys):
        # 5.2e-6 below the EP at pi/4: the finite-difference routes step past
        # it and raise OutOfRange, while the production F is valid
        alpha = 0.785393
        doc = base_config(
            model={"family": "ep_demo", "params": {"alpha": alpha}, "estimated_param": "alpha"},
            time_grid={"start": 1.0, "stop": 10.0, "steps": 4})
        out = tmp_path / "ep.csv"
        assert main(["qfi", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count("cross-check") == 4 and "exit 3" not in err
        lines = out.read_text().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:] if line]
        assert len(rows) == 4
        model = ep_demo_model(alpha)
        for row in rows:
            assert row["route_deviation"] == "nan" and row["F_closed_form"] == "nan"
            assert all(row[col] != "nan" for col in ("F", "sqrtF", "K", "I", "sqrtI", "gap"))
            t = float(row["t"])
            f_quad = qfi_generator(fisher.generator_quadrature(model, alpha, t),
                                   evolve(model, alpha, t, linalg.basis_state(0)).phi_out)
            assert abs(float(row["F"]) - f_quad) <= 1e-9 * f_quad


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
        assert code in (0, 3)  # the phi=22.5 deg point may legitimately fail
        lines = [line for line in out.read_text().split("\n") if line]
        header = lines[0].split(",")
        assert header[0] == "phi_deg" and header[1] == "p0"
        p0 = [float(line.split(",")[1]) for line in lines[1:]]
        assert abs(p0[0] - 0.0872) < 1e-3
        assert abs(p0[-1] - 0.9128) < 1e-3

    def test_partial_exit_code(self, tmp_path):
        # a far-off bracket makes every inversion fail at this grid point
        doc = base_config(
            time_grid={"start": math.pi, "stop": math.pi, "steps": 1},
            estimation={"n": 2000, "trials": 3, "seed": 3, "bracket": [2.9, 2.95]})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "partial.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out), "--quiet"]) == 3


    def test_failed_p0_is_a_failed_row(self, tmp_path, monkeypatch):
        real = cli.survival_probability

        def failing_at_second_point(res, A):
            failing_at_second_point.calls += 1
            if failing_at_second_point.calls == 2:
                raise NotNormalized("injected")
            return real(res, A)

        failing_at_second_point.calls = 0
        monkeypatch.setattr(cli, "survival_probability", failing_at_second_point)
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
        real = fisher.generator_closed_form

        def failing_at_third_point(*args):
            failing_at_third_point.calls += 1
            if failing_at_third_point.calls == 3:
                raise NotNormalized("injected")
            return real(*args)

        failing_at_third_point.calls = 0
        monkeypatch.setattr(fisher, "generator_closed_form", failing_at_third_point)
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
