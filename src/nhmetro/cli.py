"""Declarative experiment runner.

Subcommands: qfi | estimate | optimal | dilate | validate. Each run is
described by a JSON config and emits a CSV (12 significant digits, '\\n'
line endings) that is byte-identical across runs for the same (config, seed).

Exit codes: 0 ok, 1 config error, 2 numerical failure, 3 partial (some rows
failed; completed rows are flushed).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import dilation, fisher, linalg, measure
from .config import ExperimentConfig, load_config, probe_from_angle
from .dynamics import evolve, survival_probability
from .errors import (AllTrialsFailed, ConfigError, Degenerate, NumericsError,
                     ZeroG)
from .estimate import run_trials
from .fisher import qfi_closed_form, qfi_generator, qfi_record, qfi_state_derivative

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_PARTIAL = 3


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


class CsvWriter:
    """Row-by-row CSV writer; completed rows survive a partial failure."""

    def __init__(self, path, header):
        self.handle = open(path, "w", newline="") if path else None
        self._write_line(",".join(header))

    def _write_line(self, line):
        if self.handle is not None:
            self.handle.write(line + "\n")
            self.handle.flush()

    def row(self, values):
        self._write_line(",".join(_fmt(v) for v in values))

    def close(self):
        if self.handle is not None:
            self.handle.close()


def _route_deviation(values) -> float:
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return 0.0
    scale = max(abs(v) for v in values)
    if scale == 0.0:
        return 0.0
    return (max(values) - min(values)) / scale


def cmd_qfi(cfg: ExperimentConfig, out_path, log) -> int:
    writer = CsvWriter(out_path, ["t", "F", "sqrtF", "K", "I", "sqrtI", "gap",
                                  "F_closed_form", "route_deviation"])
    theta = cfg.model.true_value
    probe_is_ket0 = abs(cfg.probe[0] - 1.0) < 1e-12 and abs(cfg.probe[1]) < 1e-12
    partial = False
    try:
        for t in cfg.time_grid.times():
            try:
                rec = qfi_record(cfg.model, theta, float(t), cfg.probe)
                f_fd = qfi_generator(fisher.generator_fd(cfg.model, theta, float(t)), rec.phi_out)
                f_state = qfi_state_derivative(cfg.model, theta, float(t), cfg.probe)
                f_closed = None
                if cfg.model.family in ("pt", "kappa") and probe_is_ket0:
                    f_closed = qfi_closed_form(cfg.model, theta, float(t), cfg.probe)
                deviation = _route_deviation([rec.F, f_fd, f_state, f_closed])
                writer.row([t, rec.F, math.sqrt(max(rec.F, 0.0)), rec.K, rec.I,
                            math.sqrt(max(rec.I, 0.0)), rec.gap, f_closed, deviation])
            except NumericsError as exc:
                log(f"t={t}: {exc}")
                writer.row([t, None, None, None, None, None, None, None, None])
                partial = True
    finally:
        writer.close()
    return EXIT_PARTIAL if partial else EXIT_OK


def cmd_estimate(cfg: ExperimentConfig, out_path, log) -> int:
    if cfg.estimation is None:
        raise ConfigError("estimation", "required for the estimate subcommand")
    sweep_is_probe = cfg.probe_sweep is not None
    sweep_name = "phi_deg" if sweep_is_probe else "t"
    writer = CsvWriter(out_path, [sweep_name, "p0", "precision", "precision_err",
                                  "mean_estimate", "bias_pct", "failed_trials"])
    trials_writer = CsvWriter(out_path + ".trials.csv" if out_path else None,
                              [sweep_name, "trial", "estimate"])
    theta = cfg.model.true_value
    spec = cfg.estimation
    if sweep_is_probe:
        points = [(math.degrees(phi), probe_from_angle(phi), cfg.time_grid.start)
                  for phi in cfg.probe_sweep.angles()]
    else:
        points = [(float(t), cfg.probe, float(t)) for t in cfg.time_grid.times()]
    partial = False
    try:
        for idx, (sweep_value, probe, t) in enumerate(points):
            p0 = None
            try:
                p0 = survival_probability(evolve(cfg.model, theta, t, probe), cfg.measurement)
                run = run_trials(cfg.model, theta, t, probe, cfg.measurement,
                                 spec.n, spec.trials, spec.seed, spec.bracket[idx])
                if run.non_monotone_scan:
                    log(f"{sweep_name}={sweep_value}: p(theta) is not monotone on the "
                        "bracket; each estimate is the first root")
                bias_pct = 100.0 * (run.mean - theta) / theta
                writer.row([sweep_value, p0, run.precision, run.precision_err,
                            run.mean, bias_pct, run.failed_trials])
                for k, est in enumerate(run.estimates):
                    trials_writer.row([sweep_value, k, est])
            except (AllTrialsFailed, NumericsError) as exc:
                log(f"{sweep_name}={sweep_value}: {exc}")
                writer.row([sweep_value, p0, None, None, None, None, spec.trials])
                partial = True
    finally:
        writer.close()
        trials_writer.close()
    return EXIT_PARTIAL if partial else EXIT_OK


def cmd_optimal(cfg: ExperimentConfig, out_path, log) -> int:
    sweep_is_probe = cfg.probe_sweep is not None
    sweep_name = "phi_deg" if sweep_is_probe else "t"
    writer = CsvWriter(out_path, [sweep_name, "residual", "c_real", "c_imag_fraction",
                                  "precision_ep", "sqrtF"])
    theta = cfg.model.true_value
    observable = measure.Observable(cfg.measurement, "configured")
    if sweep_is_probe:
        points = [(math.degrees(phi), probe_from_angle(phi), cfg.time_grid.start)
                  for phi in cfg.probe_sweep.angles()]
    else:
        points = [(float(t), cfg.probe, float(t)) for t in cfg.time_grid.times()]
    partial = False
    try:
        for sweep_value, probe, t in points:
            try:
                res = evolve(cfg.model, theta, t, probe)
                h = fisher.generator_quadrature(cfg.model, theta, t)
                sqrt_f = math.sqrt(max(qfi_generator(h, res.phi_out), 0.0))
                try:
                    report = measure.optimality_residual(cfg.model, theta, t, probe, observable)
                    residual, c_real, c_imag = (report.residual, report.c.real,
                                                report.c_imag_fraction)
                except ZeroG as exc:
                    log(f"{sweep_name}={sweep_value}: {exc}")
                    residual = c_real = c_imag = None
                    partial = True
                try:
                    precision = measure.error_propagation_precision(
                        cfg.model, theta, t, probe, observable)
                except Degenerate:
                    # Flagged, not dropped: the paper's own tables have blank
                    # entries at probability extrema.
                    precision = None
                writer.row([sweep_value, residual, c_real, c_imag, precision, sqrt_f])
            except NumericsError as exc:
                log(f"{sweep_name}={sweep_value}: {exc}")
                writer.row([sweep_value, None, None, None, None, None])
                partial = True
    finally:
        writer.close()
    return EXIT_PARTIAL if partial else EXIT_OK


def cmd_dilate(cfg: ExperimentConfig, out_path, log) -> int:
    from .models import hamiltonian

    writer = CsvWriter(out_path, ["t", "fidelity", "success_prob", "norm_drift",
                                  "eta_residual"])
    theta = cfg.model.true_value
    H = hamiltonian(cfg.model, theta)
    sys_ = dilation.build_dilation(H)
    eta_residual = float(np.linalg.norm(sys_.eta @ H - linalg.dagger(H) @ sys_.eta))
    norm0 = None
    partial = False
    try:
        for t in cfg.time_grid.times():
            try:
                Psi_t, recovered, success = dilation.evolve_dilated(sys_, cfg.probe, float(t))
                total = float(np.vdot(Psi_t, Psi_t).real)
                if norm0 is None:
                    norm0 = total
                drift = abs(total - norm0) / norm0
                direct = evolve(cfg.model, theta, float(t), cfg.probe)
                fidelity = abs(np.vdot(recovered, direct.phi_out))
                writer.row([t, fidelity, success, drift, eta_residual])
            except NumericsError as exc:
                log(f"t={t}: {exc}")
                writer.row([t, None, None, None, eta_residual])
                partial = True
    finally:
        writer.close()
    return EXIT_PARTIAL if partial else EXIT_OK


COMMANDS = {
    "qfi": cmd_qfi,
    "estimate": cmd_estimate,
    "optimal": cmd_optimal,
    "dilate": cmd_dilate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhmetro",
        description="Simulate parameter estimation under non-Hermitian dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*COMMANDS, "validate"]:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config's estimation seed")
        cmd.add_argument("--out", default=None, help="override the config's csv_path")
        cmd.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def log(message):
        if not args.quiet:
            print(message, file=sys.stderr)

    try:
        cfg = load_config(args.config)
        if args.seed is not None and cfg.estimation is not None:
            from dataclasses import replace
            cfg = replace(cfg, estimation=replace(cfg.estimation, seed=args.seed))
        if args.command == "validate":
            log(f"{args.config}: ok")
            return EXIT_OK
        out_path = args.out or cfg.csv_path
        if out_path is None:
            raise ConfigError("output.csv_path", "missing (or pass --out)")
        code = COMMANDS[args.command](cfg, out_path, log)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if code == EXIT_PARTIAL:
        log("completed with failed rows (exit 3)")
    return code


if __name__ == "__main__":
    sys.exit(main())
