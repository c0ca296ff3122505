"""Declarative experiment runner.

Usage: nhmetro {qfi,estimate,optimal,dilate,validate} --config PATH
[--seed N] [--out PATH] [--quiet]. Each run is described by a JSON config
and emits a CSV (12 significant digits, '\\n' line endings) that is
byte-identical across runs for the same (config, seed). `validate` only
loads the config, which checks every value and the model's parameter range.

Exit codes: 0 ok, 1 config error (a malformed or out-of-range config value,
or an output file that cannot be written), 2 numerical failure, 3 partial
(some rows failed; completed rows are flushed).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import replace

import numpy as np

from . import dilation, linalg, measure
from .config import ExperimentConfig, load_config, probe_from_angle
from .dynamics import check_projector, evolve, outcome_probability
from .errors import (AllTrialsFailed, ConfigError, NotHermitian, NotProjector, NumericsError,
                     UnsupportedFamily, UnsupportedProbe)
from .estimate import run_trials
from .fisher import qfi_centered, qfi_closed_form, qfi_record, qfi_state_derivative
from .models import hamiltonian

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_PARTIAL = 3


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, (int, str)):
        return str(value)
    return format(float(value), ".12g")


@contextlib.contextmanager
def _csv_rows(path, header):
    """Open path, write the header and yield row(values). Every row is
    flushed, so completed rows survive a partial failure."""
    with open(path, "w", newline="") as handle:
        def row(values):
            handle.write(",".join(map(_fmt, values)) + "\n")
            handle.flush()

        row(header)
        yield row


def _route_deviation(values) -> float:
    values = [v for v in values if v is not None]
    scale = max(abs(v) for v in values)
    if scale == 0.0:
        return 0.0
    return (max(values) - min(values)) / scale


def _sweep(cfg: ExperimentConfig):
    """The sweep column name, its values, and the probes and times of its
    points: probe angles in degrees, a (P, 2) stack of probes and the grid's
    start time; or the time grid, the configured probe and the (N,) times."""
    if cfg.probe_sweep is not None:
        angles = cfg.probe_sweep.linspace()
        return ("phi_deg", [math.degrees(phi) for phi in angles],
                np.array([probe_from_angle(phi) for phi in angles]), cfg.time_grid.start)
    times = cfg.time_grid.linspace()
    return "t", times.tolist(), cfg.probe, times


def _sweep_points(cfg: ExperimentConfig):
    """The sweep column name and its (sweep value, probe, t) points."""
    sweep_name, values, probes, times = _sweep(cfg)
    if np.ndim(times) == 0:
        return sweep_name, [(value, probe, times) for value, probe in zip(values, probes)]
    return sweep_name, [(value, probes, value) for value in values]


def cmd_qfi(cfg: ExperimentConfig, out_path, log) -> int:
    """One QFI record and one state-derivative cross-check over the whole
    time grid. A failed row, or every row when a stacked call raises, is a
    nan row with its error logged; the closed form stays per row."""
    if cfg.probe_sweep is not None:
        raise ConfigError("probe_sweep", "qfi sweeps time only")
    theta = cfg.model.true_value
    times = cfg.time_grid.linspace()
    try:
        rec = qfi_record(cfg.model, theta, times, cfg.probe)
        failures = rec.failures
    except NumericsError as exc:
        failures = (exc,) * len(times)
    ok = np.array([failure is None for failure in failures])
    # Cross-check of the rows that did not fail: a failure blanks their
    # route_deviation, not the rows.
    cross_failure = None
    try:
        f_state = iter(qfi_state_derivative(cfg.model, theta, times[ok], cfg.probe))
    except NumericsError as exc:
        cross_failure = exc
    with _csv_rows(out_path, ["t", "F", "sqrtF", "K", "I", "sqrtI", "gap",
                              "F_closed_form", "route_deviation"]) as row:
        for i, t in enumerate(times):
            if failures[i] is not None:
                log(f"t={t}: {failures[i]}")
                row([t, None, None, None, None, None, None, None, None])
                continue
            try:
                f_closed = qfi_closed_form(cfg.model, theta, float(t), cfg.probe)
            except (UnsupportedFamily, UnsupportedProbe):
                f_closed = None
            deviation = None
            if cross_failure is None:
                deviation = _route_deviation([rec.F[i], next(f_state), f_closed])
            else:
                log(f"t={t}: cross-check {cross_failure}")
            row([t, rec.F[i], math.sqrt(rec.F[i]), rec.K[i], rec.I[i], math.sqrt(rec.I[i]),
                 rec.gap[i], f_closed, deviation])
    return EXIT_OK if ok.all() else EXIT_PARTIAL


def cmd_estimate(cfg: ExperimentConfig, out_path, log) -> int:
    if cfg.estimation is None:
        raise ConfigError("estimation", "required for the estimate subcommand")
    sweep_name, points = _sweep_points(cfg)
    theta = cfg.model.true_value
    spec = cfg.estimation
    try:
        A = check_projector(cfg.measurement)
    except NotProjector as exc:
        raise ConfigError("measurement.matrix", f"estimate needs a rank-1 projector: {exc}")
    partial = False
    with (_csv_rows(out_path, [sweep_name, "p0", "precision", "precision_err",
                               "mean_estimate", "bias_pct", "failed_trials"]) as row,
          _csv_rows(out_path + ".trials.csv", [sweep_name, "trial", "estimate"]) as trial_row):
        for idx, (sweep_value, probe, t) in enumerate(points):
            p0 = None
            try:
                p0 = outcome_probability(evolve(cfg.model, theta, t, probe).phi_out, A)
                # one bracket for the whole sweep, or one per point
                bracket = spec.bracket[idx if len(spec.bracket) > 1 else 0]
                run = run_trials(cfg.model, t, probe, A, p0, spec.n, spec.trials,
                                 spec.seed, bracket)
                if run.non_monotone_scan:
                    log(f"{sweep_name}={sweep_value}: p(theta) is not monotone on the "
                        "bracket; each estimate is the first root")
                bias_pct = 100.0 * (run.mean - theta) / theta
                row([sweep_value, p0, run.precision, run.precision_err,
                     run.mean, bias_pct, run.failed_trials])
                for k, est in zip(run.solved_trials, run.estimates):
                    trial_row([sweep_value, k, est])
            except (AllTrialsFailed, NumericsError) as exc:
                log(f"{sweep_name}={sweep_value}: {exc}")
                row([sweep_value, p0, None, None, None, None, spec.trials])
                partial = True
    return EXIT_PARTIAL if partial else EXIT_OK


def cmd_optimal(cfg: ExperimentConfig, out_path, log) -> int:
    """One evolution, one generator and one residual fit over all points,
    and two more evolutions for precision_ep. A row whose F fails, or every
    row when a stacked call raises, is a nan row with its error logged."""
    sweep_name, values, probes, t = _sweep(cfg)
    theta = cfg.model.true_value
    try:
        observable = measure.Observable(cfg.measurement, "configured")
    except NotHermitian as exc:
        raise ConfigError("measurement.matrix", f"optimal needs a Hermitian observable: {exc}")
    try:
        phi = evolve(cfg.model, theta, t, probes).phi_out
        f = measure.centered_generator_state(cfg.model, theta, t, phi)
        F, failures = qfi_centered(f)
        report = measure.optimality_residual(phi, f, observable)
        # nan where degenerate: flagged, not dropped, as the paper's own
        # tables have blank entries at probability extrema
        precision = measure.error_propagation_precision(cfg.model, theta, t, probes, phi,
                                                        observable)
    except NumericsError as exc:
        failures = (exc,) * len(values)
    partial = False
    with _csv_rows(out_path, [sweep_name, "residual", "c_real", "c_imag_fraction",
                              "precision_ep", "sqrtF"]) as row:
        for i, sweep_value in enumerate(values):
            if failures[i] is not None:
                log(f"{sweep_name}={sweep_value}: {failures[i]}")
                row([sweep_value, None, None, None, None, None])
                partial = True
                continue
            if report.failures[i] is not None:
                log(f"{sweep_name}={sweep_value}: {report.failures[i]}")
                partial = True
            row([sweep_value, report.residual[i], report.c[i].real, report.c_imag_fraction[i],
                 precision[i], math.sqrt(F[i])])
    return EXIT_PARTIAL if partial else EXIT_OK


def cmd_dilate(cfg: ExperimentConfig, out_path, log) -> int:
    """One dilated and one direct evolution over the whole time grid. A
    numerical failure of either fails every row of the config."""
    if cfg.probe_sweep is not None:
        raise ConfigError("probe_sweep", "dilate sweeps time only")
    theta = cfg.model.true_value
    times = cfg.time_grid.linspace()
    H = hamiltonian(cfg.model, theta)
    sys_ = dilation.build_dilation(H)
    eta_residual = float(np.linalg.norm(sys_.eta @ H - linalg.dagger(H) @ sys_.eta))
    partial = False
    try:
        Psi_t, recovered, success = dilation.evolve_dilated(sys_, cfg.probe, times)
        direct = evolve(cfg.model, theta, times, cfg.probe)
    except NumericsError as exc:
        log(f"t={times[0]}..{times[-1]}: {exc}")
        rows = [[t, None, None, None, eta_residual] for t in times]
        partial = True
    else:
        total = np.sum(np.abs(Psi_t) ** 2, axis=1)
        drift = np.abs(total - total[0]) / total[0]
        fidelity = np.abs(np.sum(recovered.conj() * direct.phi_out, axis=1))
        rows = [[t, f, p, d, eta_residual]
                for t, f, p, d in zip(times, fidelity, success, drift)]
    with _csv_rows(out_path, ["t", "fidelity", "success_prob", "norm_drift",
                              "eta_residual"]) as row:
        for values in rows:
            row(values)
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
    parser.add_argument("command", choices=[*COMMANDS, "validate"])
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's estimation seed")
    parser.add_argument("--out", default=None, help="override the config's csv_path")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def log(message):
        if not args.quiet:
            print(message, file=sys.stderr)

    try:
        cfg = load_config(args.config)
        if args.seed is not None and cfg.estimation is not None:
            if args.seed < 0:
                raise ConfigError("--seed", f"must be >= 0, got {args.seed}")
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
    except OSError as exc:
        print(f"config error: output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if code == EXIT_PARTIAL:
        log("completed with failed rows (exit 3)")
    return code


if __name__ == "__main__":
    sys.exit(main())
