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
import functools
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
from .fisher import qfi_closed_form, qfi_record, qfi_state_derivative
from .models import hamiltonian

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_PARTIAL = 3
# Rows per `%` operation of a CSV write: bounds the text and float lists a
# block of up to MAX_TRIALS trial rows builds at once.
CSV_CHUNK_ROWS = 10_000


@contextlib.contextmanager
def _csv_rows(path, header):
    """Open path, write the header row and yield write(rows), which formats
    a block of rows through one template of cells with 12 significant digits
    (a missing value is nan; a count below 10**12 prints as an integer), one
    operation per CSV_CHUNK_ROWS rows, writes them and flushes. Callers pass
    rows once complete, so completed rows survive a partial failure."""
    template = ",".join(["%.12g"] * len(header)) + "\n"
    with open(path, "w", newline="") as handle:
        def write(rows):
            for start in range(0, len(rows), CSV_CHUNK_ROWS):
                cells = np.ravel(rows[start:start + CSV_CHUNK_ROWS]).tolist()
                handle.write(template * (len(cells) // len(header)) % tuple(cells))
            handle.flush()

        handle.write(",".join(header) + "\n")
        handle.flush()
        yield write


def _write_table(out_path, header, values, columns, failures, log, notes=None) -> bool:
    """Write one row per sweep value: the value, then its cells of `columns`
    (one array over the values each, or nan for every cell), or nan cells
    where failures[i] is set. A failed row logs `name=value: <failure>`; any
    other row logs `name=value: <note>` where notes[i] is set, and keeps its
    cells. Returns whether any row failed."""
    failed = np.array([failure is not None for failure in failures])
    cells = np.where(failed, np.nan, np.broadcast_to(columns, (len(header) - 1, len(values))))
    with _csv_rows(out_path, header) as write:
        for value, failure, note in zip(values, failures, notes or (None,) * len(values)):
            if (message := failure or note) is not None:
                log(f"{header[0]}={value}: {message}")
        write(np.column_stack([values, *cells]))
    return bool(failed.any())


def _sweep(cfg: ExperimentConfig):
    """The sweep column name, its values, and the probes and times of its
    points, as `cmd_estimate` and `cmd_optimal` read them: probe angles in
    degrees, a (P, 2) stack of probes and the time grid's one time; or the
    time grid, the configured probe and the (N,) times."""
    if cfg.probe_sweep is not None:
        angles = cfg.probe_sweep.linspace()
        return "phi_deg", np.degrees(angles).tolist(), probe_from_angle(angles), cfg.time_grid.start
    times = cfg.time_grid.linspace()
    return "t", times.tolist(), cfg.probe, times


def cmd_qfi(cfg: ExperimentConfig, out_path, log) -> int:
    """One evolution and one QFI record over the whole time grid, and one call
    per cross-check over its rows that did not fail. A failed row, or every
    row when a stacked call raises, is a nan row with its error logged."""
    if cfg.probe_sweep is not None:
        raise ConfigError("probe_sweep", "qfi sweeps time only")
    theta = cfg.model.true_value
    times = cfg.time_grid.linspace()
    header = ["t", "F", "sqrtF", "K", "I", "sqrtI", "gap", "F_closed_form", "route_deviation"]
    try:
        rec = qfi_record(cfg.model, theta, times, evolve(cfg.model, theta, times, cfg.probe))
    except NumericsError as exc:
        _write_table(out_path, header, times.tolist(), np.nan, (exc,) * len(times), log)
        return EXIT_PARTIAL
    ok = np.array([failure is None for failure in rec.failures])
    # Production F, state derivative and closed form, nan where a route is
    # absent: a failing cross-check blanks route_deviation, not the rows; a
    # closed form that does not apply (family, or a probe other than |0>)
    # leaves F_closed_form nan.
    routes = np.full((3, len(times)), np.nan)
    routes[0] = rec.F
    notes = None
    try:
        routes[1, ok] = qfi_state_derivative(cfg.model, theta, times[ok], cfg.probe)
    except NumericsError as exc:
        notes = (f"cross-check {exc}",) * len(times)
    with contextlib.suppress(UnsupportedFamily, UnsupportedProbe):
        routes[2, ok] = qfi_closed_form(cfg.model, theta, times[ok], cfg.probe)
    deviation = np.full(len(times), np.nan)
    if notes is None:
        spread = np.nanmax(routes[:, ok], axis=0) - np.nanmin(routes[:, ok], axis=0)
        scale = np.nanmax(abs(routes[:, ok]), axis=0)
        deviation[ok] = np.where(scale == 0.0, 0.0, spread / scale)
    columns = [rec.F, np.sqrt(rec.F), rec.K, rec.I, np.sqrt(rec.I), rec.gap, routes[2], deviation]
    failed = _write_table(out_path, header, times.tolist(), columns, rec.failures, log, notes)
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_estimate(cfg: ExperimentConfig, out_path, log) -> int:
    if cfg.estimation is None:
        raise ConfigError("estimation", "required for the estimate subcommand")
    sweep_name, values, probes, times = _sweep(cfg)
    theta = cfg.model.true_value
    spec = cfg.estimation
    try:
        A = check_projector(cfg.measurement)
    except NotProjector as exc:
        raise ConfigError("measurement.matrix", f"estimate needs a rank-1 projector: {exc}")
    if theta == 0.0:
        raise ConfigError(f"model.params.{cfg.model.estimated_param}",
                          "estimate needs a nonzero true value: bias_pct is relative to it")
    partial = False
    with (_csv_rows(out_path, [sweep_name, "p0", "precision", "precision_err",
                               "mean_estimate", "bias_pct", "failed_trials"]) as write,
          _csv_rows(out_path + ".trials.csv", [sweep_name, "trial", "estimate"]) as write_trials):
        points = zip(values, np.broadcast_to(probes, (len(values), 2)),
                     np.broadcast_to(times, len(values)))
        for idx, (sweep_value, probe, t) in enumerate(points):
            p0 = math.nan
            try:
                p0 = outcome_probability(evolve(cfg.model, theta, t, probe).phi_out, A)
                run = run_trials(cfg.model, t, probe, A, p0, spec.n, spec.trials,
                                 spec.seed, spec.bracket[idx])
                if run.non_monotone_scan:
                    log(f"{sweep_name}={sweep_value}: p(theta) is not monotone on the "
                        "bracket; each estimate is the first root")
                bias_pct = 100.0 * (run.mean - theta) / theta
                write([[sweep_value, p0, run.precision, run.precision_err,
                        run.mean, bias_pct, run.failed_trials]])
                write_trials(np.column_stack([np.full(len(run.estimates), sweep_value),
                                              run.solved_trials, run.estimates]))
            except (AllTrialsFailed, NumericsError) as exc:
                log(f"{sweep_name}={sweep_value}: {exc}")
                write([[sweep_value, p0, math.nan, math.nan, math.nan, math.nan, spec.trials]])
                partial = True
    return EXIT_PARTIAL if partial else EXIT_OK


def cmd_optimal(cfg: ExperimentConfig, out_path, log) -> int:
    """One evolution, one QFI record and one residual fit over all points,
    and two more evolutions for precision_ep. A row whose F fails, or every
    row when a stacked call raises, is a nan row with its error logged.
    When precision_ep's own evolutions raise (theta +- eps leaves the
    model's range next to an edge), only that column is nan, and each row
    logs `precision_ep: <error>`."""
    sweep_name, values, probes, t = _sweep(cfg)
    theta = cfg.model.true_value
    try:
        observable = measure.Observable(cfg.measurement, "configured")
    except NotHermitian as exc:
        raise ConfigError("measurement.matrix", f"optimal needs a Hermitian observable: {exc}")
    header = [sweep_name, "residual", "c_real", "c_imag_fraction", "precision_ep", "sqrtF"]
    try:
        res = evolve(cfg.model, theta, t, probes)
        rec = qfi_record(cfg.model, theta, t, res)
        report = measure.optimality_residual(res.phi_out, rec.f, observable)
    except NumericsError as exc:
        _write_table(out_path, header, values, np.nan, (exc,) * len(values), log)
        return EXIT_PARTIAL
    notes = report.failures
    try:
        # nan where degenerate: flagged, not dropped, as the paper's own
        # tables have blank entries at probability extrema
        precision = measure.error_propagation_precision(cfg.model, theta, t, probes,
                                                        res.phi_out, observable)
    except NumericsError as exc:
        # a ZeroG row keeps its own note: its precision_ep is nan either way
        precision = np.full(len(values), np.nan)
        notes = [note or f"precision_ep: {exc}" for note in notes]
    columns = [report.residual, report.c.real, report.c_imag_fraction, precision, np.sqrt(rec.F)]
    failed = _write_table(out_path, header, values, columns, rec.failures, log, notes)
    return EXIT_PARTIAL if failed or any(note is not None for note in notes) else EXIT_OK


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
    code, columns = EXIT_OK, np.full((3, len(times)), np.nan)
    try:
        Psi_t, recovered, success = dilation.evolve_dilated(sys_, cfg.probe, times)
        direct = evolve(cfg.model, theta, times, cfg.probe)
    except NumericsError as exc:
        log(f"t={times[0]}..{times[-1]}: {exc}")
        code = EXIT_PARTIAL
    else:
        total = np.sum(np.abs(Psi_t) ** 2, axis=1)
        drift = np.abs(total - total[0]) / total[0]
        fidelity = np.abs(np.sum(recovered.conj() * direct.phi_out, axis=1))
        columns = [fidelity, success, drift]
    with _csv_rows(out_path, ["t", "fidelity", "success_prob", "norm_drift",
                              "eta_residual"]) as write:
        write(np.column_stack([times, *columns, np.full(len(times), eta_residual)]))
    return code


COMMANDS = {
    "qfi": cmd_qfi,
    "estimate": cmd_estimate,
    "optimal": cmd_optimal,
    "dilate": cmd_dilate,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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

    # Overflow and nan surface as typed failures (NonFinite, a nan row), so
    # NumPy's floating-point warnings would only print ahead of them.
    try:
        with np.errstate(all="ignore"):
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
