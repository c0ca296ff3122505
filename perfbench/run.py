"""nhmetro benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of an nhmetro checkout (the directory holding `src/` and
`configs/`):

    python3 perfbench/run.py --workload mle_sweep --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from a separate traced run. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import LayerTracer  # noqa: E402

# BLAS/OpenMP pools pinned to one thread; set before NumPy is first imported.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
SETUP_REPEATS = 7  # fresh processes per run; setup_s is their median
# A generator call past 64 + 128 quadrature nodes (two kernel calls a node).
DEEP_KERNEL_CALLS = 2 * (64 + 128)
MIN_TRACE_COVERAGE = 0.9

# Per workload: layers that must record calls, and (caller, callee) layer
# edges that only show if the import sites were rebound
# (`from .dynamics import evolve`, `from .fisher import generator_quadrature`).
COVERAGE = {
    "mle_sweep": (("cli", "config", "linalg", "models", "dynamics", "estimate"),
                  (("cli", "config"), ("cli", "dynamics"), ("cli", "estimate"),
                   ("estimate", "dynamics"))),
    "qfi_sweep": (("cli", "config", "linalg", "models", "dynamics", "fisher", "measure"),
                  (("cli", "config"), ("cli", "dynamics"), ("cli", "fisher"),
                   ("fisher", "dynamics"), ("measure", "dynamics"), ("measure", "fisher"))),
    "dilation_scan": (("cli", "config", "linalg", "models", "dynamics", "dilation"),
                      (("cli", "config"), ("cli", "dynamics"), ("cli", "dilation"),
                       ("dilation", "linalg"))),
}

FUNCTIONS = {
    "linalg": ("mat_exp", "eig_decompose", "herm_funct"),
    "models": ("hamiltonian",),
    "dynamics": ("evolve", "survival_probability", "check_projector"),
    "fisher": ("generator_quadrature", "generator_fd", "qfi_state_derivative", "qfi_record"),
    "measure": ("optimality_residual", "error_propagation_precision"),
    "estimate": ("run_trials", "mle_invert", "sample_shots"),
    "dilation": ("solve_eta", "build_dilation", "evolve_dilated"),
    "config": ("load_config",),
}

# CSV column whose "nan" marks a failed row, per subcommand.
FAILURE_COLUMN = {"qfi": "F", "optimal": "residual", "dilate": "fidelity"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference (default seed only)")
    return parser.parse_args(argv)


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu or platform.processor(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {k: os.environ.get(k) for k in THREAD_ENV}}


class Runner:
    """Writes each job's config once and runs it in-process through `cli.main`."""

    def __init__(self, cli, work: Path, tag: str, jobs):
        self.cli = cli
        self.configs = work / tag / "configs"
        self.out = work / tag / "out"
        self.configs.mkdir(parents=True)
        self.out.mkdir(parents=True)
        for job in jobs:
            (self.configs / f"{job.name}.json").write_text(json.dumps(job.config, indent=1))

    def config_path(self, job) -> str:
        return str(self.configs / f"{job.name}.json")

    def run(self, job):
        """(seconds, exit code, {output file name: text})."""
        out = self.out / f"{job.name}.csv"
        argv = [job.command, "--config", self.config_path(job), "--out", str(out), "--quiet"]
        if job.cli_seed is not None:
            argv += ["--seed", str(job.cli_seed)]
        start = time.perf_counter()
        code = self.cli.main(argv)
        elapsed = time.perf_counter() - start
        paths = [out] + ([Path(f"{out}.trials.csv")] if job.command == "estimate" else [])
        return elapsed, code, {p.name: p.read_text() for p in paths if p.exists()}


def completed_rows(job, code: int, outputs: dict) -> int:
    if code in (1, 2):  # config error or numerical abort: every row failed
        return 0
    if job.command == "estimate":
        _, rows = gate.parse_csv(outputs.get(f"{job.name}.csv.trials.csv", ""))
        return len(rows)
    head, rows = gate.parse_csv(outputs.get(f"{job.name}.csv", ""))
    col = head.index(FAILURE_COLUMN[job.command]) if head else 0
    return sum(row[col] != "nan" for row in rows)


class Measurement:
    def __init__(self):
        self.busy = 0.0
        self.passes = 0
        self.job_times = {}  # job name -> its time in each pass
        self.attempted = self.completed = 0
        self.csv_rows = self.csv_bytes = 0
        self.first = None
        self.errors = []

    @property
    def failed(self) -> int:
        return self.attempted - self.completed

    @property
    def config_times(self) -> list:
        return [t for times in self.job_times.values() for t in times]

    def pass_seconds(self) -> float:
        """One pass's time, summed from each job's median over the passes, so
        a burst of machine noise in one pass does not count."""
        return sum(statistics.median(t) for t in self.job_times.values())


def measure(runner: Runner, jobs, seconds: float) -> Measurement:
    """Closed loop over whole passes of `jobs` until `seconds` of CLI time."""
    m = Measurement()
    while m.passes == 0 or m.busy < seconds:
        outputs = {}
        for job in jobs:
            elapsed, code, out = runner.run(job)
            m.busy += elapsed
            m.job_times.setdefault(job.name, []).append(elapsed)
            m.attempted += job.expected_rows
            m.completed += completed_rows(job, code, out)
            for text in out.values():
                m.csv_rows += max(text.count("\n") - 1, 0)
                m.csv_bytes += len(text.encode())
            outputs.update(out)
        m.passes += 1
        if m.first is None:
            m.first = outputs
        elif outputs != m.first:
            diff = sorted(k for k in outputs.keys() | m.first.keys()
                          if outputs.get(k) != m.first.get(k))
            m.errors.append(f"pass {m.passes} differs from pass 1 in {diff[:3]}")
    return m


def setup_seconds(root: Path, config: str) -> float:
    """Median wall time of a fresh `nhmetro validate` process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "nhmetro.cli", "validate",
                               "--config", config, "--quiet"],
                              cwd=root, env=env, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"nhmetro validate exited {proc.returncode}: {proc.stderr!r}")
    return statistics.median(times)


def check_outputs(wl, seed: int, warm: dict, m: Measurement, reference) -> list:
    errors = list(m.errors)
    for name, text in warm.items():
        if not m.first.get(name, "").startswith(text):
            errors.append(f"{name}: warm-up output is not a prefix of the measured output")
    for job in wl.jobs:
        names = [n for n in m.first if n == f"{job.name}.csv" or n.startswith(f"{job.name}.csv.")]
        for name in names:
            errors += gate.check_bounds(name, m.first[name], job.near_ep)
            if reference is None:
                continue
            ref = reference.get(name)
            if ref is None:
                errors.append(f"{name}: no reference output")
            elif seed == workloads.DEFAULT_SEED or job.seed_free:
                errors += gate.compare(name, m.first[name], ref)
            elif name == f"{job.name}.csv" and job.command == "estimate":
                errors += gate.compare(name, m.first[name], ref, columns={"p0"})
    return errors


def check_coverage(workload: str, tracer: LayerTracer, stale, commands, wall: float) -> list:
    """`stale`: what `tracer.stale_references()` gave while installed."""
    errors = [f"tracer missed import site {s}" for s in stale]
    layers, edges = COVERAGE[workload]
    totals = tracer.layer_totals()
    errors += [f"layer {layer} recorded 0 calls" for layer in layers if totals[layer][0] == 0]
    layer_edges = tracer.layer_edges()
    errors += [f"no {a} -> {b} calls traced" for a, b in edges if layer_edges[(a, b)] == 0]
    errors += [f"cli.cmd_{c} recorded 0 calls" for c in commands
               if tracer.calls[f"cli.cmd_{c}"] == 0]
    covered = sum(s for _, s in totals.values()) / wall
    if covered < MIN_TRACE_COVERAGE:
        errors.append(f"layer self times cover {covered:.3f} of traced wall time "
                      f"(< {MIN_TRACE_COVERAGE})")
    return errors


def layer_metrics(tracer: LayerTracer, m: Measurement, overhead: float) -> dict:
    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.self_share"] = (self_s / m.busy, "frac")
    for layer, names in FUNCTIONS.items():
        for name in names:
            key = f"{layer}.{name}"
            out[f"{key}.calls"] = (tracer.calls[key], "count")
            out[f"{key}.us_per_call"] = (1e6 * ratio(tracer.inclusive[key], tracer.calls[key]), "us")
    calls, kernels = tracer.calls, tracer.generator_kernel_calls
    out["estimate.inversions_per_trial"] = (
        ratio(calls["estimate.mle_invert"], calls["estimate.sample_shots"]), "ratio")
    out["estimate.evolves_per_inversion"] = (
        ratio(tracer.edges[("estimate.mle_invert", "dynamics.evolve")],
              calls["estimate.mle_invert"]), "ratio")
    out["fisher.kernel_calls_per_generator"] = (ratio(sum(kernels), len(kernels)), "ratio")
    out["fisher.deep_quadrature_share"] = (
        ratio(sum(k > DEEP_KERNEL_CALLS for k in kernels), len(kernels)), "frac")
    out["dynamics.projector_checks_per_probability"] = (
        ratio(calls["dynamics.check_projector"], calls["dynamics.survival_probability"]), "ratio")
    out["cli.csv_rows"] = (m.csv_rows, "count")
    out["cli.csv_bytes"] = (m.csv_bytes, "bytes")
    out["cli.failed_frac"] = (ratio(m.failed, m.attempted), "frac")
    out["trace_overhead"] = (overhead, "ratio")
    return out


def run(args, root: Path, work: Path) -> dict:
    from nhmetro import cli
    from nhmetro.config import load_config

    if args.write_reference and args.seed != workloads.DEFAULT_SEED:
        raise SystemExit(f"references are captured at seed {workloads.DEFAULT_SEED} only")
    wl = workloads.build(args.workload, args.seed, root)
    runner = Runner(cli, work, "measured", wl.jobs)
    warm_runner = Runner(cli, work, "warmup", wl.warmup)
    for r, jobs in ((runner, wl.jobs), (warm_runner, wl.warmup)):
        for job in jobs:
            load_config(r.config_path(job))
    info = {"machine": machine(), "workload": wl.name, "seed": args.seed,
            "jobs": len(wl.jobs), "note": "no kernel, cgroup or CPU-frequency setting was changed"}

    setup_s = None if args.trace else setup_seconds(root, runner.config_path(wl.jobs[0]))
    warm = {}
    for job in wl.warmup:
        warm.update(warm_runner.run(job)[2])

    tracer = None
    if args.trace:
        untraced = measure(runner, wl.jobs, 0.0)
        tracer = LayerTracer().install()
        stale = tracer.stale_references()
        try:
            m = measure(runner, wl.jobs, args.seconds)
        finally:
            tracer.uninstall()
        overhead = m.pass_seconds() / untraced.pass_seconds()
    else:
        m = measure(runner, wl.jobs, args.seconds)

    if args.write_reference:
        info["reference_written"] = str(gate.write_reference(wl.name, m.first))
        reference = None
    else:
        reference = gate.load_reference(wl.name)
    errors = check_outputs(wl, args.seed, warm, m, reference)
    if tracer is not None:
        commands = sorted({job.command for job in wl.jobs})
        errors += check_coverage(wl.name, tracer, stale, commands, m.busy)
        metrics = layer_metrics(tracer, m, overhead)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "rows_per_s": (m.completed / m.passes / m.pass_seconds(), "1/s"),
            "config_s_p50": (statistics.median(m.config_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    info.update(passes=m.passes, config_samples=len(m.config_times), busy_s=m.busy,
                rows_completed=m.completed, rows_failed=m.failed,
                failed_frac=m.failed / m.attempted, errors=errors)
    print(json.dumps(info))
    return {"correct": not errors, "attempted": m.attempted, "failed": m.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "nhmetro" / "cli.py").is_file() or not (root / "configs").is_dir():
        print(f"error: {root} is not an nhmetro checkout (needs src/nhmetro and configs/)",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(root / "src"))
    import nhmetro
    if Path(nhmetro.__file__).resolve().parent != (root / "src" / "nhmetro").resolve():
        print(f"error: imported nhmetro from {nhmetro.__file__}, not from {root}/src",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    # Unwind on SIGTERM too, so the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
