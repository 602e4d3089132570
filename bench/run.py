#!/usr/bin/env python3
"""Benchmark of the npmlmix fit engine.

Run from anywhere inside a checkout of the repository:

    python3 bench/run.py --workload consistency-pk1600 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one process

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes one
untraced and one traced pass and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("consistency-pk1600", "certified-cli", "sieve-nested")

# One experiment worker and one BLAS thread: steady, deterministic timings.
THREAD_ENV = {"NPML_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "op_s_max": "s",
    "peak_rss_mb": "MiB",
    "cert_sup_max": "1",
    "ok_frac": "fraction",
}


class BenchError(Exception):
    """The benchmark cannot run here (no package sources, a failed probe)."""


def import_package():
    """Put the checkout's src/ first on the path and import npmlmix from it."""
    package = SRC / "npmlmix"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no package sources at {package}")
    sys.path.insert(0, str(SRC))
    import npmlmix

    if Path(npmlmix.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported npmlmix from {npmlmix.__file__}, not from {package}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "NPML_THREADS": os.environ["NPML_THREADS"],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "npmlmix").rglob("*.py")))


def make_workdir() -> str:
    WORK.mkdir(exist_ok=True)
    return tempfile.mkdtemp(dir=WORK)


def probe_setup(workload: str, seeds) -> float:
    """Import the package and build the workload's inputs; seconds taken."""
    start = time.perf_counter()
    import_package()
    from workloads import WORKLOADS

    workdir = make_workdir()
    try:
        WORKLOADS[workload].build(seeds, workdir)
        return time.perf_counter() - start
    finally:
        shutil.rmtree(workdir)


def setup_seconds(workload: str, seeds) -> float:
    """Median set-up time over fresh interpreters."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload]
    argv += ["--data-seeds", ",".join(str(s) for s in seeds)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


class Runner:
    """Runs passes over one workload's operations and accounts for failures."""

    def __init__(self, workload, ops, seed: int):
        self.workload = workload
        self.ops = ops
        self.verify_index = seed % len(ops)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.fits = {}
        self.digests = {}
        self.last = {}

    def _fail(self, op, exc):
        self.failed += 1
        self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")

    def run_pass(self, tracer=None):
        """One pass over every operation; returns (wall seconds, latencies)."""
        results, latencies = [], []
        start = time.perf_counter()
        for index, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = index
            t0 = time.perf_counter()
            try:
                results.append((op, self.workload.run(op), None))
            except Exception as exc:  # an operation that raises is a failure
                results.append((op, None, exc))
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op = None
        wall = time.perf_counter() - start
        self.attempted += len(results)
        for op, result, exc in results:
            self._check(op, result, exc)
        return wall, latencies

    def _check(self, op, result, exc):
        if exc is None:
            try:
                fits, digest = self.workload.check(op, result)
                if self.digests.setdefault(op.name, digest) != digest:
                    raise AssertionError("output differs from an earlier repeat of the operation")
            except Exception as caught:
                exc = caught
            else:
                self.fits[op.name] = fits
                self.last[op.name] = result
        if exc is not None:
            self._fail(op, exc)

    def verify(self):
        """Redo one operation's fit through the library and compare."""
        op = self.ops[self.verify_index]
        if op.name not in self.last:
            return
        try:
            self.workload.verify(op, self.last[op.name])
        except Exception as exc:
            self._fail(op, exc)

    def all_fits(self):
        return [fit for fits in self.fits.values() for fit in fits]


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> dict:
    walls, p50s, maxes = [], [], []
    start = time.perf_counter()
    while True:
        wall, latencies = runner.run_pass()
        walls.append(wall)
        p50s.append(statistics.median(latencies))
        maxes.append(max(latencies))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.verify()
    fits = runner.all_fits()
    # with no fit left every operation failed, so the result is not correct anyway
    sups = [fit.sup for fit in fits] or [0.0]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "op_s_p50": statistics.median(p50s),
        "op_s_max": statistics.median(maxes),
        "peak_rss_mb": peak_rss,
        "cert_sup_max": max(sups),
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    # Also reported, outside BENCHMARK.json: these are 0 on some workloads.
    metrics["passes"] = (len(walls), "count")
    metrics["certified_frac"] = (sum(f.certified for f in fits) / len(fits) if fits else 0.0, "fraction")
    metrics["cert_excess_max"] = (max(max(s - 1.0, 0.0) for s in sups), "1")
    metrics["failed_frac"] = (runner.failed / runner.attempted, "fraction")
    return metrics


def traced_pass(runner: Runner) -> dict:
    """One pass with every binding wrapped; the per-layer metrics of that pass."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall, _ = runner.run_pass(tracer)
    finally:
        tracer.restore()
    return tracing.layer_metrics(tracer, wall)


def per_layer(runner: Runner) -> dict:
    untraced_wall, _ = runner.run_pass()
    metrics = traced_pass(runner)
    runner.verify()
    traced_wall = metrics["trace.wall_s"][0]
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["src.lines"] = (src_lines(), "count")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, data_seeds) -> tuple:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    seeds = tuple(data_seeds) if data_seeds else workload.default_seeds
    setup_s = None if trace else setup_seconds(name, seeds)
    workdir = make_workdir()
    try:
        runner = Runner(workload, workload.build(seeds, workdir), seed)
        metrics = per_layer(runner) if trace else end_to_end(runner, seconds, setup_s)
    finally:
        shutil.rmtree(workdir)
    for line in runner.errors:
        print(f"FAILED {name} {line}")
    return runner, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="picks the operation that verify() redoes")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--data-seeds",
        type=lambda text: tuple(int(v) for v in text.split(",")),
        default=None,
        help="comma-separated data seeds (default: the workload's own set)",
    )
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all" and args.data_seeds:
        parser.error("--data-seeds needs a single workload")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_ENV)
    try:
        if args.probe_setup:
            print(repr(probe_setup(args.workload, args.data_seeds)))
            return 0
        import_package()
        print("# env " + json.dumps(environment()))
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        attempted = failed = 0
        report = {}
        for name in names:
            runner, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace), args.data_seeds)
            attempted += runner.attempted
            failed += runner.failed
            for metric, (value, unit) in metrics.items():
                print(f"{name:20s} {metric:48s} {value:.6g} {unit}")
                key = metric if len(names) == 1 else f"{name}:{metric}"
                report[key] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if len(names) == 1 and not args.trace:
        report = {k: v for k, v in report.items() if k in END_TO_END_UNITS}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
