"""Tests of the benchmark itself: metric names, tracer coverage, exact counts.

Run from the repository root with ``python3 -m pytest bench -q`` (about two
minutes: every workload makes two traced passes).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

os.environ.update(run.THREAD_ENV)
run.import_package()

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Op  # noqa: E402

# Per-layer metrics that must see at least one span (or count) on a workload.
EXPECTED_NONZERO = {
    "consistency-pk1600": [
        "model.log_kernel_block.calls",
        "model.evaluate_many.s",
        "likelihood.kernel_columns.scan.calls",
        "likelihood.kernel_columns.insert.calls",
        "likelihood.kernel_columns.table.calls",
        "likelihood.row_log_mixture.calls",
        "solver.em_fit.calls",
        "solver.fit_npml.self_s",
        "solver.rounds",
        "measures.s",
        "data.simulate_dataset.s",
        "data.individuals",
        "experiments.run_consistency_experiment.self_s",
    ],
    "certified-cli": [
        "model.log_kernel_block.calls",
        "solver.em_fit.calls",
        "solver.certify.s",
        "data.simulate_dataset.s",
        "data.apply_censoring.s",
        "serialize.read_json.s",
        "serialize.write_json.s",
        "serialize.bytes_written",
        "cli.main.self_s",
        "cli.exit.0",
    ],
    "sieve-nested": [
        "likelihood.kernel_columns.sieve.calls",
        "likelihood.build_sieve_kernel_matrix.self_s",
        "solver.em_fit.calls",
        "solver.fit_sieve.self_s",
        "measures.s",
    ],
}
COMPUTED_COUNTS = (
    "model.kernel_entries",
    "likelihood.kernel_columns.scan.points",
    "likelihood.kernel_columns.insert.points",
    "likelihood.kernel_columns.table.points",
    "likelihood.kernel_columns.sieve.points",
    "likelihood.kernel_bytes",
    "solver.em_iters",
    "solver.em_flops",
    "solver.rounds",
)
PER_LAYER_EXTRA = {"trace.untraced_wall_s": "s", "trace.overhead_s": "s", "src.lines": "count"}


def _runner(name, workdir, seed=0):
    workload = WORKLOADS[name]
    return run.Runner(workload, workload.build(workload.default_seeds, str(workdir)), seed)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced passes of every workload, each in a fresh runner."""
    out = {}
    for name in WORKLOADS:
        passes = []
        for _ in range(2):
            runner = _runner(name, tmp_path_factory.mktemp(name))
            passes.append(run.traced_pass(runner))
            assert runner.failed == 0, runner.errors
        out[name] = passes
    return out


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    names = {k: unit for k, (_, unit) in tracing.layer_metrics(tracing.Tracer(), 1.0).items()}
    names.update(PER_LAYER_EXTRA)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == names
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


@pytest.mark.parametrize("name", list(EXPECTED_NONZERO))
def test_each_layer_metric_records_spans(traced, name):
    metrics = traced[name][0]
    for metric in EXPECTED_NONZERO[name]:
        assert metrics[metric][0] > 0, metric
    assert metrics["trace.covered_frac"][0] > 0.95


def test_layer_split_matches_predictions(traced):
    consistency = traced["consistency-pk1600"][0]
    assert consistency["likelihood.kernel_columns.scan.s"][0] > consistency["solver.em_fit.s"][0]
    cli = traced["certified-cli"][0]
    assert cli["solver.em_fit.s"][0] > 0.5 * cli["trace.wall_s"][0]
    sieve = traced["sieve-nested"][0]
    for metric in ("solver.fit_npml.self_s", "solver.rounds", "likelihood.kernel_columns.scan.calls"):
        assert sieve[metric][0] == 0, metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_computed_counts_repeat_exactly(traced, name):
    first, second = traced[name]
    for metric in COMPUTED_COUNTS:
        assert first[metric][0] == second[metric][0], metric


def test_untraced_run_installs_no_wrapper(tmp_path):
    before = tracing.binding_snapshot()
    runner = _runner("sieve-nested", tmp_path)
    workload = runner.workload

    class Watched:
        def __getattr__(self, attr):
            return getattr(workload, attr)

        def run(self, op):
            assert tracing.binding_snapshot() == before
            return workload.run(op)

    runner.workload = Watched()
    runner.run_pass()
    assert runner.attempted == len(runner.ops) and runner.failed == 0, runner.errors
    assert tracing.binding_snapshot() == before


def test_tracer_restores_every_binding(tmp_path):
    before = tracing.binding_snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    assert tracing.binding_snapshot() != before
    tracer.restore()
    assert tracing.binding_snapshot() == before


def test_failures_are_counted_not_raised():
    class Flaky:
        def run(self, op):
            if op.name == "raises":
                raise ValueError("boom")
            return op.payload

        def check(self, op, result):
            if result == "bad":
                raise CheckFailed("bad output")
            return [], str(result)

    ops = [Op("raises", None), Op("bad", "bad"), Op("good", "good")]
    runner = run.Runner(Flaky(), ops, seed=0)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (3, 2)
    ops[2] = Op("good", "changed")
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (6, 5)


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "sieve-nested", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
