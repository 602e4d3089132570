"""Span tracer that wraps the package's public functions from outside.

The package binds functions by name (``from .likelihood import
kernel_columns``), so a call is only seen when every binding it can go
through is replaced. ``Tracer.install`` patches each binding listed in
``_bindings`` with a wrapper around the original object and ``restore``
puts the originals back. Spans are kept in memory as
``[name, start, end, parent, op]`` and reduced to per-layer metrics by
``layer_metrics`` once the traced pass is over.

Counts marked "computed" are derived from argument and result shapes, so
they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("model", "likelihood", "solver", "measures", "data", "serialize", "experiments", "cli")

# kernel_columns is split by the function that called it.
_KERNEL_CALLERS = {
    "_dir_derivs_from_rows": "scan",
    "_insert_atom": "insert",
    "build_kernel_matrix": "table",
    "build_sieve_kernel_matrix": "sieve",
}
KERNEL_SPLITS = ("scan", "insert", "table", "sieve")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_kernel_block(counts, args, kwargs, result):
    counts["model.kernel_entries"] += result.shape[0] * result.shape[1]


def _count_kernel_columns(counts, args, kwargs, result, split):
    N, B = result.shape
    counts[f"likelihood.kernel_columns.{split}.points"] += B
    counts["likelihood.kernel_bytes"] += N * B * 8


def _count_em_fit(counts, args, kwargs, result):
    km = args[0] if args else kwargs["km"]
    iters = result[2]
    counts["solver.em_iters"] += iters
    counts["solver.em_flops"] += iters * 4 * km.N * km.m


def _count_fit(counts, args, kwargs, result, opts_index):
    opts = _arg(args, kwargs, opts_index, "opts")
    refine_tol = 1e-6 if opts is None else opts.refine_tol
    sup = result.certificate.sup_dir_derivative
    counts["solver.fits"] += 1
    counts[f"solver.stop.{result.status.replace('-', '_')}"] += 1
    counts["solver.certified"] += int(result.status == "converged" and sup <= 1.0 + refine_tol)
    counts["solver.cert_excess_max"] = max(counts["solver.cert_excess_max"], max(sup - 1.0, 0.0))


def _count_simulate(counts, args, kwargs, result):
    counts["data.individuals"] += result.N


def _count_write_json(counts, args, kwargs, result):
    counts["serialize.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_cli_main(counts, args, kwargs, result):
    counts[f"cli.exit.{result}"] += 1


def _count_certify_verdict(counts, args, kwargs, result):
    counts["cli.certify_optimal"] += int(result == 0)


def _bindings():
    """Every (owner, attribute, span name, counter) the tracer patches."""
    from npmlmix import cli, data, experiments, likelihood, measures, model, serialize, solver

    def each(owners, attr, name, count=None):
        return [(owner, attr, name, count) for owner in owners]

    fit_npml_count = functools.partial(_count_fit, opts_index=3)
    fit_sieve_count = functools.partial(_count_fit, opts_index=2)
    return (
        each((likelihood, model), "log_kernel_block", "model.log_kernel_block", _count_kernel_block)
        + each((model.PkExp, model.IdentityLocation), "evaluate_many", "model.evaluate_many")
        + each((likelihood, solver), "kernel_columns", "likelihood.kernel_columns", _count_kernel_columns)
        + each((likelihood, solver, cli), "build_sieve_kernel_matrix", "likelihood.build_sieve_kernel_matrix")
        + each((likelihood, solver, cli), "row_log_mixture", "likelihood.row_log_mixture")
        + each((solver,), "em_fit", "solver.em_fit", _count_em_fit)
        + each((solver, experiments, cli), "fit_npml", "solver.fit_npml", fit_npml_count)
        + each((solver, experiments, cli), "fit_sieve", "solver.fit_sieve", fit_sieve_count)
        + each((solver, cli), "certify", "solver.certify")
        + each((measures, solver), "new_uniform_grid_measure", "measures.new_uniform_grid_measure")
        + each((measures, experiments), "measure_distance", "measures.measure_distance")
        + each((measures.SieveBasis,), "quadrature", "measures.quadrature")
        + each((measures.SieveBasis,), "log_basis_values", "measures.log_basis_values")
        + each((data, experiments, cli, likelihood), "simulate_dataset", "data.simulate_dataset", _count_simulate)
        + each((data, experiments, cli), "apply_censoring", "data.apply_censoring")
        + each((serialize,), "read_json", "serialize.read_json")
        + each((serialize,), "write_json", "serialize.write_json", _count_write_json)
        + each((serialize,), "dataset_to_dict", "serialize.dataset_to_dict")
        + each((serialize,), "dataset_from_dict", "serialize.dataset_from_dict")
        + each((serialize,), "fit_to_dict", "serialize.fit_to_dict")
        + each((serialize,), "fit_from_dict", "serialize.fit_from_dict")
        + each((experiments, cli), "run_consistency_experiment", "experiments.run_consistency_experiment")
        + each((cli,), "main", "cli.main", _count_cli_main)
        + each((cli,), "cmd_simulate", "cli.cmd_simulate")
        + each((cli,), "cmd_fit", "cli.cmd_fit")
        + each((cli,), "cmd_certify", "cli.cmd_certify", _count_certify_verdict)
    )


def binding_snapshot() -> dict:
    """Identity of every patchable binding, to show nothing was left wrapped."""
    return {(id(owner), attr): id(owner.__dict__[attr]) for owner, attr, _, _ in _bindings()}


class Tracer:
    """Records spans and counts while ``op`` is set; passes calls through otherwise."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._saved = []

    def install(self):
        for owner, attr, name, count in _bindings():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, count):
        tracer = self
        split_kernel = name == "likelihood.kernel_columns"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span_name, split = name, None
            if split_kernel:
                split = _KERNEL_CALLERS.get(sys._getframe(1).f_code.co_name, "other")
                span_name = f"{name}.{split}"
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [span_name, perf_counter(), 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if count is not None:
                if split is None:
                    count(tracer.counts, args, kwargs, result)
                else:
                    count(tracer.counts, args, kwargs, result, split)
            return result

        return wrapper


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict:
    """Reduce spans and counts to the per-layer metrics (value, unit) of one pass."""
    spans = tracer.spans
    total = Counter()
    self_time = Counter()
    calls = Counter()
    for name, start, end, parent, _ in spans:
        duration = end - start
        total[name] += duration
        self_time[name] += duration
        calls[name] += 1
        if parent >= 0:
            self_time[spans[parent][0]] -= duration
    rounds = 0
    for name, _, _, parent, _ in spans:
        if name != "solver.em_fit":
            continue
        while parent >= 0 and spans[parent][0] != "solver.fit_npml":
            parent = spans[parent][3]
        rounds += parent >= 0
    counts = tracer.counts
    out = {}

    def put(metric, value, unit):
        out[metric] = (value, unit)

    put("model.log_kernel_block.s", total["model.log_kernel_block"], "s")
    put("model.log_kernel_block.calls", calls["model.log_kernel_block"], "count")
    put("model.evaluate_many.s", total["model.evaluate_many"], "s")
    put("model.kernel_entries", counts["model.kernel_entries"], "count")
    for split in KERNEL_SPLITS:
        span = f"likelihood.kernel_columns.{split}"
        put(f"{span}.s", total[span], "s")
        put(f"{span}.calls", calls[span], "count")
        put(f"{span}.points", counts[f"{span}.points"], "count")
        put(f"{span}.self_s", self_time[span], "s")
    put("likelihood.kernel_bytes", counts["likelihood.kernel_bytes"], "B")
    put("likelihood.build_sieve_kernel_matrix.self_s", self_time["likelihood.build_sieve_kernel_matrix"], "s")
    put("likelihood.row_log_mixture.s", total["likelihood.row_log_mixture"], "s")
    put("likelihood.row_log_mixture.calls", calls["likelihood.row_log_mixture"], "count")
    put("solver.em_fit.s", total["solver.em_fit"], "s")
    put("solver.em_fit.calls", calls["solver.em_fit"], "count")
    put("solver.em_iters", counts["solver.em_iters"], "count")
    put("solver.em_flops", counts["solver.em_flops"], "flop")
    put("solver.fit_npml.self_s", self_time["solver.fit_npml"], "s")
    put("solver.rounds", rounds, "count")
    put("solver.stop.converged", counts["solver.stop.converged"], "count")
    put("solver.stop.iter_limit", counts["solver.stop.iter_limit"], "count")
    fits = counts["solver.fits"]
    put("solver.certified_frac", counts["solver.certified"] / fits if fits else 0.0, "fraction")
    put("solver.cert_excess_max", counts["solver.cert_excess_max"], "1")
    put("solver.certify.s", total["solver.certify"], "s")
    put("solver.fit_sieve.self_s", self_time["solver.fit_sieve"], "s")
    put("measures.s", sum(v for k, v in self_time.items() if k.startswith("measures.")), "s")
    put("data.simulate_dataset.s", total["data.simulate_dataset"], "s")
    put("data.apply_censoring.s", total["data.apply_censoring"], "s")
    put("data.individuals", counts["data.individuals"], "count")
    put("serialize.read_json.s", total["serialize.read_json"], "s")
    put("serialize.write_json.s", total["serialize.write_json"], "s")
    put("serialize.bytes_written", counts["serialize.bytes_written"], "B")
    put(
        "experiments.run_consistency_experiment.self_s",
        self_time["experiments.run_consistency_experiment"],
        "s",
    )
    put("cli.main.self_s", self_time["cli.main"], "s")
    for code in (0, 1, 2):
        put(f"cli.exit.{code}", counts[f"cli.exit.{code}"], "count")
    put("cli.certify_optimal", counts["cli.certify_optimal"], "count")
    covered = 0.0
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_time.items() if k.split(".", 1)[0] == layer)
        covered += layer_self
        put(f"layer.{layer}.self_s", layer_self, "s")
    put("trace.wall_s", traced_wall, "s")
    put("trace.covered_frac", covered / traced_wall, "fraction")
    put("trace.spans", len(spans), "count")
    return out
