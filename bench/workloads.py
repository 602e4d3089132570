"""The benchmark's three workloads: inputs, operations and output checks.

Each workload is a closed loop with one caller. ``build`` makes the inputs
from the data seeds; ``run`` performs one operation; ``check`` validates its
output cheaply and returns the fits it produced; ``verify`` redoes one
operation's fit through the library, outside the timed passes, and checks
the parts of the output the operation itself does not expose.

Functions of the package are looked up on their module at call time, so a
tracer that patches the module bindings sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from npmlmix import cli, experiments, likelihood, serialize, solver
from npmlmix.data import simulate_dataset
from npmlmix.measures import MixingMeasure, SieveBasis
from npmlmix.model import IdentityLocation, ModelSpec, PkExp, TimeDesign
from npmlmix.solver import FitOptions

# the solver's largest tolerated log-likelihood drop between trace entries
TRACE_SLACK = 1e-13
# recomputing a certificate from outside may differ by rounding only
CERT_RTOL = 1e-12

TD2 = TimeDesign(((0.0, 1.0), (1.0, 2.0)))
TD4 = TimeDesign(((0.0, 0.75), (0.75, 1.5), (1.5, 2.25), (2.25, 3.0)))
PK = ModelSpec(p=2, n=4, sigma=0.2, f=PkExp(), time_design=TD4)
PK_TRUTH = MixingMeasure(np.array([[1.0, 0.3], [2.0, 0.8]]), [0.5, 0.5])
PK_BOX = ((0.5, 2.5), (0.05, 1.2))
LOC = ModelSpec(p=1, n=2, sigma=0.3, f=IdentityLocation(), time_design=TD2)
LOC_TRUTH = MixingMeasure(np.array([[0.7], [1.8]]), [0.5, 0.5])
LOC_BOX = ((0.0, 2.5),)

CONSISTENCY_OPTS = FitOptions(
    tol_rel_loglik=1e-11, max_em_iters=4000, prune_eps=1e-6, refine_grid=33, max_refinements=12
)
CLI_FIT_ARGS = ["--method", "npml", "--box", "0.5,2.5;0.05,1.2", "--grid", "5", "--tol", "1e-14", "--max-iters", "1000000"]
CLI_FIT_OPTS = FitOptions(tol_rel_loglik=1e-14, max_em_iters=1_000_000)
CLI_CERTIFY_RESOLUTION = 65


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


@dataclass(frozen=True)
class Op:
    name: str
    payload: object


@dataclass(frozen=True)
class Fit:
    """What the end-to-end metrics need from one fit; status None when not reported."""

    status: Optional[str]
    sup: float
    refine_tol: float

    @property
    def certified(self) -> bool:
        return self.status in (None, "converged") and self.sup <= 1.0 + self.refine_tol


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(np.asarray(part, dtype=float)).tobytes())
    return h.hexdigest()


def _check_trace(trace) -> None:
    trace = np.asarray(trace, dtype=float)
    _require(trace.size >= 1 and bool(np.all(np.isfinite(trace))), "log-likelihood trace is not finite")
    _require(bool(np.all(np.diff(trace) >= -TRACE_SLACK)), "log-likelihood trace decreases")


def _check_sup(reported: float, recomputed: float) -> None:
    _require(
        math.isclose(reported, recomputed, rel_tol=CERT_RTOL, abs_tol=0.0),
        f"certificate sup {reported!r} but recomputed {recomputed!r}",
    )


def _check_discrete_fit(ds, fit, box, opts) -> str:
    """Full checks of a library FitResult; returns its digest."""
    _check_trace(fit.loglik_trace)
    _require(fit.final_loglik == float(fit.loglik_trace[-1]), "final log-likelihood is not the trace end")
    cert = solver.certify(ds, fit.measure, box, opts.refine_grid)
    _check_sup(fit.certificate.sup_dir_derivative, cert.sup_dir_derivative)
    return _digest(fit.measure.atoms, fit.measure.weights, [fit.final_loglik])


class ConsistencyPk1600:
    """One consistency-experiment cell at N=1600 per operation."""

    name = "consistency-pk1600"
    default_seeds = (0, 1, 2, 3)
    N = 1600

    def build(self, seeds, workdir):
        return [
            Op(
                f"cell-{seed}",
                experiments.ExperimentConfig(
                    kind="consistency",
                    spec=PK,
                    truth=PK_TRUTH,
                    box=PK_BOX,
                    initial_counts=(7, 7),
                    n_schedule=(self.N,),
                    seeds=(seed,),
                    options=CONSISTENCY_OPTS,
                ),
            )
            for seed in seeds
        ]

    def run(self, op):
        return experiments.run_consistency_experiment(op.payload)

    def check(self, op, rows):
        _require(len(rows) == 1, "a single-cell experiment must report one row")
        row = rows[0]
        _require(row.N == self.N and row.seed == op.payload.seeds[0], "row does not match its cell")
        _require(1 <= row.atom_count <= row.N + 1, "atom count outside [1, N + 1]")
        _require(row.distance_to_truth >= 0.0 and row.certificate_sup > 0.0, "row values out of range")
        # The report row carries no status; the traced run and verify() see it.
        fit = Fit(None, row.certificate_sup, CONSISTENCY_OPTS.refine_tol)
        digest = _digest([row.final_loglik, row.distance_to_truth, row.atom_count, row.certificate_sup])
        return [fit], digest

    def verify(self, op, rows):
        cfg = op.payload
        ds = simulate_dataset(cfg.spec, cfg.truth, self.N, cfg.seeds[0])
        fit = solver.fit_npml(ds, cfg.box, cfg.initial_counts, cfg.options)
        _check_discrete_fit(ds, fit, cfg.box, cfg.options)
        row = rows[0]
        _require(
            (fit.final_loglik, fit.certificate.sup_dir_derivative, fit.measure.m)
            == (row.final_loglik, row.certificate_sup, row.atom_count),
            "experiment row differs from a direct fit of the same cell",
        )


def _cli(argv):
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class CertifiedCli:
    """simulate -> fit -> certify through npmlmix.cli.main, one pipeline per operation."""

    name = "certified-cli"
    default_seeds = (11, 8)

    @staticmethod
    def configs(seeds):
        readme_seed, hetero_seed = seeds
        model = {
            "p": 2,
            "n": 4,
            "sigma": 0.2,
            "f": {"kind": "pk_exp"},
            "time_design": [[0.0, 0.75], [0.75, 1.5], [1.5, 2.25], [2.25, 3.0]],
        }
        truth = {"atoms": [[1.0, 0.3], [2.0, 0.8]], "weights": [0.5, 0.5]}
        readme = {
            "model": model,
            "truth": truth,
            "N": 300,
            "seed": readme_seed,
            "censoring": {"n": 4, "masks": [[0, 2], [0, 1, 2, 3]], "probabilities": [0.4, 0.6]},
        }
        hetero = {"model": dict(model, g={"sigma_prime": 0.3}), "truth": truth, "N": 200, "seed": hetero_seed}
        return {"readme": readme, "hetero": hetero}

    def build(self, seeds, workdir):
        ops = []
        for label, config in self.configs(seeds).items():
            paths = {kind: str(Path(workdir) / f"{label}-{kind}.json") for kind in ("sim", "data", "fit")}
            Path(paths["sim"]).write_text(json.dumps(config))
            ops.append(Op(label, paths))
        return ops

    def run(self, op):
        p = op.payload
        codes, outputs = [], []
        for argv in (
            ["simulate", "--config", p["sim"], "--out", p["data"]],
            ["fit", "--data", p["data"], *CLI_FIT_ARGS, "--out", p["fit"]],
            ["certify", "--data", p["data"], "--fit", p["fit"], "--resolution", str(CLI_CERTIFY_RESOLUTION)],
        ):
            code, text = _cli(argv)
            codes.append(code)
            outputs.append(text)
            if code == 1:
                break
        return codes, outputs

    def _load(self, op):
        p = op.payload
        ds = serialize.dataset_from_dict(serialize.read_json(p["data"]))
        fit_obj = serialize.read_json(p["fit"])
        return ds, fit_obj, serialize.fit_from_dict(fit_obj)

    def check(self, op, result):
        codes, outputs = result
        _require(len(codes) == 3 and codes[0] == 0 and 1 not in codes, f"CLI exit codes {codes}")
        ds, fit_obj, fit = self._load(op)
        sup = fit.certificate.sup_dir_derivative
        fit_ok = fit.status == "converged" and sup <= 1.0 + CLI_FIT_OPTS.refine_tol
        _require((codes[1] == 0) == fit_ok, "fit exit code disagrees with its certificate")
        verdict = json.loads(outputs[2])
        _require((codes[2] == 0) == verdict["optimal"], "certify exit code disagrees with its verdict")
        _require(verdict["grid_resolution"] == CLI_CERTIFY_RESOLUTION, "certify used another resolution")
        recomputed = solver.certify(ds, fit.measure, fit_obj["box"], CLI_CERTIFY_RESOLUTION)
        _check_sup(verdict["sup"], recomputed.sup_dir_derivative)
        fit_cert = solver.certify(ds, fit.measure, fit_obj["box"], fit.certificate.grid_resolution)
        _check_sup(sup, fit_cert.sup_dir_derivative)
        digest = _digest(fit.measure.atoms, fit.measure.weights, [fit.final_loglik])
        return [Fit(fit.status, sup, CLI_FIT_OPTS.refine_tol)], digest

    def verify(self, op, result):
        ds, fit_obj, cli_fit = self._load(op)
        box = fit_obj["box"]
        fit = solver.fit_npml(ds, box, [5, 5], CLI_FIT_OPTS)
        digest = _check_discrete_fit(ds, fit, box, CLI_FIT_OPTS)
        _require(
            digest == _digest(cli_fit.measure.atoms, cli_fit.measure.weights, [cli_fit.final_loglik]),
            "CLI fit differs from a direct library fit of the same data",
        )


class SieveNested:
    """One fit_sieve call per operation over nested 1-D and 2-D hat grids."""

    name = "sieve-nested"
    default_seeds = (42,)
    N = 400
    QUAD_POINTS = 8

    def build(self, seeds, workdir):
        (seed,) = seeds
        ds_loc = simulate_dataset(LOC, LOC_TRUTH, self.N, seed)
        ds_pk = simulate_dataset(PK, PK_TRUTH, self.N, seed)
        loc_opts = FitOptions(tol_rel_loglik=1e-14, max_em_iters=400_000)
        pk_opts = FitOptions(tol_rel_loglik=1e-12, max_em_iters=100_000)
        ops = [Op(f"1d-{c}", (ds_loc, SieveBasis(LOC_BOX, [c + 1]), loc_opts)) for c in (4, 8, 16, 32)]
        ops += [Op(f"2d-{c}", (ds_pk, SieveBasis(PK_BOX, [c + 1, c + 1]), pk_opts)) for c in (4, 8, 16)]
        return ops

    def run(self, op):
        ds, basis, opts = op.payload
        return solver.fit_sieve(ds, basis, opts, self.QUAD_POINTS)

    def check(self, op, fit):
        _, basis, opts = op.payload
        _check_trace(fit.loglik_trace)
        _require(fit.final_loglik == float(fit.loglik_trace[-1]), "final log-likelihood is not the trace end")
        coeffs = fit.measure.coefficients
        _require(coeffs.shape == (basis.m,) and abs(coeffs.sum() - 1.0) < 1e-9, "coefficients off the simplex")
        digest = _digest(coeffs, [fit.final_loglik])
        return [Fit(fit.status, fit.certificate.sup_dir_derivative, opts.refine_tol)], digest

    def verify(self, op, fit):
        ds, basis, _ = op.payload
        km = likelihood.build_sieve_kernel_matrix(ds, basis, self.QUAD_POINTS)
        rows = likelihood.row_log_mixture(km, fit.measure.coefficients)
        sup = float(np.exp(km.log_k - rows[:, None]).mean(axis=0).max())
        _check_sup(fit.certificate.sup_dir_derivative, sup)


WORKLOADS = {w.name: w for w in (ConsistencyPk1600(), CertifiedCli(), SieveNested())}
