"""Command-line front end: simulate, fit, certify, experiment.

Exit codes: 0 success, 1 input error, 2 fit did not converge / certify.
The NPML_THREADS environment variable caps experiment parallelism.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import serialize
from .data import apply_censoring, simulate_dataset
from .errors import InvalidArgumentError, NpmlError
from .experiments import (
    ExperimentConfig,
    gnuplot_script,
    run_censoring_experiment,
    run_consistency_experiment,
    run_contrast_experiment,
    run_sieve_experiment,
    write_report_csv,
)
from .measures import SieveBasis, SieveDensity
from .solver import FitOptions, certify, fit_npml, fit_sieve

# Unused here, but bench/tracer.py patches these two bindings of this module.
from .likelihood import build_sieve_kernel_matrix, row_log_mixture  # noqa: F401


def _parse_box(text: str) -> list:
    try:
        box = []
        for part in text.split(";"):
            lo, hi = part.split(",")
            box.append((float(lo), float(hi)))
        return box
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot parse box {text!r}; expected 'lo,hi;lo,hi'") from exc


def _parse_counts(text: str):
    """One node count for every axis, or a list with one count per axis."""
    try:
        parts = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot parse grid counts {text!r}; expected integers") from exc
    return parts[0] if len(parts) == 1 else parts


def _options_from_args(args) -> FitOptions:
    given = {
        "tol_rel_loglik": args.tol,
        "max_em_iters": args.max_iters,
        "prune_eps": args.prune_eps,
        "refine_grid": args.refine_grid,
        "refine_tol": args.refine_tol,
        "max_refinements": args.max_refinements,
    }
    return dataclasses.replace(FitOptions(), **{k: v for k, v in given.items() if v is not None})


def cmd_simulate(args) -> int:
    cfg = serialize.read_json(args.config)
    spec = serialize.spec_from_dict(serialize._require(cfg, "model"))
    truth = serialize.measure_from_dict(serialize._require(cfg, "truth"))
    N = int(serialize._require(cfg, "N"))
    seed = int(serialize._require(cfg, "seed"))
    ds = simulate_dataset(spec, truth, N, seed)
    if "censoring" in cfg:
        design = serialize.censoring_from_dict(cfg["censoring"])
        ds = apply_censoring(ds, design, int(cfg.get("censor_seed", seed + 1)))
    serialize.write_json(args.out, serialize.dataset_to_dict(ds))
    print(f"simulated N={ds.N} n={spec.n} p={spec.p} seed={seed} -> {args.out}")
    return 0


def cmd_fit(args) -> int:
    ds = serialize.dataset_from_dict(serialize.read_json(args.data))
    box = _parse_box(args.box)
    opts = _options_from_args(args)
    if args.method == "npml":
        fit = fit_npml(ds, box, _parse_counts(args.grid), opts)
    else:
        if args.sieve_m is None:
            raise InvalidArgumentError("sieve fits need --sieve-m")
        basis = SieveBasis(box, args.sieve_m + 1)
        fit = fit_sieve(ds, basis, opts, args.quad_points)
    fit_obj = serialize.fit_to_dict(fit, box=box, include_trace=args.trace)
    if args.method == "sieve":
        fit_obj["sieve"]["quad_points"] = args.quad_points
    serialize.write_json(args.out, fit_obj)
    ok = fit.status == "converged" and fit.certificate.sup_dir_derivative <= 1.0 + opts.refine_tol
    print(
        f"fit method={args.method} loglik={fit.final_loglik:.9f} "
        f"iters={fit.iterations} atoms={fit.measure.m if hasattr(fit.measure, 'm') else len(fit.measure.coefficients)} "
        f"status={fit.status} cert_sup={fit.certificate.sup_dir_derivative:.9f}"
    )
    return 0 if ok else 2


def cmd_certify(args) -> int:
    ds = serialize.dataset_from_dict(serialize.read_json(args.data))
    fit_obj = serialize.read_json(args.fit)
    fit = serialize.fit_from_dict(fit_obj)
    tol = args.tol if args.tol is not None else FitOptions().refine_tol
    if isinstance(fit.measure, SieveDensity):
        # a sieve block without quad_points was fitted at the default order
        quad_points = int(fit_obj["sieve"].get("quad_points", 8))
        cert = certify(ds, fit.measure, quad_points_per_cell=quad_points)
    elif "box" not in fit_obj:
        raise InvalidArgumentError("fit file has no box; cannot build a certification grid")
    else:
        cert = certify(ds, fit.measure, fit_obj["box"], args.resolution)
    optimal = cert.sup_dir_derivative <= 1.0 + tol
    print(
        serialize.dumps(
            {
                "sup": cert.sup_dir_derivative,
                "argmax": cert.argmax_point.tolist(),
                "grid_resolution": cert.grid_resolution,
                "optimal": optimal,
                "tolerance": tol,
            }
        ),
        end="",
    )
    return 0 if optimal else 2


def _experiment_config_from_dict(obj: dict) -> ExperimentConfig:
    spec = serialize.spec_from_dict(serialize._require(obj, "model"))
    truth = serialize.measure_from_dict(serialize._require(obj, "truth"))
    return ExperimentConfig(
        kind=serialize._require(obj, "kind"),
        spec=spec,
        truth=truth,
        box=tuple(tuple(iv) for iv in serialize._require(obj, "box")),
        initial_counts=tuple(serialize._require(obj, "initial_counts")),
        n_schedule=tuple(serialize._require(obj, "N_schedule")),
        seeds=tuple(serialize._require(obj, "seeds")),
        m_schedule=tuple(obj.get("m_schedule", ())),
        options=serialize.fit_options_from_dict(obj.get("fit_options")),
        censoring=(
            serialize.censoring_from_dict(obj["censoring"]) if "censoring" in obj else None
        ),
        quad_points=int(obj.get("quad_points", 8)),
        competitors=int(obj.get("competitors", 50)),
    )


def cmd_experiment(args) -> int:
    cfg = _experiment_config_from_dict(serialize.read_json(args.config))
    if cfg.kind == "consistency":
        rows = run_consistency_experiment(cfg)
    elif cfg.kind == "sieve":
        rows = run_sieve_experiment(cfg)
    elif cfg.kind == "censoring":
        rows = run_censoring_experiment(cfg)
    else:
        rows, maxima = run_contrast_experiment(cfg)
        for tag, value in maxima.items():
            print(f"contrast {tag}: max over competitors = {value:.3e}")
        if max(maxima.values()) > cfg.options.refine_tol:
            raise RuntimeError("a contrast maximum exceeds the optimality tolerance")
    write_report_csv(rows, args.out)
    print(f"wrote {len(rows)} rows -> {args.out}")
    if args.emit_gnuplot:
        script_path = str(Path(args.out).with_suffix(".gp"))
        with open(script_path, "w") as fh:
            fh.write(gnuplot_script(args.out, cfg.kind))
        print(f"wrote plot script -> {script_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npmlmix",
        description="Mixing-law estimation by nonparametric maximum likelihood",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a dataset from a config file")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a dataset by npml or sieve")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--method", choices=["npml", "sieve"], required=True)
    p_fit.add_argument("--box", required=True, help="per-axis bounds 'lo,hi;lo,hi'")
    p_fit.add_argument("--grid", default="8", help="initial grid nodes per axis")
    p_fit.add_argument("--sieve-m", type=int, default=None, help="sieve cells per axis")
    p_fit.add_argument("--quad-points", type=int, default=8)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--tol", type=float, default=None)
    p_fit.add_argument("--max-iters", type=int, default=None)
    p_fit.add_argument("--prune-eps", type=float, default=None)
    p_fit.add_argument("--refine-grid", type=int, default=None)
    p_fit.add_argument("--refine-tol", type=float, default=None)
    p_fit.add_argument("--max-refinements", type=int, default=None)
    p_fit.add_argument("--trace", action="store_true", help="include the loglik trace")
    p_fit.set_defaults(func=cmd_fit)

    p_cert = sub.add_parser("certify", help="recompute a fit's optimality certificate")
    p_cert.add_argument("--data", required=True)
    p_cert.add_argument("--fit", required=True)
    p_cert.add_argument("--resolution", type=int, default=64)
    p_cert.add_argument("--tol", type=float, default=None)
    p_cert.set_defaults(func=cmd_certify)

    p_exp = sub.add_parser("experiment", help="run a scripted experiment from a config")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--emit-gnuplot", action="store_true")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NpmlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
