"""Command-line front end: simulate, fit, certify, experiment.

Exit codes: 0 success, 1 input error (a usage error too), 2 the fit's certificate does not hold
(or a contrast maximum exceeds the tolerance).
Experiments run their cells in one process; disjoint seed lists can be run
as separate processes, since each seed's rows are the same either way.
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
    atom_count,
    gnuplot_script,
    run_censoring_experiment,
    run_consistency_experiment,
    run_contrast_experiment,
    run_sieve_experiment,
    write_report_csv,
)
from .measures import SieveBasis
from .solver import STATUS_CONVERGED, FitOptions, certify, fit_npml, fit_sieve

# The last two are unused here, but bench/tracer.py patches these bindings of this module.
from .likelihood import DEFAULT_QUAD_POINTS, build_sieve_kernel_matrix, row_log_mixture  # noqa: F401


def _parse_box(text: str) -> list:
    try:
        box = []
        for part in text.split(";"):
            lo, hi = part.split(",")
            box.append((float(lo), float(hi)))
        return box
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot parse box {text!r}; expected 'lo,hi;lo,hi'") from exc


def _parse_counts(text: str, p: int):
    """--grid: one node count for every axis, or one count per axis of a p-axis box."""
    try:
        parts = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot parse --grid {text!r}; expected integers") from exc
    if len(parts) not in (1, p) or min(parts) < 1:
        raise InvalidArgumentError(f"--grid needs one node count >= 1 or {p} of them, got {text!r}")
    return parts[0] if len(parts) == 1 else parts


def _options_from_args(args) -> FitOptions:
    # each fit option flag stores under its FitOptions field name
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(FitOptions)}
    return serialize.fit_options_from_dict({k: v for k, v in given.items() if v is not None})


def cmd_simulate(args) -> int:
    spec, truth, N, seed, design, censor_seed = serialize.load(args.config, serialize.simulation_from_dict)
    ds = simulate_dataset(spec, truth, N, seed)
    if design is not None:
        ds = apply_censoring(ds, design, censor_seed)
    serialize.write_json(args.out, serialize.dataset_to_dict(ds))
    print(f"simulated N={ds.N} n={spec.n} p={spec.p} seed={seed} -> {args.out}")
    return 0


def cmd_fit(args) -> int:
    ds = serialize.load(args.data, serialize.dataset_from_dict)
    box = _parse_box(args.box)
    opts = _options_from_args(args)
    if args.method == "npml":
        fit = fit_npml(ds, box, _parse_counts(args.grid, len(box)), opts)
    else:
        for flag, value in (("--sieve-m", args.sieve_m), ("--quad-points", args.quad_points)):
            if value is None or value < 1:
                raise InvalidArgumentError(f"sieve fits need {flag} of at least 1, got {value}")
        basis = SieveBasis(box, args.sieve_m + 1)
        fit = fit_sieve(ds, basis, opts, args.quad_points)
    serialize.write_json(args.out, serialize.fit_to_dict(fit, box, args.trace, args.quad_points))
    print(
        f"fit method={args.method} loglik={fit.final_loglik:.9f} "
        f"iters={fit.iterations} atoms={atom_count(fit.measure, opts.prune_eps)} "
        f"status={fit.status} cert_sup={fit.certificate.sup_dir_derivative:.9g}"
    )
    return 0 if fit.status == STATUS_CONVERGED else 2


def cmd_certify(args) -> int:
    ds = serialize.load(args.data, serialize.dataset_from_dict)
    fit, box, quad_points = serialize.load(args.fit, serialize.fit_file_from_dict)
    # the verdict's tolerance is a refine_tol, checked like the fit's own
    tol = FitOptions().refine_tol if args.tol is None else FitOptions(refine_tol=args.tol).refine_tol
    if args.resolution is not None and args.resolution < 1:
        raise InvalidArgumentError(f"--resolution must be at least 1, got {args.resolution}")
    resolution = fit.certificate.grid_resolution if args.resolution is None else args.resolution
    cert = certify(ds, fit.measure, box, resolution, quad_points)
    optimal = cert.holds(tol)
    print(serialize.dumps(serialize.certificate_to_dict(cert, optimal=optimal, tolerance=tol)), end="")
    return 0 if optimal else 2


def cmd_experiment(args) -> int:
    cfg = serialize.load(args.config, serialize.experiment_config_from_dict)
    exit_code = 0
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
            print("a contrast maximum exceeds the optimality tolerance", file=sys.stderr)
            exit_code = 2
    write_report_csv(rows, args.out)
    print(f"wrote {len(rows)} rows -> {args.out}")
    if args.emit_gnuplot:
        script_path = str(Path(args.out).with_suffix(".gp"))
        with open(script_path, "w") as fh:
            fh.write(gnuplot_script(args.out, cfg.kind))
        print(f"wrote plot script -> {script_path}")
    return exit_code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error, in any subcommand's parser too, is an input error like any other
        raise InvalidArgumentError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_fit.add_argument("--quad-points", type=int, default=DEFAULT_QUAD_POINTS)
    p_fit.add_argument("--out", required=True)
    em_only = "tunes em_fit only; no longer changes an npml or sieve fit"
    p_fit.add_argument("--tol", dest="tol_rel_loglik", type=float, help=f"EM log-likelihood tolerance ({em_only})")
    p_fit.add_argument("--max-iters", dest="max_em_iters", type=int, help=f"EM iteration cap ({em_only})")
    p_fit.add_argument("--prune-eps", type=float, default=None, help="only sets how a sieve fit's report counts atoms")
    p_fit.add_argument("--refine-grid", type=int, default=None)
    p_fit.add_argument("--refine-tol", type=float, default=None)
    p_fit.add_argument("--max-refinements", type=int, default=None)
    p_fit.add_argument("--trace", action="store_true", help="include the loglik trace")
    p_fit.set_defaults(func=cmd_fit)

    p_cert = sub.add_parser("certify", help="recompute a fit's optimality certificate")
    p_cert.add_argument("--data", required=True)
    p_cert.add_argument("--fit", required=True)
    p_cert.add_argument("--resolution", type=int, help="scan grid per axis (default: the fit's)")
    p_cert.add_argument("--tol", type=float, default=None)
    p_cert.set_defaults(func=cmd_certify)

    p_exp = sub.add_parser("experiment", help="run a scripted experiment from a config")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--emit-gnuplot", action="store_true")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (NpmlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
