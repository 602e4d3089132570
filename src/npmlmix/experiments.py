"""Scripted experiments: consistency, sieve convergence, censoring, contrasts.

Each experiment is deterministic given its config (seeds included) and emits
its rows sorted by (N, m, seed), so disjoint ``seeds`` lists run as separate
processes give the same rows as one run over all of them.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .data import CensoringDesign, Dataset, apply_censoring, simulate_dataset
from .errors import InvalidArgumentError
from .likelihood import build_kernel_matrix, contrast_value, log_likelihood
from .measures import MixingMeasure, SieveBasis, measure_distance, sieve_to_measure
from .model import CensorMask, ModelSpec
from .solver import FitOptions, FitResult, fit_npml, fit_sieve

REPORT_VERSION = 1
CSV_HEADER = [
    "report_version",
    "experiment",
    "N",
    "m",
    "seed",
    "final_loglik",
    "distance_to_truth",
    "atom_count",
    "certificate_sup",
    "wall_time_ms",
]

EXPERIMENT_KINDS = ("consistency", "sieve", "censoring", "contrast")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    spec: ModelSpec
    truth: MixingMeasure
    box: tuple
    initial_counts: tuple
    n_schedule: tuple
    seeds: tuple
    m_schedule: tuple = ()
    options: FitOptions = field(default_factory=FitOptions)
    censoring: Optional[CensoringDesign] = None
    quad_points: int = 8
    competitors: int = 50

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise InvalidArgumentError(f"unknown experiment kind {self.kind!r}")
        for name, schedule in (("N", self.n_schedule), ("seed", self.seeds)):
            if not schedule:
                raise InvalidArgumentError(f"{name} schedule must be nonempty")
        if list(self.n_schedule) != sorted(self.n_schedule) or len(set(self.n_schedule)) != len(
            self.n_schedule
        ):
            raise InvalidArgumentError("N schedule must be strictly increasing")
        if len(set(self.seeds)) != len(self.seeds):
            raise InvalidArgumentError("seeds must be distinct")
        if self.kind == "sieve":
            ms = list(self.m_schedule)
            if not ms or ms != sorted(ms) or len(set(ms)) != len(ms):
                raise InvalidArgumentError("sieve experiments need an increasing m schedule")
            for a, b in zip(ms[:-1], ms[1:]):
                if b % a != 0:
                    raise InvalidArgumentError("m schedule must be nested (each m divides the next)")
        object.__setattr__(self, "box", tuple(tuple(float(v) for v in iv) for iv in self.box))
        object.__setattr__(self, "initial_counts", tuple(int(c) for c in self.initial_counts))
        object.__setattr__(self, "n_schedule", tuple(int(v) for v in self.n_schedule))
        object.__setattr__(self, "seeds", tuple(int(v) for v in self.seeds))
        object.__setattr__(self, "m_schedule", tuple(int(v) for v in self.m_schedule))


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    N: int
    m: Optional[int]
    seed: int
    final_loglik: float
    distance_to_truth: float
    atom_count: int
    certificate_sup: float
    wall_time_ms: float

    def __post_init__(self):
        for name in ("final_loglik", "distance_to_truth", "certificate_sup", "wall_time_ms"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgumentError(f"report field {name} must be finite")


def _fit_row(
    cfg: ExperimentConfig,
    ds: Dataset,
    experiment: str,
    N: int,
    m: Optional[int],
    seed: int,
) -> Tuple[ReportRow, FitResult]:
    start = time.perf_counter()
    fit = fit_npml(ds, cfg.box, cfg.initial_counts, cfg.options)
    elapsed = (time.perf_counter() - start) * 1000.0
    distance = measure_distance(fit.measure, cfg.truth)
    row = ReportRow(
        experiment=experiment,
        N=N,
        m=m,
        seed=seed,
        final_loglik=fit.final_loglik,
        distance_to_truth=distance,
        atom_count=fit.measure.m,
        certificate_sup=fit.certificate.sup_dir_derivative,
        wall_time_ms=elapsed,
    )
    return row, fit


def run_consistency_experiment(cfg: ExperimentConfig) -> List[ReportRow]:
    """Simulate and fit over the (N, seed) grid; distances quantify consistency."""
    if cfg.truth is None:
        raise InvalidArgumentError("consistency experiments need the true measure")
    rows = []
    for N in cfg.n_schedule:
        for seed in cfg.seeds:
            ds = simulate_dataset(cfg.spec, cfg.truth, N, seed)
            rows.append(_fit_row(cfg, ds, "consistency", N, None, seed)[0])
    return sorted(rows, key=_row_key)


def run_sieve_experiment(cfg: ExperimentConfig) -> List[ReportRow]:
    """Fit nested sieves against the discrete reference on one fixed dataset.

    The schedule entry m counts grid cells per axis (m+1 hat nodes), so each
    schedule step refines the previous grid in place and the feasible sets
    are nested.
    """
    N, seed = cfg.n_schedule[0], cfg.seeds[0]
    ds = simulate_dataset(cfg.spec, cfg.truth, N, seed)
    ref_row, _ = _fit_row(cfg, ds, "sieve/npml", N, None, seed)
    rows = [ref_row]
    for m in cfg.m_schedule:
        basis = SieveBasis(cfg.box, [m + 1] * cfg.spec.p)
        start = time.perf_counter()
        fit = fit_sieve(ds, basis, cfg.options, cfg.quad_points)
        elapsed = (time.perf_counter() - start) * 1000.0
        mu = sieve_to_measure(fit.measure)
        rows.append(
            ReportRow(
                experiment="sieve",
                N=N,
                m=m,
                seed=seed,
                final_loglik=fit.final_loglik,
                distance_to_truth=measure_distance(mu, cfg.truth),
                atom_count=int(np.sum(fit.measure.coefficients > cfg.options.prune_eps)),
                certificate_sup=fit.certificate.sup_dir_derivative,
                wall_time_ms=elapsed,
            )
        )
    return sorted(rows, key=_row_key)


def run_censoring_experiment(cfg: ExperimentConfig) -> List[ReportRow]:
    """Fit uncensored, fully-masked, and randomly censored copies of a sample.

    Verifies that full masks reproduce the uncensored likelihood exactly and
    reports how much information the random censoring costs.
    """
    if cfg.censoring is None:
        raise InvalidArgumentError("censoring experiments need a censoring design")
    rows: List[ReportRow] = []
    N = cfg.n_schedule[0]
    for seed in cfg.seeds:
        ds = simulate_dataset(cfg.spec, cfg.truth, N, seed)
        row_a, fit_a = _fit_row(cfg, ds, "censoring/uncensored", N, None, seed)
        rows.append(row_a)

        full = CensoringDesign(((CensorMask.full(cfg.spec.n), 1.0),))
        ds_full = apply_censoring(ds, full, seed + 1)
        km_plain = build_kernel_matrix(ds, fit_a.measure)
        km_full = build_kernel_matrix(ds_full, fit_a.measure)
        gap = abs(
            log_likelihood(km_plain, fit_a.measure.weights)
            - log_likelihood(km_full, fit_a.measure.weights)
        )
        if gap > 1e-12:
            raise RuntimeError(f"full-mask likelihood differs from uncensored by {gap}")
        row_b, _ = _fit_row(cfg, ds_full, "censoring/full-mask", N, None, seed)
        rows.append(row_b)

        ds_rand = apply_censoring(ds, cfg.censoring, seed + 2)
        row_c, _ = _fit_row(cfg, ds_rand, "censoring/random", N, None, seed)
        rows.append(row_c)
    return sorted(rows, key=_row_key)


def run_contrast_experiment(cfg: ExperimentConfig) -> Tuple[List[ReportRow], Dict[str, float]]:
    """Fit, then stress the arg-max characterization with random competitors.

    Returns the fit rows and, per contrast function, the maximum contrast
    value over random feasible measures on the fitted support (all should be
    <= refine_tol at a genuine maximum).
    """
    N, seed = cfg.n_schedule[0], cfg.seeds[0]
    ds = simulate_dataset(cfg.spec, cfg.truth, N, seed)
    row, fit = _fit_row(cfg, ds, "contrast", N, None, seed)
    km = build_kernel_matrix(ds, fit.measure)
    rng = np.random.default_rng(seed)
    maxima = {tag: -np.inf for tag in ("log", "t-1", "1-1/t")}
    for _ in range(cfg.competitors):
        w = rng.exponential(size=fit.measure.m)
        w = w / w.sum()
        for tag in maxima:
            maxima[tag] = max(maxima[tag], contrast_value(km, w, fit.measure.weights, tag))
    return [row], maxima


def _row_key(row: ReportRow):
    return (row.N, -1 if row.m is None else row.m, row.seed, row.experiment)


# --------------------------------- reports ---------------------------------


def write_report_csv(rows: Sequence[ReportRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow(
                [
                    REPORT_VERSION,
                    r.experiment,
                    r.N,
                    "" if r.m is None else r.m,
                    r.seed,
                    repr(r.final_loglik),
                    repr(r.distance_to_truth),
                    r.atom_count,
                    repr(r.certificate_sup),
                    repr(r.wall_time_ms),
                ]
            )


def read_report_csv(path) -> List[ReportRow]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise InvalidArgumentError(f"unexpected report header {header!r}")
        for rec in reader:
            if int(rec[0]) != REPORT_VERSION:
                raise InvalidArgumentError(f"unsupported report version {rec[0]!r}")
            rows.append(
                ReportRow(
                    experiment=rec[1],
                    N=int(rec[2]),
                    m=None if rec[3] == "" else int(rec[3]),
                    seed=int(rec[4]),
                    final_loglik=float(rec[5]),
                    distance_to_truth=float(rec[6]),
                    atom_count=int(rec[7]),
                    certificate_sup=float(rec[8]),
                    wall_time_ms=float(rec[9]),
                )
            )
    return rows


def gnuplot_script(csv_path: str, kind: str) -> str:
    """Plain-text gnuplot script plotting the report (no plotting dependency)."""
    lines = [
        "set datafile separator ','",
        "set key outside",
        f"set title '{kind} experiment'",
    ]
    if kind == "consistency":
        lines += [
            "set logscale x",
            "set xlabel 'N'",
            "set ylabel 'distance to truth'",
            f"plot '{csv_path}' every ::1 using 3:7 with points pt 7 title 'fits'",
        ]
    elif kind == "sieve":
        lines += [
            "set xlabel 'sieve cells per axis'",
            "set ylabel 'final log-likelihood'",
            f"plot '{csv_path}' every ::1 using 4:6 with linespoints title 'sieve'",
        ]
    else:
        lines += [
            "set xlabel 'N'",
            "set ylabel 'distance to truth'",
            f"plot '{csv_path}' every ::1 using 3:7 with points pt 7 title 'fits'",
        ]
    return "\n".join(lines) + "\n"
