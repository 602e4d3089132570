"""Scripted experiments: consistency, sieve convergence, censoring, contrasts.

Each experiment is deterministic given its config (seeds included) and emits
its rows sorted by (N, m, seed), so disjoint ``seeds`` lists run as separate
processes give the same rows as one run over all of them.
"""

from __future__ import annotations

import csv
import math
import time
import typing
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .data import CensoringDesign, Dataset, apply_censoring, simulate_dataset
from .errors import InvalidArgumentError, NumericDomainError
from .likelihood import CONTRAST_TAGS, DEFAULT_QUAD_POINTS, build_kernel_matrix, contrast_value, log_likelihood
from .measures import MixingMeasure, SieveBasis, SieveDensity, measure_distance, sieve_to_measure
from .model import CensorMask, ModelSpec
from .solver import FitOptions, FitResult, fit_npml, fit_sieve

REPORT_VERSION = 1
EXPERIMENT_KINDS = ("consistency", "sieve", "censoring", "contrast")
# config fields that one kind alone reads; other kinds refuse them unless left at their defaults
_FIELD_READERS = {"m_schedule": "sieve", "quad_points": "sieve", "competitors": "contrast"}


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
    quad_points: int = DEFAULT_QUAD_POINTS
    competitors: int = 50

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise InvalidArgumentError(f"unknown experiment kind {self.kind!r}")
        # normalize first, so the checks below see the values stored
        object.__setattr__(self, "box", tuple(tuple(float(v) for v in iv) for iv in self.box))
        for name in ("initial_counts", "n_schedule", "seeds", "m_schedule"):
            object.__setattr__(self, name, tuple(int(v) for v in getattr(self, name)))
        # sieve and contrast experiments read one dataset and censoring one N per seed; a longer schedule is refused
        single = {"N": ("sieve", "contrast", "censoring"), "seed": ("sieve", "contrast")}
        for name, schedule in (("N", self.n_schedule), ("seed", self.seeds)):
            if not schedule:
                raise InvalidArgumentError(f"{name} schedule must be nonempty")
            if len(schedule) > 1 and self.kind in single[name]:
                raise InvalidArgumentError(
                    f"{self.kind} experiments use one {name}: {name} schedule {list(schedule)} must hold one value"
                )
        if self.censoring is not None and self.kind in ("sieve", "contrast"):
            raise InvalidArgumentError(f"{self.kind} experiments fit uncensored data and take no censoring design")
        defaults = {f.name: f.default for f in fields(self)}
        for name, reader in _FIELD_READERS.items():
            if self.kind != reader and getattr(self, name) != defaults[name]:
                raise InvalidArgumentError(f"{self.kind} experiments take no {name}; only {reader} experiments read it")
        ns, ms = self.n_schedule, self.m_schedule
        if not all(a < b for a, b in zip(ns, ns[1:])):
            raise InvalidArgumentError("N schedule must be strictly increasing")
        if len(set(self.seeds)) != len(self.seeds):
            raise InvalidArgumentError("seeds must be distinct")
        if self.kind == "sieve":
            if not ms or ms[0] < 1 or not all(a < b for a, b in zip(ms, ms[1:])):
                raise InvalidArgumentError("sieve experiments need an increasing schedule of positive m")
            if any(b % a for a, b in zip(ms, ms[1:])):
                raise InvalidArgumentError("m schedule must be nested (each m divides the next)")


@dataclass(frozen=True)
class ReportRow:
    """One report line; its fields, in order, are the CSV columns after report_version."""

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
        for name, kind in _ROW_TYPES.items():
            if kind is float and not math.isfinite(getattr(self, name)):
                raise InvalidArgumentError(f"report field {name} must be finite")


# field name -> type, in field order: the CSV layout after report_version
_ROW_TYPES = typing.get_type_hints(ReportRow)
CSV_HEADER = ["report_version", *_ROW_TYPES]


def atom_count(measure: Union[MixingMeasure, SieveDensity], prune_eps: float) -> int:
    """A fit's reported atom count: its atoms, or a sieve's coefficients above prune_eps."""
    if isinstance(measure, SieveDensity):
        return int(np.sum(measure.coefficients > prune_eps))
    return measure.m


def _fit_row(
    cfg: ExperimentConfig,
    ds: Dataset,
    experiment: str,
    N: int,
    m: Optional[int],
    seed: int,
) -> Tuple[ReportRow, FitResult]:
    """Fit and report one row: the discrete NPML, or the sieve with m cells per axis."""
    start = time.perf_counter()
    if m is None:
        fit = fit_npml(ds, cfg.box, cfg.initial_counts, cfg.options)
        mu = fit.measure
    else:
        basis = SieveBasis(cfg.box, [m + 1] * cfg.spec.p)
        fit = fit_sieve(ds, basis, cfg.options, cfg.quad_points)
        mu = sieve_to_measure(fit.measure)
    elapsed = (time.perf_counter() - start) * 1000.0
    row = ReportRow(
        experiment=experiment,
        N=N,
        m=m,
        seed=seed,
        final_loglik=fit.final_loglik,
        distance_to_truth=measure_distance(mu, cfg.truth),
        atom_count=atom_count(fit.measure, cfg.options.prune_eps),
        certificate_sup=fit.certificate.sup_dir_derivative,
        wall_time_ms=elapsed,
    )
    return row, fit


def run_consistency_experiment(cfg: ExperimentConfig) -> List[ReportRow]:
    """Simulate, censor when the config has a design, and fit over the (N, seed) grid.

    Distances to the truth quantify consistency.
    """
    if cfg.truth is None:
        raise InvalidArgumentError("consistency experiments need the true measure")
    rows = []
    for N in cfg.n_schedule:
        for seed in cfg.seeds:
            ds = simulate_dataset(cfg.spec, cfg.truth, N, seed)
            if cfg.censoring is not None:
                ds = apply_censoring(ds, cfg.censoring, seed)
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
    rows = [ref_row] + [_fit_row(cfg, ds, "sieve", N, m, seed)[0] for m in cfg.m_schedule]
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
        row, fit = _fit_row(cfg, ds, "censoring/uncensored", N, None, seed)
        rows.append(row)

        full = CensoringDesign(((CensorMask.full(cfg.spec.n), 1.0),))
        ds_full = apply_censoring(ds, full, seed)
        km_plain = build_kernel_matrix(ds, fit.measure)
        km_full = build_kernel_matrix(ds_full, fit.measure)
        gap = abs(log_likelihood(km_plain, fit.measure.weights) - log_likelihood(km_full, fit.measure.weights))
        if gap > 1e-12:
            raise NumericDomainError(f"full-mask likelihood differs from uncensored by {gap}")
        rows.append(_fit_row(cfg, ds_full, "censoring/full-mask", N, None, seed)[0])

        ds_rand = apply_censoring(ds, cfg.censoring, seed)
        rows.append(_fit_row(cfg, ds_rand, "censoring/random", N, None, seed)[0])
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
    maxima = {tag: -np.inf for tag in CONTRAST_TAGS}
    for _ in range(cfg.competitors):
        w = rng.exponential(size=fit.measure.m)
        w = w / w.sum()
        for tag in maxima:
            maxima[tag] = max(maxima[tag], contrast_value(km, w, fit.measure.weights, tag))
    return [row], maxima


def _row_key(row: ReportRow):
    return (row.N, -1 if row.m is None else row.m, row.seed, row.experiment)


# --------------------------------- reports ---------------------------------


def _parse_field(kind, text: str):
    """A CSV cell as the field type ``kind``; an empty cell is None for Optional fields."""
    if typing.get_origin(kind) is Union:
        return None if text == "" else _parse_field(typing.get_args(kind)[0], text)
    return kind(text)


def write_report_csv(rows: Sequence[ReportRow], path) -> None:
    # csv writes None as "" and floats by repr, so floats round-trip exactly
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([REPORT_VERSION] + [getattr(r, name) for name in _ROW_TYPES])


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
            cells = zip(_ROW_TYPES.items(), rec[1:], strict=True)
            rows.append(ReportRow(**{name: _parse_field(kind, text) for (name, kind), text in cells}))
    return rows


def gnuplot_script(csv_path: str, kind: str) -> str:
    """Plain-text gnuplot script plotting the report (no plotting dependency)."""
    col = {name: i + 1 for i, name in enumerate(CSV_HEADER)}  # gnuplot counts columns from 1
    lines = [
        "set datafile separator ','",
        "set key outside",
        f"set title '{kind} experiment'",
    ]
    if kind == "sieve":
        lines += [
            "set xlabel 'sieve cells per axis'",
            "set ylabel 'final log-likelihood'",
            f"plot '{csv_path}' every ::1 using {col['m']}:{col['final_loglik']} with linespoints title 'sieve'",
        ]
    else:
        if kind == "consistency":
            lines.append("set logscale x")
        lines += [
            "set xlabel 'N'",
            "set ylabel 'distance to truth'",
            f"plot '{csv_path}' every ::1 using {col['N']}:{col['distance_to_truth']} with points pt 7 title 'fits'",
        ]
    return "\n".join(lines) + "\n"
