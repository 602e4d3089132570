"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The "experiment suite" referenced by several criteria is the fixed, seeded
instance list in SUITE below; it covers homoscedastic and heteroscedastic
models, censored samples, and the Laplace noise alternative.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from npmlmix import (
    CensorMask,
    CensoringDesign,
    FitOptions,
    IdentityLocation,
    KernelMatrix,
    MixingMeasure,
    ModelSpec,
    PkExp,
    TimeDesign,
    apply_censoring,
    brute_force_oracle,
    build_kernel_matrix,
    concavity_probe,
    directional_derivatives,
    em_fit,
    fit_npml,
    fit_sieve,
    log_likelihood,
    new_uniform_grid_measure,
    prune,
    simulate_dataset,
    SieveBasis,
)
from npmlmix.experiments import ExperimentConfig, run_consistency_experiment, run_contrast_experiment


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:2d} {name}: PASS")


TD2 = TimeDesign(((0.0, 1.0), (1.0, 2.0)))
TD4 = TimeDesign(((0.0, 0.75), (0.75, 1.5), (1.5, 2.25), (2.25, 3.0)))

LOC = ModelSpec(p=1, n=2, sigma=0.5, f=IdentityLocation(), time_design=TD2)
LOC_HET = ModelSpec(
    p=1, n=2, sigma=0.5, f=IdentityLocation(), time_design=TD2, sigma_prime=0.4
)
LOC_LAP = ModelSpec(
    p=1, n=2, sigma=0.5, f=IdentityLocation(), time_design=TD2, noise="laplace"
)
PK = ModelSpec(p=2, n=4, sigma=0.2, f=PkExp(), time_design=TD4)
PK_HET = ModelSpec(p=2, n=4, sigma=0.2, f=PkExp(), time_design=TD4, sigma_prime=0.3)

LOC_TRUTH = MixingMeasure(np.array([[0.7], [1.8]]), [0.5, 0.5])
LOC_TRUTH3 = MixingMeasure(np.array([[0.4], [1.2], [2.1]]), [0.3, 0.4, 0.3])
PK_TRUTH = MixingMeasure(np.array([[1.0, 0.3], [2.0, 0.8]]), [0.5, 0.5])

LOC_BOX = ((0.0, 2.5),)
PK_BOX = ((0.5, 2.5), (0.05, 1.2))
PK_CENSORING = CensoringDesign(((CensorMask(4, (0, 2)), 0.4), (CensorMask.full(4), 0.6)))

SUITE_OPTS = FitOptions(
    tol_rel_loglik=1e-15, max_em_iters=1_500_000, prune_eps=1e-4, refine_grid=33
)

# label, spec, truth, N, seed, box, counts, censoring
SUITE = [
    ("location-2atom-a", LOC, LOC_TRUTH, 80, 201, LOC_BOX, (5,), None),
    ("location-2atom-b", LOC, LOC_TRUTH, 80, 102, LOC_BOX, (5,), None),
    ("location-3atom", LOC, LOC_TRUTH3, 200, 211, LOC_BOX, (5,), None),
    ("pk-2atom-n120", PK, PK_TRUTH, 120, 221, PK_BOX, (5, 5), None),
    ("pk-2atom-n60", PK, PK_TRUTH, 60, 301, PK_BOX, (5, 5), None),
    ("pk-heteroscedastic", PK_HET, PK_TRUTH, 120, 232, PK_BOX, (5, 5), None),
    ("location-heteroscedastic", LOC_HET, LOC_TRUTH, 100, 107, LOC_BOX, (5,), None),
    ("pk-censored", PK, PK_TRUTH, 120, 108, PK_BOX, (5, 5), PK_CENSORING),
    ("location-laplace", LOC_LAP, LOC_TRUTH, 100, 109, LOC_BOX, (5,), None),
]


def _suite_dataset(entry):
    label, spec, truth, N, seed, box, counts, censoring = entry
    ds = simulate_dataset(spec, truth, N, seed)
    if censoring is not None:
        ds = apply_censoring(ds, censoring, seed + 1)
    return ds


@pytest.fixture(scope="module")
def suite_fits():
    fits = []
    for entry in SUITE:
        ds = _suite_dataset(entry)
        fit = fit_npml(ds, entry[5], entry[6], SUITE_OPTS)
        fits.append((entry[0], ds, fit))
    return fits


@pytest.fixture(scope="module")
def consistency_run():
    cfg = ExperimentConfig(
        kind="consistency",
        spec=PK,
        truth=PK_TRUTH,
        box=PK_BOX,
        initial_counts=(7, 7),
        n_schedule=(100, 400, 1600),
        seeds=tuple(range(20)),
        options=FitOptions(
            tol_rel_loglik=1e-11, max_em_iters=4000, prune_eps=1e-6, refine_grid=33, max_refinements=12
        ),
    )
    start = time.perf_counter()
    rows = run_consistency_experiment(cfg)
    elapsed = time.perf_counter() - start
    return cfg, rows, elapsed


def _monotonicity_instances():
    """200 randomized instances: synthetic kernel tables plus simulated ones."""
    rng = np.random.default_rng(99)
    instances = []
    for _ in range(176):
        N = int(rng.integers(1, 501))
        m = int(rng.integers(1, 65))
        scale = float(rng.uniform(0.2, 3.0))
        instances.append(KernelMatrix(scale * rng.normal(size=(N, m))))
    specs = [
        (LOC, LOC_TRUTH, LOC_BOX),
        (LOC_HET, LOC_TRUTH, LOC_BOX),
        (LOC_LAP, LOC_TRUTH, LOC_BOX),
        (PK, PK_TRUTH, PK_BOX),
        (PK_HET, PK_TRUTH, PK_BOX),
        (PK, PK_TRUTH, PK_BOX),
    ]
    for k in range(24):
        spec, truth, box = specs[k % len(specs)]
        N = int(rng.integers(20, 301))
        ds = simulate_dataset(spec, truth, N, seed=5000 + k)
        if k % len(specs) == 5:
            ds = apply_censoring(ds, PK_CENSORING, seed=6000 + k)
        counts = [int(rng.integers(2, 9))] * spec.p
        atoms_measure = new_uniform_grid_measure(box, counts)
        instances.append(build_kernel_matrix(ds, atoms_measure))
    return instances


def test_criterion_1_em_monotonicity():
    with criterion(1, "EM monotonicity"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        opts = FitOptions(tol_rel_loglik=1e-13, max_em_iters=150)
        count = 0
        for km in _monotonicity_instances():
            w0 = rng.exponential(size=km.m)
            w0 = w0 / w0.sum()
            _, trace, _, _ = em_fit(km, w0, opts)
            assert np.min(np.diff(trace)) >= -1e-12
            count += 1
        assert count == 200
        assert time.perf_counter() - start < 60.0


def test_criterion_2_concavity():
    with criterion(2, "concavity of the weight log-likelihood"):
        start = time.perf_counter()
        rng = np.random.default_rng(8)
        draws = 0
        while draws < 1000:
            N = int(rng.integers(1, 40))
            m = int(rng.integers(2, 10))
            km = KernelMatrix(float(rng.uniform(0.3, 2.5)) * rng.normal(size=(N, m)))
            for _ in range(10):
                w1 = rng.exponential(size=m)
                w1 = w1 / w1.sum()
                w2 = rng.exponential(size=m)
                w2 = w2 / w2.sum()
                lam = float(rng.uniform(0.0, 1.0))
                (_, defect), = concavity_probe(km, w1, w2, [lam])
                assert defect >= -1e-10
                draws += 1
        assert time.perf_counter() - start < 10.0


def test_criterion_3_certificates(suite_fits):
    with criterion(3, "optimality certificates on the suite"):
        for label, ds, fit in suite_fits:
            assert fit.status == "converged", label
            assert fit.certificate.sup_dir_derivative <= 1.0 + 1e-6, label
            d = directional_derivatives(ds, fit.measure, fit.measure.atoms)
            heavy = fit.measure.weights > SUITE_OPTS.prune_eps
            assert np.all(np.abs(d[heavy] - 1.0) <= 1e-6), label


def test_criterion_4_support_size_bound(suite_fits):
    with criterion(4, "discrete-optimum atom bound"):
        for label, ds, fit in suite_fits:
            pruned = prune(fit.measure, 1e-8)
            assert pruned.m <= ds.N + 1, label


def test_criterion_5_oracle_equivalence():
    with criterion(5, "EM matches the exhaustive oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        opts = FitOptions(tol_rel_loglik=1e-15, max_em_iters=500_000)
        for _ in range(50):
            N = int(rng.integers(1, 6))
            m = int(rng.integers(1, 4))
            km = KernelMatrix(0.7 * rng.normal(size=(N, m)))
            _, trace, _, _ = em_fit(km, np.full(m, 1.0 / m), opts)
            w_oracle = brute_force_oracle(km, 2000)
            assert abs(trace[-1] - log_likelihood(km, w_oracle)) <= 1e-6
        assert time.perf_counter() - start < 60.0


def test_criterion_6_consistency(consistency_run):
    with criterion(6, "consistency of the discrete estimator"):
        cfg, rows, elapsed = consistency_run
        medians = {}
        for N in cfg.n_schedule:
            dists = [r.distance_to_truth for r in rows if r.N == N]
            assert len(dists) == len(cfg.seeds)
            assert all(d >= 0 for d in dists)
            medians[N] = float(np.median(dists))
        assert medians[100] > medians[400] > medians[1600]
        assert medians[1600] <= 0.5 * medians[100]
        assert elapsed < 900.0


def test_criterion_6_row_bookkeeping(consistency_run):
    # companion check, not a numbered criterion: rows are complete and bounded
    cfg, rows, _ = consistency_run
    assert len(rows) == len(cfg.n_schedule) * len(cfg.seeds)
    for r in rows:
        assert r.atom_count <= r.N + 1


def test_criterion_7_sieve_convergence():
    with criterion(7, "sieve fits approach the discrete optimum"):
        start = time.perf_counter()
        spec = ModelSpec(p=1, n=2, sigma=0.3, f=IdentityLocation(), time_design=TD2)
        ds = simulate_dataset(spec, LOC_TRUTH, 400, seed=42)
        npml = fit_npml(ds, LOC_BOX, (9,), SUITE_OPTS)
        assert npml.status == "converged"
        sieve_opts = FitOptions(tol_rel_loglik=1e-14, max_em_iters=400_000)
        gaps = []
        for cells in (4, 8, 16, 32):
            fit = fit_sieve(ds, SieveBasis(LOC_BOX, [cells + 1]), sieve_opts)
            gaps.append(npml.final_loglik - fit.final_loglik)
        assert all(g >= -1e-9 for g in gaps)
        assert all(a >= b - 1e-12 for a, b in zip(gaps[:-1], gaps[1:]))
        assert gaps[-1] <= 0.1 * gaps[0]
        assert time.perf_counter() - start < 300.0


def test_criterion_8_contrast_invariance():
    with criterion(8, "contrast functions agree at the optimum"):
        for spec, truth, box, counts, seed in (
            (LOC, LOC_TRUTH, LOC_BOX, (5,), 61),
            (PK, PK_TRUTH, PK_BOX, (5, 5), 62),
        ):
            cfg = ExperimentConfig(
                kind="contrast",
                spec=spec,
                truth=truth,
                box=box,
                initial_counts=counts,
                n_schedule=(100,),
                seeds=(seed,),
                options=SUITE_OPTS,
                competitors=50,
            )
            _, maxima = run_contrast_experiment(cfg)
            assert set(maxima) == {"log", "t-1", "1-1/t"}
            for tag, value in maxima.items():
                assert value <= 1e-6, (tag, value)


def test_criterion_9_censoring_reduction():
    with criterion(9, "full-mask censoring reproduces the likelihood"):
        ds = simulate_dataset(PK, PK_TRUTH, 100, seed=71)
        censored = apply_censoring(ds, CensoringDesign(((CensorMask.full(4), 1.0),)), 72)
        rng = np.random.default_rng(73)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            atoms = rng.uniform([0.5, 0.05], [2.5, 1.2], size=(m, 2))
            w = rng.exponential(size=m)
            mu = MixingMeasure(atoms, w / w.sum())
            a = log_likelihood(build_kernel_matrix(ds, mu), mu.weights)
            b = log_likelihood(build_kernel_matrix(censored, mu), mu.weights)
            assert abs(a - b) <= 1e-12


def test_criterion_10_heteroscedastic_model(suite_fits):
    with criterion(10, "heteroscedastic variance and fit behaviour"):
        # simulated conditional variance matches sigma^2 + g^2 per component
        spec = ModelSpec(
            p=1,
            n=3,
            sigma=1.0,
            f=IdentityLocation(),
            time_design=TimeDesign(((0.0, 1.0), (1.0, 2.0), (2.0, 3.0))),
            sigma_prime=0.5,
        )
        truth = MixingMeasure(np.array([[2.0]]), [1.0])
        N = 100_000
        ds = simulate_dataset(spec, truth, N, seed=81)
        [(_, _, Y, _)] = ds.mask_groups
        resid = Y - 2.0
        target = spec.sigma**2 + (spec.sigma_prime * 2.0) ** 2
        for j in range(spec.n):
            column = resid[:, j]
            se = target * math.sqrt(2.0 / (column.size - 1))
            assert abs(column.var(ddof=1) - target) <= 3 * se, j

        # EM monotonicity on heteroscedastic instances (criterion 1 on Eq-7 data)
        rng = np.random.default_rng(82)
        for k in range(10):
            ds_het = simulate_dataset(PK_HET, PK_TRUTH, int(rng.integers(30, 200)), seed=8300 + k)
            grid = new_uniform_grid_measure(PK_BOX, [4, 4])
            km = build_kernel_matrix(ds_het, grid)
            _, trace, _, _ = em_fit(km, grid.weights, FitOptions(max_em_iters=200))
            assert np.min(np.diff(trace)) >= -1e-12

        # certificate criterion also holds on the heteroscedastic suite fits
        het_labels = {"pk-heteroscedastic", "location-heteroscedastic"}
        seen = set()
        for label, ds_fit, fit in suite_fits:
            if label not in het_labels:
                continue
            seen.add(label)
            assert fit.status == "converged"
            assert fit.certificate.sup_dir_derivative <= 1.0 + 1e-6
            d = directional_derivatives(ds_fit, fit.measure, fit.measure.atoms)
            heavy = fit.measure.weights > SUITE_OPTS.prune_eps
            assert np.all(np.abs(d[heavy] - 1.0) <= 1e-6)
        assert seen == het_labels
