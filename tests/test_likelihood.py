import ast
import math
import tracemalloc
from functools import reduce
from pathlib import Path
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from npmlmix import (
    CensorMask,
    CensoringDesign,
    Dataset,
    IdentityLocation,
    InvalidArgumentError,
    KernelMatrix,
    LinearInS,
    MixingMeasure,
    ModelSpec,
    NumericDomainError,
    Observation,
    PkExp,
    SieveBasis,
    TimeDesign,
    apply_censoring,
    build_kernel_matrix,
    build_sieve_kernel_matrix,
    conditional_log_density,
    contrast_value,
    log_likelihood,
    simulate_dataset,
)
from npmlmix import likelihood, model, solver
from npmlmix.measures import TensorGrid, _tensor_points
from npmlmix.model import _forward, log_kernel_block

MiB = 2**20


def single_obs_dataset(spec, y, t):
    return Dataset(spec=spec, observations=(Observation(y, t),), seed=0)


def per_column_sieve_kernel(ds, basis, quad_points_per_cell):
    """Oracle: one masked log-sum-exp per basis column over the dense (Q, m) log basis table."""
    points, log_w = basis.quadrature(quad_points_per_cell)
    log_phi = basis.log_basis_values(points)
    log_kq = likelihood.kernel_columns(ds, points)
    out = np.empty((ds.N, basis.m))
    for j in range(basis.m):
        support = np.isfinite(log_phi[:, j])
        out[:, j] = logsumexp(log_kq[:, support] + (log_phi[support, j] + log_w[support])[None, :], axis=1)
    return out, log_kq.max(axis=1)


TD2 = TimeDesign(((0.0, 1.0), (1.0, 2.0)))
TD4 = TimeDesign(((0.0, 0.75), (0.75, 1.5), (1.5, 2.25), (2.25, 3.0)))
LOC_TRUTH = MixingMeasure(np.array([[0.7], [1.8]]), [0.5, 0.5])
PK_TRUTH = MixingMeasure(np.array([[1.0, 0.3], [2.0, 0.8]]), [0.5, 0.5])
LOC_BOX = [(0.0, 2.5)]
PK_BOX = [(0.5, 2.5), (0.05, 1.2)]
NOISE_VARIANTS = {"homoscedastic": {}, "heteroscedastic": {"sigma_prime": 0.3}, "laplace": {"noise": "laplace"}}


def sieve_case_dataset(p, variant, sigma, N, seed):
    """Location (p = 1) or PK (p = 2) data under one of the noise variants."""
    extra = NOISE_VARIANTS[variant]
    if p == 1:
        spec = ModelSpec(p=1, n=2, sigma=sigma, f=IdentityLocation(), time_design=TD2, **extra)
        return simulate_dataset(spec, LOC_TRUTH, N, seed)
    spec = ModelSpec(p=2, n=4, sigma=sigma, f=PkExp(), time_design=TD4, **extra)
    return simulate_dataset(spec, PK_TRUTH, N, seed)


class TestBuildKernelMatrix:
    def test_exact_fit_entry(self, location_spec):
        t = np.array([0.5, 1.5])
        mu = MixingMeasure(np.array([[1.0]]), [1.0])
        ds = single_obs_dataset(location_spec, np.array([1.0, 1.0]), t)
        km = build_kernel_matrix(ds, mu)
        expect = -(location_spec.n / 2) * math.log(2 * math.pi * location_spec.sigma**2)
        assert km.log_k[0, 0] == pytest.approx(expect)

    def test_duplicate_atoms_identical_columns(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 20, seed=1)
        mu = MixingMeasure(np.array([[1.0, 0.4], [1.0, 0.4]]), [0.5, 0.5])
        km = build_kernel_matrix(ds, mu)
        np.testing.assert_array_equal(km.log_k[:, 0], km.log_k[:, 1])

    def test_pk_entry_hand_value(self):
        spec = ModelSpec(p=2, n=1, sigma=1.0, f=PkExp(), time_design=TimeDesign(((0.5, 1.5),)))
        ds = single_obs_dataset(spec, np.array([1.0]), np.array([1.0]))
        km = build_kernel_matrix(ds, MixingMeasure(np.array([[1.0, 0.0]]), [1.0]))
        assert km.log_k[0, 0] == pytest.approx(-0.5 * math.log(2 * math.pi))
        assert km.log_k[0, 0] == pytest.approx(-0.918939, abs=1e-6)

    def test_matches_scalar_operation(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 7, seed=2)
        km = build_kernel_matrix(ds, two_point_pk_truth)
        for i, obs in enumerate(ds.observations):
            for j, atom in enumerate(two_point_pk_truth.atoms):
                assert km.log_k[i, j] == pytest.approx(
                    conditional_log_density(pk_spec, atom, obs), rel=1e-12
                )

    def test_censored_matches_scalar_operation(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 30, seed=3)
        design = CensoringDesign(
            ((CensorMask(4, (0, 2)), 0.4), (CensorMask.full(4), 0.4), (CensorMask.empty(4), 0.2))
        )
        censored = apply_censoring(ds, design, seed=4)
        km = build_kernel_matrix(censored, two_point_pk_truth)
        for i, obs in enumerate(censored.observations):
            for j, atom in enumerate(two_point_pk_truth.atoms):
                assert km.log_k[i, j] == pytest.approx(
                    conditional_log_density(pk_spec, atom, obs), rel=1e-12
                )

    def test_full_mask_censoring_equals_uncensored_exactly(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 25, seed=5)
        censored = apply_censoring(ds, CensoringDesign(((CensorMask.full(4), 1.0),)), seed=6)
        km_plain = build_kernel_matrix(ds, two_point_pk_truth)
        km_censored = build_kernel_matrix(censored, two_point_pk_truth)
        np.testing.assert_array_equal(km_plain.log_k, km_censored.log_k)

    def test_atom_outside_domain_rejected(self, location_spec, two_point_location_truth):
        ds = simulate_dataset(location_spec, two_point_location_truth, 5, seed=7)
        spec_pk = ModelSpec(
            p=2, n=2, sigma=0.5, f=PkExp(), time_design=location_spec.time_design
        )
        ds_pk = simulate_dataset(
            spec_pk, MixingMeasure(np.array([[1.0, 0.5]]), [1.0]), 5, seed=8
        )
        bad = MixingMeasure(np.array([[1.0, -600.0]]), [1.0])  # exp overflows
        with pytest.raises(InvalidArgumentError):
            build_kernel_matrix(ds_pk, bad)
        del ds

    def test_finite_entries_invariant(self):
        with pytest.raises(InvalidArgumentError):
            KernelMatrix(np.array([[0.0, -np.inf]]))


def _memory_order_lines(path: Path) -> list:
    """Lines of a module that call ascontiguousarray or asfortranarray, or pass ``order=``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if name in ("ascontiguousarray", "asfortranarray") or any(k.arg == "order" for k in node.keywords):
                lines.append(node.lineno)
    return lines


def test_only_kernel_matrix_names_a_memory_order():
    # KernelMatrix decides the kernel's layout; code that re-lays a table out elsewhere
    # makes a copy and lets a fit's bits depend on which code built the table
    for path in sorted(Path(likelihood.__file__).parent.glob("*.py")):
        if path.name != "likelihood.py":
            lines = _memory_order_lines(path)
            assert not lines, f"{path.name} names a memory order on lines {lines}"


class TestSieveKernelMatrix:
    def test_uniform_cell_closed_form(self):
        # oracle: integral of the Gaussian kernel against the uniform density
        # on [a, b] is (Phi((y-a)/sigma) - Phi((y-b)/sigma)) / (b-a)
        spec = ModelSpec(
            p=1, n=1, sigma=0.5, f=IdentityLocation(), time_design=TimeDesign(((0.0, 1.0),))
        )
        ds = single_obs_dataset(spec, np.array([0.3]), np.array([0.5]))
        basis = SieveBasis([(0.0, 1.0)], [1])
        km = build_sieve_kernel_matrix(ds, basis, quad_points_per_cell=16)
        Phi = NormalDist().cdf
        exact = (Phi((0.3 - 0.0) / 0.5) - Phi((0.3 - 1.0) / 0.5)) / 1.0
        assert np.exp(km.log_k[0, 0]) == pytest.approx(exact, abs=1e-8)

    def test_point_like_cell_matches_discrete_entry(self):
        spec = ModelSpec(
            p=1, n=1, sigma=0.5, f=IdentityLocation(), time_design=TimeDesign(((0.0, 1.0),))
        )
        ds = single_obs_dataset(spec, np.array([0.4]), np.array([0.5]))
        h = 1e-6
        basis = SieveBasis([(0.7 - h / 2, 0.7 + h / 2)], [1])
        km_sieve = build_sieve_kernel_matrix(ds, basis, 8)
        km_disc = build_kernel_matrix(ds, MixingMeasure(np.array([[0.7]]), [1.0]))
        assert km_sieve.log_k[0, 0] == pytest.approx(km_disc.log_k[0, 0], abs=1e-4)

    def test_quadrature_converged(self, location_spec, two_point_location_truth):
        ds = simulate_dataset(location_spec, two_point_location_truth, 12, seed=9)
        basis = SieveBasis([(0.0, 2.5)], [9])
        km8 = build_sieve_kernel_matrix(ds, basis, 8)
        km16 = build_sieve_kernel_matrix(ds, basis, 16)
        assert np.max(np.abs(km8.log_k - km16.log_k)) < 1e-10

    def test_rejects_zero_quad_points(self, location_spec, two_point_location_truth):
        ds = simulate_dataset(location_spec, two_point_location_truth, 3, seed=10)
        with pytest.raises(InvalidArgumentError):
            build_sieve_kernel_matrix(ds, SieveBasis([(0.0, 2.5)], [3]), 0)

    @pytest.mark.parametrize("variant", list(NOISE_VARIANTS))
    @pytest.mark.parametrize(
        "p, counts, quad_points, sigma",
        [(1, [1], 8, 0.3), (1, [9], 8, 0.3), (2, [5, 4], 6, 0.2)],
        ids=["1d-single-node", "1d-multi-node", "2d"],
    )
    def test_contraction_matches_per_column_oracle(self, variant, p, counts, quad_points, sigma):
        ds = sieve_case_dataset(p, variant, sigma, 60, seed=13)
        basis = SieveBasis(LOC_BOX if p == 1 else PK_BOX, counts)
        expect, _ = per_column_sieve_kernel(ds, basis, quad_points)
        km = build_sieve_kernel_matrix(ds, basis, quad_points)
        np.testing.assert_allclose(km.log_k, expect, rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "p, sigma, counts", [(1, 0.005, [33]), (2, 0.03, [9, 9])], ids=["location", "pk"]
    )
    def test_underflowing_entries_match_oracle(self, p, sigma, counts):
        # at these noise scales some basis columns lie so far from a row's kernel peak
        # that their shifted sum underflows; those entries take the log-sum-exp path
        ds = sieve_case_dataset(p, "homoscedastic", sigma, 40, seed=14)
        basis = SieveBasis(LOC_BOX if p == 1 else PK_BOX, counts)
        expect, shift = per_column_sieve_kernel(ds, basis, 8)
        assert np.any(expect - shift[:, None] < math.log(likelihood._SIEVE_UNDERFLOW))
        assert np.any(expect - shift[:, None] < math.log(np.finfo(float).tiny))
        km = build_sieve_kernel_matrix(ds, basis, 8)
        np.testing.assert_allclose(km.log_k, expect, rtol=1e-12, atol=0)

    def test_three_axis_contraction_matches_per_column_oracle(self):
        f = LinearInS(((1.0, 0.0), (0.0, 1.0), (1.0, -0.5)))
        spec = ModelSpec(p=3, n=3, sigma=0.3, f=f, time_design=TimeDesign(((0.0, 1.0), (1.0, 2.0), (2.0, 3.0))))
        truth = MixingMeasure(np.array([[0.5, 1.0, 0.2], [1.5, 0.3, 0.8]]), [0.5, 0.5])
        ds = simulate_dataset(spec, truth, 50, seed=15)
        basis = SieveBasis([(0.0, 2.0), (0.0, 1.5), (0.0, 1.0)], [3, 2, 4])
        expect, _ = per_column_sieve_kernel(ds, basis, 3)
        np.testing.assert_allclose(build_sieve_kernel_matrix(ds, basis, 3).log_k, expect, rtol=0, atol=1e-13)

    def test_log_sum_exp_runs_only_for_underflowing_entries(self, monkeypatch):
        calls = []
        real = likelihood.logsumexp
        monkeypatch.setattr(likelihood, "logsumexp", lambda a, axis: calls.append(a.shape) or real(a, axis=axis))
        build_sieve_kernel_matrix(sieve_case_dataset(2, "homoscedastic", 0.2, 60, seed=13), SieveBasis(PK_BOX, [9, 9]))
        assert calls == []
        tight = sieve_case_dataset(1, "homoscedastic", 0.005, 40, seed=14)
        build_sieve_kernel_matrix(tight, SieveBasis(LOC_BOX, [33]))
        assert 0 < sum(rows for rows, _ in calls) < tight.N * 33

    def test_rejects_censored_dataset(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 5, seed=11)
        censored = apply_censoring(ds, CensoringDesign(((CensorMask.full(4), 1.0),)), 12)
        with pytest.raises(InvalidArgumentError):
            build_sieve_kernel_matrix(censored, SieveBasis([(0.5, 2.5), (0.1, 1.0)], [3, 3]), 4)


def one_shot_sieve_kernel(ds, basis, quad_points_per_cell):
    """Reference: the sieve build on one (N, Q) table of every row, with the build's contraction and fix-up."""
    grid, _ = basis.quadrature(quad_points_per_cell)
    log_factors = basis.log_axis_factors(quad_points_per_cell)
    factors = [np.exp(f) for f in log_factors]
    log_kq = likelihood.kernel_columns(ds, grid)
    shift = log_kq.max(axis=1)
    sums = np.empty((ds.N, basis.m))
    for start in range(0, ds.N, likelihood._SIEVE_ROW_BLOCK):
        rows = slice(start, start + likelihood._SIEVE_ROW_BLOCK)
        part = np.exp(log_kq[rows] - shift[rows, None]).reshape((-1,) + tuple(f.shape[0] for f in factors))
        for f in reversed(factors):
            part = np.moveaxis(part @ f, -1, 1)
        sums[rows] = part.reshape(part.shape[0], -1)
    low_rows, low_cols = np.nonzero(sums < likelihood._SIEVE_UNDERFLOW)
    with np.errstate(divide="ignore"):
        out = np.log(sums) + shift[:, None]
    for j in np.unique(low_cols):
        rows_j = low_rows[low_cols == j]
        per_axis = (f[:, c] for f, c in zip(log_factors, np.unravel_index(j, basis.node_counts)))
        log_b = reduce(np.add.outer, per_axis).reshape(-1)
        support = np.isfinite(log_b)
        out[rows_j, j] = likelihood.logsumexp(log_kq[np.ix_(rows_j, support)] + log_b[support], axis=1)
    return out, len(low_rows)


class TestSieveRowBlocks:
    """The sieve build takes its rows in blocks of a byte budget, with the bits of one table of every row."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        p=st.sampled_from([1, 2]),
        variant=st.sampled_from(sorted(NOISE_VARIANTS)),
        sigma=st.sampled_from([0.005, 0.02, 0.05, 0.3]),
        N=st.integers(1, 150),
        seed=st.integers(0, 10**6),
        cells=st.integers(1, 12),
        quad_points=st.integers(1, 8),
        blocks=st.integers(1, 3),
    )
    @example(p=1, variant="homoscedastic", sigma=0.005, N=97, seed=14, cells=33, quad_points=8, blocks=1)
    @example(p=2, variant="homoscedastic", sigma=0.03, N=70, seed=14, cells=8, quad_points=8, blocks=2)
    @example(p=2, variant="heteroscedastic", sigma=0.05, N=65, seed=3, cells=4, quad_points=6, blocks=1)
    @example(p=2, variant="laplace", sigma=0.02, N=131, seed=5, cells=5, quad_points=4, blocks=3)
    def test_row_blocks_have_the_bits_of_one_table(self, p, variant, sigma, N, seed, cells, quad_points, blocks):
        ds = sieve_case_dataset(p, variant, sigma, N, seed)
        basis = SieveBasis(LOC_BOX if p == 1 else PK_BOX, [cells + 1] if p == 1 else [cells // 2 + 2, cells + 1])
        expected, fixed = one_shot_sieve_kernel(ds, basis, quad_points)
        grid = basis.quadrature(quad_points)[0]
        rows = blocks * likelihood._SIEVE_ROW_BLOCK  # rows per block of the build
        calls, real = [], likelihood.kernel_columns
        with mock.patch.object(likelihood, "_SIEVE_TABLE_BYTES", 8 * len(grid) * rows), mock.patch.object(
            likelihood, "kernel_columns", lambda ds_, points: calls.append((ds_, points)) or real(ds_, points)
        ):
            km = build_sieve_kernel_matrix(ds, basis, quad_points)
        np.testing.assert_array_equal(km.log_k, expected)
        assert len(calls) == -(-N // rows)
        for part, points in calls:
            assert isinstance(points, TensorGrid)
            np.testing.assert_array_equal(np.asarray(points), np.asarray(grid))
        tiled = [o for part, _ in calls for o in part.observations]
        assert len(tiled) == N and all(a is b for a, b in zip(tiled, ds.observations))
        if (p, variant, sigma, N) == (1, "homoscedastic", 0.005, 97):
            assert fixed > 0  # this example reaches the log-sum-exp fix-up in several row blocks

    def test_sieve_build_traces_a_fixed_budget(self):
        # the 2d-16 rule of the sieve-nested benchmark, 16,384 points at N = 400: its one (N, Q) table alone
        # was 50 MiB, and the build traced 59.9 MiB; row blocks of 8 MiB keep it near 14 MiB
        ds = sieve_case_dataset(2, "homoscedastic", 0.2, 400, seed=42)
        ds.mask_groups
        tracemalloc.start()
        try:
            build_sieve_kernel_matrix(ds, SieveBasis(PK_BOX, [17, 17]), 8)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traced <= 16 * MiB


class TestLogLikelihood:
    def test_single_column_average(self):
        log_k = np.log(np.array([[2.0], [3.0], [0.5]]))
        km = KernelMatrix(log_k)
        assert log_likelihood(km, [1.0]) == pytest.approx(np.mean(log_k))

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(13)
        log_k = rng.normal(size=(6, 4))
        w = rng.exponential(size=4)
        w /= w.sum()
        perm = rng.permutation(4)
        a = log_likelihood(KernelMatrix(log_k), w)
        b = log_likelihood(KernelMatrix(log_k[:, perm]), w[perm])
        assert a == pytest.approx(b, abs=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(14)
        log_k = rng.normal(size=(9, 3))
        w = np.array([0.2, 0.5, 0.3])
        a = log_likelihood(KernelMatrix(log_k), w)
        b = log_likelihood(KernelMatrix(log_k[rng.permutation(9)]), w)
        assert a == pytest.approx(b, abs=1e-12)

    def test_hand_value(self):
        km = KernelMatrix(np.log(np.array([[2.0, 1.0]])))
        assert log_likelihood(km, [0.5, 0.5]) == pytest.approx(math.log(1.5))
        assert log_likelihood(km, [0.5, 0.5]) == pytest.approx(0.405465, abs=1e-6)

    def test_zero_weights_allowed_if_some_positive(self):
        km = KernelMatrix(np.log(np.array([[2.0, 1.0]])))
        assert log_likelihood(km, [1.0, 0.0]) == pytest.approx(math.log(2.0))

    def test_all_zero_weights_rejected(self):
        km = KernelMatrix(np.log(np.array([[2.0, 1.0]])))
        with pytest.raises(InvalidArgumentError):
            log_likelihood(km, [0.0, 0.0])

    def test_underflow_resistant(self):
        km = KernelMatrix(np.array([[-800.0, -810.0]]))
        value = log_likelihood(km, [0.5, 0.5])
        assert math.isfinite(value)
        assert value == pytest.approx(-800.0 + math.log(0.5 * (1 + math.exp(-10.0))))

    def test_concavity_in_weights(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            km = KernelMatrix(rng.normal(size=(rng.integers(1, 8), 5)))
            w1 = rng.exponential(size=5)
            w1 /= w1.sum()
            w2 = rng.exponential(size=5)
            w2 /= w2.sum()
            for lam in np.linspace(0.1, 0.9, 9):
                mixed = log_likelihood(km, lam * w1 + (1 - lam) * w2)
                assert mixed >= lam * log_likelihood(km, w1) + (1 - lam) * log_likelihood(
                    km, w2
                ) - 1e-10


class TestContrastValue:
    def test_zero_at_equal_weights(self):
        rng = np.random.default_rng(21)
        km = KernelMatrix(rng.normal(size=(8, 3)))
        w = rng.exponential(size=3)
        w /= w.sum()
        for tag in ("log", "t-1", "1-1/t"):
            assert contrast_value(km, w, w, tag) == 0.0

    def test_scalar_values_at_ratio_two(self):
        km = KernelMatrix(np.log(np.array([[2.0, 1.0]])))
        w_mu, w_hat = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert contrast_value(km, w_mu, w_hat, "log") == pytest.approx(0.6931, abs=1e-4)
        assert contrast_value(km, w_mu, w_hat, "t-1") == pytest.approx(1.0)
        assert contrast_value(km, w_mu, w_hat, "1-1/t") == pytest.approx(0.5)

    def test_t_minus_1_is_mean_ratio_minus_one(self):
        rng = np.random.default_rng(22)
        km = KernelMatrix(rng.normal(size=(6, 3)))
        w_mu = np.array([0.2, 0.3, 0.5])
        w_hat = np.array([0.4, 0.4, 0.2])
        from npmlmix import row_log_mixture

        ratios = np.exp(row_log_mixture(km, w_mu) - row_log_mixture(km, w_hat))
        assert contrast_value(km, w_mu, w_hat, "t-1") == pytest.approx(np.mean(ratios) - 1.0)

    def test_unknown_tag_rejected(self):
        km = KernelMatrix(np.zeros((1, 1)))
        with pytest.raises(InvalidArgumentError):
            contrast_value(km, [1.0], [1.0], "sqrt")

    def test_overflowing_ratio_rejected(self):
        km = KernelMatrix(np.array([[800.0, -800.0]]))
        with pytest.raises(NumericDomainError):
            contrast_value(km, [1.0, 0.0], [0.0, 1.0], "t-1")


class TestCensoredEdgeCases:
    def test_conditional_density_accepts_plain_tuple(self, pk_spec):
        import math

        from npmlmix import conditional_log_density, project_mask

        s = np.array([1.2, 0.4])
        t = np.array([0.3, 0.8, 1.3, 1.8])
        y = np.array([1.0, 0.9, 0.8, 0.7])
        mask = CensorMask(4, (1, 3))
        via_tuple = conditional_log_density(pk_spec, s, (project_mask(y, mask), t, mask))
        assert math.isfinite(via_tuple)


# every kind of data a grid's kernel columns meet: (dataset builder, search box)
PK_CENSORING = CensoringDesign(((CensorMask(4, (0, 2)), 0.5), (CensorMask.full(4), 0.5)))
LINEAR = ModelSpec(p=2, n=2, sigma=0.3, f=LinearInS(((1.0, 0.5), (0.0, 1.0))), time_design=TD2)
GRID_CASES = {
    "pk": (lambda N, seed: sieve_case_dataset(2, "homoscedastic", 0.2, N, seed), PK_BOX),
    "pk-censored": (
        lambda N, seed: apply_censoring(sieve_case_dataset(2, "homoscedastic", 0.2, N, seed), PK_CENSORING, seed + 1),
        PK_BOX,
    ),
    "pk-heteroscedastic": (lambda N, seed: sieve_case_dataset(2, "heteroscedastic", 0.2, N, seed), PK_BOX),
    "pk-laplace": (lambda N, seed: sieve_case_dataset(2, "laplace", 0.2, N, seed), PK_BOX),
    "location": (lambda N, seed: sieve_case_dataset(1, "homoscedastic", 0.3, N, seed), LOC_BOX),
    "linear": (lambda N, seed: simulate_dataset(LINEAR, PK_TRUTH, N, seed), [(0.0, 2.5), (0.0, 1.0)]),
}


def peak_beyond_the_table(ds, candidates):
    """Traced peak of ``kernel_columns`` beyond the bytes of the table it returns."""
    ds.mask_groups  # built and cached outside the traced call
    tracemalloc.start()
    try:
        table = likelihood.kernel_columns(ds, candidates)
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return traced - table.nbytes


MANY = 601  # nodes on one axis, enough that a row block of ``log_kernel_block`` holds a few rows at most


class TestGridColumns:
    """A tensor grid's kernel columns, evaluated through its axes, have the bits of its points' columns."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        case=st.sampled_from(sorted(GRID_CASES)),
        N=st.integers(1, 30),
        seed=st.integers(0, 10**6),
        sizes=st.tuples(st.integers(1, 40), st.one_of(st.integers(1, 40), st.just(MANY))),
    )
    @example(case="pk", N=3, seed=1, sizes=[1, 1])
    @example(case="pk-censored", N=9, seed=2, sizes=[3, MANY])
    @example(case="pk-heteroscedastic", N=4, seed=3, sizes=[1, MANY])
    @example(case="location", N=5, seed=4, sizes=[MANY])
    @example(case="linear", N=6, seed=5, sizes=[MANY, 2])
    def test_grid_columns_equal_point_columns(self, case, N, seed, sizes):
        build, box = GRID_CASES[case]
        ds = build(N, seed)
        rng = np.random.default_rng(seed)
        axes = [rng.uniform(lo, hi, size) for (lo, hi), size in zip(box, sizes)]
        grid = TensorGrid(axes)
        assert len(grid) == math.prod(len(a) for a in axes)
        np.testing.assert_array_equal(np.asarray(grid), _tensor_points(axes))
        columns = likelihood.kernel_columns(ds, grid)
        np.testing.assert_array_equal(columns, likelihood.kernel_columns(ds, np.asarray(grid)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        case=st.sampled_from(sorted(GRID_CASES)),
        N=st.integers(1, 30),
        seed=st.integers(0, 10**6),
        sizes=st.tuples(st.integers(1, 40), st.one_of(st.integers(1, 40), st.just(MANY))),
    )
    @example(case="pk", N=3, seed=1, sizes=[2, MANY])
    @example(case="pk-censored", N=9, seed=2, sizes=[3, MANY])
    @example(case="pk-heteroscedastic", N=4, seed=3, sizes=[1, MANY])
    @example(case="pk-laplace", N=5, seed=4, sizes=[MANY, 3])
    @example(case="location", N=5, seed=4, sizes=[MANY])
    def test_log_kernel_block_on_a_grid_has_the_bits_of_its_points(self, case, N, seed, sizes):
        build, box = GRID_CASES[case]
        ds = build(N, seed)
        rng = np.random.default_rng(seed)
        grid = TensorGrid([rng.uniform(lo, hi, size) for (lo, hi), size in zip(box, sizes)])
        for mask, _, Z, T in ds.mask_groups:
            np.testing.assert_array_equal(
                log_kernel_block(ds.spec, grid, Z, T, mask), log_kernel_block(ds.spec, np.asarray(grid), Z, T, mask)
            )

    # reference peaks of kernel_columns on a 33 x 33 grid at N = 400, in tables, from a kernel loop that took
    # one log_kernel_block call per block; a peak may exceed them by 10%
    @pytest.mark.parametrize(
        "case, as_points, peak",
        [
            ("pk", False, 2.10),
            ("pk", True, 4.76),
            ("pk-censored", False, 1.64),
            ("pk-heteroscedastic", False, 13.9),
            ("pk-laplace", False, 7.0),
        ],
    )
    def test_kernel_columns_peak_memory(self, case, as_points, peak):
        build, box = GRID_CASES[case]
        ds = build(400, 0)
        grid = TensorGrid([np.linspace(lo, hi, 33) for lo, hi in box])
        candidates = np.asarray(grid) if as_points else grid
        ds.mask_groups  # built and cached outside the traced call
        tracemalloc.start()
        try:
            table = likelihood.kernel_columns(ds, candidates)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traced <= 1.1 * peak * table.nbytes

    @pytest.mark.parametrize("N", [400, 6400])
    @pytest.mark.parametrize(
        "case, as_points",
        [("pk", False), ("pk", True), ("pk-heteroscedastic", False), ("pk-laplace", True), ("linear", True)],
    )
    def test_kernel_columns_peak_memory_has_a_fixed_bound(self, case, as_points, N):
        # block temporaries fit a byte budget, so the peak beyond the table does not grow with N through them
        build, box = GRID_CASES[case]
        grid = TensorGrid([np.linspace(lo, hi, 33) for lo, hi in box])
        assert peak_beyond_the_table(build(N, 0), np.asarray(grid) if as_points else grid) <= 16 * MiB

    @pytest.mark.parametrize("case", ["pk", "pk-heteroscedastic", "pk-laplace"])
    def test_pk_grid_peak_beyond_the_table_does_not_grow_with_n(self, case):
        # a pk_exp grid's decay table exp(-rate * t) is taken per row block, so it fits the block budget too
        build, box = GRID_CASES[case]
        grid = TensorGrid([np.linspace(lo, hi, 33) for lo, hi in box])
        small, large = (peak_beyond_the_table(build(N, 0), grid) for N in (400, 6400))
        assert large - small <= MiB

    def test_start_grid_points_peak_at_eight_tables(self):
        # a 7 x 7 start grid at N = 1600 as points: exp(-rate * t) is four tables, taken in place,
        # then the result and the three products of y . e and e . e; 8.05 tables is 4.81 MiB
        build, box = GRID_CASES["pk"]
        ds = build(1600, 0)
        points = np.asarray(TensorGrid([np.linspace(lo, hi, 7) for lo, hi in box]))
        ds.mask_groups
        tracemalloc.start()
        try:
            table = likelihood.kernel_columns(ds, points)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traced <= 8.05 * table.nbytes

    @pytest.mark.parametrize("shape", [(1,), (7,), (5000,), (5, 1), (3, 800), (2, 2500), (4, 3, 200), (2, 30, 160)])
    def test_slabs_tile_the_grid_in_point_order(self, shape):
        grid = TensorGrid([np.arange(k) + 1000.0 * a for a, k in enumerate(shape)])
        points, size, covered = np.asarray(grid), solver._SCAN_BLOCK, 0
        for start, slab in grid.slabs(size):
            block = np.asarray(slab)
            assert start == covered and 1 <= len(slab) == len(block) <= size
            np.testing.assert_array_equal(block, points[start : start + len(block)])
            covered += len(block)
        assert covered == len(points)

    def test_point_outside_domain_rejected_on_a_grid(self):
        ds = sieve_case_dataset(2, "homoscedastic", 0.2, 5, seed=6)
        # exp(600 t) overflows; 1e308 exp(t) does, though exp(t) and 1e308 exp(-0.5 t) do not
        for grid in (TensorGrid([[1.0, 2.0], [0.5, -600.0]]), TensorGrid([[1.0, 1e308], [0.5, -1.0]])):
            for points in (grid, np.asarray(grid)):
                with pytest.raises(InvalidArgumentError, match="numeric domain"):
                    likelihood.kernel_columns(ds, points)

    def test_sieve_kernel_evaluates_its_rule_as_a_grid(self, monkeypatch):
        seen = []
        real = likelihood.kernel_columns
        monkeypatch.setattr(likelihood, "kernel_columns", lambda ds, points: seen.append(points) or real(ds, points))
        basis = SieveBasis(PK_BOX, [3, 4])
        build_sieve_kernel_matrix(sieve_case_dataset(2, "homoscedastic", 0.2, 10, seed=7), basis, 3)
        (grid,) = seen
        assert isinstance(grid, TensorGrid)
        np.testing.assert_array_equal(np.asarray(grid), np.asarray(basis.quadrature(3)[0]))


# three censor masks, one of them empty, so that one group's rows are all zeros
PK_CENSORING_EMPTY = CensoringDesign(
    ((CensorMask.empty(4), 0.2), (CensorMask(4, (0, 2)), 0.3), (CensorMask.full(4), 0.5))
)


class TestMaskGroupCalls:
    """``kernel_columns`` hands each mask group's rows to one ``log_kernel_block`` call, which writes only those."""

    @pytest.mark.parametrize("as_points", [False, True], ids=["grid", "points"])
    def test_one_log_kernel_block_call_per_mask_group(self, monkeypatch, as_points):
        ds = GRID_CASES["pk-censored"][0](40, 3)
        grid = TensorGrid([np.linspace(lo, hi, k) for (lo, hi), k in zip(PK_BOX, (3, MANY))])
        candidates = np.asarray(grid) if as_points else grid
        assert len(ds.mask_groups) == 2
        assert max(8 * len(candidates) * len(rows) for _, rows, _, _ in ds.mask_groups) > model._BLOCK_BYTES
        seen = []
        real = likelihood.log_kernel_block
        monkeypatch.setattr(
            likelihood, "log_kernel_block", lambda *args, **kwargs: seen.append(args[1]) or real(*args, **kwargs)
        )
        likelihood.kernel_columns(ds, candidates)
        assert len(seen) == len(ds.mask_groups)
        assert all(S is candidates for S in seen)

    @pytest.mark.parametrize("as_points", [False, True], ids=["grid", "points"])
    def test_out_keeps_the_rows_of_other_groups(self, as_points):
        ds = apply_censoring(sieve_case_dataset(2, "homoscedastic", 0.2, 30, 4), PK_CENSORING_EMPTY, 5)
        grid = TensorGrid([np.linspace(lo, hi, k) for (lo, hi), k in zip(PK_BOX, (2, MANY))])
        candidates = np.asarray(grid) if as_points else grid
        expected = likelihood.kernel_columns(ds, candidates)
        assert ds.mask_groups[0][0].cardinality == 0 and len(ds.mask_groups) == 3
        for mask, rows, Z, T in ds.mask_groups:
            out = np.full((ds.N, len(candidates)), np.nan)
            assert log_kernel_block(ds.spec, candidates, Z, T, mask, out=out, rows=rows) is out
            others = np.setdiff1d(np.arange(ds.N), rows)
            assert np.all(np.isnan(out[others]))
            np.testing.assert_array_equal(out[rows], expected[rows])
            if mask.cardinality == 0:
                assert np.all(out[rows] == 0.0)


class TestRowBlocks:
    """``log_kernel_block``'s row blocks move no bit: one row, or a few, per block give the default table."""

    @pytest.mark.parametrize("rows", ["one", "few"])
    @pytest.mark.parametrize("as_points", [False, True], ids=["grid", "points"])
    @pytest.mark.parametrize("case", sorted(GRID_CASES) + ["pk-censored-empty"])
    def test_small_row_blocks_have_the_bits_of_the_default(self, monkeypatch, case, as_points, rows):
        if case == "pk-censored-empty":
            ds = apply_censoring(sieve_case_dataset(2, "homoscedastic", 0.2, 40, 4), PK_CENSORING_EMPTY, 5)
            box = PK_BOX
        else:
            build, box = GRID_CASES[case]
            ds = build(40, 4)
        rng = np.random.default_rng(4)
        grid = TensorGrid([rng.uniform(lo, hi, size) for (lo, hi), size in zip(box, (5, 7))])
        candidates = np.asarray(grid) if as_points else grid
        expected = likelihood.kernel_columns(ds, candidates)
        assert 8 * len(candidates) * ds.spec.n * ds.N <= model._BLOCK_BYTES  # the default is one block
        # "few": 2n rows a block with homoscedastic Gaussian noise, 2n / k with k observed components of other noise
        budget = 1 if rows == "one" else 2 * 8 * len(candidates) * ds.spec.n
        monkeypatch.setattr(model, "_BLOCK_BYTES", budget)
        np.testing.assert_array_equal(likelihood.kernel_columns(ds, candidates), expected)


def residual_log_kernel(spec, points, Y, T, mask=None):
    """Reference: homoscedastic Gaussian log k_x(s) from the residual table y - f, and f itself."""
    F = _forward(spec, points, T)
    if mask is not None:
        F = F[:, :, list(mask.indices)]
    U = Y[:, None, :] - F
    sigma, k = spec.sigma, Y.shape[1]
    out = -0.5 * k * np.log(2.0 * math.pi * sigma * sigma) - np.einsum("ibj,ibj->ib", U, U) / (2.0 * sigma * sigma)
    if not np.all(np.isfinite(out)):
        raise InvalidArgumentError("conditional log-density is not finite for some atom")
    return out, F


def contraction_bound(spec, Y, F, reference):
    """The documented distance of the contracted kernel from the residual form."""
    eps = np.finfo(float).eps
    norms = np.linalg.norm(Y, axis=1)[:, None] + np.linalg.norm(F, axis=2)
    return 4 * eps * norms**2 / (2 * spec.sigma**2) + eps * np.abs(reference)


# model, search box and truth of the contracted-kernel checks; n = 4 so that the mask [0, 2] fits
CONTRACTION_MODELS = {
    "pk": (PkExp(), PK_BOX, PK_TRUTH),
    "location": (IdentityLocation(), LOC_BOX, LOC_TRUTH),
    "linear": (LinearInS(((1.0, 0.5), (0.0, 1.0))), [(0.0, 2.5), (0.0, 1.0)], PK_TRUTH),
}


class TestGaussianContraction:
    """The Gaussian kernel from ||y||^2 - 2 y.f + ||f||^2 stays within its bound of the residual form."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(sorted(CONTRACTION_MODELS)),
        sigma=st.sampled_from([0.001, 0.01, 0.2]),
        censored=st.booleans(),
        N=st.integers(1, 30),
        seed=st.integers(0, 10**6),
        sizes=st.tuples(st.integers(1, 30), st.integers(1, 30)),
    )
    def test_grid_and_point_columns_within_the_bound(self, model, sigma, censored, N, seed, sizes):
        f, box, truth = CONTRACTION_MODELS[model]
        spec = ModelSpec(p=len(box), n=4, sigma=sigma, f=f, time_design=TD4)
        ds = simulate_dataset(spec, truth, N, seed)
        if censored:
            ds = apply_censoring(ds, PK_CENSORING, seed + 1)
        rng = np.random.default_rng(seed)
        grid = TensorGrid([rng.uniform(lo, hi, size) for (lo, hi), size in zip(box, sizes)])
        points = np.asarray(grid)
        for columns in (likelihood.kernel_columns(ds, grid), likelihood.kernel_columns(ds, points)):
            for mask, rows, Z, T in ds.mask_groups:
                reference, F = residual_log_kernel(spec, points, Z, T, mask)
                bound = contraction_bound(spec, Z, F, reference)
                assert np.all(np.abs(columns[rows] - reference) <= bound)

    def test_overflowing_points_raise_as_the_residual_form(self):
        spec = ModelSpec(p=2, n=2, sigma=0.2, f=PkExp(), time_design=TimeDesign(((0.0, 0.75), (0.75, 1.5))))
        ds = simulate_dataset(spec, PK_TRUTH, 6, seed=3)
        [(_, _, Y, T)] = ds.mask_groups
        # exp(1000 t) overflows: outside the numeric domain. In the pair, each point's own f is finite, but
        # 1e300 * exp(200 t) is not, so a max|A| * max(e) check would call the pair outside the domain too;
        # f ~ 1e300 makes ||y - f||^2 overflow instead, in both forms.
        for points in ([[1.0, -1000.0]], [[1e300, 0.05], [1e-300, -200.0]]):
            points = np.array(points)
            with pytest.raises(InvalidArgumentError) as expected:
                residual_log_kernel(spec, points, Y, T)
            with pytest.raises(InvalidArgumentError) as raised:
                log_kernel_block(spec, points, Y, T)
            assert str(raised.value) == str(expected.value)
        tiny = np.array([[1e-300, -200.0]])
        reference, F = residual_log_kernel(spec, tiny, Y, T)
        assert np.all(np.abs(log_kernel_block(spec, tiny, Y, T) - reference) <= contraction_bound(spec, Y, F, reference))


def test_logsumexp_has_the_bits_of_scipy():
    rng = np.random.default_rng(31)
    for _ in range(300):
        rows, cols = (int(k) for k in rng.integers(1, 40, size=2))
        a = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(rows, cols))
        if rng.random() < 0.5:
            a = np.round(a, 1)  # many ties, among them ties at the row maximum
        ties = rng.random((rows, cols)) < 0.2
        a[ties] = a.max(axis=1, keepdims=True).repeat(cols, axis=1)[ties]
        gone = rng.random((rows, cols)) < 0.3
        gone[np.arange(rows), rng.integers(0, cols, rows)] = False  # every row keeps a finite entry
        a[gone] = -np.inf
        np.testing.assert_array_equal(likelihood.logsumexp(a, axis=1), logsumexp(a, axis=1))
