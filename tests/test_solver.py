import math
from dataclasses import replace

import numpy as np
import pytest

from npmlmix import (
    CensorMask,
    CensoringDesign,
    Dataset,
    FitOptions,
    IdentityLocation,
    InvalidArgumentError,
    KernelMatrix,
    MixingMeasure,
    ModelSpec,
    Observation,
    TimeDesign,
    apply_censoring,
    brute_force_oracle,
    build_kernel_matrix,
    certify,
    concavity_probe,
    directional_derivatives,
    em_fit,
    em_step,
    fit_npml,
    fit_sieve,
    log_likelihood,
    new_uniform_grid_measure,
    simulate_dataset,
    SieveBasis,
)
from npmlmix import likelihood, solver
from npmlmix.likelihood import kernel_columns, row_log_mixture
from npmlmix.solver import _exp_mean, _guarded_prune, _refine, _scan_certificate, _scan_table

TIGHT = FitOptions(tol_rel_loglik=1e-14, max_em_iters=200000)


def location_model(sigma, n=1):
    intervals = tuple((float(j), float(j + 1)) for j in range(n))
    return ModelSpec(
        p=1, n=n, sigma=sigma, f=IdentityLocation(), time_design=TimeDesign(intervals)
    )


def two_to_one_dataset():
    """Single observation whose kernel values at atoms 0 and u are exactly 2 and 1."""
    sigma = 1.0 / (2.0 * math.sqrt(2.0 * math.pi))  # peak density = 2
    spec = location_model(sigma)
    u = sigma * math.sqrt(2.0 * math.log(2.0))  # density falls to 1 there
    ds = Dataset(spec=spec, observations=(Observation([0.0], [0.5]),), seed=0)
    mu = MixingMeasure(np.array([[0.0], [u]]), [0.5, 0.5])
    return ds, mu, u


class TestEmStep:
    def test_single_column_fixed(self):
        km = KernelMatrix(np.log(np.array([[3.0], [0.5]])))
        np.testing.assert_allclose(em_step(km, [1.0]), [1.0])

    def test_identical_columns_symmetric_fixed_point(self):
        km = KernelMatrix(np.log(np.array([[2.0, 2.0], [0.7, 0.7]])))
        np.testing.assert_allclose(em_step(km, [0.5, 0.5]), [0.5, 0.5])

    def test_hand_update(self):
        km = KernelMatrix(np.log(np.array([[2.0, 1.0]])))
        np.testing.assert_allclose(em_step(km, [0.5, 0.5]), [2 / 3, 1 / 3], atol=1e-15)

    def test_zero_weights_stay_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            km = KernelMatrix(rng.normal(size=(4, 5)))
            w = rng.exponential(size=5)
            w[rng.integers(0, 5)] = 0.0
            w /= w.sum()
            out = em_step(km, w)
            assert np.all(out[w == 0.0] == 0.0)

    def test_returns_simplex(self):
        rng = np.random.default_rng(2)
        km = KernelMatrix(rng.normal(size=(7, 4)))
        w = em_step(km, np.full(4, 0.25))
        assert abs(w.sum() - 1.0) <= 1e-12 and np.all(w >= 0)


class TestEmFit:
    def test_fixed_point_converges_in_one_iteration(self):
        km = KernelMatrix(np.log(np.array([[2.0], [1.0]])))
        w, trace, iterations, status = em_fit(km, [1.0])
        assert iterations == 1 and status == "converged"
        np.testing.assert_allclose(w, [1.0])

    def test_single_observation_concentrates(self):
        km = KernelMatrix(np.log(np.array([[2.0, 1.0]])))
        w, trace, iterations, status = em_fit(km, [0.5, 0.5], TIGHT)
        assert status == "converged"
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)
        assert trace[-1] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_monotone_traces_on_random_instances(self):
        rng = np.random.default_rng(3)
        opts = FitOptions(tol_rel_loglik=1e-12, max_em_iters=300)
        for _ in range(100):
            N, m = int(rng.integers(1, 30)), int(rng.integers(1, 12))
            km = KernelMatrix(2.0 * rng.normal(size=(N, m)))
            w0 = rng.exponential(size=m)
            w0 /= w0.sum()
            _, trace, _, _ = em_fit(km, w0, opts)
            assert np.min(np.diff(trace)) >= -1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        km = KernelMatrix(rng.normal(size=(6, 4)))
        w0 = np.full(4, 0.25)
        perm = np.array([2, 0, 3, 1])
        w_plain, _, _, _ = em_fit(km, w0, TIGHT)
        w_perm, _, _, _ = em_fit(KernelMatrix(km.log_k[:, perm]), w0, TIGHT)
        np.testing.assert_allclose(w_perm, w_plain[perm], atol=1e-9)


class TestDirectionalDerivative:
    def test_delta_at_own_point(self):
        spec = location_model(0.5)
        ds = Dataset(spec=spec, observations=(Observation([0.4], [0.5]),), seed=0)
        mu = MixingMeasure(np.array([[1.1]]), [1.0])
        (d,) = directional_derivatives(ds, mu, np.array([[1.1]]))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_hand_value_four_thirds(self):
        ds, mu, _ = two_to_one_dataset()
        (d,) = directional_derivatives(ds, mu, np.array([[0.0]]))
        assert d == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_weighted_average_identity(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 40, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(10):
            atoms = rng.uniform([0.5, 0.1], [2.5, 1.2], size=(4, 2))
            w = rng.exponential(size=4)
            mu = MixingMeasure(atoms, w / w.sum())
            d = directional_derivatives(ds, mu, atoms)
            assert float(mu.weights @ d) == pytest.approx(1.0, abs=1e-10)


class TestCertify:
    def test_sup_one_at_concentrated_fit(self):
        spec = location_model(0.5)
        ds = Dataset(spec=spec, observations=(Observation([0.8], [0.5]),), seed=0)
        mu = MixingMeasure(np.array([[0.8]]), [1.0])  # the single-observation optimum
        cert = certify(ds, mu, [(0.0, 2.0)], grid_resolution=101)
        assert cert.sup_dir_derivative == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(cert.argmax_point, [0.8])

    def test_sup_above_one_at_uniform_weights(self):
        ds, mu, u = two_to_one_dataset()
        cert = certify(ds, mu, [(0.0, u)], grid_resolution=33)
        assert cert.sup_dir_derivative >= 4.0 / 3.0 - 1e-12

    def test_grid_of_support_atoms_only(self):
        spec = location_model(0.4)
        ds = Dataset(spec=spec, observations=(Observation([1.2], [0.5]),), seed=0)
        mu = MixingMeasure(np.array([[1.2]]), [1.0])
        cert = certify(ds, mu, [(1.2, 2.0)], grid_resolution=1)  # grid = {1.2} = the atom
        assert cert.sup_dir_derivative == pytest.approx(1.0, abs=1e-6)

    def test_deterministic_argmax_tie_break(self):
        spec = location_model(0.5, n=1)
        ds = Dataset(
            spec=spec,
            observations=(Observation([0.0], [0.5]), Observation([2.0], [0.5])),
            seed=0,
        )
        mu = MixingMeasure(np.array([[1.0]]), [1.0])
        # symmetric problem: d(0+x) = d(2-x); argmax must take the first grid point
        cert = certify(ds, mu, [(0.0, 2.0)], grid_resolution=21)
        assert cert.argmax_point[0] == pytest.approx(0.0)


class TestRefineSupport:
    def test_certified_measure_unchanged(self):
        spec = location_model(0.5)
        ds = Dataset(spec=spec, observations=(Observation([0.8], [0.5]),), seed=0)
        # a single start node sits at the box midpoint, here the optimum 0.8
        out = fit_npml(ds, [(0.0, 1.6)], [1], TIGHT).measure
        np.testing.assert_allclose(out.atoms, [[0.8]])
        np.testing.assert_allclose(out.weights, [1.0])

    def test_loglik_never_decreases(self, location_spec, two_point_location_truth):
        ds = simulate_dataset(location_spec, two_point_location_truth, 60, seed=7)
        mu0 = MixingMeasure(np.array([[0.5], [1.0], [2.0]]), [1 / 3, 1 / 3, 1 / 3])
        km0 = build_kernel_matrix(ds, mu0)
        before = log_likelihood(km0, mu0.weights)
        out = _refine(ds, mu0, np.array([(0.0, 2.5)]), FitOptions(max_em_iters=2000)).measure
        km1 = build_kernel_matrix(ds, out)
        assert log_likelihood(km1, out.weights) >= before - 1e-12

    def test_recovers_missing_two_point_support(self):
        spec = location_model(0.25, n=2)
        truth = MixingMeasure(np.array([[0.7], [1.8]]), [0.5, 0.5])
        ds = simulate_dataset(spec, truth, 800, seed=8)
        opts = FitOptions(tol_rel_loglik=1e-13, max_em_iters=50000, refine_grid=65)
        fit = fit_npml(ds, [(0.0, 2.5)], [3], opts)  # initial grid misses both atoms
        assert fit.certificate.sup_dir_derivative <= 1.0 + opts.refine_tol
        cell = 2.5 / 64
        for target in (0.7, 1.8):
            dist = np.min(np.abs(fit.measure.atoms[:, 0] - target))
            assert dist <= cell


class TestScanTable:
    """The scan grid's log-kernel table is built once per fit and reused bit for bit."""

    PK_BOX = np.array([(0.5, 2.5), (0.1, 1.2)])

    def test_one_kernel_column_per_grid_point_per_fit(self, pk_spec, two_point_pk_truth, monkeypatch):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 200, seed=3)
        original, original_insert = likelihood.kernel_columns, solver._insert_atom
        columns, insertions = [], []

        def counting_columns(ds_, points):
            out = original(ds_, points)
            columns.append(out.shape[1])
            return out

        def counting_insert(*args):
            insertions.append(1)
            return original_insert(*args)

        monkeypatch.setattr(likelihood, "kernel_columns", counting_columns)
        monkeypatch.setattr(solver, "kernel_columns", counting_columns)
        monkeypatch.setattr(solver, "_insert_atom", counting_insert)
        opts = FitOptions(max_em_iters=2000, refine_grid=9, max_refinements=4)
        fit_npml(ds, self.PK_BOX, [3, 3], opts)
        assert len(insertions) >= 2
        assert sum(columns) == 3 * 3 + 9 * 9

    @pytest.mark.parametrize("variant", ["pk", "heteroscedastic", "censored", "laplace"])
    def test_table_columns_equal_single_point_columns(self, pk_spec, two_point_pk_truth, variant):
        changes = {"heteroscedastic": {"sigma_prime": 0.3}, "laplace": {"noise": "laplace"}}
        spec = replace(pk_spec, **changes.get(variant, {}))
        ds = simulate_dataset(spec, two_point_pk_truth, 40, seed=4)
        if variant == "censored":
            design = CensoringDesign(((CensorMask(4, (0, 2)), 0.4), (CensorMask.full(4), 0.6)))
            ds = apply_censoring(ds, design, seed=5)
            assert len(ds.mask_groups()) == 2
        # 24 x 24 = 576 points: the table spans two of kernel_columns' atom blocks
        scan = _scan_table(ds, self.PK_BOX, 24)
        for j, point in enumerate(scan.grid):
            np.testing.assert_array_equal(scan.log_k[:, j : j + 1], kernel_columns(ds, point[None, :]))

    def test_blocked_exp_mean_equals_full_width(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 40, seed=7)
        # 64 x 64 = 4096 points: the exp-mean runs over two column blocks
        scan = _scan_table(ds, self.PK_BOX, 64)
        mu = new_uniform_grid_measure(self.PK_BOX, [3, 3])
        log_rows = row_log_mixture(build_kernel_matrix(ds, mu), mu.weights)
        full = np.exp(scan.log_k - log_rows[:, None]).mean(axis=0)
        np.testing.assert_array_equal(_exp_mean(scan.log_k, log_rows), full)

    def test_scan_of_pruned_support_equals_streaming_path(self, pk_spec, two_point_pk_truth, monkeypatch):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 300, seed=6)
        atoms = np.array([[1.0, 0.3], [2.0, 0.8], [1.4, 0.5], [0.9, 0.9], [2.5, 0.1]])
        w0 = np.array([0.3, 0.3, 0.2, 0.2 - 1e-9, 1e-9])
        km, w = _guarded_prune(build_kernel_matrix(ds, MixingMeasure(atoms, w0)), w0, 1e-8)
        assert km.m == 4 and not km.log_k.flags.c_contiguous
        scan = _scan_table(ds, self.PK_BOX, 9)
        seen = []
        original = solver._certificate

        def spy(values, candidates, resolution):
            seen.append(values)
            return original(values, candidates, resolution)

        monkeypatch.setattr(solver, "_certificate", spy)
        _scan_certificate(scan, km, w, 9)
        candidates = np.concatenate([scan.grid, km.atoms])
        expected = _exp_mean(kernel_columns(ds, candidates), row_log_mixture(km, w))
        np.testing.assert_array_equal(seen[0], expected)


class TestFitNpml:
    def test_single_observation_single_atom(self):
        spec = location_model(0.5)
        ds = Dataset(spec=spec, observations=(Observation([0.9], [0.5]),), seed=0)
        fit = fit_npml(ds, [(0.0, 2.0)], [5], TIGHT)
        assert fit.status == "converged"
        assert fit.measure.m == 1
        assert fit.measure.m <= ds.N + 1

    def test_atom_count_within_sample_size_bound(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 25, seed=9)
        fit = fit_npml(ds, [(0.5, 2.5), (0.1, 1.2)], [5, 5], FitOptions(max_em_iters=3000))
        assert fit.measure.m <= ds.N + 1

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            N, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            km = KernelMatrix(0.7 * rng.normal(size=(N, m)))
            w_em, trace, _, _ = em_fit(km, np.full(m, 1.0 / m), TIGHT)
            w_oracle = brute_force_oracle(km, 2000)
            assert abs(trace[-1] - log_likelihood(km, w_oracle)) <= 1e-6
            assert np.max(np.abs(w_em - w_oracle)) <= 2 / 2000 + 1e-4

    def test_trace_nondecreasing_and_final_matches(self, location_spec, two_point_location_truth):
        ds = simulate_dataset(location_spec, two_point_location_truth, 50, seed=11)
        fit = fit_npml(ds, [(0.0, 2.5)], [6], FitOptions(max_em_iters=2000))
        assert np.min(np.diff(fit.loglik_trace)) >= -1e-12
        km = build_kernel_matrix(ds, fit.measure)
        assert fit.final_loglik == pytest.approx(
            log_likelihood(km, fit.measure.weights), abs=1e-9
        )


class TestFitSieve:
    def test_single_element_basis(self, location_spec, two_point_location_truth):
        ds = simulate_dataset(location_spec, two_point_location_truth, 20, seed=12)
        basis = SieveBasis([(0.0, 2.5)], [1])
        fit = fit_sieve(ds, basis)
        np.testing.assert_allclose(fit.measure.coefficients, [1.0])
        from npmlmix import build_sieve_kernel_matrix

        km = build_sieve_kernel_matrix(ds, basis, 8)
        assert fit.final_loglik == pytest.approx(float(np.mean(km.log_k[:, 0])))

    def test_nested_bases_monotone(self, location_spec, two_point_location_truth):
        ds = simulate_dataset(location_spec, two_point_location_truth, 80, seed=13)
        opts = FitOptions(tol_rel_loglik=1e-12, max_em_iters=30000)
        lls = []
        for cells in (4, 8, 16):
            fit = fit_sieve(ds, SieveBasis([(0.0, 2.5)], [cells + 1]), opts)
            lls.append(fit.final_loglik)
        assert lls[0] <= lls[1] + 1e-9 and lls[1] <= lls[2] + 1e-9

    def test_certify_reproduces_fit_certificate(self, location_spec, two_point_location_truth):
        ds = simulate_dataset(location_spec, two_point_location_truth, 80, seed=13)
        opts = FitOptions(tol_rel_loglik=1e-12, max_em_iters=30000)
        for cells in (4, 8, 16):
            fit = fit_sieve(ds, SieveBasis([(0.0, 2.5)], [cells + 1]), opts, quad_points_per_cell=3)
            cert = certify(ds, fit.measure, quad_points_per_cell=3)
            assert cert.sup_dir_derivative == fit.certificate.sup_dir_derivative
            np.testing.assert_array_equal(cert.argmax_point, fit.certificate.argmax_point)
            assert cert.grid_resolution == fit.certificate.grid_resolution == cells + 1

    def test_sieve_approaches_npml_from_below(self, location_spec, two_point_location_truth):
        ds = simulate_dataset(location_spec, two_point_location_truth, 80, seed=13)
        opts = FitOptions(tol_rel_loglik=1e-12, max_em_iters=30000)
        npml = fit_npml(ds, [(0.0, 2.5)], [9], opts)
        gaps = []
        for cells in (4, 8, 16):
            fit = fit_sieve(ds, SieveBasis([(0.0, 2.5)], [cells + 1]), opts)
            gaps.append(npml.final_loglik - fit.final_loglik)
        assert all(g >= -1e-9 for g in gaps)
        assert gaps[0] >= gaps[1] >= gaps[2] - 1e-12


class TestBruteForceOracle:
    def test_single_column(self):
        km = KernelMatrix(np.log(np.array([[2.0], [1.0]])))
        np.testing.assert_array_equal(brute_force_oracle(km, 100), [1.0])

    def test_vertex_optimum(self):
        km = KernelMatrix(np.log(np.array([[2.0, 1.0]])))
        np.testing.assert_allclose(brute_force_oracle(km, 1000), [1.0, 0.0])

    def test_symmetric_interior_optimum(self):
        km = KernelMatrix(np.log(np.array([[2.0, 0.5], [0.5, 2.0]])))
        np.testing.assert_allclose(brute_force_oracle(km, 100), [0.5, 0.5])

    def test_lexicographic_tie_break(self):
        km = KernelMatrix(np.zeros((2, 2)))  # every weight vector ties
        np.testing.assert_allclose(brute_force_oracle(km, 10), [0.0, 1.0])

    def test_budget_guard(self):
        km = KernelMatrix(np.zeros((1, 5)))
        with pytest.raises(InvalidArgumentError):
            brute_force_oracle(km, 100)
        km4 = KernelMatrix(np.zeros((1, 4)))
        with pytest.raises(InvalidArgumentError):
            brute_force_oracle(km4, 5 * 10**6)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(14)
        km = KernelMatrix(rng.normal(size=(4, 3)))
        perm = np.array([2, 0, 1])
        w = brute_force_oracle(km, 60)
        w_perm = brute_force_oracle(KernelMatrix(km.log_k[:, perm]), 60)
        np.testing.assert_allclose(w_perm, w[perm])


class TestConcavityProbe:
    def test_equal_weights_zero_defect(self):
        rng = np.random.default_rng(15)
        km = KernelMatrix(rng.normal(size=(5, 3)))
        w = np.array([0.2, 0.5, 0.3])
        for _, defect in concavity_probe(km, w, w, [0.25, 0.5, 0.75]):
            assert defect == pytest.approx(0.0, abs=1e-14)

    def test_endpoints_zero_defect(self):
        rng = np.random.default_rng(16)
        km = KernelMatrix(rng.normal(size=(5, 3)))
        w1 = np.array([0.6, 0.3, 0.1])
        w2 = np.array([0.1, 0.1, 0.8])
        for _, defect in concavity_probe(km, w1, w2, [0.0, 1.0]):
            assert defect == pytest.approx(0.0, abs=1e-14)

    def test_hand_defect(self):
        km = KernelMatrix(np.log(np.array([[2.0, 1.0]])))
        (_, defect), = concavity_probe(km, [1.0, 0.0], [0.0, 1.0], [0.5])
        assert defect == pytest.approx(math.log(1.5) - 0.5 * math.log(2.0), abs=1e-12)
        assert defect == pytest.approx(0.0589, abs=1e-4)

    def test_defects_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            km = KernelMatrix(rng.normal(size=(6, 4)))
            w1 = rng.exponential(size=4)
            w1 /= w1.sum()
            w2 = rng.exponential(size=4)
            w2 /= w2.sum()
            for _, defect in concavity_probe(km, w1, w2, np.linspace(0.1, 0.9, 9)):
                assert defect >= -1e-10
