import ast
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    PkExp,
    TimeDesign,
    apply_censoring,
    brute_force_oracle,
    build_kernel_matrix,
    certify,
    concavity_probe,
    directional_derivatives,
    em_fit,
    fit_npml,
    fit_sieve,
    log_likelihood,
    new_uniform_grid_measure,
    simulate_dataset,
    SieveBasis,
)
from npmlmix import likelihood, solver
from npmlmix.likelihood import kernel_columns, row_log_mixture
from npmlmix.solver import _cnm, _mean_log, _newton_step, _nnls, _refine, _scan_certificate, _scan_table

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
    ds = Dataset(spec, np.array([[0.0]]), np.array([[0.5]]), seed=0)
    mu = MixingMeasure(np.array([[0.0], [u]]), [0.5, 0.5])
    return ds, mu, u


class TestEmStep:
    """One EM update: em_fit capped at a single iteration."""

    @staticmethod
    def step(km, w):
        return em_fit(km, w, FitOptions(max_em_iters=1))[0]

    def test_single_column_fixed(self):
        km = KernelMatrix(np.log(np.array([[3.0], [0.5]])))
        np.testing.assert_allclose(self.step(km, [1.0]), [1.0])

    def test_identical_columns_symmetric_fixed_point(self):
        km = KernelMatrix(np.log(np.array([[2.0, 2.0], [0.7, 0.7]])))
        np.testing.assert_allclose(self.step(km, [0.5, 0.5]), [0.5, 0.5])

    def test_hand_update(self):
        km = KernelMatrix(np.log(np.array([[2.0, 1.0]])))
        np.testing.assert_allclose(self.step(km, [0.5, 0.5]), [2 / 3, 1 / 3], atol=1e-15)

    def test_zero_weights_stay_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            km = KernelMatrix(rng.normal(size=(4, 5)))
            w = rng.exponential(size=5)
            w[rng.integers(0, 5)] = 0.0
            w /= w.sum()
            out = self.step(km, w)
            assert np.all(out[w == 0.0] == 0.0)

    def test_returns_simplex(self):
        rng = np.random.default_rng(2)
        km = KernelMatrix(rng.normal(size=(7, 4)))
        w = self.step(km, np.full(4, 0.25))
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

    def test_lost_mass_raises(self):
        # the only weighted column underflows to 0 in the row-shifted kernel
        km = KernelMatrix([[0.0, -800.0], [0.0, -790.0]])
        with pytest.raises(InvalidArgumentError, match="lost all mass"):
            em_fit(km, [0.0, 1.0])


class TestDirectionalDerivative:
    def test_delta_at_own_point(self):
        spec = location_model(0.5)
        ds = Dataset(spec, np.array([[0.4]]), np.array([[0.5]]), seed=0)
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

    def test_no_points_give_an_empty_array(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 40, seed=5)
        mu = new_uniform_grid_measure([(0.5, 2.5), (0.1, 1.2)], [2, 2])
        d = directional_derivatives(ds, mu, np.empty((0, 2)))
        assert d.shape == (0,) and d.dtype == np.float64

    def test_one_dimensional_points_are_a_column(self, monkeypatch):
        ds = Dataset(location_model(0.5), np.linspace(-1.0, 1.0, 7)[:, None], np.full((7, 1), 0.5), seed=0)
        mu = MixingMeasure(np.array([[-0.3], [0.4]]), [0.5, 0.5])
        points = np.linspace(-0.5, 0.5, 101)
        monkeypatch.setattr(solver, "_TABLE_BYTES", 8 * 101 * 3)  # three row blocks, of 3, 3 and 1 rows
        column = directional_derivatives(ds, mu, points[:, None])
        np.testing.assert_array_equal(directional_derivatives(ds, mu, points), column)


def count_kernel_columns(monkeypatch) -> list:
    """Patch both bindings of ``kernel_columns`` to record the (rows, points) shape of every table they build."""
    original, shapes = likelihood.kernel_columns, []

    def counting_columns(ds_, points):
        out = original(ds_, points)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(likelihood, "kernel_columns", counting_columns)
    monkeypatch.setattr(solver, "kernel_columns", counting_columns)
    return shapes


class TestCertify:
    def test_sup_one_at_concentrated_fit(self):
        spec = location_model(0.5)
        ds = Dataset(spec, np.array([[0.8]]), np.array([[0.5]]), seed=0)
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
        ds = Dataset(spec, np.array([[1.2]]), np.array([[0.5]]), seed=0)
        mu = MixingMeasure(np.array([[1.2]]), [1.0])
        cert = certify(ds, mu, [(1.2, 2.0)], grid_resolution=1)  # grid = {1.2} = the atom
        assert cert.sup_dir_derivative == pytest.approx(1.0, abs=1e-6)

    def test_deterministic_argmax_tie_break(self):
        spec = location_model(0.5, n=1)
        ds = Dataset(spec, np.array([[0.0], [2.0]]), np.array([[0.5], [0.5]]), seed=0)
        mu = MixingMeasure(np.array([[1.0]]), [1.0])
        # symmetric problem: d(0+x) = d(2-x); argmax must take the first grid point
        cert = certify(ds, mu, [(0.0, 2.0)], grid_resolution=21)
        assert cert.argmax_point[0] == pytest.approx(0.0)

    def test_streams_the_grid_in_scan_blocks(self, pk_spec, two_point_pk_truth, monkeypatch):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 40, seed=5)
        box = [(0.5, 2.5), (0.1, 1.2)]
        mu = new_uniform_grid_measure(box, [3, 3])
        shapes = count_kernel_columns(monkeypatch)
        monkeypatch.setattr(solver, "_TABLE_BYTES", 8 * 64 * 64 * 16)  # 16 rows per block
        certify(ds, mu, box, 64)  # 4096 grid points
        # the atoms' own columns at every row, then the grid in row blocks
        assert shapes == [(40, 9), (16, 64 * 64), (16, 64 * 64), (8, 64 * 64)]

    @pytest.mark.parametrize("resolution", [65, 129])
    def test_streamed_certify_holds_one_block(self, pk_spec, two_point_pk_truth, resolution):
        # the grid streams in row blocks of at most _TABLE_BYTES; the next block's kernel is built after the
        # last one is freed, so the peak is one block, the next block's temporaries and the atoms' table,
        # whatever the resolution: 65 x 65 points are 124-row blocks at N = 1600, 129 x 129 are 31-row blocks
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 1600, seed=0)
        mu = MixingMeasure(np.array([[1.0, 0.3], [2.0, 0.8], [1.5, 0.5]]), [0.4, 0.4, 0.2])
        ds.mask_groups
        tracemalloc.start()
        try:
            certify(ds, mu, [(0.5, 2.5), (0.05, 1.2)], resolution)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traced <= 1.5 * solver._TABLE_BYTES

    def test_certify_peak_beyond_the_measure_table_does_not_grow_with_n(self, pk_spec, two_point_pk_truth):
        # the grid's 65 x 65 kernel at N = 6400 would be 216 MiB; the streamed blocks stay within one budget
        mu = MixingMeasure(np.array([[1.0, 0.3], [2.0, 0.8], [1.5, 0.5]]), [0.4, 0.4, 0.2])
        peaks = []
        for N in (400, 6400):
            ds = simulate_dataset(pk_spec, two_point_pk_truth, N, seed=0)
            ds.mask_groups  # built and cached outside the traced call
            tracemalloc.start()
            try:
                certify(ds, mu, [(0.5, 2.5), (0.05, 1.2)], 65)
                traced = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks.append(traced - build_kernel_matrix(ds, mu).log_k.nbytes)
        assert peaks[1] - peaks[0] <= 2**20

    def test_resolution_257_matches_the_point_scan(self, pk_spec, two_point_pk_truth, monkeypatch):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 30, seed=8)
        box = [(0.5, 2.5), (0.1, 1.2)]
        mu = new_uniform_grid_measure(box, [3, 3])
        # the point scan over the grid's points: its row blocks and their row maxima are the grid's
        points = np.asarray(solver._scan_grid(np.array(box), 257))
        km = build_kernel_matrix(ds, mu)
        values = [directional_derivatives(ds, mu, points)]
        values.append(solver._slab_derivs(*km.shifted, row_log_mixture(km, mu.weights), ds.N))
        expected = solver._certificate(np.concatenate(values), np.concatenate([points, mu.atoms]), 257)
        shapes = count_kernel_columns(monkeypatch)
        cert = certify(ds, mu, box, 257)
        assert cert.sup_dir_derivative == expected.sup_dir_derivative
        np.testing.assert_array_equal(cert.argmax_point, expected.argmax_point)
        # 66,049 points: 7 rows of them fit _TABLE_BYTES, so the 30 rows stream in 5 blocks
        assert shapes == [(30, 9)] + [(7, 257 * 257)] * 4 + [(2, 257 * 257)]


class TestNewtonStep:
    """The constrained-Newton weight step: its NNLS core, its line search, its optimum."""

    def test_mean_log_has_the_bits_of_np_mean(self):
        rng = np.random.default_rng(21)
        for N in (1, 2, 7, 300, 1600):
            for _ in range(100):
                M = rng.exponential(size=N) * 10.0 ** rng.uniform(-300, 0)
                assert _mean_log(M) == float(np.mean(np.log(M)))

    START_KINDS = [None, "empty", "full", "random", "negative"]

    @staticmethod
    def start_mask(kind, A, b, rng):
        """A warm start of the given kind, or None; "negative" is a mask whose least-squares solution on A has
        an entry <= 0, or None when 50 random masks give none."""
        m = A.shape[1]
        if kind in (None, "empty", "full"):
            return None if kind is None else np.full(m, kind == "full")
        for _ in range(50 if kind == "negative" else 1):
            mask = rng.random(m) < 0.5
            if kind == "random" or (mask.any() and np.linalg.lstsq(A[:, mask], b, rcond=None)[0].min() <= 0):
                return mask
        return None

    @staticmethod
    def random_problem(rng, shape):
        """(A, b) of one shape: "tall", "wide", "duplicate" columns, or a "newton" step's system."""
        m = int(rng.integers(1, 12))
        rows = {"tall": int(rng.integers(m + 1, 300)), "wide": int(rng.integers(1, m + 1))}.get(shape, 200)
        A = rng.normal(size=(rows, m)) * rng.uniform(0.1, 10.0, size=m)
        b = rng.normal(size=rows)
        if shape == "duplicate":
            A[:, rng.integers(m, size=m // 2)] = A[:, rng.integers(m, size=m // 2)]
        elif shape == "newton":
            # a Newton step's system: scaled kernel ratios and the heavy sum-to-one row
            E = KernelMatrix(2.0 * rng.normal(size=(rows, m))).shifted[0]
            w = rng.exponential(size=m)
            S = E / (E @ (w / w.sum()))[:, None]
            A = np.vstack([S / math.sqrt(rows), np.full((1, m), solver._SUM_ROW)])
            b = np.concatenate([np.full(rows, 2.0 / math.sqrt(rows)), [solver._SUM_ROW]])
        return A, b

    def test_nnls_satisfies_kkt(self):
        rng, mask_rng = np.random.default_rng(22), np.random.default_rng(26)
        negative = 0
        for i in range(300):
            rows, m = int(rng.integers(1, 30)), int(rng.integers(1, 12))
            A = rng.normal(size=(rows, m)) * rng.uniform(0.1, 10.0, size=m)
            b = rng.normal(size=rows)
            for kind in self.START_KINDS:
                start = self.start_mask(kind, A, b, mask_rng)
                negative += kind == "negative" and start is not None
                x = _nnls(A, b, reduce=i % 2 == 0, start=start)
                # minus the gradient of ||A x - b||^2 / 2: no entry may grow, and the support is stationary
                grad = A.T @ (b - A @ x)
                tol = 1e-9 * (1.0 + np.abs(A).sum() * (np.abs(b).sum() + np.abs(A @ x).sum()))
                assert np.all(x >= 0)
                assert np.all(grad <= tol)
                assert np.all(np.abs(grad[x > 0]) <= tol)
        assert negative >= 100

    @staticmethod
    def nnls_tall(A, b):
        """The Lawson-Hanson loop on A itself, with no QR reduction: the reference for ``_nnls``."""
        m = A.shape[1]
        x = np.zeros(m)
        passive = np.zeros(m, dtype=bool)
        tol = 10.0 * np.finfo(float).eps * max(A.shape) * np.abs(A).sum(axis=0).max()
        for _ in range(3 * m):
            grad = A.T @ (b - A @ x)
            if not np.any(~passive & (grad > tol)):
                break
            passive[np.argmax(np.where(passive, -np.inf, grad))] = True
            while True:
                z = np.zeros(m)
                z[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
                if np.all(z[passive] > 0):
                    x = z
                    break
                hit = np.flatnonzero(passive & (z <= 0))
                ratios = x[hit] / np.maximum(x[hit] - z[hit], np.finfo(float).tiny)
                x = x + ratios.min() * (z - x)
                passive[hit[np.argmin(ratios)]] = False
                passive &= x > tol
                x[~passive] = 0.0
        return x

    @pytest.mark.parametrize("shape", ["tall", "wide", "duplicate", "newton"])
    def test_nnls_matches_the_tall_form(self, shape):
        rng, mask_rng = np.random.default_rng(24), np.random.default_rng(27)
        negative = 0
        for _ in range(200):
            A, b = self.random_problem(rng, shape)
            x_ref = self.nnls_tall(A, b)
            scale = np.linalg.norm(b) + np.abs(A).sum()
            for kind in self.START_KINDS:
                start = self.start_mask(kind, A, b, mask_rng)
                negative += kind == "negative" and start is not None
                x = _nnls(A, b, start=start)
                assert np.all(x >= 0)
                # duplicate columns leave x free to split; the fitted values and the residual are unique
                np.testing.assert_allclose(A @ x, A @ x_ref, rtol=0, atol=1e-9 * scale)
                assert np.linalg.norm(A @ x - b) <= np.linalg.norm(A @ x_ref - b) + 1e-12 * scale
        # a Newton system's least-squares solution is positive on almost every mask
        assert negative >= 150 or shape == "newton"

    @pytest.mark.parametrize("reduce", [True, False])
    @pytest.mark.parametrize("shape", ["tall", "wide", "newton"])
    def test_nnls_started_on_its_support_has_the_cold_bits(self, shape, reduce):
        rng = np.random.default_rng(25)
        for _ in range(200):
            A, b = self.random_problem(rng, shape)
            x = _nnls(A, b, reduce=reduce)
            assert _nnls(A, b, reduce=reduce, start=x > 0).tobytes() == x.tobytes()

    @pytest.mark.parametrize("case", ["pk", "censored", "heteroscedastic", "laplace", "location", "sieve-2d"])
    def test_warm_start_keeps_the_fit_bits(
        self, pk_spec, two_point_pk_truth, location_spec, two_point_location_truth, case, monkeypatch
    ):
        """Every fit is bit-equal to one whose NNLS starts from empty, with fewer least-squares solves."""
        box = [(0.5, 2.5), (0.05, 1.2)]
        if case == "location":
            ds = simulate_dataset(location_spec, two_point_location_truth, 200, seed=5)
            run = lambda: fit_npml(ds, [(0.0, 2.5)], [6], FitOptions(refine_grid=33))
        elif case == "sieve-2d":
            ds = simulate_dataset(pk_spec, two_point_pk_truth, 100, seed=5)
            run = lambda: fit_sieve(ds, SieveBasis(box, [9, 9]), FitOptions(), 4)
        else:
            ds = TestScanTable.variant_dataset(pk_spec, two_point_pk_truth, case, 200, 5)
            run = lambda: fit_npml(ds, box, (5, 5), FitOptions(refine_grid=17, max_refinements=12))
        calls, lstsq, nnls = [0], np.linalg.lstsq, solver._nnls

        def counting_lstsq(*args, **kwargs):
            calls[0] += 1
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        fits = []
        for cold in (False, True):
            if cold:
                monkeypatch.setattr(solver, "_nnls", lambda A, b, reduce=True, start=None: nnls(A, b, reduce))
            calls[0] = 0
            fit = run()
            mu = fit.measure
            parts = (mu.coefficients,) if case == "sieve-2d" else (mu.atoms, mu.weights)
            parts += (fit.loglik_trace, fit.certificate.sup_dir_derivative, fit.certificate.argmax_point)
            fits.append(([np.asarray(part).tobytes() for part in parts], fit.status, calls[0]))
        (warm, warm_status, warm_calls), (cold, cold_status, cold_calls) = fits
        assert warm == cold and warm_status == cold_status
        assert 0 < warm_calls < cold_calls
        if case != "sieve-2d":
            assert 2 * warm_calls < cold_calls

    def test_weights_match_brute_force_oracle(self):
        rng = np.random.default_rng(10)
        resolution = 2000
        for _ in range(10):
            N, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            km = KernelMatrix(0.7 * rng.normal(size=(N, m)), atoms=np.eye(m))
            _, w, trace, _ = _cnm(km, np.full(m, 1.0 / m), FitOptions(refine_tol=1e-12), m)
            w_oracle = brute_force_oracle(km, resolution)
            assert trace[-1] >= log_likelihood(km, w_oracle) - 1e-12
            assert np.max(np.abs(w - w_oracle)) <= 1.0 / resolution

    def test_step_never_lowers_the_loglik(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            N, m = int(rng.integers(1, 40)), int(rng.integers(1, 10))
            E = KernelMatrix(2.0 * rng.normal(size=(N, m))).shifted[0]
            w = rng.exponential(size=m)
            w /= w.sum()
            current = _mean_log(E @ w)
            w_new, value = _newton_step(E, w, current)
            assert value >= current and value == _mean_log(E @ w_new)
            assert np.all(w_new >= 0) and abs(w_new.sum() - 1.0) <= 1e-12


def test_fits_never_import_scipy_optimize():
    script = """
import sys
import numpy as np
from npmlmix import IdentityLocation, MixingMeasure, ModelSpec, SieveBasis, TimeDesign, fit_npml, fit_sieve, simulate_dataset
spec = ModelSpec(p=1, n=2, sigma=0.3, f=IdentityLocation(), time_design=TimeDesign(((0.0, 1.0), (1.0, 2.0))))
ds = simulate_dataset(spec, MixingMeasure(np.array([[0.7], [1.8]]), [0.5, 0.5]), 60, 0)
assert fit_npml(ds, [(0.0, 2.5)], [5]).status == "converged"
assert fit_sieve(ds, SieveBasis([(0.0, 2.5)], [9])).status == "converged"
assert "scipy.optimize" not in sys.modules, "a fit imported scipy.optimize"
"""
    src = Path(solver.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


class TestRefineSupport:
    def test_certified_measure_unchanged(self):
        spec = location_model(0.5)
        ds = Dataset(spec, np.array([[0.8]]), np.array([[0.5]]), seed=0)
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
            out = original_insert(*args)
            insertions.append(out[2])
            return out

        monkeypatch.setattr(likelihood, "kernel_columns", counting_columns)
        monkeypatch.setattr(solver, "kernel_columns", counting_columns)
        monkeypatch.setattr(solver, "_insert_atom", counting_insert)
        opts = FitOptions(max_em_iters=2000, refine_grid=9, max_refinements=4)
        fit_npml(ds, self.PK_BOX, [3, 3], opts)
        assert len(insertions) >= 2 and sum(insertions) >= 1
        # the start atoms, the grid once, then one column per inserted atom
        assert sum(columns) == 3 * 3 + 9 * 9 + sum(insertions)

    @staticmethod
    def variant_dataset(pk_spec, truth, variant, N, seed):
        changes = {"heteroscedastic": {"sigma_prime": 0.3}, "laplace": {"noise": "laplace"}}
        ds = simulate_dataset(replace(pk_spec, **changes.get(variant, {})), truth, N, seed=seed)
        if variant == "censored":
            design = CensoringDesign(((CensorMask(4, (0, 2)), 0.4), (CensorMask.full(4), 0.6)))
            ds = apply_censoring(ds, design, seed=seed + 1)
            assert len(ds.mask_groups) == 2
        return ds

    @pytest.mark.parametrize("variant", ["pk", "heteroscedastic", "censored", "laplace"])
    def test_table_columns_equal_single_point_columns(self, pk_spec, two_point_pk_truth, variant, monkeypatch):
        ds = self.variant_dataset(pk_spec, two_point_pk_truth, variant, 40, 4)
        # 48 x 48 = 2304 points in row blocks of 16, 16 and 8, each several of log_kernel_block's blocks
        monkeypatch.setattr(solver, "_TABLE_BYTES", 8 * 48 * 48 * 16)
        scan = _scan_table(ds, self.PK_BOX, 48)
        assert [rows for rows, _, _ in scan.blocks] == [slice(0, 16), slice(16, 32), slice(32, 48)]
        shift = np.concatenate([s for _, _, s in scan.blocks])
        np.testing.assert_array_equal(shift, kernel_columns(ds, scan.atoms).max(axis=1))
        E = np.concatenate([E for _, E, _ in scan.blocks])
        assert E.shape == (40, 48 * 48)
        for j, column in enumerate(E.T):
            expected = np.exp(kernel_columns(ds, scan.atoms[j][None, :])[:, 0] - shift)
            np.testing.assert_array_equal(column, expected)

    @pytest.mark.parametrize("rows", [300, 128, 7, 1])
    def test_derivs_match_a_long_double_exp_mean(self, pk_spec, two_point_pk_truth, rows, monkeypatch):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 300, seed=7)
        mu = new_uniform_grid_measure(self.PK_BOX, [3, 3])
        km = build_kernel_matrix(ds, mu)
        log_rows = row_log_mixture(km, mu.weights)
        # 64 x 64 = 4096 points in blocks of 300 rows (one block), 128 (the default budget's), 7 or 1
        monkeypatch.setattr(solver, "_TABLE_BYTES", 8 * 64 * 64 * rows)
        scan = _scan_table(ds, self.PK_BOX, 64)
        assert len(scan.blocks) == -(-300 // rows)
        L = kernel_columns(ds, scan.atoms)
        shift = np.concatenate([s for _, _, s in scan.blocks])[:, None]
        exact = np.exp(L.astype(np.longdouble) - log_rows.astype(np.longdouble)[:, None]).mean(axis=0)
        d = scan.derivs(log_rows)
        # _slab_derivs' stated bound
        spread = (np.abs(L - shift) + np.abs(shift - log_rows[:, None])).max(axis=0)
        bound = exact * 2.0**-52 * (ds.N + 6 + spread)
        assert np.all(np.abs(d - exact) <= bound)
        assert np.max(np.abs(d / exact - 1)) > 0  # the reference does see the rounding

    @staticmethod
    def dropped(ds, atoms, w0):
        """The drop step's column slice: the atoms of nonzero weight and their kernel columns."""
        km, keep = build_kernel_matrix(ds, MixingMeasure(atoms, w0)), w0 > 0
        return KernelMatrix(km.log_k[:, keep], atoms=km.atoms[keep]), w0[keep]

    def test_scan_of_pruned_support_equals_streaming_path(self, pk_spec, two_point_pk_truth, monkeypatch):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 300, seed=6)
        atoms = np.array([[1.0, 0.3], [2.0, 0.8], [1.4, 0.5], [0.9, 0.9], [2.5, 0.1]])
        w0 = np.array([0.3, 0.3, 0.2, 0.2, 0.0])
        km, w = self.dropped(ds, atoms, w0)
        assert km.m == 4 and km.log_k.flags.c_contiguous and km.shifted[0].flags.f_contiguous
        # the measure's weights, as the fit scans them
        mu = MixingMeasure(km.atoms, w)
        seen = []
        original = solver._certificate

        def spy(values, candidates, resolution):
            seen.append(values)
            return original(values, candidates, resolution)

        monkeypatch.setattr(solver, "_certificate", spy)
        # at resolution 64 the grid spans three of certify's streaming row blocks, of 128, 128 and 44 rows
        for resolution in (9, 64):
            seen.clear()
            scan = _scan_table(ds, self.PK_BOX, resolution)
            cert, _ = _scan_certificate(km, mu.weights, resolution, scan)
            streamed = certify(ds, mu, self.PK_BOX, resolution)
            np.testing.assert_array_equal(seen[0], seen[1])
            assert seen[0].shape == (resolution**2 + 4,)
            assert streamed.sup_dir_derivative == cert.sup_dir_derivative
            np.testing.assert_array_equal(streamed.argmax_point, cert.argmax_point)

    @pytest.mark.parametrize("max_refinements", [0, 4])
    @pytest.mark.parametrize("resolution", [9, 33, 64])
    @pytest.mark.parametrize("variant", ["pk", "heteroscedastic", "censored", "laplace"])
    def test_fit_certificate_equals_certify(self, pk_spec, two_point_pk_truth, variant, resolution, max_refinements):
        ds = self.variant_dataset(pk_spec, two_point_pk_truth, variant, 60, 9)
        opts = FitOptions(refine_grid=resolution, max_refinements=max_refinements)
        fit = fit_npml(ds, self.PK_BOX, [3, 3], opts)
        cert = certify(ds, fit.measure, self.PK_BOX, resolution)
        assert cert.sup_dir_derivative == fit.certificate.sup_dir_derivative
        np.testing.assert_array_equal(cert.argmax_point, fit.certificate.argmax_point)
        assert cert.grid_resolution == fit.certificate.grid_resolution == resolution

    @pytest.mark.parametrize("resolution", [9, 33])
    @pytest.mark.parametrize("variant", ["pk", "heteroscedastic", "censored", "laplace"])
    def test_fit_certificate_equals_certify_across_row_blocks(
        self, pk_spec, two_point_pk_truth, variant, resolution, monkeypatch
    ):
        ds = self.variant_dataset(pk_spec, two_point_pk_truth, variant, 60, 9)
        # 13 rows per scan block: the fit and certify each read 5 blocks, of 13, 13, 13, 13 and 8 rows
        monkeypatch.setattr(solver, "_TABLE_BYTES", 8 * resolution**2 * 13)
        for _, rows, _, _ in ds.mask_groups:
            assert len(np.unique(rows // 13)) >= 3  # each censor-mask group straddles block edges
        shapes = count_kernel_columns(monkeypatch)
        opts = FitOptions(refine_grid=resolution, max_refinements=4)
        fit = fit_npml(ds, self.PK_BOX, [3, 3], opts)
        fit_blocks = [n for n, width in shapes if width == resolution**2]
        shapes.clear()
        cert = certify(ds, fit.measure, self.PK_BOX, resolution)
        assert fit_blocks == [n for n, width in shapes if width == resolution**2] == [13, 13, 13, 13, 8]
        assert cert.sup_dir_derivative == fit.certificate.sup_dir_derivative
        np.testing.assert_array_equal(cert.argmax_point, fit.certificate.argmax_point)

    def test_em_after_prune_equals_em_on_fresh_kernel(self, pk_spec, two_point_pk_truth):
        # a fit's bits must not depend on whether its kernel came out of a drop
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 300, seed=6)
        atoms = np.array([[1.0, 0.3], [2.0, 0.8], [1.4, 0.5], [0.9, 0.9], [2.5, 0.1]])
        w0 = np.array([0.3, 0.3, 0.2, 0.2, 0.0])
        pruned, w = self.dropped(ds, atoms, w0)
        fresh = build_kernel_matrix(ds, MixingMeasure(pruned.atoms, w))
        np.testing.assert_array_equal(pruned.log_k, fresh.log_k)
        w_p, trace_p, iters_p, status_p = em_fit(pruned, w, TIGHT)
        w_f, trace_f, iters_f, status_f = em_fit(fresh, w, TIGHT)
        np.testing.assert_array_equal(w_p, w_f)
        np.testing.assert_array_equal(trace_p, trace_f)
        assert (iters_p, status_p) == (iters_f, status_f)
        E_p, E_f = pruned.shifted[0], fresh.shifted[0]
        step_p = _newton_step(E_p, w, _mean_log(E_p @ w))
        step_f = _newton_step(E_f, w, _mean_log(E_f @ w))
        np.testing.assert_array_equal(step_p[0], step_f[0])
        assert step_p[1] == step_f[1]
        scan = _scan_table(ds, self.PK_BOX, 9)
        cert_p, values_p = _scan_certificate(pruned, w_p, 9, scan)
        cert_f, values_f = _scan_certificate(fresh, w_f, 9, scan)
        np.testing.assert_array_equal(values_p, values_f)
        assert cert_p.sup_dir_derivative == cert_f.sup_dir_derivative
        np.testing.assert_array_equal(cert_p.argmax_point, cert_f.argmax_point)


class TestFitOptions:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("tol_rel_loglik", math.nan),
            ("tol_rel_loglik", math.inf),
            ("refine_tol", math.nan),
            ("refine_tol", math.inf),
            ("refine_tol", -1.0),
            ("prune_eps", math.nan),
            ("prune_eps", 1.0),
        ],
    )
    def test_tolerances_must_be_finite_and_in_range(self, field, value):
        with pytest.raises(InvalidArgumentError, match=field):
            FitOptions(**{field: value})


class TestFitNpml:
    def test_single_observation_single_atom(self):
        spec = location_model(0.5)
        ds = Dataset(spec, np.array([[0.9]]), np.array([[0.5]]), seed=0)
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

    def test_certificate_is_certify_of_returned_measure(self, two_point_pk_truth):
        # the fit's certificate scans the returned (renormalized) weights on a C-ordered kernel
        design = TimeDesign(((0.0, 0.75), (0.75, 1.5), (1.5, 2.25), (2.25, 3.0)))
        spec = ModelSpec(p=2, n=4, sigma=0.2, f=PkExp(), time_design=design)
        box = [(0.5, 2.5), (0.05, 1.2)]
        opts = FitOptions(
            tol_rel_loglik=1e-11, max_em_iters=4000, prune_eps=1e-6, refine_grid=33, max_refinements=12
        )
        ds = simulate_dataset(spec, two_point_pk_truth, 400, seed=0)
        fit = fit_npml(ds, box, (7, 7), opts)
        cert = certify(ds, fit.measure, box, 33)
        assert cert.sup_dir_derivative == fit.certificate.sup_dir_derivative
        np.testing.assert_array_equal(cert.argmax_point, fit.certificate.argmax_point)

    def test_trace_nondecreasing_and_final_matches(self, location_spec, two_point_location_truth):
        ds = simulate_dataset(location_spec, two_point_location_truth, 50, seed=11)
        fit = fit_npml(ds, [(0.0, 2.5)], [6], FitOptions(max_em_iters=2000))
        assert np.min(np.diff(fit.loglik_trace)) >= -1e-12
        km = build_kernel_matrix(ds, fit.measure)
        assert fit.final_loglik == pytest.approx(
            log_likelihood(km, fit.measure.weights), abs=1e-9
        )

    def test_final_loglik_is_the_returned_measures(self, two_point_pk_truth):
        # consistency cell N = 1600, seed 3, at the acceptance options
        design = TimeDesign(((0.0, 0.75), (0.75, 1.5), (1.5, 2.25), (2.25, 3.0)))
        spec = ModelSpec(p=2, n=4, sigma=0.2, f=PkExp(), time_design=design)
        opts = FitOptions(
            tol_rel_loglik=1e-11, max_em_iters=4000, prune_eps=1e-6, refine_grid=33, max_refinements=12
        )
        ds = simulate_dataset(spec, two_point_pk_truth, 1600, seed=3)
        fit = fit_npml(ds, [(0.5, 2.5), (0.05, 1.2)], (7, 7), opts)
        km = build_kernel_matrix(ds, fit.measure)
        assert abs(fit.final_loglik - log_likelihood(km, fit.measure.weights)) <= 1e-12
        assert np.min(np.diff(fit.loglik_trace)) >= -1e-13
        assert fit.loglik_trace.shape == (fit.iterations + 1,)

    def test_certified_fit_converges_whatever_em_stopped_on(self, two_point_location_truth):
        # a 1000-iteration EM cap does not reach the Newton solver; the verdict is the certificate's
        ds = simulate_dataset(location_model(0.3, n=2), two_point_location_truth, 40, seed=0)
        opts = FitOptions(tol_rel_loglik=1e-15, max_em_iters=1000, refine_grid=17)
        fit = fit_npml(ds, [(0.0, 2.5)], [5], opts)
        assert fit.certificate.holds(opts.refine_tol)
        assert fit.status == "converged"


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

    def test_converged_means_certified(self, two_point_location_truth):
        # no round budget: the uniform start is returned, uncertified
        ds = simulate_dataset(location_model(0.3, n=2), two_point_location_truth, 200, seed=3)
        opts = FitOptions(max_refinements=0)
        fit = fit_sieve(ds, SieveBasis([(0.0, 2.5)], [9]), opts)
        assert fit.iterations == 0 and fit.loglik_trace.shape == (1,)
        assert fit.certificate.sup_dir_derivative > 1.0 + opts.refine_tol
        assert fit.status == "iter-limit"

    def test_certified_fit_converges_whatever_em_stopped_on(self, two_point_location_truth):
        # the EM knobs do not reach a sieve fit: the verdict is the certificate's
        ds = simulate_dataset(location_model(0.3, n=2), two_point_location_truth, 60, seed=1)
        opts = FitOptions(tol_rel_loglik=1e-15, max_em_iters=50)
        basis = SieveBasis([(0.0, 2.5)], [5])
        fit = fit_sieve(ds, basis, opts)
        default = fit_sieve(ds, basis)
        np.testing.assert_array_equal(fit.measure.coefficients, default.measure.coefficients)
        assert fit.iterations == default.iterations
        assert fit.certificate.holds(opts.refine_tol)
        assert fit.status == "converged"

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

    # final log-likelihoods of the nested 1-D and 2-D sieve fits (N = 400, seed 42), recorded on
    # a kernel built by per-column log-sum-exp (the oracle of tests/test_likelihood.py)
    PINNED_SIEVE_LOGLIKS = {
        (1, 4): -1.2541366020479265,
        (1, 8): -1.1168415981892503,
        (1, 16): -1.0555996354687465,
        (1, 32): -1.0376744631536352,
        (2, 4): -0.02944870660662602,
        (2, 8): 0.1713452889425091,
        (2, 16): 0.2176027639032827,
    }

    @pytest.mark.parametrize("p, cells", list(PINNED_SIEVE_LOGLIKS), ids=lambda v: str(v))
    def test_nested_fits_keep_their_pinned_loglik(self, p, cells):
        if p == 1:
            spec, box = location_model(0.3, n=2), [(0.0, 2.5)]
            truth = MixingMeasure(np.array([[0.7], [1.8]]), [0.5, 0.5])
        else:
            design = TimeDesign(((0.0, 0.75), (0.75, 1.5), (1.5, 2.25), (2.25, 3.0)))
            spec, box = ModelSpec(p=2, n=4, sigma=0.2, f=PkExp(), time_design=design), [(0.5, 2.5), (0.05, 1.2)]
            truth = MixingMeasure(np.array([[1.0, 0.3], [2.0, 0.8]]), [0.5, 0.5])
        ds = simulate_dataset(spec, truth, 400, seed=42)
        fit = fit_sieve(ds, SieveBasis(box, [cells + 1] * p))
        assert fit.status == "converged"
        assert abs(fit.final_loglik - self.PINNED_SIEVE_LOGLIKS[p, cells]) <= 1e-12


class TestStatusIsTheCertificate:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        sieve=st.booleans(),
        N=st.integers(1, 25),
        seed=st.integers(0, 10**6),
        sigma=st.sampled_from([0.2, 0.3, 0.5]),
        max_em_iters=st.integers(1, 400),
        refine_tol=st.sampled_from([1e-6, 1e-3]),
        counts=st.integers(1, 6),
        resolution=st.integers(1, 17),
    )
    def test_converged_iff_certify_holds(self, sieve, N, seed, sigma, max_em_iters, refine_tol, counts, resolution):
        truth = MixingMeasure(np.array([[0.7], [1.8]]), [0.5, 0.5])
        ds = simulate_dataset(location_model(sigma, n=2), truth, N, seed)
        box = [(0.0, 2.5)]
        opts = FitOptions(
            tol_rel_loglik=1e-12, max_em_iters=max_em_iters, refine_grid=resolution, max_refinements=3, refine_tol=refine_tol
        )
        if sieve:
            fit = fit_sieve(ds, SieveBasis(box, [counts]), opts, quad_points_per_cell=3)
            cert = certify(ds, fit.measure, quad_points_per_cell=3)
        else:
            fit = fit_npml(ds, box, [counts], opts)
            cert = certify(ds, fit.measure, box, fit.certificate.grid_resolution)
        assert (fit.status == "converged") == cert.holds(refine_tol)


def _scoped_nodes(path: Path):
    """(name of the enclosing class or function, node) for every node of a module."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            inner = f"{scope}.{child.name}".lstrip(".") if named else scope
            yield inner, child
            yield from walk(child, inner)

    return walk(ast.parse(path.read_text()), "")


def _offending_sites(allowed, is_site) -> list:
    """Sites ``module:line (scope)`` in the package where ``is_site`` holds outside the ``allowed`` scopes."""
    return [
        f"{path.name}:{node.lineno} ({scope})"
        for path in sorted(Path(solver.__file__).parent.glob("*.py"))
        for scope, node in _scoped_nodes(path)
        if is_site(node) and (path.name, scope) not in allowed
    ]


def test_only_certificate_holds_compares_a_sup():
    # one verdict rule: a fit's status and certify's verdict both come from Certificate.holds
    def compares_sup(node):
        names_sup = (isinstance(n, ast.Attribute) and n.attr == "sup_dir_derivative" for n in ast.walk(node))
        return isinstance(node, ast.Compare) and any(names_sup)

    sites = _offending_sites({("solver.py", "Certificate.holds")}, compares_sup)
    assert not sites, f"sup_dir_derivative compared outside Certificate.holds: {sites}"


def test_only_the_fit_epilogue_and_the_file_reader_build_a_fit_result():
    # a fit's status is derived in _fit_result alone; the file reader only restores a written one
    def builds_fit_result(node):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and "FitResult" in (getattr(func, "id", None), getattr(func, "attr", None))

    sites = _offending_sites({("solver.py", "_fit_result"), ("serialize.py", "fit_from_dict")}, builds_fit_result)
    assert not sites, f"FitResult built outside _fit_result and fit_from_dict: {sites}"


def test_only_data_and_serialize_read_a_datasets_observations():
    # the layout of a sample is data's: the likelihood reads a Dataset's rows through mask_groups alone, and
    # serialize writes the per-row file format; no module reads row objects, which no longer exist
    def reads_rows(node):
        return isinstance(node, ast.Attribute) and node.attr in ("observations", "masks")

    sites = [s for s in _offending_sites(set(), reads_rows) if s.split(":")[0] not in ("data.py", "serialize.py")]
    assert not sites, f"a dataset's rows read outside data and serialize: {sites}"


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
        # every weight vector ties; the lexicographically first is the last vertex
        np.testing.assert_allclose(brute_force_oracle(KernelMatrix(np.zeros((2, 2))), 10), [0.0, 1.0])
        # all m = 4 lattice points tie at every resolution, not only at powers of two
        for resolution in (8, 10, 20, 30):
            np.testing.assert_array_equal(
                brute_force_oracle(KernelMatrix(np.zeros((2, 4))), resolution), [0.0, 0.0, 0.0, 1.0]
            )

    def test_lattice_blocks_are_the_lexicographic_lattice(self):
        for m in (2, 3, 4):
            got = np.concatenate(list(solver._lattice_blocks(5, m))).tolist()
            assert got == [list(v) for v in itertools.product(range(6), repeat=m) if sum(v) == 5]

    def test_budget_guard(self):
        km = KernelMatrix(np.zeros((1, 5)))
        with pytest.raises(InvalidArgumentError):
            brute_force_oracle(km, 100)
        km4 = KernelMatrix(np.zeros((1, 4)))
        with pytest.raises(InvalidArgumentError):
            brute_force_oracle(km4, 5 * 10**6)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(14)
        for perm, resolution in (([2, 0, 1], 60), ([2, 3, 0, 1], 30)):
            km = KernelMatrix(rng.normal(size=(4, len(perm))))
            w = brute_force_oracle(km, resolution)
            w_perm = brute_force_oracle(KernelMatrix(km.log_k[:, perm]), resolution)
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
