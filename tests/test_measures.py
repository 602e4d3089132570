import numpy as np
import pytest
from scipy.special import logsumexp

from npmlmix import (
    DegenerateMeasureError,
    InvalidArgumentError,
    MixingMeasure,
    SieveBasis,
    SieveDensity,
    measure_distance,
    merge_close_atoms,
    new_uniform_grid_measure,
    prune,
    sieve_to_measure,
    wasserstein1_1d,
)


def w1_by_quantile_coupling(u_vals, u_w, v_vals, v_w):
    """Independent oracle: transport cost along merged quantile levels."""
    u = sorted(zip(u_vals, u_w))
    v = sorted(zip(v_vals, v_w))
    levels = sorted(
        set(np.cumsum([w for _, w in u]).tolist() + np.cumsum([w for _, w in v]).tolist())
    )
    cost, prev = 0.0, 0.0
    for level in levels:
        uq = next(x for x, c in zip([x for x, _ in u], np.cumsum([w for _, w in u])) if c >= level - 1e-15)
        vq = next(x for x, c in zip([x for x, _ in v], np.cumsum([w for _, w in v])) if c >= level - 1e-15)
        cost += (level - prev) * abs(uq - vq)
        prev = level
    return cost


def assert_simplex(weights):
    assert np.all(np.asarray(weights) >= -1e-15)
    assert abs(np.sum(weights) - 1.0) <= 1e-12


class TestMixingMeasure:
    def test_basic_invariants(self):
        mu = MixingMeasure(np.array([[0.0], [1.0]]), [0.25, 0.75])
        assert mu.m == 2 and mu.p == 1
        assert_simplex(mu.weights)

    def test_rejects_bad_weights(self):
        with pytest.raises(InvalidArgumentError):
            MixingMeasure(np.array([[0.0], [1.0]]), [0.6, 0.6])
        with pytest.raises(InvalidArgumentError):
            MixingMeasure(np.array([[0.0], [1.0]]), [1.5, -0.5])

    def test_immutable(self):
        mu = MixingMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
        with pytest.raises(ValueError):
            mu.atoms[0, 0] = 3.0


class TestUniformGrid:
    def test_single_node(self):
        mu = new_uniform_grid_measure([(0.0, 2.0)], [1])
        assert mu.m == 1
        np.testing.assert_allclose(mu.weights, [1.0])

    def test_two_nodes_hit_endpoints(self):
        mu = new_uniform_grid_measure([(0.0, 1.0)], [2])
        np.testing.assert_allclose(sorted(mu.atoms[:, 0]), [0.0, 1.0])
        np.testing.assert_allclose(mu.weights, [0.5, 0.5])

    def test_3x2_grid(self):
        mu = new_uniform_grid_measure([(0.0, 1.0), (0.0, 1.0)], [3, 2])
        assert mu.m == 6
        np.testing.assert_allclose(mu.weights, np.full(6, 1 / 6))
        assert_simplex(mu.weights)

    def test_empty_box_rejected(self):
        with pytest.raises(InvalidArgumentError):
            new_uniform_grid_measure([(1.0, 1.0)], [2])
        with pytest.raises(InvalidArgumentError):
            new_uniform_grid_measure([(0.0, 1.0)], [0])
        # NaN compares false, so lo < hi alone would let it through
        for box in ([(0.0, np.inf)], [(np.nan, 2.0)]):
            with pytest.raises(InvalidArgumentError, match="finite"):
                new_uniform_grid_measure(box, [2])


class TestPrune:
    def test_noop_below_threshold(self):
        mu = MixingMeasure(np.array([[0.0], [1.0]]), [0.4, 0.6])
        out = prune(mu, 0.1)
        np.testing.assert_array_equal(out.atoms, mu.atoms)
        np.testing.assert_array_equal(out.weights, mu.weights)

    def test_tiny_weight_removed(self):
        mu = MixingMeasure(np.array([[0.0], [1.0]]), [0.999999, 1e-6])
        out = prune(mu, 1e-5)
        assert out.m == 1
        np.testing.assert_allclose(out.weights, [1.0])

    def test_renormalization(self):
        mu = MixingMeasure(np.array([[0.0], [1.0], [2.0]]), [0.5, 0.3, 0.2])
        out = prune(mu, 0.25)
        np.testing.assert_allclose(out.weights, [0.625, 0.375])
        assert_simplex(out.weights)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = rng.exponential(size=6)
            mu = MixingMeasure(rng.normal(size=(6, 2)), w / w.sum())
            once = prune(mu, 0.05)
            twice = prune(once, 0.05)
            np.testing.assert_allclose(once.weights, twice.weights, rtol=0, atol=1e-15)

    def test_all_below_threshold(self):
        mu = MixingMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
        with pytest.raises(DegenerateMeasureError):
            prune(mu, 0.9)


class TestMergeCloseAtoms:
    def test_zero_radius_keeps_distinct_atoms(self):
        mu = MixingMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
        out = merge_close_atoms(mu, 0.0)
        np.testing.assert_array_equal(out.atoms, mu.atoms)

    def test_equal_weights_merge_to_midpoint(self):
        mu = MixingMeasure(np.array([[0.0], [0.4]]), [0.5, 0.5])
        out = merge_close_atoms(mu, 0.5)
        assert out.m == 1
        np.testing.assert_allclose(out.atoms, [[0.2]])
        np.testing.assert_allclose(out.weights, [1.0])

    def test_weighted_centroid(self):
        mu = MixingMeasure(np.array([[0.0], [1.0]]), [0.75, 0.25])
        out = merge_close_atoms(mu, 2.0)
        np.testing.assert_allclose(out.atoms, [[0.25]])
        np.testing.assert_allclose(out.weights, [1.0])

    def test_mass_and_mean_preserved(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            m = rng.integers(2, 9)
            w = rng.exponential(size=m)
            mu = MixingMeasure(rng.normal(size=(m, 2)), w / w.sum())
            out = merge_close_atoms(mu, float(rng.uniform(0, 1.5)))
            assert_simplex(out.weights)
            np.testing.assert_allclose(out.mean(), mu.mean(), atol=1e-12)

    def test_chain_merges_whole_component(self):
        mu = MixingMeasure(np.array([[0.0], [0.9], [1.8]]), [1 / 3, 1 / 3, 1 / 3])
        out = merge_close_atoms(mu, 1.0)
        assert out.m == 1
        np.testing.assert_allclose(out.atoms, [[0.9]])


class TestWasserstein:
    def test_identity(self):
        mu = MixingMeasure(np.array([[0.3], [1.1]]), [0.4, 0.6])
        assert wasserstein1_1d(mu, mu) == 0.0

    def test_point_masses(self):
        d0 = MixingMeasure(np.array([[0.0]]), [1.0])
        d1 = MixingMeasure(np.array([[1.0]]), [1.0])
        assert wasserstein1_1d(d0, d1) == pytest.approx(1.0)

    def test_half_split(self):
        mixed = MixingMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
        d0 = MixingMeasure(np.array([[0.0]]), [1.0])
        assert wasserstein1_1d(mixed, d0) == pytest.approx(0.5)

    def test_matches_quantile_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            mu_vals, nu_vals = rng.normal(size=3), rng.normal(size=4)
            wu, wv = rng.exponential(size=3), rng.exponential(size=4)
            mu = MixingMeasure(mu_vals[:, None], wu / wu.sum())
            nu = MixingMeasure(nu_vals[:, None], wv / wv.sum())
            expect = w1_by_quantile_coupling(mu_vals, wu / wu.sum(), nu_vals, wv / wv.sum())
            assert wasserstein1_1d(mu, nu) == pytest.approx(expect, abs=1e-10)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            measures = []
            for _ in range(3):
                vals = rng.normal(size=rng.integers(1, 5))
                w = rng.exponential(size=vals.shape[0])
                measures.append(MixingMeasure(vals[:, None], w / w.sum()))
            a, b, c = measures
            assert wasserstein1_1d(a, b) == pytest.approx(wasserstein1_1d(b, a), abs=1e-12)
            assert wasserstein1_1d(a, c) <= wasserstein1_1d(a, b) + wasserstein1_1d(b, c) + 1e-10


class TestMeasureDistance:
    def test_zero_on_identical(self):
        mu = MixingMeasure(np.array([[0.0, 1.0], [1.0, 2.0]]), [0.5, 0.5])
        assert measure_distance(mu, mu) == 0.0

    def test_reduces_to_w1_in_1d(self):
        rng = np.random.default_rng(8)
        vals, w = rng.normal(size=3), rng.exponential(size=3)
        mu = MixingMeasure(vals[:, None], w / w.sum())
        nu = MixingMeasure(np.array([[0.0]]), [1.0])
        assert measure_distance(mu, nu) == pytest.approx(wasserstein1_1d(mu, nu))

    def test_mean_of_marginals(self):
        a = MixingMeasure(np.array([[0.0, 0.0]]), [1.0])
        b = MixingMeasure(np.array([[1.0, 3.0]]), [1.0])
        assert measure_distance(a, b) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        a = MixingMeasure(np.array([[0.0]]), [1.0])
        b = MixingMeasure(np.array([[0.0, 0.0]]), [1.0])
        with pytest.raises(InvalidArgumentError):
            measure_distance(a, b)


class TestSieveBasis:
    def test_elements_integrate_to_one(self):
        basis = SieveBasis([(0.0, 2.0), (1.0, 2.0)], [4, 3])
        pts, log_w = basis.quadrature(6)
        masses = np.exp(logsumexp(basis.log_basis_values(pts) + log_w[:, None], axis=0))
        np.testing.assert_allclose(masses, np.ones(basis.m), atol=1e-12)

    def test_convex_combinations_are_densities(self):
        basis = SieveBasis([(0.0, 1.0)], [5])
        rng = np.random.default_rng(15)
        pts, log_w = basis.quadrature(8)
        values = np.exp(basis.log_basis_values(pts))
        for _ in range(10):
            beta = rng.exponential(size=basis.m)
            beta /= beta.sum()
            density = values @ beta
            assert np.all(density >= 0)
            assert np.sum(density * np.exp(log_w)) == pytest.approx(1.0, abs=1e-12)

    def test_gradient_bound_dominates_sampled_slopes(self):
        basis = SieveBasis([(0.0, 1.0)], [6])
        bound = basis.gradient_bound()
        xs = np.linspace(0.0, 1.0, 2001)
        vals = np.exp(basis.log_basis_values(xs))
        slopes = np.abs(np.diff(vals, axis=0)) / (xs[1] - xs[0])
        assert slopes.max() <= bound + 1e-9

    def test_single_node_axis_is_uniform(self):
        basis = SieveBasis([(0.0, 4.0)], [1])
        vals = np.exp(basis.log_basis_values(np.array([0.5, 2.0, 3.9])))
        np.testing.assert_allclose(vals, 0.25)

    def test_nested_grids_share_nodes(self):
        coarse = SieveBasis([(0.0, 1.0)], [5])   # 4 cells
        fine = SieveBasis([(0.0, 1.0)], [9])     # 8 cells
        for node in coarse.nodes[:, 0]:
            assert np.any(np.isclose(fine.nodes[:, 0], node))


class TestSieveDensity:
    def test_simplex_validation(self):
        basis = SieveBasis([(0.0, 1.0)], [3])
        with pytest.raises(InvalidArgumentError):
            SieveDensity(basis, [0.5, 0.5])
        SieveDensity(basis, [0.2, 0.3, 0.5])

    def test_sieve_to_measure_single_node(self):
        basis = SieveBasis([(0.0, 2.0)], [1])
        mu = sieve_to_measure(SieveDensity(basis, [1.0]))
        np.testing.assert_allclose(mu.atoms, [[1.0]])
        np.testing.assert_allclose(mu.weights, [1.0])

    def test_sieve_to_measure_keeps_coefficients(self):
        basis = SieveBasis([(0.0, 1.0)], [2])
        mu = sieve_to_measure(SieveDensity(basis, [0.25, 0.75]))
        np.testing.assert_allclose(mu.atoms[:, 0], basis.nodes[:, 0])
        np.testing.assert_allclose(mu.weights, [0.25, 0.75])
