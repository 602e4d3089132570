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
    new_uniform_grid_measure,
    prune,
    sieve_to_measure,
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


def w1_by_two_cdfs(u_vals, u_w, v_vals, v_w):
    """The two-CDF form of W1: each CDF from its own sort, read at the merged atoms by searchsorted."""
    us, vs = np.argsort(u_vals, kind="stable"), np.argsort(v_vals, kind="stable")
    all_vals = np.sort(np.concatenate([u_vals, v_vals]), kind="stable")
    u_cum = np.concatenate([[0.0], np.cumsum(u_w[us])])
    v_cum = np.concatenate([[0.0], np.cumsum(v_w[vs])])
    u_cdf = u_cum[np.searchsorted(u_vals[us], all_vals[:-1], side="right")] / u_cum[-1]
    v_cdf = v_cum[np.searchsorted(v_vals[vs], all_vals[:-1], side="right")] / v_cum[-1]
    return float(np.sum(np.abs(u_cdf - v_cdf) * np.diff(all_vals)))


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


class TestWasserstein:
    """W1 between 1-d measures, which measure_distance reduces to."""

    def test_identity(self):
        mu = MixingMeasure(np.array([[0.3], [1.1]]), [0.4, 0.6])
        assert measure_distance(mu, mu) == 0.0

    def test_point_masses(self):
        d0 = MixingMeasure(np.array([[0.0]]), [1.0])
        d1 = MixingMeasure(np.array([[1.0]]), [1.0])
        assert measure_distance(d0, d1) == pytest.approx(1.0)

    def test_half_split(self):
        mixed = MixingMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
        d0 = MixingMeasure(np.array([[0.0]]), [1.0])
        assert measure_distance(mixed, d0) == pytest.approx(0.5)

    def test_matches_quantile_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            mu_vals, nu_vals = rng.normal(size=3), rng.normal(size=4)
            wu, wv = rng.exponential(size=3), rng.exponential(size=4)
            mu = MixingMeasure(mu_vals[:, None], wu / wu.sum())
            nu = MixingMeasure(nu_vals[:, None], wv / wv.sum())
            expect = w1_by_quantile_coupling(mu_vals, wu / wu.sum(), nu_vals, wv / wv.sum())
            assert measure_distance(mu, nu) == pytest.approx(expect, abs=1e-10)

    def test_has_the_bits_of_the_two_cdf_form(self):
        rng = np.random.default_rng(19)
        for k in range(3000):
            m_u, m_v = rng.integers(1, 8, size=2)
            if k % 2:  # atoms on a coarse lattice tie inside and across the measures
                u_vals, v_vals = rng.integers(0, 4, m_u) * 0.25, rng.integers(0, 4, m_v) * 0.25
            else:
                u_vals, v_vals = rng.normal(size=m_u), rng.normal(size=m_v)
            mu = MixingMeasure(u_vals[:, None], rng.dirichlet(np.ones(m_u)))
            nu = mu if k % 5 == 0 else MixingMeasure(v_vals[:, None], rng.dirichlet(np.ones(m_v)))
            expect = w1_by_two_cdfs(mu.atoms[:, 0], mu.weights, nu.atoms[:, 0], nu.weights)
            assert measure_distance(mu, nu) == expect
            assert nu is not mu or expect == 0.0

    def test_identity_with_tied_atoms(self):
        # one signed running sum would leave (0.1 + 0.2) - 0.1 - 0.2 = 2.8e-17 over the gap to 1.0
        mu = MixingMeasure(np.array([[0.0], [0.0], [1.0]]), [0.1, 0.2, 0.7])
        assert measure_distance(mu, mu) == 0.0

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            measures = []
            for _ in range(3):
                vals = rng.normal(size=rng.integers(1, 5))
                w = rng.exponential(size=vals.shape[0])
                measures.append(MixingMeasure(vals[:, None], w / w.sum()))
            a, b, c = measures
            assert measure_distance(a, b) == pytest.approx(measure_distance(b, a), abs=1e-12)
            assert measure_distance(a, c) <= measure_distance(a, b) + measure_distance(b, c) + 1e-10


class TestMeasureDistance:
    def test_zero_on_identical(self):
        mu = MixingMeasure(np.array([[0.0, 1.0], [1.0, 2.0]]), [0.5, 0.5])
        assert measure_distance(mu, mu) == 0.0

    def test_reduces_to_w1_in_1d(self):
        rng = np.random.default_rng(8)
        vals, w = rng.normal(size=3), rng.exponential(size=3)
        mu = MixingMeasure(vals[:, None], w / w.sum())
        nu = MixingMeasure(np.array([[0.0]]), [1.0])
        expect = w1_by_quantile_coupling(vals, w / w.sum(), [0.0], [1.0])
        assert measure_distance(mu, nu) == pytest.approx(expect, abs=1e-10)

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

    @pytest.mark.parametrize("box, counts", [([(0.0, 4.0)], [1]), ([(0.0, 2.0), (1.0, 2.0), (-1.0, 0.5)], [4, 1, 3])])
    def test_axis_factors_multiply_to_the_weighted_basis_table(self, box, counts):
        basis = SieveBasis(box, counts)
        pts, log_w = basis.quadrature(5)
        table = np.exp(basis.log_basis_values(pts) + log_w[:, None])
        kron = np.ones((1, 1))
        for log_f in basis.log_axis_factors(5):
            kron = np.kron(kron, np.exp(log_f))
        np.testing.assert_allclose(kron, table, rtol=1e-14, atol=0)

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
