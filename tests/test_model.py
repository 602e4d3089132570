import math

import numpy as np
import pytest

from npmlmix import (
    CensorMask,
    IdentityLocation,
    InvalidArgumentError,
    LinearInS,
    ModelSpec,
    ModelViolationError,
    PkExp,
    TimeDesign,
    conditional_log_density,
    eval_f,
    gaussian_log_density,
    laplace_log_density,
    project_mask,
)
from npmlmix import model
from npmlmix.measures import TensorGrid
from npmlmix.model import _forward, log_kernel_block


def midpoint_density_mass(log_density, sigma, n, points_per_axis=400, half_width=8.0):
    """Independent oracle: midpoint quadrature of exp(log_density) on a centred box."""
    axis = np.linspace(-half_width * sigma, half_width * sigma, points_per_axis + 1)
    mids = 0.5 * (axis[:-1] + axis[1:])
    h = axis[1] - axis[0]
    if n == 1:
        vals = [math.exp(log_density([x], sigma)) for x in mids]
        return float(np.sum(vals) * h)
    total = 0.0
    for x in mids:
        row = [math.exp(log_density([x, y], sigma)) for y in mids]
        total += np.sum(row)
    return float(total * h * h)


class TestEvalF:
    def test_pk_exp_zero_rate(self, pk_spec):
        out = eval_f(pk_spec, [1.0, 0.0], [0.2, 0.7, 1.2, 1.7])
        np.testing.assert_allclose(out, np.ones(4))

    def test_pk_exp_exact_halving(self):
        spec = ModelSpec(p=2, n=1, sigma=0.1, f=PkExp(), time_design=TimeDesign(((0.5, 1.5),)))
        out = eval_f(spec, [2.0, math.log(2.0)], [1.0])
        np.testing.assert_allclose(out, [1.0])

    def test_pk_exp_decay_values(self):
        spec = ModelSpec(p=2, n=2, sigma=0.1, f=PkExp(), time_design=TimeDesign(((0.5, 1.5), (1.5, 2.5))))
        out = eval_f(spec, [1.0, 1.0], [1.0, 2.0])
        np.testing.assert_allclose(out, [math.exp(-1.0), math.exp(-2.0)], rtol=1e-12)
        np.testing.assert_allclose(out, [0.367879, 0.135335], atol=1e-6)

    def test_identity_location(self, location_spec):
        np.testing.assert_allclose(eval_f(location_spec, [1.3], [0.4, 1.9]), [1.3, 1.3])

    def test_linear_in_s_polynomial(self):
        # basis functions 1 and t, so value = s0 + s1 * t
        f = LinearInS(((1.0, 0.0), (0.0, 1.0)))
        spec = ModelSpec(p=2, n=2, sigma=0.1, f=f, time_design=TimeDesign(((0.0, 1.0), (1.0, 2.0))))
        np.testing.assert_allclose(eval_f(spec, [0.5, 2.0], [0.5, 1.5]), [1.5, 3.5])

    def test_dimension_mismatch(self, pk_spec):
        with pytest.raises(InvalidArgumentError):
            eval_f(pk_spec, [1.0], [0.2, 0.7, 1.2, 1.7])
        with pytest.raises(InvalidArgumentError):
            eval_f(pk_spec, [1.0, 0.5], [0.2, 0.7])

    def test_continuity_in_s(self, pk_spec):
        # finite-difference continuity modulus along random segments
        rng = np.random.default_rng(11)
        t = np.array([0.2, 0.7, 1.2, 1.7])
        for _ in range(20):
            s = rng.uniform([0.5, 0.1], [2.5, 1.2])
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            base = eval_f(pk_spec, s, t)
            coarse = np.max(np.abs(eval_f(pk_spec, s + 1e-3 * u, t) - base))
            fine = np.max(np.abs(eval_f(pk_spec, s + 1e-6 * u, t) - base))
            assert fine <= 2e-3 * max(coarse, 1e-12) + 1e-12


class TestEvalG:
    """The heteroscedastic scale g = sigma' * f, as the kernel evaluates it."""

    def test_negative_component_rejected(self):
        design = TimeDesign(((0.0, 1.0),))
        spec = ModelSpec(
            p=1, n=1, sigma=0.5, f=IdentityLocation(), time_design=design, sigma_prime=0.5
        )
        with pytest.raises(ModelViolationError):
            conditional_log_density(spec, [-1.0], ([0.0], [0.5]))

    @pytest.mark.parametrize("noise", ["gaussian", "laplace"])
    @pytest.mark.parametrize(
        "f, S",
        [
            (LinearInS(((1.0, -1.0),)), np.array([[0.5], [2.0]])),  # f = s (1 - t) < 0 on the last two windows only
            (PkExp(), TensorGrid([[1.0, -1.0], [0.5, 0.8]])),  # a negative amplitude
            (PkExp(), np.array([[1.0, 0.5], [-1.0, 0.8]])),
        ],
        ids=["linear", "pk-grid", "pk-points"],
    )
    def test_negative_scale_raises_the_stacked_forms_error(self, noise, f, S):
        design = TimeDesign(((0.0, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, 2.0)))
        spec = ModelSpec(p=f.dim, n=4, sigma=0.2, f=f, time_design=design, sigma_prime=0.3, noise=noise)
        T = np.tile([0.25, 0.75, 1.25, 1.75], (3, 1))
        Y = np.ones((3, 4))
        with pytest.raises(ModelViolationError) as stacked:
            stacked_log_kernel(spec, S, Y, T)
        with pytest.raises(ModelViolationError) as split:
            log_kernel_block(spec, S, Y, T)
        assert str(split.value) == str(stacked.value) == "heteroscedastic scale has a negative component"


class TestGaussianLogDensity:
    def test_origin_2d(self):
        assert gaussian_log_density([0.0, 0.0], 1.0) == pytest.approx(-math.log(2 * math.pi))
        assert gaussian_log_density([0.0, 0.0], 1.0) == pytest.approx(-1.837877, abs=1e-6)

    def test_unit_point_1d(self):
        expect = -0.5 * math.log(2 * math.pi) - 0.5
        assert gaussian_log_density([1.0], 1.0) == pytest.approx(expect)
        assert gaussian_log_density([1.0], 1.0) == pytest.approx(-1.418939, abs=1e-6)

    def test_even_function(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            u = rng.normal(size=3)
            assert gaussian_log_density(u, 0.8) == pytest.approx(gaussian_log_density(-u, 0.8))

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidArgumentError):
            gaussian_log_density([np.inf], 1.0)
        with pytest.raises(InvalidArgumentError):
            gaussian_log_density([0.0], 0.0)

    @pytest.mark.parametrize("sigma,n", [(1.0, 1), (0.5, 1), (1.0, 2)])
    def test_integrates_to_one(self, sigma, n):
        mass = midpoint_density_mass(gaussian_log_density, sigma, n)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_laplace_integrates_to_one(self):
        # same midpoint oracle; wider box because the tails decay only like exp(-|u|/b)
        mass = midpoint_density_mass(laplace_log_density, 1.0, 1, points_per_axis=20000, half_width=24.0)
        assert mass == pytest.approx(1.0, abs=1e-6)


class TestTimeDensity:
    def test_unit_lengths(self):
        design = TimeDesign(((0.0, 1.0), (1.0, 2.0)))
        assert design.density([0.5, 1.5]) == 1.0

    def test_outside_support(self):
        design = TimeDesign(((0.0, 1.0), (1.0, 2.0)))
        assert design.density([2.5, 1.5]) == 0.0

    def test_product_of_reciprocals(self):
        design = TimeDesign(((0.0, 2.0), (2.0, 3.0)))
        assert design.density([1.0, 2.5]) == pytest.approx(0.5)

    def test_interval_validation(self):
        with pytest.raises(InvalidArgumentError):
            TimeDesign(((1.0, 0.5),))
        with pytest.raises(InvalidArgumentError):
            TimeDesign(((0.0, 1.5), (1.0, 2.0)))
        with pytest.raises(InvalidArgumentError):
            TimeDesign(((-0.5, 1.0),))


class TestProjectMask:
    def test_full_mask_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(project_mask(v, CensorMask.full(3)), v)

    def test_empty_mask(self):
        assert project_mask([1.0, 2.0], CensorMask.empty(2)).shape == (0,)

    def test_selects_indexed_components(self):
        # keep the first and third of three measurements
        out = project_mask([10.0, 20.0, 30.0], CensorMask(3, (0, 2)))
        np.testing.assert_array_equal(out, [10.0, 30.0])

    def test_idempotent_through_full_mask(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=5)
        once = project_mask(v, CensorMask.full(5))
        twice = project_mask(once, CensorMask.full(5))
        np.testing.assert_array_equal(once, twice)

    def test_mask_validation(self):
        with pytest.raises(InvalidArgumentError):
            CensorMask(3, (0, 0))
        with pytest.raises(InvalidArgumentError):
            CensorMask(3, (1, 3))


class TestConditionalLogDensity:
    def test_exact_fit_value(self, pk_spec):
        s = np.array([1.5, 0.6])
        t = np.array([0.2, 0.7, 1.2, 1.7])
        y = eval_f(pk_spec, s, t)
        expect = -(pk_spec.n / 2) * math.log(2 * math.pi * pk_spec.sigma**2)
        assert conditional_log_density(pk_spec, s, (y, t)) == pytest.approx(expect)

    def test_full_mask_matches_uncensored(self, pk_spec):
        rng = np.random.default_rng(21)
        s = np.array([1.2, 0.4])
        t = np.array([0.3, 0.8, 1.3, 1.8])
        y = eval_f(pk_spec, s, t) + rng.normal(size=4)
        plain = conditional_log_density(pk_spec, s, (y, t))
        censored = conditional_log_density(pk_spec, s, (y, t, CensorMask.full(4)))
        assert plain == censored

    def test_empty_mask_contributes_zero(self, pk_spec):
        t = np.array([0.3, 0.8, 1.3, 1.8])
        obs = (np.empty(0), t, CensorMask.empty(4))
        assert conditional_log_density(pk_spec, [1.0, 0.5], obs) == 0.0

    def test_matches_gaussian_density_oracle(self, location_spec):
        s, t = np.array([0.9]), np.array([0.5, 1.5])
        y = np.array([1.4, 0.2])
        u = y - eval_f(location_spec, s, t)
        assert conditional_log_density(location_spec, s, (y, t)) == pytest.approx(
            gaussian_log_density(u, location_spec.sigma)
        )

    def test_heteroscedastic_uses_component_scales(self, location_spec):
        s, t = np.array([2.0]), np.array([0.5, 1.5])
        y = np.array([2.5, 1.0])
        # g = sigma' * s = 1, so each component has sd sqrt(sigma^2 + g^2)
        sd = math.sqrt(1.0 + 1.0)
        for noise, log_density in (("gaussian", gaussian_log_density), ("laplace", laplace_log_density)):
            spec = ModelSpec(
                p=1,
                n=2,
                sigma=1.0,
                f=IdentityLocation(),
                time_design=location_spec.time_design,
                sigma_prime=0.5,
                noise=noise,
            )
            expect = sum(log_density([yy - 2.0], sd) for yy in y)
            assert conditional_log_density(spec, s, (y, t)) == pytest.approx(expect), noise

    def test_laplace_noise_density(self, location_spec):
        spec = ModelSpec(
            p=1,
            n=2,
            sigma=0.5,
            f=IdentityLocation(),
            time_design=location_spec.time_design,
            noise="laplace",
        )
        s, t = np.array([1.0]), np.array([0.5, 1.5])
        y = np.array([1.2, 0.7])
        assert conditional_log_density(spec, s, (y, t)) == pytest.approx(
            laplace_log_density(y - 1.0, 0.5)
        )

    def test_sigma_zero_simulation_only(self, location_spec):
        spec = ModelSpec(
            p=1, n=2, sigma=0.0, f=IdentityLocation(), time_design=location_spec.time_design
        )
        with pytest.raises(InvalidArgumentError):
            conditional_log_density(spec, [1.0], ([1.0, 1.0], [0.5, 1.5]))


# ---------------------------------------------------------------------------
# Laplace and heteroscedastic kernel blocks, one component at a time
# ---------------------------------------------------------------------------

OTHER_NOISE = {
    "heteroscedastic-gaussian": {"sigma_prime": 0.3},
    "heteroscedastic-laplace": {"sigma_prime": 0.3, "noise": "laplace"},
    "laplace": {"noise": "laplace"},
}
# candidate sets: a PkExp grid, that grid's points, and points of two other model functions; all give f > 0
BLOCK_MODELS = {
    "pk-grid": (PkExp(), [(0.5, 2.5), (0.05, 1.2)]),
    "pk-points": (PkExp(), [(0.5, 2.5), (0.05, 1.2)]),
    "identity": (IdentityLocation(), [(0.5, 2.5)]),
    "linear": (LinearInS(((1.0, 0.5), (0.3, 0.2))), [(0.5, 2.5), (0.0, 1.0)]),
}


def stacked_log_kernel(spec, S, Y, T, mask=None):
    """Reference: log k_x(s) of Laplace or heteroscedastic noise as the sum of a (rows, B, k) table.

    Returns the table and the terms c_j it sums over its last axis: |y_j - f_j| / b for
    homoscedastic Laplace noise, else each component's log density.
    """
    F = _forward(spec, np.asarray(S, dtype=float), T)
    if mask is not None:
        F = F[:, :, list(mask.indices)]
    U = Y[:, None, :] - F
    sigma, k = spec.sigma, Y.shape[1]
    if not spec.heteroscedastic:
        b = sigma / math.sqrt(2.0)
        return np.subtract(-k * np.log(2.0 * b), np.abs(U).sum(axis=2) / b), np.abs(U) / b
    g = spec.sigma_prime * F
    if np.any(g < 0):
        raise ModelViolationError("heteroscedastic scale has a negative component")
    var = sigma * sigma + g * g
    if spec.noise == "gaussian":
        comp = -0.5 * np.log(2.0 * math.pi * var) - (U * U) / (2.0 * var)
    else:
        b = np.sqrt(var / 2.0)
        comp = -np.log(2.0 * b) - np.abs(U) / b
    return comp.sum(axis=2), comp


def block_case(noise, name, k, censored, seed, rows=30):
    """(spec, candidates, kept components Z, times T, mask) with k observed components of n = k, or k + 2 censored."""
    rng = np.random.default_rng(seed)
    n = k + 2 if censored else k
    f, box = BLOCK_MODELS[name]
    design = TimeDesign(tuple((0.5 * j, 0.5 * j + 0.5) for j in range(n)))
    spec = ModelSpec(p=len(box), n=n, sigma=0.2, f=f, time_design=design, **OTHER_NOISE[noise])
    grid = TensorGrid([rng.uniform(lo, hi, size) for (lo, hi), size in zip(box, (6, 7))])
    T = 0.5 * (np.arange(n) + rng.uniform(size=(rows, n)))
    mask = CensorMask(n, tuple(sorted(rng.choice(n, k, replace=False)))) if censored else None
    Y = rng.uniform(0.0, 2.5, size=(rows, k))
    return spec, grid if name == "pk-grid" else np.asarray(grid), Y, T, mask


@pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
@pytest.mark.parametrize("noise", sorted(OTHER_NOISE))
class TestComponentTables:
    """Laplace and heteroscedastic blocks add one (rows, B) table per component, in component order."""

    @pytest.mark.parametrize("censored", [False, True], ids=["full", "censored"])
    def test_up_to_seven_components_have_the_bits_of_the_stacked_sum(self, noise, name, censored):
        # numpy sums a last axis shorter than 8 left to right
        for k in range(1, 8):
            spec, S, Y, T, mask = block_case(noise, name, k, censored, seed=k)
            expected, _ = stacked_log_kernel(spec, S, Y, T, mask)
            np.testing.assert_array_equal(log_kernel_block(spec, S, Y, T, mask), expected, err_msg=f"k = {k}")

    @pytest.mark.parametrize("k", [8, 12])
    def test_eight_or_more_components_are_within_the_summation_bound(self, noise, name, k):
        # from k = 8 numpy's sum runs in 8-lane pairwise order; each order is within (k - 1) eps / 2 sum |c_j|
        eps = np.finfo(float).eps
        for censored in (False, True):
            spec, S, Y, T, mask = block_case(noise, name, k, censored, seed=k)
            expected, terms = stacked_log_kernel(spec, S, Y, T, mask)
            bound = k * eps * np.abs(terms).sum(axis=2) + eps * np.abs(expected)  # and the result's rounding
            assert np.all(np.abs(log_kernel_block(spec, S, Y, T, mask) - expected) <= bound)

    @pytest.mark.parametrize("rows_per_block", [0, 1, 2, 7])
    def test_block_budget_moves_no_bit(self, monkeypatch, noise, name, rows_per_block):
        for censored in (False, True):
            spec, S, Y, T, mask = block_case(noise, name, 4, censored, seed=5, rows=23)
            expected = log_kernel_block(spec, S, Y, T, mask)
            monkeypatch.setattr(model, "_BLOCK_BYTES", 8 * len(S) * rows_per_block)
            np.testing.assert_array_equal(log_kernel_block(spec, S, Y, T, mask), expected)
            monkeypatch.undo()
