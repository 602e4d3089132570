import math

import numpy as np
import pytest

from npmlmix import (
    CensorMask,
    CensoringDesign,
    IdentityLocation,
    InvalidArgumentError,
    MixingMeasure,
    ModelSpec,
    PkExp,
    TimeDesign,
    apply_censoring,
    eval_f,
    project_mask,
    simulate_dataset,
)
from npmlmix.serialize import dataset_to_dict, dumps


class TestSimulateDataset:
    def test_zero_noise_is_exact(self, pk_spec, two_point_pk_truth):
        spec = ModelSpec(p=2, n=4, sigma=0.0, f=PkExp(), time_design=pk_spec.time_design)
        ds = simulate_dataset(spec, two_point_pk_truth, 40, seed=1)
        for obs in ds.observations:
            candidates = [eval_f(spec, atom, obs.t) for atom in two_point_pk_truth.atoms]
            assert any(np.allclose(obs.y, c, atol=1e-14) for c in candidates)

    def test_same_seed_byte_identical(self, pk_spec, two_point_pk_truth):
        a = simulate_dataset(pk_spec, two_point_pk_truth, 25, seed=9)
        b = simulate_dataset(pk_spec, two_point_pk_truth, 25, seed=9)
        assert dumps(dataset_to_dict(a)) == dumps(dataset_to_dict(b))

    def test_growing_n_extends_sample(self, pk_spec, two_point_pk_truth):
        small = simulate_dataset(pk_spec, two_point_pk_truth, 10, seed=5)
        large = simulate_dataset(pk_spec, two_point_pk_truth, 30, seed=5)
        for o_small, o_large in zip(small.observations, large.observations):
            np.testing.assert_array_equal(o_small.y, o_large.y)
            np.testing.assert_array_equal(o_small.t, o_large.t)

    def test_sample_mean_clt_band(self):
        # flat curve: A=1, rate=0 makes every measurement 1 + noise
        spec = ModelSpec(
            p=2,
            n=2,
            sigma=0.1,
            f=PkExp(),
            time_design=TimeDesign(((0.0, 1.0), (1.0, 2.0))),
        )
        truth = MixingMeasure(np.array([[1.0, 0.0]]), [1.0])
        ds = simulate_dataset(spec, truth, 10000, seed=2)
        values = ds.values()
        band = 3 * spec.sigma / math.sqrt(values.size)
        assert abs(values.mean() - 1.0) <= band

    def test_times_inside_design_box(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 200, seed=3)
        bounds = pk_spec.time_design.bounds()
        T = ds.times()
        assert np.all(T >= bounds[None, :, 0]) and np.all(T <= bounds[None, :, 1])
        assert all(pk_spec.time_design.density(t) > 0 for t in T)

    def test_atom_frequencies_match_weights(self):
        # noise-free location model: y identifies the drawn atom exactly
        spec = ModelSpec(
            p=1, n=1, sigma=0.0, f=IdentityLocation(), time_design=TimeDesign(((0.0, 1.0),))
        )
        truth = MixingMeasure(np.array([[0.0], [1.0]]), [0.3, 0.7])
        N = 4000
        ds = simulate_dataset(spec, truth, N, seed=4)
        freq = np.mean([obs.y[0] > 0.5 for obs in ds.observations])
        assert abs(freq - 0.7) <= 4 / math.sqrt(N)

    def test_mean_of_draws_tracks_truth(self, pk_spec, two_point_pk_truth):
        # with sigma=0, invert nothing: check the average observed curve against
        # the mixture-average curve at the per-observation times
        spec = ModelSpec(p=2, n=4, sigma=0.0, f=PkExp(), time_design=pk_spec.time_design)
        N = 4000
        ds = simulate_dataset(spec, two_point_pk_truth, N, seed=6)
        diffs = []
        for obs in ds.observations:
            mix = sum(
                w * eval_f(spec, atom, obs.t)
                for atom, w in zip(two_point_pk_truth.atoms, two_point_pk_truth.weights)
            )
            diffs.append(obs.y - mix)
        spread = np.std(np.asarray(diffs).ravel())
        assert np.abs(np.mean(diffs)) <= 4 * spread / math.sqrt(N)

    def test_laplace_noise_variance_matches_sigma(self):
        spec = ModelSpec(
            p=1,
            n=1,
            sigma=0.5,
            f=IdentityLocation(),
            time_design=TimeDesign(((0.0, 1.0),)),
            noise="laplace",
        )
        truth = MixingMeasure(np.array([[2.0]]), [1.0])
        ds = simulate_dataset(spec, truth, 60000, seed=7)
        resid = ds.values()[:, 0] - 2.0
        # Laplace kurtosis is 6, so the variance estimator band widens accordingly
        se = spec.sigma**2 * math.sqrt(8.0 / resid.size)
        assert abs(resid.var() - spec.sigma**2) <= 3 * se

    def test_heteroscedastic_variance(self):
        spec = ModelSpec(
            p=1,
            n=2,
            sigma=1.0,
            f=IdentityLocation(),
            time_design=TimeDesign(((0.0, 1.0), (1.0, 2.0))),
            sigma_prime=0.5,
        )
        truth = MixingMeasure(np.array([[2.0]]), [1.0])
        ds = simulate_dataset(spec, truth, 30000, seed=8)
        resid = ds.values() - 2.0
        target = spec.sigma**2 + (0.5 * 2.0) ** 2
        for j in range(2):
            column = resid[:, j]
            se = target * math.sqrt(2.0 / (column.size - 1))
            assert abs(column.var(ddof=1) - target) <= 3 * se

    def test_rejects_empty_sample(self, pk_spec, two_point_pk_truth):
        with pytest.raises(InvalidArgumentError):
            simulate_dataset(pk_spec, two_point_pk_truth, 0, seed=1)

    def test_rejects_dimension_mismatch(self, pk_spec):
        truth = MixingMeasure(np.array([[1.0]]), [1.0])
        with pytest.raises(InvalidArgumentError):
            simulate_dataset(pk_spec, truth, 5, seed=1)


class TestApplyCensoring:
    def test_full_design_keeps_everything(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 30, seed=11)
        design = CensoringDesign(((CensorMask.full(4), 1.0),))
        censored = apply_censoring(ds, design, seed=12)
        for plain, cens in zip(ds.observations, censored.observations):
            np.testing.assert_array_equal(cens.z, plain.y)
            np.testing.assert_array_equal(cens.t, plain.t)

    def test_empty_design_drops_everything(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 10, seed=13)
        design = CensoringDesign(((CensorMask.empty(4), 1.0),))
        censored = apply_censoring(ds, design, seed=14)
        assert all(obs.z.shape == (0,) for obs in censored.observations)

    def test_mask_frequencies(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 4000, seed=15)
        design = CensoringDesign(
            ((CensorMask(4, (0,)), 0.5), (CensorMask.full(4), 0.5))
        )
        censored = apply_censoring(ds, design, seed=16)
        frac_full = np.mean([obs.mask.is_full for obs in censored.observations])
        assert abs(frac_full - 0.5) <= 3 * math.sqrt(0.25 / 4000)

    def test_projection_consistency(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 50, seed=17)
        design = CensoringDesign(
            ((CensorMask(4, (0, 2)), 0.5), (CensorMask(4, (1, 3)), 0.5))
        )
        censored = apply_censoring(ds, design, seed=18)
        for plain, cens in zip(ds.observations, censored.observations):
            np.testing.assert_array_equal(cens.z, project_mask(plain.y, cens.mask))

    def test_deterministic(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 40, seed=19)
        design = CensoringDesign(
            ((CensorMask(4, (0,)), 0.25), (CensorMask.full(4), 0.75))
        )
        a = apply_censoring(ds, design, seed=20)
        b = apply_censoring(ds, design, seed=20)
        assert dumps(dataset_to_dict(a)) == dumps(dataset_to_dict(b))

    def test_rejects_censoring_twice(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 10, seed=21)
        design = CensoringDesign(((CensorMask.full(4), 1.0),))
        once = apply_censoring(ds, design, seed=22)
        with pytest.raises(InvalidArgumentError):
            apply_censoring(once, design, seed=23)

    def test_rejects_bad_design(self):
        with pytest.raises(InvalidArgumentError):
            CensoringDesign(((CensorMask.full(4), 0.5), (CensorMask.empty(4), 0.4)))
        for bad in (float("nan"), -0.25):
            with pytest.raises(InvalidArgumentError):
                CensoringDesign(((CensorMask.full(4), 1.0), (CensorMask.empty(4), bad)))
