import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npmlmix import (
    CensorMask,
    CensoringDesign,
    Dataset,
    IdentityLocation,
    InvalidArgumentError,
    LinearInS,
    MixingMeasure,
    ModelSpec,
    ModelViolationError,
    PkExp,
    TimeDesign,
    apply_censoring,
    build_kernel_matrix,
    eval_f,
    project_mask,
    simulate_dataset,
)
from npmlmix.data import _ndtri, _standard_noise, _substream_uniforms
from npmlmix.likelihood import kernel_columns, log_likelihood
from npmlmix.model import _forward
from npmlmix.serialize import dataset_to_dict, dumps, simulation_from_dict


class TestSimulateDataset:
    def test_zero_noise_is_exact(self, pk_spec, two_point_pk_truth):
        spec = ModelSpec(p=2, n=4, sigma=0.0, f=PkExp(), time_design=pk_spec.time_design)
        ds = simulate_dataset(spec, two_point_pk_truth, 40, seed=1)
        for y, t in zip(ds.Y, ds.T):
            candidates = [eval_f(spec, atom, t) for atom in two_point_pk_truth.atoms]
            assert any(np.allclose(y, c, atol=1e-14) for c in candidates)

    def test_same_seed_byte_identical(self, pk_spec, two_point_pk_truth):
        a = simulate_dataset(pk_spec, two_point_pk_truth, 25, seed=9)
        b = simulate_dataset(pk_spec, two_point_pk_truth, 25, seed=9)
        assert dumps(dataset_to_dict(a)) == dumps(dataset_to_dict(b))

    def test_growing_n_extends_sample(self, pk_spec, two_point_pk_truth):
        small = simulate_dataset(pk_spec, two_point_pk_truth, 10, seed=5)
        large = simulate_dataset(pk_spec, two_point_pk_truth, 30, seed=5)
        np.testing.assert_array_equal(small.Y, large.Y[:10])
        np.testing.assert_array_equal(small.T, large.T[:10])

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
        [(_, _, values, _)] = ds.mask_groups
        band = 3 * spec.sigma / math.sqrt(values.size)
        assert abs(values.mean() - 1.0) <= band

    def test_times_inside_design_box(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 200, seed=3)
        bounds = pk_spec.time_design.bounds()
        [(_, _, _, T)] = ds.mask_groups
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
        freq = np.mean(ds.Y[:, 0] > 0.5)
        assert abs(freq - 0.7) <= 4 / math.sqrt(N)

    def test_mean_of_draws_tracks_truth(self, pk_spec, two_point_pk_truth):
        # with sigma=0, invert nothing: check the average observed curve against
        # the mixture-average curve at the per-observation times
        spec = ModelSpec(p=2, n=4, sigma=0.0, f=PkExp(), time_design=pk_spec.time_design)
        N = 4000
        ds = simulate_dataset(spec, two_point_pk_truth, N, seed=6)
        diffs = []
        for y, t in zip(ds.Y, ds.T):
            mix = sum(
                w * eval_f(spec, atom, t)
                for atom, w in zip(two_point_pk_truth.atoms, two_point_pk_truth.weights)
            )
            diffs.append(y - mix)
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
        [(_, _, Y, _)] = ds.mask_groups
        resid = Y[:, 0] - 2.0
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
        [(_, _, Y, _)] = ds.mask_groups
        resid = Y - 2.0
        target = spec.sigma**2 + (0.5 * 2.0) ** 2
        for j in range(2):
            column = resid[:, j]
            se = target * math.sqrt(2.0 / (column.size - 1))
            assert abs(column.var(ddof=1) - target) <= 3 * se

    def test_rejects_empty_sample(self, pk_spec, two_point_pk_truth):
        with pytest.raises(InvalidArgumentError):
            simulate_dataset(pk_spec, two_point_pk_truth, 0, seed=1)

    def test_rejects_negative_seed(self, pk_spec, two_point_pk_truth):
        with pytest.raises(InvalidArgumentError, match="seed must be non-negative, got -1"):
            simulate_dataset(pk_spec, two_point_pk_truth, 5, seed=-1)
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 5, seed=1)
        design = CensoringDesign(((CensorMask.full(4), 1.0),))
        with pytest.raises(InvalidArgumentError, match="seed must be non-negative, got -2"):
            apply_censoring(ds, design, seed=-2)

    def test_rejects_dimension_mismatch(self, pk_spec):
        truth = MixingMeasure(np.array([[1.0]]), [1.0])
        with pytest.raises(InvalidArgumentError):
            simulate_dataset(pk_spec, truth, 5, seed=1)

    def test_truth_outside_model_domain_rejected_without_warning(self):
        spec = ModelSpec(p=2, n=1, sigma=0.2, f=PkExp(), time_design=TimeDesign(((2.0, 3.0),)))
        # exp(400 t) overflows on [2, 3]
        truth = MixingMeasure(np.array([[1.0, -400.0]]), [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="numeric domain"):
                simulate_dataset(spec, truth, 5, seed=1)

    def test_negative_heteroscedastic_scale_is_a_model_violation(self, location_spec):
        # the same error class the kernel raises when a fit meets this scale
        spec = ModelSpec(
            p=1, n=2, sigma=0.4, f=IdentityLocation(), time_design=location_spec.time_design, sigma_prime=0.3
        )
        truth = MixingMeasure(np.array([[-1.0]]), [1.0])
        with pytest.raises(ModelViolationError):
            simulate_dataset(spec, truth, 5, seed=1)


def _substream(seed, index):
    """Reference: individual index's own generator, keyed (seed, index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


class TestSubstreamUniforms:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        # run entropy of 1, 2, 3 and 5 words; five words take SeedSequence's remaining-entropy pass
        seed=st.one_of(
            st.sampled_from([0, 2**32 - 1, 2**32]),
            st.integers(0, 2**32 - 1),
            st.integers(0, 2**64 - 1).map(lambda x: 2**64 + x),
            st.integers(0, 2**64 - 1).map(lambda x: 2**128 + x),
        ),
        N=st.integers(1, 300),
        k=st.integers(1, 9),
    )
    def test_bits_equal_numpys_generator(self, seed, N, k):
        expected = np.array([_substream(seed, i).random(k) for i in range(N)])
        np.testing.assert_array_equal(_substream_uniforms(seed, N, k).view(np.uint64), expected.view(np.uint64))

    def test_numpy_integer_seeds_are_their_python_ints(self):
        for seed in (np.int64(2**62 + 3), np.uint64(2**64 - 1), np.uint32(7)):
            np.testing.assert_array_equal(
                _substream_uniforms(seed, 20, 3).view(np.uint64), _substream_uniforms(int(seed), 20, 3).view(np.uint64)
            )

    def test_rejects_negative_seed(self):
        for seed in (-1, np.int64(-3)):
            with pytest.raises(InvalidArgumentError, match="seed must be non-negative"):
                _substream_uniforms(seed, 4, 1)


def _data_digest(ds, censored=None):
    """sha256 of Y and T, then each row's mask as a bit set when a censored copy is given."""
    h = hashlib.sha256()
    h.update(ds.Y.tobytes())
    h.update(ds.T.tobytes())
    if censored is not None:
        bits = [sum(1 << i for i in mask.indices) for mask in censored.masks]
        h.update(np.array(bits, dtype=np.uint8).tobytes())
    return h.hexdigest()


class TestDataContract:
    """Pinned digests of simulated and censored data, so a change in numpy's streams cannot pass unseen."""

    PK1600 = {
        0: "00fd946219a1843b71d46c60d36901936e62ed7c0f672b010151ef14616a89e0",
        1: "808398d5a13eaedc45117034488864fc8eaa06705341d83d05db54e569e93c4d",
        2: "2761ce070dc7a1bb5e94e3a96e638b4390a799d466f53344736878aede184c29",
        3: "f465505a6aa6bf43126a0602bd9a9c30c5333c82ca1fc8229f726bec44b0cfb6",
    }

    @pytest.mark.parametrize("seed", sorted(PK1600))
    def test_pk_at_n1600(self, seed):
        spec, _, truth = MODELS["pk"]
        assert _data_digest(simulate_dataset(spec, truth, 1600, seed)) == self.PK1600[seed]

    def test_readme_config_with_its_default_censor_seed(self):
        config = {
            "model": {
                "p": 2,
                "n": 4,
                "sigma": 0.2,
                "f": {"kind": "pk_exp"},
                "time_design": [[0.0, 0.75], [0.75, 1.5], [1.5, 2.25], [2.25, 3.0]],
            },
            "truth": {"atoms": [[1.0, 0.3], [2.0, 0.8]], "weights": [0.5, 0.5]},
            "N": 300,
            "seed": 11,
            "censoring": {"n": 4, "masks": [[0, 2], [0, 1, 2, 3]], "probabilities": [0.4, 0.6]},
        }
        spec, truth, N, seed, design, censor_seed = simulation_from_dict(config)
        assert censor_seed == 12
        ds = simulate_dataset(spec, truth, N, seed)
        censored = apply_censoring(ds, design, censor_seed)
        assert _data_digest(ds, censored) == "775754e32122ea22df9e35667c555343ede3e531cb93a0c9a20723684ec564ef"


def simulate_per_individual(spec, mu_true, N, seed):
    """Reference: (Y, T) drawn one individual at a time, three draws from each substream."""
    bounds = spec.time_design.bounds()
    cum = np.cumsum(mu_true.weights)
    Y, T = [], []
    for i in range(N):
        rng = _substream(seed, i)
        idx = min(int(np.searchsorted(cum, rng.random(), side="right")), mu_true.m - 1)
        t = bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * rng.random(spec.n)
        eps = _standard_noise(rng.random(spec.n), spec.noise)
        f = _forward(spec, mu_true.atoms[idx][None, :], t[None, :])[0, 0]
        sd = np.sqrt(spec.sigma**2 + (spec.sigma_prime * f) ** 2) if spec.heteroscedastic else spec.sigma
        Y.append(f + sd * eps)
        T.append(t)
    return np.array(Y), np.array(T)


# nonnegative model values on these boxes, so the heteroscedastic scale is valid
SIMULATION_MODELS = {
    "pk": (PkExp(), ((0.5, 2.5), (0.05, 1.2))),
    "location": (IdentityLocation(), ((0.0, 2.5),)),
    "linear": (LinearInS(((1.0, 0.5), (0.0, 1.0))), ((0.0, 2.5), (0.0, 1.0))),
}


class TestVectorizedSimulation:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(sorted(SIMULATION_MODELS)),
        variant=st.sampled_from([{}, {"sigma_prime": 0.3}, {"noise": "laplace"}, {"sigma_prime": 0.2, "noise": "laplace"}]),
        N=st.integers(1, 40),
        seed=st.integers(0, 10**6),
        unit=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 1.0)), min_size=1, max_size=4),
    )
    def test_bits_equal_the_per_individual_loop(self, model, variant, N, seed, unit):
        f, box = SIMULATION_MODELS[model]
        spec = ModelSpec(p=len(box), n=3, sigma=0.2, f=f, time_design=TimeDesign(((0, 1), (1, 2), (2, 3))), **variant)
        lo, hi = np.array(box).T
        unit = np.array(unit)
        truth = MixingMeasure(lo + (hi - lo) * unit[:, : spec.p], unit[:, -1] / unit[:, -1].sum())
        ds = simulate_dataset(spec, truth, N, seed)
        Y, T = simulate_per_individual(spec, truth, N, seed)
        np.testing.assert_array_equal(ds.Y, Y)
        np.testing.assert_array_equal(ds.T, T)



class TestNdtri:
    """The Gaussian quantile that simulation draws through has the bits of ``scipy.special.ndtri``."""

    @staticmethod
    def assert_bits_equal(u):
        from scipy.special import ndtri

        np.testing.assert_array_equal(_ndtri(u).view(np.int64), ndtri(u).view(np.int64))

    def test_uniforms(self):
        self.assert_bits_equal(np.random.default_rng(31).random(10**6))

    def test_tails(self):
        rng = np.random.default_rng(32)
        lower = np.concatenate([10.0 ** -rng.uniform(0.0, 300.0, 100_000), [1e-300]])
        upper = np.concatenate([1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 100_000), [1.0 - 1e-16]])
        self.assert_bits_equal(np.clip(np.concatenate([lower, upper]), 1e-300, 1.0 - 1e-16))

    def test_branch_points(self):
        # the central branch ends at exp(-2) on either side; x = sqrt(-2 log y) reaches 8 at exp(-32)
        edges = np.array([math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)])
        self.assert_bits_equal(np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0)]))


class TestApplyCensoring:
    def test_full_design_keeps_everything(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 30, seed=11)
        design = CensoringDesign(((CensorMask.full(4), 1.0),))
        censored = apply_censoring(ds, design, seed=12)
        assert all(mask.is_full for mask in censored.masks)
        np.testing.assert_array_equal(censored.Y, ds.Y)
        np.testing.assert_array_equal(censored.T, ds.T)

    def test_empty_design_drops_everything(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 10, seed=13)
        design = CensoringDesign(((CensorMask.empty(4), 1.0),))
        censored = apply_censoring(ds, design, seed=14)
        assert all(mask.cardinality == 0 for mask in censored.masks)
        assert np.isnan(censored.Y).all()
        [(_, _, Z, _)] = censored.mask_groups
        assert Z.shape == (10, 0)

    def test_mask_frequencies(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 4000, seed=15)
        design = CensoringDesign(
            ((CensorMask(4, (0,)), 0.5), (CensorMask.full(4), 0.5))
        )
        censored = apply_censoring(ds, design, seed=16)
        frac_full = np.mean([mask.is_full for mask in censored.masks])
        assert abs(frac_full - 0.5) <= 3 * math.sqrt(0.25 / 4000)

    def test_projection_consistency(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 50, seed=17)
        design = CensoringDesign(
            ((CensorMask(4, (0, 2)), 0.5), (CensorMask(4, (1, 3)), 0.5))
        )
        censored = apply_censoring(ds, design, seed=18)
        for y, y_cens, mask in zip(ds.Y, censored.Y, censored.masks):
            np.testing.assert_array_equal(y_cens[list(mask.indices)], project_mask(y, mask))

    def test_deterministic(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 40, seed=19)
        design = CensoringDesign(
            ((CensorMask(4, (0,)), 0.25), (CensorMask.full(4), 0.75))
        )
        a = apply_censoring(ds, design, seed=20)
        b = apply_censoring(ds, design, seed=20)
        assert dumps(dataset_to_dict(a)) == dumps(dataset_to_dict(b))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        subsets=st.lists(st.integers(0, 15), min_size=1, max_size=3, unique=True),
        raw=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
        N=st.integers(1, 200),
        seed=st.integers(0, 2**70),
    )
    def test_masks_equal_the_per_individual_draw(self, subsets, raw, N, seed):
        spec, _, truth = MODELS["pk"]
        masks = [CensorMask(4, tuple(i for i in range(4) if s >> i & 1)) for s in subsets]
        probs = np.array(raw[: len(masks)]) / sum(raw[: len(masks)])
        design = CensoringDesign(tuple(zip(masks, probs)))
        censored = apply_censoring(simulate_dataset(spec, truth, N, 3), design, seed)
        ordered = [m for m, _ in design.mask_probabilities]
        cum = np.cumsum([p for _, p in design.mask_probabilities])
        for i, mask in enumerate(censored.masks):
            j = int(np.searchsorted(cum, _substream(seed, i).random(), side="right"))
            assert mask == ordered[min(j, len(ordered) - 1)]

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


# model, search box and truth of the random datasets below
MODELS = {
    "pk": (
        ModelSpec(p=2, n=4, sigma=0.2, f=PkExp(), time_design=TimeDesign(((0, 0.75), (0.75, 1.5), (1.5, 2.25), (2.25, 3)))),
        ((0.5, 2.5), (0.05, 1.2)),
        MixingMeasure(np.array([[1.0, 0.3], [2.0, 0.8]]), [0.5, 0.5]),
    ),
    "location": (
        ModelSpec(p=1, n=2, sigma=0.4, f=IdentityLocation(), time_design=TimeDesign(((0.0, 1.0), (1.0, 2.0)))),
        ((0.0, 2.5),),
        MixingMeasure(np.array([[0.7], [1.8]]), [0.5, 0.5]),
    ),
}


class TestMaskGroups:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(sorted(MODELS)),
        N=st.integers(1, 60),
        seed=st.integers(0, 10**6),
        unit=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 2, st.floats(0.01, 1.0)), min_size=1, max_size=8),
    )
    def test_full_mask_copy_gives_the_same_kernel(self, model, N, seed, unit):
        spec, box, truth = MODELS[model]
        ds = simulate_dataset(spec, truth, N, seed)
        full = apply_censoring(ds, CensoringDesign(((CensorMask.full(spec.n), 1.0),)), seed + 1)
        lo, hi = np.array(box).T
        unit = np.array(unit)
        points = lo + (hi - lo) * unit[:, : spec.p]
        np.testing.assert_array_equal(kernel_columns(full, points), kernel_columns(ds, points))
        mu = MixingMeasure(points, unit[:, -1] / unit[:, -1].sum())
        a = log_likelihood(build_kernel_matrix(full, mu), mu.weights)
        assert a == log_likelihood(build_kernel_matrix(ds, mu), mu.weights)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(sorted(MODELS)),
        N=st.integers(1, 60),
        seed=st.integers(0, 10**6),
        masks=st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
    )
    def test_groups_partition_the_rows(self, model, N, seed, masks):
        spec, _, truth = MODELS[model]
        ds = simulate_dataset(spec, truth, N, seed)
        # masks 0..3 keep the first 0..3 components, capped at n
        kept = sorted({tuple(range(min(k, spec.n))) for k in masks})
        design = CensoringDesign(tuple((CensorMask(spec.n, idx), 1.0 / len(kept)) for idx in kept))
        censored = apply_censoring(ds, design, seed + 1)
        for d in (ds, censored):
            rows = np.concatenate([g[1] for g in d.mask_groups])
            assert sorted(rows.tolist()) == list(range(N))
            for mask, rows, Z, T in d.mask_groups:
                for i, z, t in zip(rows, Z, T):
                    assert mask == (None if d.masks is None else d.masks[i])
                    np.testing.assert_array_equal(z, d.Y[i] if mask is None else d.Y[i, list(mask.indices)])
                    np.testing.assert_array_equal(t, d.T[i])

    def test_groups_are_stacked_once(self, pk_spec, two_point_pk_truth, monkeypatch):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 20, seed=3)
        kernel_columns(ds, two_point_pk_truth.atoms)
        stacked = []
        real = np.stack
        monkeypatch.setattr(np, "stack", lambda *a, **k: stacked.append(1) or real(*a, **k))
        kernel_columns(ds, two_point_pk_truth.atoms)
        assert not stacked
        assert ds.mask_groups is ds.mask_groups

    def test_group_arrays_are_read_only(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 20, seed=3)
        design = CensoringDesign(((CensorMask(4, (0, 2)), 0.5), (CensorMask.full(4), 0.5)))
        for d in (ds, apply_censoring(ds, design, seed=4)):
            for _, rows, Z, T in d.mask_groups:
                for array in (rows, Z, T):
                    with pytest.raises(ValueError):
                        array[0] = 0

    def test_uncensored_group_shares_the_arrays(self, pk_spec, two_point_pk_truth):
        ds = simulate_dataset(pk_spec, two_point_pk_truth, 20, seed=3)
        [(mask, rows, Y, T)] = ds.mask_groups
        assert mask is None and Y is ds.Y and T is ds.T
        np.testing.assert_array_equal(rows, np.arange(20))
        [(_, _, Y, T)] = ds.row_slice(5, 12).mask_groups
        assert np.shares_memory(Y, ds.Y) and np.shares_memory(T, ds.T)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(sorted(MODELS)),
        N=st.integers(1, 60),
        seed=st.integers(0, 10**6),
        # each subset s keeps the components i with bit i of s set; None leaves the sample uncensored
        subsets=st.none() | st.lists(st.integers(0, 15), min_size=1, max_size=4, unique=True),
        cut=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    )
    def test_row_slice_is_the_sliced_arrays_and_groups(self, model, N, seed, subsets, cut):
        spec, _, truth = MODELS[model]
        ds = simulate_dataset(spec, truth, N, seed)
        if subsets is not None:
            masks = sorted({tuple(i for i in range(spec.n) if s >> i & 1) for s in subsets})
            design = CensoringDesign(tuple((CensorMask(spec.n, idx), 1.0 / len(masks)) for idx in masks))
            ds = apply_censoring(ds, design, seed + 1)
        a = cut[0] % N
        b = a + 1 + cut[1] % (N - a)
        part = ds.row_slice(a, b)
        assert part.N == b - a and (part.spec, part.seed, part.truth, part.censoring) == (
            ds.spec, ds.seed, ds.truth, ds.censoring
        )
        assert part.Y.tobytes() == ds.Y[a:b].tobytes() and part.T.tobytes() == ds.T[a:b].tobytes()
        assert part.masks == (None if ds.masks is None else ds.masks[a:b])
        expected = []
        for mask, rows, Z, T in ds.mask_groups:
            inside = (rows >= a) & (rows < b)
            if inside.any():
                expected.append((mask, rows[inside] - a, Z[inside], T[inside]))
        assert len(part.mask_groups) == len(expected)
        keys = [(mask.cardinality, mask.indices) for mask, *_ in ds.mask_groups if mask is not None]
        assert keys == sorted(keys)
        for (mask, *got), (want_mask, *want) in zip(part.mask_groups, expected):
            assert mask == want_mask
            for x, y in zip(got, want):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


class TestDatasetArrays:
    KEEP_FIRST = CensorMask(2, (0,))

    @pytest.mark.parametrize(
        "Y, T, masks, message",
        [
            ([[1.0, np.nan]], [[0.5, 1.5]], None, "row 0 of Y is not NaN exactly where its mask drops a component"),
            ([[1.0, np.nan], [np.nan, np.nan]], [[0.5, 1.5]] * 2, (KEEP_FIRST, KEEP_FIRST), "row 1 of Y is not NaN"),
            ([[1.0, 2.0]], [[0.5, 1.5]], (KEEP_FIRST,), "row 0 of Y is not NaN"),
            ([[1.0, np.nan], [1.0, 2.0]], [[0.5, 1.5]] * 2, (KEEP_FIRST, KEEP_FIRST), "row 1 of Y is not NaN"),
            ([[1.0, 2.0, 3.0]], [[0.5, 1.5, 2.5]], None, r"must be \(N, 2\) arrays"),
            ([[1.0, 2.0]], [[0.5, 1.5], [0.5, 1.5]], None, r"must be \(N, 2\) arrays"),
            ([1.0, 2.0], [0.5, 1.5], None, r"must be \(N, 2\) arrays"),
            (np.empty((0, 2)), np.empty((0, 2)), None, "N >= 1"),
            ([[1.0, np.nan]] * 2, [[0.5, 1.5]] * 2, (KEEP_FIRST,), "one CensorMask with n = 2 per row"),
            ([[1.0, np.nan]], [[0.5, 1.5]], (CensorMask(3, (0,)),), "one CensorMask with n = 2 per row"),
            ([[1.0, np.nan]], [[0.5, 1.5]], ((0,),), "one CensorMask with n = 2 per row"),
        ],
        ids=[
            "uncensored-nan", "nan-where-kept", "finite-where-dropped", "finite-where-dropped-second-row",
            "wrong-n", "Y-T-shapes-differ", "one-dimensional", "no-rows", "too-few-masks", "mask-of-other-n",
            "not-a-mask",
        ],
    )  # fmt: skip
    def test_refuses(self, location_spec, Y, T, masks, message):
        with pytest.raises(InvalidArgumentError, match=message):
            Dataset(location_spec, np.array(Y), np.array(T), 0, masks=masks)

    def test_arrays_are_read_only(self, location_spec):
        Y, T = np.array([[1.0, np.nan]]), np.array([[0.5, 1.5]])
        ds = Dataset(location_spec, Y, T, 0, masks=(self.KEEP_FIRST,))
        for array in (ds.Y, ds.T):
            with pytest.raises(ValueError):
                array[0, 0] = 0.0
        [(mask, rows, Z, T_group)] = ds.mask_groups
        assert mask == self.KEEP_FIRST and Z.tolist() == [[1.0]] and T_group.tolist() == [[0.5, 1.5]]
