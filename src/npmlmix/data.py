"""Sample simulation, censoring and dataset containers.

Randomness uses one splittable generator family (PCG64 seeded through
SeedSequence); individual i always draws from the substream keyed (seed, i),
so enlarging N extends a sample without reshuffling earlier individuals.
Normal and Laplace variates come from inverse-CDF transforms of uniforms,
which are deterministic at double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
from scipy.special import ndtri

from .errors import InvalidArgumentError
from .measures import MixingMeasure, _checked_weights
from .model import GAUSSIAN, CensorMask, ModelSpec, project_mask


@dataclass(frozen=True)
class Observation:
    """One individual's full measurement vector and measuring times."""

    y: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).reshape(-1)
        t = np.asarray(self.t, dtype=float).reshape(-1)
        if y.shape[0] != t.shape[0]:
            raise InvalidArgumentError("y and t must have equal length")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class CensoredObservation:
    """One individual's observed components, full times, and censor mask."""

    z: np.ndarray
    t: np.ndarray
    mask: CensorMask

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float).reshape(-1)
        t = np.asarray(self.t, dtype=float).reshape(-1)
        if t.shape[0] != self.mask.n:
            raise InvalidArgumentError("t length does not match the mask's n")
        if z.shape[0] != self.mask.cardinality:
            raise InvalidArgumentError("z length does not match the mask cardinality")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class CensoringDesign:
    """Distribution over censor masks, independent of the data."""

    mask_probabilities: tuple  # ((CensorMask, prob), ...) in canonical order

    def __post_init__(self):
        items = list(self.mask_probabilities)
        if isinstance(self.mask_probabilities, dict):
            items = list(self.mask_probabilities.items())
        if not items:
            raise InvalidArgumentError("censoring design needs at least one mask")
        probs = _checked_weights([p for _, p in items], neg_tol=0.0)
        if abs(probs.sum() - 1.0) > 1e-9:
            raise InvalidArgumentError(f"mask probabilities sum to {probs.sum()!r}, expected 1")
        n_values = {mask.n for mask, _ in items}
        if len(n_values) != 1:
            raise InvalidArgumentError("all masks in a design must share the same n")
        # canonical order: by cardinality then indices, for reproducible sampling
        items.sort(key=lambda kv: (kv[0].cardinality, kv[0].indices))
        object.__setattr__(self, "mask_probabilities", tuple((m, float(p)) for m, p in items))

    @property
    def n(self) -> int:
        return self.mask_probabilities[0][0].n

    def probability_of(self, mask: CensorMask) -> float:
        for m, p in self.mask_probabilities:
            if m == mask:
                return p
        raise InvalidArgumentError("mask is not part of this design")


@dataclass(frozen=True)
class Dataset:
    """The observed sample, plus simulation provenance when available."""

    spec: ModelSpec
    observations: tuple
    seed: int
    truth: Optional[MixingMeasure] = None
    censoring: Optional[CensoringDesign] = None

    def __post_init__(self):
        obs = tuple(self.observations)
        if not obs:
            raise InvalidArgumentError("a dataset needs at least one observation")
        kinds = {type(o) for o in obs}
        if len(kinds) != 1:
            raise InvalidArgumentError("observations must all be censored or all uncensored")
        for o in obs:
            if o.t.shape[0] != self.spec.n:
                raise InvalidArgumentError("an observation's length disagrees with the spec")
        object.__setattr__(self, "observations", obs)

    @property
    def N(self) -> int:
        return len(self.observations)

    @property
    def is_censored(self) -> bool:
        return isinstance(self.observations[0], CensoredObservation)

    def times(self) -> np.ndarray:
        return np.stack([o.t for o in self.observations])

    def values(self) -> np.ndarray:
        if self.is_censored:
            raise InvalidArgumentError("censored datasets have ragged values; group by mask")
        return np.stack([o.y for o in self.observations])

    def mask_groups(self) -> List[tuple]:
        """Group censored rows by mask: list of (mask, row_indices, Z, T)."""
        if not self.is_censored:
            raise InvalidArgumentError("dataset is not censored")
        groups: Dict[CensorMask, list] = {}
        for i, o in enumerate(self.observations):
            groups.setdefault(o.mask, []).append(i)
        out = []
        for mask in sorted(groups, key=lambda m: (m.cardinality, m.indices)):
            rows = groups[mask]
            Z = np.stack([self.observations[i].z for i in rows]) if mask.cardinality else np.empty((len(rows), 0))
            T = np.stack([self.observations[i].t for i in rows])
            out.append((mask, np.asarray(rows), Z, T))
        return out


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def _open_unit(u: np.ndarray) -> np.ndarray:
    # keep inverse-CDF transforms finite
    return np.clip(u, 1e-300, 1.0 - 1e-16)


def _standard_noise(rng: np.random.Generator, n: int, noise: str) -> np.ndarray:
    u = _open_unit(rng.random(n))
    if noise == GAUSSIAN:
        return ndtri(u)
    # standard Laplace via inverse CDF, scaled to unit variance
    centered = u - 0.5
    lap = -np.sign(centered) * np.log1p(-2.0 * np.abs(centered))
    return lap / math.sqrt(2.0)


def simulate_dataset(spec: ModelSpec, mu_true: MixingMeasure, N: int, seed: int) -> Dataset:
    """Draw N individuals: S from mu_true, T from the design, noise per spec.

    Deterministic for a fixed seed; individual i depends only on (seed, i).
    """
    if N < 1:
        raise InvalidArgumentError("N must be >= 1")
    if mu_true.p != spec.p:
        raise InvalidArgumentError("truth dimension does not match the spec")
    bounds = spec.time_design.bounds()
    widths = bounds[:, 1] - bounds[:, 0]
    cum = np.cumsum(mu_true.weights)
    observations = []
    for i in range(N):
        rng = _substream(seed, i)
        idx = int(np.searchsorted(cum, rng.random(), side="right"))
        idx = min(idx, mu_true.m - 1)
        s = mu_true.atoms[idx]
        t = bounds[:, 0] + widths * rng.random(spec.n)
        eps = _standard_noise(rng, spec.n, spec.noise)
        f_val = spec.f.evaluate_many(s[None, :], t[None, :])[0, 0]
        if not np.all(np.isfinite(f_val)):
            raise InvalidArgumentError("truth atom lies outside the model function's domain")
        if spec.heteroscedastic:
            g = spec.sigma_prime * f_val
            if np.any(g < 0):
                raise InvalidArgumentError("heteroscedastic scale is negative at a truth atom")
            sd = np.sqrt(spec.sigma**2 + g * g)
        else:
            sd = spec.sigma
        observations.append(Observation(f_val + sd * eps, t))
    return Dataset(spec=spec, observations=tuple(observations), seed=seed, truth=mu_true)


def apply_censoring(ds: Dataset, design: CensoringDesign, seed: int) -> Dataset:
    """Censor each individual with an i.i.d. mask drawn from the design."""
    if ds.is_censored:
        raise InvalidArgumentError("dataset is already censored")
    if design.n != ds.spec.n:
        raise InvalidArgumentError("censoring design does not match the spec's n")
    masks = [m for m, _ in design.mask_probabilities]
    cum = np.cumsum([p for _, p in design.mask_probabilities])
    observations = []
    for i, obs in enumerate(ds.observations):
        rng = _substream(seed, i)
        j = int(np.searchsorted(cum, rng.random(), side="right"))
        mask = masks[min(j, len(masks) - 1)]
        observations.append(CensoredObservation(project_mask(obs.y, mask), obs.t, mask))
    return Dataset(
        spec=ds.spec,
        observations=tuple(observations),
        seed=ds.seed,
        truth=ds.truth,
        censoring=design,
    )
