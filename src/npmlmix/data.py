"""Sample simulation, censoring and the dataset container.

A sample is two (N, n) arrays, one row per individual, and one censor mask
per row when censored; ``Dataset.mask_groups`` gathers each mask's rows.

Randomness comes from numpy's PCG64 seeded through SeedSequence, one stream
per purpose: ``spawn_key=(0,)`` for simulation and ``(1,)`` for censoring.
Each stream is read in individual order, k draws per individual, so
individual i's draws depend on (seed, i) alone and enlarging N extends a
sample without reshuffling earlier individuals. The two streams are
disjoint, so the censor masks are independent of the data.
Normal and Laplace variates come from inverse-CDF transforms of uniforms,
which are deterministic at double precision.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError
from .measures import MixingMeasure, _checked_weights
from .model import GAUSSIAN, CensorMask, ModelSpec, _forward, _scale


@dataclass(frozen=True)
class CensoringDesign:
    """Distribution over censor masks, independent of the data."""

    mask_probabilities: tuple  # ((CensorMask, prob), ...) in canonical order

    def __post_init__(self):
        items = list(self.mask_probabilities)
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


def _keep_table(masks, n: int) -> np.ndarray:
    """(len(masks), n) booleans: row j marks the components mask j keeps."""
    return np.array([[j in m.indices for j in range(n)] for m in masks], dtype=bool)


@dataclass(frozen=True)
class Dataset:
    """The observed sample, plus simulation provenance when available.

    ``Y`` and ``T`` are read-only (N, n) arrays of measurements and times. A censored sample has
    a tuple of one ``CensorMask`` per row, and NaN in ``Y`` exactly where its row's mask drops a component.
    """

    spec: ModelSpec
    Y: np.ndarray
    T: np.ndarray
    seed: int
    truth: Optional[MixingMeasure] = None
    censoring: Optional[CensoringDesign] = None
    masks: Optional[tuple] = None

    def __post_init__(self):
        for name in ("Y", "T"):
            view = np.asarray(getattr(self, name), dtype=float).view()  # read-only; the caller's array is not
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        n, shapes = self.spec.n, (self.Y.shape, self.T.shape)
        if self.Y.ndim != 2 or shapes[0] != shapes[1] or shapes[0][1] != n or not self.N:
            raise InvalidArgumentError(f"Y and T must be (N, {n}) arrays with N >= 1, got shapes {shapes}")
        keep = True
        if self.masks is not None:
            table, codes = self._mask_codes
            if len(codes) != self.N or any(not isinstance(m, CensorMask) or m.n != n for m in table):
                raise InvalidArgumentError(f"masks must hold one CensorMask with n = {n} per row of Y")
            keep = _keep_table(table, n)[codes]
        wrong = np.flatnonzero((np.isnan(self.Y) == keep).any(axis=1))
        if wrong.size:
            raise InvalidArgumentError(f"row {wrong[0]} of Y is not NaN exactly where its mask drops a component")

    @property
    def N(self) -> int:
        return self.Y.shape[0]

    def row_slice(self, start: int, stop: int) -> "Dataset":
        """Rows start to stop, in order, with this dataset's spec and provenance: the dataset itself if they are all."""
        if start <= 0 and stop >= self.N:
            return self
        masks = None if self.masks is None else self.masks[start:stop]
        return replace(self, Y=self.Y[start:stop], T=self.T[start:stop], masks=masks)

    @property
    def is_censored(self) -> bool:
        return self.masks is not None

    @cached_property
    def _mask_codes(self) -> tuple:
        """The distinct masks in order of first appearance, and each row's index into them."""
        index = {}
        codes = np.fromiter((index.setdefault(m, len(index)) for m in self.masks), np.intp, len(self.masks))
        return tuple(index), codes

    @cached_property
    def mask_groups(self) -> tuple:
        """Rows grouped by censor mask: a tuple of read-only (mask, rows, Z, T), Z = Y[rows][:, mask.indices].

        An uncensored dataset is one group, (None, all rows, Y, T), sharing the memory of ``Y`` and
        ``T``. Censored groups follow the masks' order by cardinality, then indices.
        """
        if self.masks is None:
            groups = [(None, np.arange(self.N), self.Y, self.T)]
        else:
            table, codes = self._mask_codes
            order = sorted(range(len(table)), key=lambda j: (table[j].cardinality, table[j].indices))
            rows = [np.flatnonzero(codes == j) for j in order]
            groups = [(table[j], r, self.Y[np.ix_(r, table[j].indices)], self.T[r]) for j, r in zip(order, rows)]
        for _, *arrays in groups:
            for a in arrays:
                a.setflags(write=False)
        return tuple(groups)


def _uniforms(seed: int, purpose: int, N: int, k: int) -> np.ndarray:
    """(N, k) uniforms: the first N k draws of the (seed, purpose) stream, row i holding draws ik to ik + k - 1.

    The stream is ``PCG64(SeedSequence(seed, spawn_key=(purpose,)))``, and each 64-bit output x
    becomes (x >> 11) 2^-53, the double ``Generator.random`` makes of it.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise InvalidArgumentError(f"seed must be non-negative, got {seed}")
    raw = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(purpose,))).random_raw(N * k)
    return (raw >> 11).reshape(N, k) * 2.0**-53


def _open_unit(u: np.ndarray) -> np.ndarray:
    # keep inverse-CDF transforms finite
    return np.clip(u, 1e-300, 1.0 - 1e-16)


# Cephes ndtri (Moshier), as scipy.special.ndtri computes it: P0/Q0 for |u - 1/2| <= 1/2 - exp(-2),
# then, with x = sqrt(-2 log y) on the nearer tail y, P1/Q1 for x < 8 and P2/Q2 beyond.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coefs, leading_one: bool = False) -> np.ndarray:
    """Horner's rule in Cephes' order; ``leading_one`` is p1evl, whose first coefficient 1 is implied."""
    out = x + coefs[0] if leading_one else np.full_like(x, coefs[0])
    for c in coefs[1:]:
        out = out * x + c
    return out


def _log(x: np.ndarray) -> np.ndarray:
    # libm's log, as the compiled Cephes calls it; numpy's SIMD log differs in the last bit on some inputs
    return np.array([math.log(v) for v in x.tolist()])


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The standard normal quantile at u in (0, 1), with the bits of ``scipy.special.ndtri``."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    central = y > _EXP_M2
    c = y[central] - 0.5
    c2 = c * c
    out[central] = (c + c * (c2 * _polevl(c2, _P0) / _polevl(c2, _Q0, True))) * _S2PI
    tail = ~central
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    near = x < 8.0
    x1 = np.where(near, z * _polevl(z, _P1) / _polevl(z, _Q1, True), z * _polevl(z, _P2) / _polevl(z, _Q2, True))
    out[tail] = np.where(upper[tail], x0 - x1, x1 - x0)
    return out


def _standard_noise(u: np.ndarray, noise: str) -> np.ndarray:
    """Unit-variance noise from uniforms u, by the inverse CDF of the noise family."""
    u = _open_unit(u)
    if noise == GAUSSIAN:
        return _ndtri(u)
    # standard Laplace via inverse CDF, scaled to unit variance
    centered = u - 0.5
    lap = -np.sign(centered) * np.log1p(-2.0 * np.abs(centered))
    return lap / math.sqrt(2.0)


def simulate_dataset(spec: ModelSpec, mu_true: MixingMeasure, N: int, seed: int) -> Dataset:
    """Draw N individuals: S from mu_true, T from the design, noise per spec.

    Deterministic for a fixed seed; individual i depends only on (seed, i). It
    reads 1 + 2n uniforms of the simulation stream: the atom, then the n times,
    then the n noise draws. The forward model is evaluated once per truth atom, on its rows.
    """
    if N < 1:
        raise InvalidArgumentError("N must be >= 1")
    if mu_true.p != spec.p:
        raise InvalidArgumentError("truth dimension does not match the spec")
    n = spec.n
    bounds = spec.time_design.bounds()
    u = _uniforms(seed, 0, N, 1 + 2 * n)
    idx = np.minimum(np.searchsorted(np.cumsum(mu_true.weights), u[:, 0], side="right"), mu_true.m - 1)
    T = bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * u[:, 1 : 1 + n]
    F = np.empty((N, n))
    for j in np.unique(idx):
        rows = idx == j
        F[rows] = _forward(spec, mu_true.atoms[j][None, :], T[rows])[:, 0]
    if spec.heteroscedastic:
        g = _scale(spec, F)
        sd = np.sqrt(spec.sigma**2 + g * g)
    else:
        sd = spec.sigma
    Y = F + sd * _standard_noise(u[:, 1 + n :], spec.noise)
    return Dataset(spec, Y, T, seed, truth=mu_true)


def apply_censoring(ds: Dataset, design: CensoringDesign, seed: int) -> Dataset:
    """Censor each individual with an i.i.d. mask drawn from the design.

    Individual i's mask is picked by draw i of the censoring stream (seed, 1),
    which no simulation reads.
    """
    if ds.is_censored:
        raise InvalidArgumentError("dataset is already censored")
    if design.n != ds.spec.n:
        raise InvalidArgumentError("censoring design does not match the spec's n")
    masks = [m for m, _ in design.mask_probabilities]
    cum = np.cumsum([p for _, p in design.mask_probabilities])
    picks = np.minimum(np.searchsorted(cum, _uniforms(seed, 1, ds.N, 1)[:, 0], side="right"), len(masks) - 1)
    Y = np.where(_keep_table(masks, design.n)[picks], ds.Y, np.nan)
    return Dataset(ds.spec, Y, ds.T, ds.seed, ds.truth, design, tuple(masks[j] for j in picks.tolist()))
