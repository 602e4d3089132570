"""Forward model, noise densities, time design and censoring projections.

Everything needed to evaluate the conditional log-density of one observed
individual given a candidate parameter point. All functions are pure; the
dataclasses are frozen and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import InvalidArgumentError, ModelViolationError

GAUSSIAN = "gaussian"
LAPLACE = "laplace"


def _as_1d(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise InvalidArgumentError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# Model functions: the map s -> (q_s(t_1), ..., q_s(t_n))
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PkExp:
    """Two-parameter exponential decay: s = (A, rate), value A * exp(-rate * t).

    The classic one-compartment elimination curve; requires p = 2.
    """

    @property
    def dim(self) -> int:
        return 2

    def evaluate_many(self, S: np.ndarray, T: np.ndarray) -> np.ndarray:
        # S: (B, 2), T: (N, n) -> (N, B, n)
        amp = S[:, 0][None, :, None]
        rate = S[:, 1][None, :, None]
        return amp * np.exp(-rate * T[:, None, :])


@dataclass(frozen=True)
class IdentityLocation:
    """Scalar location model: every component equals s itself (p = 1)."""

    @property
    def dim(self) -> int:
        return 1

    def evaluate_many(self, S: np.ndarray, T: np.ndarray) -> np.ndarray:
        N, n = T.shape
        return np.broadcast_to(S[None, :, 0, None], (N, S.shape[0], n)).copy()


@dataclass(frozen=True)
class LinearInS:
    """Model linear in s with a fixed polynomial time basis.

    ``coefficients`` has shape (p, degree+1); basis function k is
    t -> sum_d coefficients[k, d] * t**d, and the model value at time t_j is
    sum_k s_k * basis_k(t_j). Registered as a coefficient table so datasets
    stay serializable.
    """

    coefficients: tuple

    def __post_init__(self):
        table = np.asarray(self.coefficients, dtype=float)
        if table.ndim != 2 or table.size == 0:
            raise InvalidArgumentError("LinearInS needs a (p, degree+1) coefficient table")
        if not np.all(np.isfinite(table)):
            raise InvalidArgumentError("LinearInS coefficients must be finite")
        object.__setattr__(self, "coefficients", tuple(tuple(row) for row in table))

    @property
    def dim(self) -> int:
        return len(self.coefficients)

    def _table(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=float)

    def evaluate_many(self, S: np.ndarray, T: np.ndarray) -> np.ndarray:
        table = self._table()
        degree = table.shape[1] - 1
        # powers: (degree+1, N, n)
        powers = T[None, :, :] ** np.arange(degree + 1)[:, None, None]
        # basis values per parameter axis: (p, N, n)
        basis = np.einsum("kd,dij->kij", table, powers)
        return np.einsum("bk,kij->ibj", S, basis)


ModelFunction = Union[PkExp, IdentityLocation, LinearInS]


# ---------------------------------------------------------------------------
# Time design
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeDesign:
    """Product of uniform laws on disjoint consecutive compact intervals.

    ``intervals`` is an (n, 2) table of [a_j, b_j] with 0 <= a_j < b_j and
    b_j <= a_{j+1}; the density is the product of the reciprocal lengths on
    the box and 0 outside.
    """

    intervals: tuple

    def __post_init__(self):
        arr = np.asarray(self.intervals, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
            raise InvalidArgumentError("time design needs an (n, 2) interval table")
        a, b = arr[:, 0], arr[:, 1]
        if not np.all(np.isfinite(arr)):
            raise InvalidArgumentError("time design intervals must be finite")
        if np.any(a < 0):
            raise InvalidArgumentError("time design intervals must lie in the nonnegative half line")
        if np.any(a >= b):
            raise InvalidArgumentError("each time interval needs a_j < b_j")
        if np.any(b[:-1] > a[1:]):
            raise InvalidArgumentError("time intervals must be disjoint and consecutive (b_j <= a_{j+1})")
        object.__setattr__(self, "intervals", tuple((float(x), float(y)) for x, y in arr))

    @property
    def n(self) -> int:
        return len(self.intervals)

    def bounds(self) -> np.ndarray:
        return np.asarray(self.intervals, dtype=float)

    def density(self, t) -> float:
        t = _as_1d(t, "t")
        arr = self.bounds()
        if t.shape[0] != arr.shape[0]:
            raise InvalidArgumentError("time point dimension does not match the design")
        inside = np.all((t >= arr[:, 0]) & (t <= arr[:, 1]))
        if not inside:
            return 0.0
        return float(np.prod(1.0 / (arr[:, 1] - arr[:, 0])))

    def log_density_many(self, T: np.ndarray) -> np.ndarray:
        """Log density for a batch of time points, -inf outside the box."""
        arr = self.bounds()
        inside = np.all((T >= arr[None, :, 0]) & (T <= arr[None, :, 1]), axis=1)
        value = -np.sum(np.log(arr[:, 1] - arr[:, 0]))
        out = np.full(T.shape[0], -np.inf)
        out[inside] = value
        return out


# ---------------------------------------------------------------------------
# Censoring masks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensorMask:
    """A subset of the per-individual measurement indices (0-based, sorted)."""

    n: int
    indices: tuple = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise InvalidArgumentError("mask needs n >= 1")
        idx = tuple(int(i) for i in self.indices)
        if any(i < 0 or i >= self.n for i in idx):
            raise InvalidArgumentError(f"mask indices must lie in [0, {self.n})")
        if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
            raise InvalidArgumentError("mask indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def full(cls, n: int) -> "CensorMask":
        return cls(n, tuple(range(n)))

    @classmethod
    def empty(cls, n: int) -> "CensorMask":
        return cls(n, ())

    @property
    def cardinality(self) -> int:
        return len(self.indices)

    @property
    def is_full(self) -> bool:
        return len(self.indices) == self.n


def project_mask(v, mask: CensorMask) -> np.ndarray:
    """Keep the components of v selected by the mask, in index order."""
    v = _as_1d(v, "v")
    if v.shape[0] != mask.n:
        raise InvalidArgumentError("vector length does not match the mask's n")
    return v[list(mask.indices)] if mask.indices else np.empty(0)


# ---------------------------------------------------------------------------
# Model specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Dimensions, forward model, noise scale and time design of one problem.

    ``sigma_prime`` switches on the heteroscedastic variant with g = sigma' * f
    (noise scale co-linear with the measured value); per-component noise
    standard deviation is then sqrt(sigma^2 + g^2). ``noise`` selects the
    noise family: "gaussian" or the variance-matched "laplace" alternative.

    sigma = 0 is accepted so exact (noise-free) simulation is expressible;
    density evaluation requires sigma > 0.
    """

    p: int
    n: int
    sigma: float
    f: ModelFunction
    time_design: TimeDesign
    sigma_prime: Optional[float] = None
    noise: str = GAUSSIAN

    def __post_init__(self):
        if self.p < 1 or self.n < 1:
            raise InvalidArgumentError("p and n must be positive")
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise InvalidArgumentError("sigma must be finite and nonnegative")
        if self.f.dim != self.p:
            raise InvalidArgumentError(
                f"model function has parameter dimension {self.f.dim}, spec says p={self.p}"
            )
        if self.time_design.n != self.n:
            raise InvalidArgumentError("time design length does not match n")
        if self.sigma_prime is not None and (
            not math.isfinite(self.sigma_prime) or self.sigma_prime < 0
        ):
            raise InvalidArgumentError("sigma_prime must be finite and nonnegative")
        if self.noise not in (GAUSSIAN, LAPLACE):
            raise InvalidArgumentError(f"unknown noise family {self.noise!r}")

    @property
    def heteroscedastic(self) -> bool:
        return self.sigma_prime is not None


def eval_f(spec: ModelSpec, s, t) -> np.ndarray:
    """Forward model value (q_s(t_1), ..., q_s(t_n)) for one parameter point."""
    s = _as_1d(s, "s")
    t = _as_1d(t, "t")
    if s.shape[0] != spec.p:
        raise InvalidArgumentError(f"s has dimension {s.shape[0]}, expected p={spec.p}")
    if t.shape[0] != spec.n:
        raise InvalidArgumentError(f"t has dimension {t.shape[0]}, expected n={spec.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = spec.f.evaluate_many(s[None, :], t[None, :])[0, 0]
    if not np.all(np.isfinite(out)):
        raise InvalidArgumentError("model function produced nonfinite values at this point")
    return out


def eval_g(spec: ModelSpec, s, t) -> np.ndarray:
    """Heteroscedastic scale g = sigma' * f; must be componentwise nonnegative."""
    if spec.sigma_prime is None:
        raise InvalidArgumentError("spec has no heteroscedastic component")
    g = spec.sigma_prime * eval_f(spec, s, t)
    if np.any(g < 0):
        raise ModelViolationError("heteroscedastic scale has a negative component")
    return g


def gaussian_log_density(u, sigma: float) -> float:
    """Log of the centred isotropic Gaussian density on R^n at u."""
    if sigma <= 0 or not math.isfinite(sigma):
        raise InvalidArgumentError("sigma must be strictly positive")
    u = _as_1d(u, "u")
    if not np.all(np.isfinite(u)):
        raise InvalidArgumentError("u must be finite")
    n = u.shape[0]
    return float(-0.5 * n * math.log(2.0 * math.pi * sigma * sigma) - np.dot(u, u) / (2.0 * sigma * sigma))


def laplace_log_density(u, sigma: float) -> float:
    """Variance-matched Laplace alternative: scale b = sigma / sqrt(2)."""
    if sigma <= 0 or not math.isfinite(sigma):
        raise InvalidArgumentError("sigma must be strictly positive")
    u = _as_1d(u, "u")
    if not np.all(np.isfinite(u)):
        raise InvalidArgumentError("u must be finite")
    b = sigma / math.sqrt(2.0)
    return float(-u.shape[0] * math.log(2.0 * b) - np.sum(np.abs(u)) / b)


# ---------------------------------------------------------------------------
# Conditional log-densities (the kernel integrand)
# ---------------------------------------------------------------------------


def log_kernel_block(
    spec: ModelSpec,
    S: np.ndarray,
    Y: np.ndarray,
    T: np.ndarray,
    mask: Optional[CensorMask] = None,
) -> np.ndarray:
    """Log conditional densities for a block of individuals and atoms.

    S: (B, p) candidate points; Y: (N, k) observed components (k = n, or the
    mask cardinality when censored); T: (N, n) full time vectors. Returns the
    (N, B) table of log k_x(s). Raises when a candidate point drives the
    model out of its numeric domain.
    """
    S = np.asarray(S, dtype=float)
    Y = np.asarray(Y, dtype=float)
    T = np.asarray(T, dtype=float)
    if mask is not None and mask.cardinality == 0:
        # No observed components: unit contribution to the likelihood.
        return np.zeros((T.shape[0], S.shape[0]))
    if spec.sigma <= 0:
        raise InvalidArgumentError("density evaluation requires sigma > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        F = spec.f.evaluate_many(S, T)
    if not np.all(np.isfinite(F)):
        raise InvalidArgumentError("an atom lies outside the model function's numeric domain")
    if mask is not None and not mask.is_full:
        F = F[:, :, list(mask.indices)]
    U = Y[:, None, :] - F
    k = Y.shape[1]
    if not spec.heteroscedastic:
        sigma = spec.sigma
        if spec.noise == GAUSSIAN:
            out = -0.5 * k * np.log(2.0 * math.pi * sigma * sigma) - np.einsum(
                "ibj,ibj->ib", U, U
            ) / (2.0 * sigma * sigma)
        else:
            b = sigma / math.sqrt(2.0)
            out = -k * np.log(2.0 * b) - np.abs(U).sum(axis=2) / b
    else:
        g = spec.sigma_prime * F
        if np.any(g < 0):
            raise ModelViolationError("heteroscedastic scale has a negative component")
        var = spec.sigma * spec.sigma + g * g
        if spec.noise == GAUSSIAN:
            comp = -0.5 * np.log(2.0 * math.pi * var) - (U * U) / (2.0 * var)
        else:
            b = np.sqrt(var / 2.0)
            comp = -np.log(2.0 * b) - np.abs(U) / b
        out = comp.sum(axis=2)
    if not np.all(np.isfinite(out)):
        raise InvalidArgumentError("conditional log-density is not finite for some atom")
    return out


def conditional_log_density(spec: ModelSpec, s, x) -> float:
    """log k_x(s) for a single observation x = (y, t) or (z, t, mask)."""
    if hasattr(x, "mask"):
        y, t, mask = x.z, x.t, x.mask
    elif hasattr(x, "y"):
        y, t, mask = x.y, x.t, None
    elif len(x) == 3:
        y, t, mask = x
    else:
        y, t = x
        mask = None
    s = _as_1d(s, "s")
    y = np.asarray(y, dtype=float).reshape(-1)
    t = _as_1d(t, "t")
    if s.shape[0] != spec.p:
        raise InvalidArgumentError(f"s has dimension {s.shape[0]}, expected p={spec.p}")
    if t.shape[0] != spec.n:
        raise InvalidArgumentError(f"t has dimension {t.shape[0]}, expected n={spec.n}")
    expected = spec.n if mask is None else mask.cardinality
    if y.shape[0] != expected:
        raise InvalidArgumentError(f"observation has {y.shape[0]} components, expected {expected}")
    block = log_kernel_block(spec, s[None, :], y[None, :], t[None, :], mask)
    return float(block[0, 0])
