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
from .measures import TensorGrid

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
        with np.errstate(over="ignore"):
            return S[:, 0][None, :, None] * np.exp(-S[:, 1][None, :, None] * T[:, None, :])


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

    def evaluate_many(self, S: np.ndarray, T: np.ndarray) -> np.ndarray:
        table = np.asarray(self.coefficients, dtype=float)
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


def _require_domain(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("a parameter point lies outside the model function's numeric domain")


def _forward(spec: ModelSpec, S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """f at points S (B, p) and times T (N, n) as an (N, B, n) table; all must be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        F = spec.f.evaluate_many(S, T)
    _require_domain(F)
    return F


def _scale(spec: ModelSpec, F: np.ndarray) -> np.ndarray:
    """Heteroscedastic scale g = sigma' * f from model values F; must be componentwise nonnegative."""
    g = spec.sigma_prime * F
    if np.any(g < 0):
        raise ModelViolationError("heteroscedastic scale has a negative component")
    return g


def _point(spec: ModelSpec, s, t):
    """One parameter point s (length p) and time vector t (length n) as 1-d arrays."""
    s = _as_1d(s, "s")
    t = _as_1d(t, "t")
    if s.shape[0] != spec.p:
        raise InvalidArgumentError(f"s has dimension {s.shape[0]}, expected p={spec.p}")
    if t.shape[0] != spec.n:
        raise InvalidArgumentError(f"t has dimension {t.shape[0]}, expected n={spec.n}")
    return s, t


def eval_f(spec: ModelSpec, s, t) -> np.ndarray:
    """Forward model value (q_s(t_1), ..., q_s(t_n)) for one parameter point."""
    s, t = _point(spec, s, t)
    return _forward(spec, s[None, :], t[None, :])[0, 0]


def _noise_argument(u, sigma: float) -> np.ndarray:
    """The residual u as a finite 1-d array, for a noise scale sigma > 0."""
    if sigma <= 0 or not math.isfinite(sigma):
        raise InvalidArgumentError("sigma must be strictly positive")
    u = _as_1d(u, "u")
    if not np.all(np.isfinite(u)):
        raise InvalidArgumentError("u must be finite")
    return u


def gaussian_log_density(u, sigma: float) -> float:
    """Log of the centred isotropic Gaussian density on R^n at u."""
    u = _noise_argument(u, sigma)
    n = u.shape[0]
    return float(-0.5 * n * math.log(2.0 * math.pi * sigma * sigma) - np.dot(u, u) / (2.0 * sigma * sigma))


def laplace_log_density(u, sigma: float) -> float:
    """Variance-matched Laplace alternative: scale b = sigma / sqrt(2)."""
    u = _noise_argument(u, sigma)
    b = sigma / math.sqrt(2.0)
    return float(-u.shape[0] * math.log(2.0 * b) - np.sum(np.abs(u)) / b)


# ---------------------------------------------------------------------------
# Conditional log-densities (the kernel integrand)
# ---------------------------------------------------------------------------


_BLOCK_BYTES = 2**18  # bytes per (rows, B) temporary of a row block of ``log_kernel_block``


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a * b over the last axis, term by term in index order, so no layout moves its bits."""
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j] * b[..., j]
    return out


def _terms(spec: ModelSpec, S, Y: np.ndarray, T: np.ndarray, cols, gaussian: bool):
    """One row block's terms for ``_block_table``: the pair (y . f, ||f||^2) with Gaussian noise, else f.

    Other noise gets f one observed component at a time, a (rows, B) table each, in component order.
    ``PkExp`` takes e = exp(-rate * t) once per rate: over a grid's rate axis, where column (a, r) is
    amps[a] * e_r, or, for Gaussian noise only, at each point's rate: amps[b] * e_b. With Gaussian noise
    y . f and ||f||^2 come as A (y . e) and A^2 (e . e) from (rows, R) tables, so no (rows, B, n) table is
    formed; with other noise component j of f is amps times e's column j. |A| max(e), the largest entry
    of f per column, must be finite. Other candidates go through ``_forward``, whose (rows, B, n) table
    gives its components as views.
    """
    grid = isinstance(S, TensorGrid)
    if not isinstance(spec.f, PkExp) or not (grid or gaussian):
        F = _forward(spec, S, T)[:, :, cols]
        return (_dot(Y[:, None, :], F), _dot(F, F)) if gaussian else (F[:, :, j] for j in range(F.shape[2]))
    amps, rates = S.axes if grid else S.T

    def scale(a, table):  # columns a * table: each amplitude by each rate on a grid, pairwise on points
        if grid:
            return np.einsum("a,ir...->iar...", a, table).reshape((table.shape[0], -1) + table.shape[2:])
        return a * table

    e = -rates[None, :, None] * T[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(e, out=e)
        peak = e.max(axis=0).max(axis=-1)  # a grid's columns share a rate's peak, so its largest |A| checks them all
        _require_domain((np.max(np.abs(amps), initial=0.0) if grid else np.abs(amps)) * peak)
        e = e[:, :, cols]
        if not gaussian:
            return (scale(amps, e[:, :, j]) for j in range(e.shape[2]))
        yf, ff = _dot(Y[:, None, :], e), _dot(e, e)
        del e
        return scale(amps, yf), scale(amps * amps, ff)


def _block_table(spec: ModelSpec, Y: np.ndarray, F, out: Optional[np.ndarray] = None) -> np.ndarray:
    """One row block's (rows, B) table of log k_x(s) from its terms F: the pair (y . f, ||f||^2), or f's components.

    Other noise takes f one component at a time, each a (rows, B) table whose terms are formed in place,
    and adds the components' terms up in component order, so no (rows, B, k) table is built. numpy sums
    a last axis shorter than 8 left to right, so for k <= 7 this has the bits of the sum over such a
    table; from k = 8 numpy sums in 8-lane pairwise order, and the two differ by at most about
    k eps sum_j |c_j|, c_j the summed terms. The last step writes into ``out`` when given, a view of the
    caller's table, so no second table is built.
    """
    k, sigma = Y.shape[1], spec.sigma
    if isinstance(F, tuple):
        # ||y||^2 - 2 y.f + ||f||^2, then the log density, in place in y.f's table
        yf, ff = F
        sq = np.multiply(yf, -2.0, out=yf)
        sq += _dot(Y, Y)[:, None]
        sq += ff
        sq /= -2.0 * sigma * sigma
        out = np.add(sq, -0.5 * k * np.log(2.0 * math.pi * sigma * sigma), out=sq if out is None else out)
    else:
        total = None
        for y, f in zip(Y.T, F):  # one (rows, B) table per component, each step in place
            u = np.subtract(y[:, None], f)
            if not spec.heteroscedastic:
                term = np.abs(u, out=u)
            else:
                var = _scale(spec, f)
                var *= var
                var += sigma * sigma
                if spec.noise == GAUSSIAN:  # -0.5 log(2 pi var) - u^2 / (2 var)
                    term = np.multiply(2.0 * math.pi, var)
                    np.log(term, out=term)
                    term *= -0.5
                    u *= u
                    var *= 2.0
                else:  # -log(2 b) - |u| / b, b = sqrt(var / 2)
                    var /= 2.0
                    np.sqrt(var, out=var)
                    term = np.multiply(2.0, var)
                    np.negative(np.log(term, out=term), out=term)
                    np.abs(u, out=u)
                u /= var
                term -= u
            total = term if total is None else np.add(total, term, out=total)
        if not spec.heteroscedastic:
            b = sigma / math.sqrt(2.0)
            total /= b
            out = np.subtract(-k * np.log(2.0 * b), total, out=out)
        elif out is None:
            out = total
        else:
            out[...] = total
    if not np.all(np.isfinite(out)):
        raise InvalidArgumentError("conditional log-density is not finite for some atom")
    return out


def log_kernel_block(
    spec: ModelSpec, S, Y: np.ndarray, T: np.ndarray, mask: Optional[CensorMask] = None, *, out=None, rows=slice(None)
) -> np.ndarray:
    """Log conditional densities of individuals that share one mask, at a set of candidates.

    S: (B, p) candidate points (a float array) or a ``TensorGrid``; Y: (N, k) observed
    components (k = n, or the mask cardinality when censored); T: (N, n) full time vectors.
    Fills the (N, B) table of log k_x(s), or the rows ``rows`` (one per individual) of a
    caller's table ``out``, leaving its other rows, and returns the table. It works in row
    blocks, each of every candidate and of as many rows as fit ``_BLOCK_BYTES`` (at least one):
    a row costs 8 B bytes in its (rows, B) tables, for every noise family (n times that in the
    forward table of a model other than ``PkExp``), so no block temporary, a ``PkExp`` decay
    table included, grows with N. Noise other than homoscedastic Gaussian sums its k observed
    components' terms in component order: the bits of a sum over a (rows, B, k) table for
    k <= 7, within about k eps sum_j |c_j| of it from k = 8 (see ``_block_table``).
    Entry (i, j) depends only on row i and column j, so the block size moves no bits. Raises
    when a candidate point drives the model out of its numeric domain.

    With homoscedastic Gaussian noise, ||y - f||^2 is taken as ||y||^2 - 2 y . f + ||f||^2,
    with no residual table y - f. Against the residual form that moves log k_x(s) by at
    most 4 eps (||y|| + ||f||)^2 / (2 sigma^2) + eps |log k_x(s)|, eps = 2^-52: cancellation
    in the sum, and the rounding of the result. A term can overflow where y - f does not:
    y or f beyond about 1e154, or for ``PkExp`` exp(-rate * t) beyond it. Such an entry
    raises as not finite.
    """
    Y, T = np.asarray(Y, dtype=float), np.asarray(T, dtype=float)
    out = np.empty((T.shape[0], len(S))) if out is None else out
    if mask is not None and mask.cardinality == 0:
        # No observed components: unit contribution to the likelihood.
        out[rows] = 0.0
        return out
    if spec.sigma <= 0:
        raise InvalidArgumentError("density evaluation requires sigma > 0")
    cols = slice(None) if mask is None or mask.is_full else list(mask.indices)
    gaussian = not spec.heteroscedastic and spec.noise == GAUSSIAN
    if not (isinstance(spec.f, PkExp) and isinstance(S, TensorGrid)):
        S = np.asarray(S, dtype=float)
    if not isinstance(rows, slice) and np.array_equal(rows, np.arange(out.shape[0])):
        rows = slice(None)  # every row in order: each block is written into its view of out
    size = max(1, _BLOCK_BYTES // (8 * max(1, len(S))))
    for start in range(0, T.shape[0], size):
        block = slice(start, start + size)
        if isinstance(rows, slice):
            _block_table(spec, Y[block], _terms(spec, S, Y[block], T[block], cols, gaussian), out=out[rows][block])
        else:
            out[rows[block]] = _block_table(spec, Y[block], _terms(spec, S, Y[block], T[block], cols, gaussian))
    return out


def conditional_log_density(spec: ModelSpec, s, x) -> float:
    """log k_x(s) for one individual x: a pair (y, t), or a triple (z, t, mask) whose z holds the kept components."""
    y, t, mask = x if len(x) == 3 else (*x, None)
    s, t = _point(spec, s, t)
    y = np.asarray(y, dtype=float).reshape(-1)
    expected = spec.n if mask is None else mask.cardinality
    if y.shape[0] != expected:
        raise InvalidArgumentError(f"observation has {y.shape[0]} components, expected {expected}")
    return float(log_kernel_block(spec, s[None, :], y[None, :], t[None, :], mask)[0, 0])
