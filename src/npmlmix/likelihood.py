"""Kernel matrices and log-likelihood functionals.

Everything is kept in log space; per-row reductions use max-shifted
log-sum-exp so small noise scales cannot underflow the mixture density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional, Tuple

import numpy as np

# simulate_dataset is unused here, but bench/tracer.py patches this binding of this module.
from .data import Dataset, simulate_dataset  # noqa: F401
from .errors import InvalidArgumentError, NumericDomainError
from .measures import MixingMeasure, SieveBasis, TensorGrid, _checked_weights
from .model import log_kernel_block

# Rows per block of the sieve contraction; bounds its (rows, Q) temporary
_SIEVE_ROW_BLOCK = 32
# Bytes of one row block's log table at every candidate, in the sieve build and in every scan;
# a sieve block's rows are a multiple of _SIEVE_ROW_BLOCK
_TABLE_BYTES = 4 * 2**20
# A contracted sieve sum below this is recomputed by log-sum-exp. Each term lost to
# underflow is below 2.3e-308, so a sum kept above it carries a relative error below 1e-20.
_SIEVE_UNDERFLOW = 1e-280

# Gauss-Legendre points per sieve cell and axis, unless a fit says otherwise
DEFAULT_QUAD_POINTS = 8

CONTRAST_TAGS = ("log", "t-1", "1-1/t")


@dataclass(frozen=True)
class KernelMatrix:
    """N x m table of per-observation log kernel values, and its columns' points.

    Entry (i, j) is log k_{x_i}(s_j), or for a sieve fit the log of the kernel
    integrated against basis element j. Row j of ``atoms`` is column j's
    point, whether an atom, a scan grid point or a basis node.

    The layout is set here, whatever code built the table: ``log_k`` is C-ordered, so
    scans and row mixtures reduce rows alike and an in-fit sup equals ``certify``'s;
    ``shifted`` is Fortran-ordered, where the weight solvers' mat-vecs run faster.
    """

    log_k: np.ndarray
    atoms: Optional[np.ndarray] = None

    def __post_init__(self):
        lk = np.ascontiguousarray(self.log_k, dtype=float)
        if lk.ndim != 2 or lk.shape[0] < 1 or lk.shape[1] < 1:
            raise InvalidArgumentError("log_k must be a nonempty N x m table")
        if not np.all(np.isfinite(lk)):
            raise InvalidArgumentError("kernel entries must all be finite")
        object.__setattr__(self, "log_k", lk)

    @property
    def N(self) -> int:
        return self.log_k.shape[0]

    @property
    def m(self) -> int:
        return self.log_k.shape[1]

    @cached_property
    def shifted(self) -> Tuple[np.ndarray, np.ndarray]:
        """(exp(log_k - rowmax), rowmax): the kernel scaled into (0, 1] per row."""
        shift = self.log_k.max(axis=1)
        return np.exp(self.log_k - shift[:, None], order="F"), shift


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """scipy 1.17's real ``logsumexp`` along ``axis``, bit for bit, for rows with a finite maximum.

    The maximum's ties stay out of the sum: log1p(rest / ties) + log(ties) + maximum.
    """
    a_max = a.max(axis=axis, keepdims=True)
    ties = a == a_max
    count = ties.sum(axis=axis, keepdims=True, dtype=float)
    rest = np.exp(np.where(ties, -np.inf, a) - a_max).sum(axis=axis, keepdims=True)
    return (np.log1p(rest / count) + np.log(count) + a_max).squeeze(axis)


def kernel_columns(ds: Dataset, points) -> np.ndarray:
    """Log kernel values of every observation at candidate points: (N, B).

    ``points`` is a (B, p) array or a ``TensorGrid``; one ``log_kernel_block`` call per
    censor-mask group fills that group's rows.
    """
    if not isinstance(points, TensorGrid):
        points = np.asarray(points, dtype=float)
        points = points[:, None] if points.ndim == 1 else points
    if (len(points.axes) if isinstance(points, TensorGrid) else points.shape[1]) != ds.spec.p:
        raise InvalidArgumentError("candidate points have the wrong dimension")
    out = np.empty((ds.N, len(points)))
    for mask, rows, Z, T in ds.mask_groups:
        log_kernel_block(ds.spec, points, Z, T, mask, out=out, rows=rows)
    return out


def build_kernel_matrix(ds: Dataset, mu: MixingMeasure) -> KernelMatrix:
    """Kernel table for a discrete candidate measure (weights play no role)."""
    log_k = kernel_columns(ds, mu.atoms)
    return KernelMatrix(log_k=log_k, atoms=np.array(mu.atoms))


def build_sieve_kernel_matrix(
    ds: Dataset, basis: SieveBasis, quad_points_per_cell: int = DEFAULT_QUAD_POINTS
) -> KernelMatrix:
    """Kernel table against the sieve basis via per-cell Gauss-Legendre rules.

    Entry (i, j) approximates log sum_q w_q phi_j(x_q) k_i(x_q), the log of
    the kernel integrated against basis density j. Both the rule and the hat
    basis are tensor products, so the table w_q phi_j(x_q) factors into one
    (Q_a, c_a) matrix per axis and is never built. The rows are taken in
    blocks whose (rows, Q) log table, from one ``kernel_columns`` call on the
    whole rule, fits ``_TABLE_BYTES``. Each ``_SIEVE_ROW_BLOCK`` rows of
    it are shifted by their row maxima, exponentiated, reshaped to (rows,
    Q_1, ..., Q_p) and contracted with those factors one axis at a time, last
    axis first; the log of the sum plus the shift is the entry. A sum below
    ``_SIEVE_UNDERFLOW`` may have lost its terms to underflow, so that entry
    alone is recomputed by log-sum-exp over its column's support. Every entry
    depends only on its row, and the contraction's blocks are the same for
    any table budget, so neither moves a bit. The rule is fixed-order, so
    entries are bit-stable across runs.
    """
    if ds.is_censored:
        raise InvalidArgumentError("sieve fitting expects an uncensored dataset")
    grid, _ = basis.quadrature(quad_points_per_cell)
    log_factors = basis.log_axis_factors(quad_points_per_cell)
    factors = [np.exp(f) for f in log_factors]
    q_shape = tuple(f.shape[0] for f in factors)
    step = _SIEVE_ROW_BLOCK * max(1, _TABLE_BYTES // (8 * len(grid) * _SIEVE_ROW_BLOCK))
    out = np.empty((ds.N, basis.m))
    for first in range(0, ds.N, step):
        log_kq = kernel_columns(ds.row_slice(first, first + step), grid)  # (rows, Q)
        shift = log_kq.max(axis=1)
        sums = np.empty((len(shift), basis.m))
        for start in range(0, len(shift), _SIEVE_ROW_BLOCK):
            rows = slice(start, start + _SIEVE_ROW_BLOCK)
            part = log_kq[rows] - shift[rows, None]
            part = np.exp(part, out=part).reshape((-1,) + q_shape)
            for f in reversed(factors):
                part = np.moveaxis(part @ f, -1, 1)  # contracts the last Q_a, puts c_a next to the rows
            sums[rows] = part.reshape(part.shape[0], -1)
        low_rows, low_cols = np.nonzero(sums < _SIEVE_UNDERFLOW)
        block = out[first : first + len(shift)]
        with np.errstate(divide="ignore"):
            np.add(np.log(sums), shift[:, None], out=block)
        for j in np.unique(low_cols):
            rows_j = low_rows[low_cols == j]
            per_axis = (f[:, c] for f, c in zip(log_factors, np.unravel_index(j, basis.node_counts)))
            log_b = reduce(np.add.outer, per_axis).reshape(-1)  # log w_q phi_j(x_q), all q
            support = np.isfinite(log_b)
            block[rows_j, j] = logsumexp(log_kq[np.ix_(rows_j, support)] + log_b[support], axis=1)
        del log_kq  # freed before the next block's table is built
    return KernelMatrix(log_k=out, atoms=basis.nodes)


def row_log_mixture(km: KernelMatrix, w) -> np.ndarray:
    """Per-observation log mixture density log sum_j w_j k_ij, shape (N,)."""
    with np.errstate(divide="ignore"):
        log_w = np.log(_checked_weights(w, km.m))
    return logsumexp(km.log_k + log_w[None, :], axis=1)


def log_likelihood(km: KernelMatrix, w) -> float:
    """Average per-observation log mixture density (the design factor dropped)."""
    return float(np.mean(row_log_mixture(km, w)))


def contrast_value(km: KernelMatrix, w_mu, w_hat, contrast: str = "log") -> float:
    """Empirical contrast of a competitor against a reference measure.

    Computes the average of L(K(mu)(x_i) / K(hat)(x_i)) for one of the three
    admissible contrasts: "log", "t-1", "1-1/t". Ratios are formed in log
    space; at an arg-maximum the value is <= 0 for every admissible contrast.
    """
    if contrast not in CONTRAST_TAGS:
        raise InvalidArgumentError(f"unknown contrast {contrast!r}")
    log_ratio = row_log_mixture(km, w_mu) - row_log_mixture(km, w_hat)
    if not np.all(np.isfinite(log_ratio)):
        raise NumericDomainError("mixture ratio left the positive domain")
    if contrast == "log":
        value = float(np.mean(log_ratio))
    elif contrast == "t-1":
        with np.errstate(over="ignore"):
            value = float(np.mean(np.expm1(log_ratio)))
    else:
        value = float(np.mean(-np.expm1(-log_ratio)))
    if not math.isfinite(value):
        raise NumericDomainError("contrast value overflowed the floating-point range")
    return value
