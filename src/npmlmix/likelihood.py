"""Kernel matrices and log-likelihood functionals.

Everything is kept in log space; per-row reductions use max-shifted
log-sum-exp so small noise scales cannot underflow the mixture density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np
from scipy.special import logsumexp

from .data import Dataset, simulate_dataset
from .errors import InvalidArgumentError, NumericDomainError, SupportViolationError
from .measures import MixingMeasure, SieveBasis, _checked_weights
from .model import log_kernel_block

_ATOM_BLOCK = 512

CONTRAST_TAGS = ("log", "t-1", "1-1/t")


@dataclass(frozen=True)
class KernelMatrix:
    """N x m table of per-observation log kernel values.

    Entry (i, j) is log k_{x_i}(s_j) for discrete atoms, or the log of the
    kernel integrated against basis element j for sieve fits.
    """

    log_k: np.ndarray
    atoms: Optional[np.ndarray] = None
    basis: Optional[SieveBasis] = None
    censored: bool = False

    def __post_init__(self):
        lk = np.asarray(self.log_k, dtype=float)
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
        return np.exp(self.log_k - shift[:, None]), shift


def kernel_columns(ds: Dataset, points: np.ndarray) -> np.ndarray:
    """Log kernel values of every observation at candidate points: (N, B)."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.shape[1] != ds.spec.p:
        raise InvalidArgumentError("candidate points have the wrong dimension")
    N, B = ds.N, points.shape[0]
    groups = (
        ds.mask_groups()
        if ds.is_censored
        else [(None, np.arange(N), ds.values(), ds.times())]
    )
    out = np.empty((N, B))
    for start in range(0, B, _ATOM_BLOCK):
        block = points[start : start + _ATOM_BLOCK]
        stop = start + block.shape[0]
        for mask, rows, Z, T in groups:
            out[rows, start:stop] = log_kernel_block(ds.spec, block, Z, T, mask)
    return out


def build_kernel_matrix(ds: Dataset, mu: MixingMeasure) -> KernelMatrix:
    """Kernel table for a discrete candidate measure (weights play no role)."""
    if mu.p != ds.spec.p:
        raise InvalidArgumentError("measure dimension does not match the spec")
    log_k = kernel_columns(ds, mu.atoms)
    return KernelMatrix(log_k=log_k, atoms=np.array(mu.atoms), censored=ds.is_censored)


def build_sieve_kernel_matrix(
    ds: Dataset, basis: SieveBasis, quad_points_per_cell: int = 8
) -> KernelMatrix:
    """Kernel table against the sieve basis via per-cell Gauss-Legendre rules.

    Entry (i, j) approximates log of the kernel integrated against basis
    density j. The rule is fixed-order, so entries are bit-stable across runs.
    """
    if ds.is_censored:
        raise InvalidArgumentError("sieve fitting expects an uncensored dataset")
    if basis.p != ds.spec.p:
        raise InvalidArgumentError("basis dimension does not match the spec")
    if quad_points_per_cell < 1:
        raise InvalidArgumentError("quadrature needs at least one point per cell")
    points, log_w = basis.quadrature(quad_points_per_cell)
    log_phi = basis.log_basis_values(points)  # (Q, m)
    log_kq = kernel_columns(ds, points)  # (N, Q)
    N, m = ds.N, basis.m
    out = np.empty((N, m))
    for j in range(m):
        support = np.isfinite(log_phi[:, j])
        contrib = log_phi[support, j] + log_w[support]
        out[:, j] = logsumexp(log_kq[:, support] + contrib[None, :], axis=1)
    return KernelMatrix(log_k=out, basis=basis, censored=False)


def row_log_mixture(km: KernelMatrix, w) -> np.ndarray:
    """Per-observation log mixture density log sum_j w_j k_ij, shape (N,)."""
    with np.errstate(divide="ignore"):
        log_w = np.log(_checked_weights(w, km.m))
    return logsumexp(km.log_k + log_w[None, :], axis=1)


def log_likelihood(km: KernelMatrix, w) -> float:
    """Average per-observation log mixture density (the design factor dropped)."""
    return float(np.mean(row_log_mixture(km, w)))


def log_likelihood_full(ds: Dataset, km: KernelMatrix, w) -> float:
    """Log-likelihood including the time-design density (and mask law, censored).

    The added terms are constants in the candidate measure, so arg-maxima are
    unchanged; they are included for absolute comparisons across designs.
    """
    base = log_likelihood(km, w)
    log_psi = ds.spec.time_design.log_density_many(ds.times())
    if np.any(~np.isfinite(log_psi)):
        raise SupportViolationError("some observation times fall outside the design support")
    total = base + float(np.mean(log_psi))
    if ds.is_censored:
        if ds.censoring is None:
            raise InvalidArgumentError(
                "censored dataset carries no censoring design; mask probabilities unknown"
            )
        log_p = np.array(
            [np.log(ds.censoring.probability_of(o.mask)) for o in ds.observations]
        )
        if np.any(~np.isfinite(log_p)):
            raise SupportViolationError("an observed mask has zero design probability")
        total += float(np.mean(log_p))
    return total


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


def kl_diagnostic(spec, mu_true: MixingMeasure, mu: MixingMeasure, M: int, seed: int) -> float:
    """Monte Carlo estimate of the relative entropy between mixture densities.

    Simulates M fresh observations from the truth and averages the log ratio
    of the two mixture densities, estimating how far the candidate's mixture
    sits from the truth's.
    """
    if M < 1:
        raise InvalidArgumentError("M must be >= 1")
    ds = simulate_dataset(spec, mu_true, M, seed)
    km_true = build_kernel_matrix(ds, mu_true)
    km_mu = build_kernel_matrix(ds, mu)
    return float(
        np.mean(row_log_mixture(km_true, mu_true.weights) - row_log_mixture(km_mu, mu.weights))
    )
