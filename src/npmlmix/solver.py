"""Maximization of the mixture log-likelihood over weights and supports.

The discrete fit runs EM on a fixed atom grid, prunes negligible weights,
then alternates certificate scans with atom insertion at the best candidate
(a vertex-direction style refinement) until the directional derivative is
below 1 + refine_tol everywhere on the scan grid. The sieve fit is the same
EM on the basis-integrated kernel matrix, with the feasible set fixed.

Both kinds of fit are accepted through one certificate routine: the exp-mean
d = (1/N) sum_i k_i / K(mu)(x_i) over a candidate set (the scan grid plus the
atoms, or the sieve's basis elements), reduced to its first arg-max. The fits
call it after each solve, and ``certify`` recomputes it for either kind.

The kernel is computed once per fit. A discrete fit builds the (N, G)
log-kernel table of its scan grid once; each round's scan is an exp-mean over
that table and the support's own columns, and an inserted atom takes its
column from the table. Only the mixture density K(mu)(x_i) changes between
rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DegenerateMeasureError, InvalidArgumentError
from .likelihood import (
    KernelMatrix,
    build_kernel_matrix,
    build_sieve_kernel_matrix,
    kernel_columns,
    log_likelihood,
    row_log_mixture,
)
from .measures import (
    MixingMeasure,
    SieveBasis,
    SieveDensity,
    _check_box,
    _checked_weights,
    _tensor_points,
    new_uniform_grid_measure,
)

STATUS_CONVERGED = "converged"
STATUS_ITER_LIMIT = "iter-limit"

# largest loglik drop tolerated from a bookkeeping step (insert/prune)
_TRACE_SLACK = 1e-13


@dataclass(frozen=True)
class FitOptions:
    """Knobs for the EM loop, pruning, and support refinement."""

    tol_rel_loglik: float = 1e-10
    max_em_iters: int = 10000
    prune_eps: float = 1e-8
    refine_grid: int = 64
    refine_tol: float = 1e-6
    max_refinements: int = 50

    def __post_init__(self):
        if self.tol_rel_loglik <= 0 or self.prune_eps <= 0 or self.refine_tol <= 0:
            raise InvalidArgumentError("tolerances must be strictly positive")
        if self.max_em_iters < 1 or self.refine_grid < 1 or self.max_refinements < 0:
            raise InvalidArgumentError("iteration and grid limits must be positive")


@dataclass(frozen=True)
class Certificate:
    """Sup of the directional derivative over a scan grid plus the support."""

    sup_dir_derivative: float
    argmax_point: np.ndarray
    grid_resolution: int

    @property
    def optimal_within(self) -> float:
        return self.sup_dir_derivative - 1.0


@dataclass(frozen=True)
class FitResult:
    measure: Union[MixingMeasure, SieveDensity]
    loglik_trace: np.ndarray
    final_loglik: float
    iterations: int
    certificate: Certificate
    status: str


def em_step(km: KernelMatrix, w) -> np.ndarray:
    """One multiplicative EM update of the mixture weights.

    w'_j = w_j * (1/N) sum_i k_ij / sum_l w_l k_il, computed against the
    row-max-shifted kernel. Zero weights stay exactly zero.
    """
    w = _checked_weights(w, km.m)
    E, _ = km.shifted
    M = np.maximum(E @ w, 1e-300)
    new_w = w * (E.T @ (1.0 / M)) / km.N
    total = new_w.sum()
    if total <= 0:
        raise InvalidArgumentError("EM step lost all mass; weights were degenerate")
    return new_w / total


def em_fit(
    km: KernelMatrix, w0, opts: Optional[FitOptions] = None
) -> Tuple[np.ndarray, np.ndarray, int, str]:
    """Iterate em_step until the relative log-likelihood gain is below tolerance.

    Returns (weights, loglik_trace, iterations, status); the trace includes
    the starting value and is nondecreasing up to floating-point noise. The
    shifted kernel is computed once, so each iteration is two mat-vecs.
    """
    opts = opts or FitOptions()
    w = _checked_weights(w0, km.m)
    E, shift = km.shifted
    shift_mean = float(shift.mean())
    M = np.maximum(E @ w, 1e-300)
    current = float(np.mean(np.log(M))) + shift_mean
    trace = [current]
    status = STATUS_ITER_LIMIT
    iterations = 0
    inv_n = 1.0 / km.N
    for _ in range(opts.max_em_iters):
        w = w * (E.T @ (1.0 / M)) * inv_n
        w = w / w.sum()
        M = np.maximum(E @ w, 1e-300)
        value = float(np.mean(np.log(M))) + shift_mean
        iterations += 1
        trace.append(value)
        gain = value - current
        current = value
        if gain <= opts.tol_rel_loglik * max(1.0, abs(value)):
            status = STATUS_CONVERGED
            break
    return w, np.asarray(trace), iterations, status


def directional_derivatives(ds, mu: MixingMeasure, points: np.ndarray) -> np.ndarray:
    """Vectorized directional derivatives at many candidate points."""
    km = build_kernel_matrix(ds, mu)
    log_rows = row_log_mixture(km, mu.weights)
    return _dir_derivs_from_rows(ds, log_rows, points)


# columns per exp-mean block: the temporaries stay at N x _SCAN_BLOCK
_SCAN_BLOCK = 2048


def _exp_mean(log_cols: np.ndarray, log_rows: np.ndarray) -> np.ndarray:
    """Directional derivatives (1/N) sum_i k_ij / K(mu)(x_i) from log columns.

    Taken over blocks of columns; each column is summed down its rows in
    the same order whatever the block, so the blocking does not move bits.
    """
    out = np.empty(log_cols.shape[1])
    for start in range(0, log_cols.shape[1], _SCAN_BLOCK):
        block = log_cols[:, start : start + _SCAN_BLOCK]
        out[start : start + block.shape[1]] = np.exp(block - log_rows[:, None]).mean(axis=0)
    return out


def _dir_derivs_from_rows(ds, log_rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], _SCAN_BLOCK):
        cols = kernel_columns(ds, points[start : start + _SCAN_BLOCK])
        out[start : start + cols.shape[1]] = _exp_mean(cols, log_rows)
    return out


def _certificate(
    values: np.ndarray, candidates: np.ndarray, grid_resolution: int
) -> Tuple[Certificate, int]:
    """Sup of the directional derivative, its candidate and its index; ties go to the first."""
    best = int(np.argmax(values))
    cert = Certificate(
        sup_dir_derivative=float(values[best]),
        argmax_point=candidates[best].copy(),
        grid_resolution=grid_resolution,
    )
    return cert, best


@dataclass(frozen=True)
class _ScanTable:
    """A scan grid over the box and its (N, G) log-kernel table, built once per fit."""

    grid: np.ndarray
    log_k: np.ndarray


def _scan_table(ds, box_arr: np.ndarray, resolution: int) -> _ScanTable:
    # plain linspace, not the start-grid node rule: resolution 1 scans lo
    grid = _tensor_points([np.linspace(lo, hi, resolution) for lo, hi in box_arr])
    return _ScanTable(grid, kernel_columns(ds, grid))


def _scan_certificate(
    scan: _ScanTable, km: KernelMatrix, w, resolution: int
) -> Tuple[Certificate, int]:
    """Discrete certificate over the scan grid, then the support atoms.

    Returns the certificate and its candidate index; an index below G names
    a grid point, whose kernel column is ``scan.log_k[:, index]``. The
    support block is made C-ordered first: pruning leaves ``km.log_k``
    Fortran-ordered, and numpy sums the columns of that layout in another
    order, which would move the last bits of the sup.
    """
    log_rows = row_log_mixture(km, w)
    values = np.concatenate(
        [_exp_mean(scan.log_k, log_rows), _exp_mean(np.ascontiguousarray(km.log_k), log_rows)]
    )
    return _certificate(values, np.concatenate([scan.grid, km.atoms]), resolution)


def _sieve_certificate(km: KernelMatrix, w) -> Certificate:
    """Sieve certificate over the basis elements, the extreme points of the hull."""
    log_rows = row_log_mixture(km, w)
    return _certificate(_exp_mean(km.log_k, log_rows), km.basis.nodes, km.basis.m)[0]


def certify(
    ds,
    mu: Union[MixingMeasure, SieveDensity],
    box=None,
    grid_resolution: int = 64,
    quad_points_per_cell: int = 8,
) -> Certificate:
    """Recompute the sup of a fit's directional derivative.

    For a discrete measure the scan covers a uniform grid over the box plus
    the atoms; the fit is optimal on the box (up to the scan resolution) when
    the sup is <= 1 + refine_tol. For a SieveDensity the scan covers the basis
    elements, with the kernel integrated at the fit's quadrature order; box
    and grid_resolution are then unused. Ties resolve to the first candidate
    (lexicographically first grid point), so certificates are deterministic.
    """
    if isinstance(mu, SieveDensity):
        km = build_sieve_kernel_matrix(ds, mu.basis, quad_points_per_cell)
        return _sieve_certificate(km, mu.coefficients)
    box_arr = _check_box(box, mu.p)
    if grid_resolution < 1:
        raise InvalidArgumentError("grid_resolution must be >= 1")
    scan = _scan_table(ds, box_arr, grid_resolution)
    return _scan_certificate(scan, build_kernel_matrix(ds, mu), mu.weights, grid_resolution)[0]


def _guarded_prune(km: KernelMatrix, w, eps: float):
    """Prune small weights unless doing so would drop the log-likelihood.

    Pruning a decaying atom raises the objective; the guard only skips the
    rare case of pruning an atom the EM had not finished growing, keeping
    fit traces nondecreasing.
    """
    keep = w >= eps
    if np.all(keep):
        return km, w
    if not np.any(keep):
        raise DegenerateMeasureError("all weights fall below the pruning threshold")
    before = log_likelihood(km, w)
    w_new = w[keep] / w[keep].sum()
    km_new = KernelMatrix(km.log_k[:, keep], atoms=km.atoms[keep], censored=km.censored)
    after = log_likelihood(km_new, w_new)
    if after < before - _TRACE_SLACK:
        return km, w
    return km_new, w_new


def _insert_atom(km: KernelMatrix, w, scan: _ScanTable, index: int):
    """Append scan grid point ``index`` to the support, with its table column.

    Existing weights shrink uniformly: the new weight starts at 1/(m+1) and
    halves until the objective does not decrease, which always terminates
    because the candidate's directional derivative exceeds one.
    """
    log_k = np.concatenate([km.log_k, scan.log_k[:, index : index + 1]], axis=1)
    atoms = np.concatenate([km.atoms, scan.grid[index : index + 1]])
    km_new = KernelMatrix(log_k, atoms=atoms, censored=km.censored)
    before = log_likelihood(km, w)
    eps = 1.0 / (w.shape[0] + 1)
    for _ in range(200):
        w_new = np.concatenate([w * (1.0 - eps), [eps]])
        if log_likelihood(km_new, w_new) >= before - _TRACE_SLACK:
            return km_new, w_new
        eps *= 0.5
    return km_new, np.concatenate([w * (1.0 - eps), [eps]])


def _refine(ds, mu: MixingMeasure, box_arr: np.ndarray, opts: FitOptions) -> FitResult:
    """Certificate-driven atom insertion from a starting measure.

    ``box_arr`` is a box already checked against the measure's dimension.
    """
    km = build_kernel_matrix(ds, mu)
    w = np.array(mu.weights)
    trace_parts: List[np.ndarray] = []
    total_iters = 0
    status = STATUS_CONVERGED
    scan = _scan_table(ds, box_arr, opts.refine_grid)
    cert = None
    for round_idx in range(opts.max_refinements + 1):
        w, trace, iters, status = em_fit(km, w, opts)
        trace_parts.append(trace)
        total_iters += iters
        km, w = _guarded_prune(km, w, opts.prune_eps)
        cert, best = _scan_certificate(scan, km, w, opts.refine_grid)
        if cert.sup_dir_derivative <= 1.0 + opts.refine_tol:
            break
        if round_idx == opts.max_refinements:
            status = STATUS_ITER_LIMIT
            break
        duplicate = np.any(np.all(km.atoms == cert.argmax_point[None, :], axis=1))
        if duplicate:
            # the scan cannot improve on an existing atom; stop honestly
            status = STATUS_ITER_LIMIT
            break
        # not a duplicate, so the arg-max is a grid point: best < G
        km, w = _insert_atom(km, w, scan, best)
    trace = np.concatenate(trace_parts)
    return FitResult(
        measure=MixingMeasure(km.atoms, w),
        loglik_trace=trace,
        final_loglik=float(trace[-1]),
        iterations=total_iters,
        certificate=cert,
        status=status,
    )


def fit_npml(
    ds, box, initial_counts, opts: Optional[FitOptions] = None
) -> FitResult:
    """Discrete maximum-likelihood fit: grid init, EM, prune, refine, certify."""
    opts = opts or FitOptions()
    box_arr = _check_box(box, ds.spec.p)
    return _refine(ds, new_uniform_grid_measure(box_arr, initial_counts), box_arr, opts)


def fit_sieve(
    ds,
    basis: SieveBasis,
    opts: Optional[FitOptions] = None,
    quad_points_per_cell: int = 8,
) -> FitResult:
    """Sieve maximum-likelihood fit: EM over the basis coefficients.

    The feasible set is fixed, so there is no support refinement; the
    certificate scans the directional derivative over the basis elements
    themselves (the extreme points of the hull).
    """
    opts = opts or FitOptions()
    km = build_sieve_kernel_matrix(ds, basis, quad_points_per_cell)
    w0 = np.full(basis.m, 1.0 / basis.m)
    w, trace, iterations, status = em_fit(km, w0, opts)
    measure = SieveDensity(basis, w)
    return FitResult(
        measure=measure,
        loglik_trace=trace,
        final_loglik=float(trace[-1]),
        iterations=iterations,
        certificate=_sieve_certificate(km, measure.coefficients),
        status=status,
    )


def _lattice_size(resolution: int, m: int) -> int:
    return math.comb(resolution + m - 1, m - 1)


def brute_force_oracle(km: KernelMatrix, resolution: int) -> np.ndarray:
    """Exhaustive simplex-lattice search for the weight optimum (desk scale).

    Enumerates all weight vectors with components j/resolution in
    lexicographic order and returns the first maximizer, making ties
    deterministic. Independent of the EM path by construction.
    """
    m = km.m
    if resolution < 1:
        raise InvalidArgumentError("resolution must be >= 1")
    if m > 4 or resolution * m > 10**7:
        raise InvalidArgumentError("oracle budget exceeded: needs m <= 4 and resolution*m <= 1e7")
    if _lattice_size(resolution, m) > 2 * 10**7:
        raise InvalidArgumentError("oracle budget exceeded: simplex lattice too large")
    if m == 1:
        return np.array([1.0])

    best_value = -np.inf
    best_w: Optional[np.ndarray] = None

    def consider(W: np.ndarray):
        nonlocal best_value, best_w
        shift = km.log_k.max(axis=1)
        # (C, N): mixture rows for every lattice point in the chunk
        mix = np.log(
            np.maximum(
                (np.exp(km.log_k - shift[:, None])[None, :, :] * (W / resolution)[:, None, :]).sum(
                    axis=2
                ),
                1e-320,
            )
        ) + shift[None, :]
        values = mix.mean(axis=1)
        idx = int(np.argmax(values))
        if values[idx] > best_value:
            best_value = float(values[idx])
            best_w = W[idx] / resolution

    chunk: List[np.ndarray] = []
    count = 0

    def flush():
        nonlocal chunk, count
        if chunk:
            consider(np.concatenate(chunk))
            chunk = []
            count = 0

    def emit(block: np.ndarray):
        nonlocal count
        chunk.append(block)
        count += block.shape[0]
        if count >= 20000:
            flush()

    R = resolution
    if m == 2:
        j1 = np.arange(R + 1)
        emit(np.stack([j1, R - j1], axis=1))
    elif m == 3:
        for a in range(R + 1):
            j2 = np.arange(R - a + 1)
            block = np.stack([np.full_like(j2, a), j2, R - a - j2], axis=1)
            emit(block)
    else:
        for a in range(R + 1):
            for b in range(R - a + 1):
                j3 = np.arange(R - a - b + 1)
                block = np.stack(
                    [np.full_like(j3, a), np.full_like(j3, b), j3, R - a - b - j3], axis=1
                )
                emit(block)
    flush()
    return np.asarray(best_w, dtype=float)


def concavity_probe(km: KernelMatrix, w1, w2, lambdas: Sequence[float]):
    """Concavity defects of the weight log-likelihood along a segment.

    Returns [(lambda, defect)] with defect = L(lam*w1 + (1-lam)*w2)
    - lam*L(w1) - (1-lam)*L(w2); concavity means defects >= 0 up to noise.
    """
    w1 = np.asarray(w1, dtype=float).reshape(-1)
    w2 = np.asarray(w2, dtype=float).reshape(-1)
    l1 = log_likelihood(km, w1)
    l2 = log_likelihood(km, w2)
    out = []
    for lam in lambdas:
        lam = float(lam)
        mixed = log_likelihood(km, lam * w1 + (1.0 - lam) * w2)
        out.append((lam, mixed - (lam * l1 + (1.0 - lam) * l2)))
    return out
