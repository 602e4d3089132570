"""Maximization of the mixture log-likelihood over weights and supports.

The discrete fit runs EM on a fixed atom grid, prunes negligible weights,
then alternates certificate scans with atom insertion at the best candidate
(a vertex-direction style refinement) until the directional derivative is
below 1 + refine_tol everywhere on the scan grid. The sieve fit is the same
EM on the basis-integrated kernel matrix, with the feasible set fixed.

Both kinds of fit are accepted through one certificate rule: the exp-mean
d = (1/N) sum_i k_i / K(mu)(x_i) over a candidate set (the scan grid plus the
atoms, or the sieve's basis elements), reduced to its first arg-max.
``_fit_result`` makes every fit ``converged`` exactly when its certificate
holds (``Certificate.holds``, Lindsay's sup d <= 1 + refine_tol), whatever
state EM stopped in.

Every table the solver scans is a ``KernelMatrix`` whose ``atoms`` are its
columns' points: the support's atoms, the scan grid's points, or the sieve's
basis nodes. The kernel is computed once per fit. A discrete fit builds the
(N, G) table of its scan grid once; each round's scan is an exp-mean over that
table and the support's own columns, and an inserted atom takes its column
from the table. Only the mixture density K(mu)(x_i) changes between rounds.
``certify`` holds no such table: it streams the grid and the atoms through
``directional_derivatives`` in blocks of ``_SCAN_BLOCK`` points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DegenerateMeasureError, InvalidArgumentError
from .likelihood import (
    DEFAULT_QUAD_POINTS,
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
        for name, upper in (("tol_rel_loglik", math.inf), ("prune_eps", 1.0), ("refine_tol", math.inf)):
            value = getattr(self, name)
            if not 0 < value < upper:
                raise InvalidArgumentError(f"{name} must lie in (0, {upper}), got {value!r}")
        for name, least in (("max_em_iters", 1), ("refine_grid", 1), ("max_refinements", 0)):
            value = getattr(self, name)
            if value < least:
                raise InvalidArgumentError(f"{name} must be at least {least}, got {value!r}")


@dataclass(frozen=True)
class Certificate:
    """Sup of the directional derivative over a scan grid plus the support."""

    sup_dir_derivative: float
    argmax_point: np.ndarray
    grid_resolution: int

    def holds(self, tol: float) -> bool:
        """Lindsay's optimality condition on the scanned candidates: sup d <= 1 + tol."""
        return self.sup_dir_derivative <= 1.0 + tol


@dataclass(frozen=True)
class FitResult:
    measure: Union[MixingMeasure, SieveDensity]
    loglik_trace: np.ndarray
    final_loglik: float
    iterations: int
    certificate: Certificate
    status: str


def _fit_result(measure, trace: np.ndarray, iterations: int, cert: Certificate, opts: FitOptions) -> FitResult:
    """Every fit's result: ``converged`` exactly when its certificate holds at ``refine_tol``."""
    status = STATUS_CONVERGED if cert.holds(opts.refine_tol) else STATUS_ITER_LIMIT
    return FitResult(measure, trace, float(trace[-1]), iterations, cert, status)


def em_fit(
    km: KernelMatrix, w0, opts: Optional[FitOptions] = None
) -> Tuple[np.ndarray, np.ndarray, int, str]:
    """Iterate EM weight updates until the relative log-likelihood gain is below tolerance.

    An update is w'_j = w_j * (1/N) sum_i k_ij / sum_l w_l k_il, so zero weights
    stay zero. Returns (weights, loglik_trace, iterations, status); the trace
    includes the starting value and is nondecreasing up to floating-point noise.
    The shifted kernel is computed once, so each iteration is two mat-vecs.
    """
    opts = opts or FitOptions()
    w = _checked_weights(w0, km.m)
    E, shift = km.shifted
    shift_mean = float(shift.mean())
    M = np.maximum(E @ w, 1e-300)
    current = float(np.mean(np.log(M))) + shift_mean
    trace = [current]
    status = STATUS_ITER_LIMIT
    inv_n = 1.0 / km.N
    for _ in range(opts.max_em_iters):
        w = w * (E.T @ (1.0 / M)) * inv_n
        total = w.sum()
        if total <= 0:
            raise InvalidArgumentError("EM step lost all mass; weights were degenerate")
        w = w / total
        M = np.maximum(E @ w, 1e-300)
        value = float(np.mean(np.log(M))) + shift_mean
        trace.append(value)
        gain = value - current
        current = value
        if gain <= opts.tol_rel_loglik * max(1.0, abs(value)):
            status = STATUS_CONVERGED
            break
    return w, np.asarray(trace), len(trace) - 1, status


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


def _scan_grid(box_arr: np.ndarray, resolution: int) -> np.ndarray:
    # plain linspace, not the start-grid node rule: resolution 1 scans lo
    return _tensor_points([np.linspace(lo, hi, resolution) for lo, hi in box_arr])


def _scan_table(ds, box_arr: np.ndarray, resolution: int) -> KernelMatrix:
    """The scan grid's (N, G) log-kernel table, with the grid as its atoms; built once per fit."""
    grid = _scan_grid(box_arr, resolution)
    return KernelMatrix(kernel_columns(ds, grid), atoms=grid)


def _scan_certificate(
    km: KernelMatrix, w, resolution: int, scan: Optional[KernelMatrix] = None
) -> Tuple[Certificate, int]:
    """Certificate over the columns of ``scan``, if given, then those of ``km``.

    A discrete fit passes its scan table, so an index below G names the grid
    point ``scan.atoms[index]``; a sieve fit passes none and scans its basis
    elements, the extreme points of the hull.
    """
    log_rows = row_log_mixture(km, w)
    tables = [km] if scan is None else [scan, km]
    values = np.concatenate([_exp_mean(t.log_k, log_rows) for t in tables])
    return _certificate(values, np.concatenate([t.atoms for t in tables]), resolution)


def certify(
    ds,
    mu: Union[MixingMeasure, SieveDensity],
    box=None,
    grid_resolution: int = 64,
    quad_points_per_cell: int = DEFAULT_QUAD_POINTS,
) -> Certificate:
    """Recompute the sup of a fit's directional derivative.

    For a discrete measure the scan covers a uniform grid over the box plus
    the atoms, streamed through ``directional_derivatives`` in blocks, so its
    memory does not grow with the resolution; the fit is optimal on the box
    (up to the scan resolution) when the certificate holds at refine_tol. For a
    SieveDensity the scan covers the basis elements, with the kernel
    integrated at the fit's quadrature order; box and grid_resolution are
    then unused. Ties resolve to the first candidate
    (lexicographically first grid point), so certificates are deterministic.
    """
    if isinstance(mu, SieveDensity):
        km = build_sieve_kernel_matrix(ds, mu.basis, quad_points_per_cell)
        return _scan_certificate(km, mu.coefficients, mu.basis.m)[0]
    box_arr = _check_box(box, mu.p)
    if grid_resolution < 1:
        raise InvalidArgumentError("grid_resolution must be >= 1")
    candidates = np.concatenate([_scan_grid(box_arr, grid_resolution), mu.atoms])
    return _certificate(directional_derivatives(ds, mu, candidates), candidates, grid_resolution)[0]


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
    km_new = KernelMatrix(km.log_k[:, keep], atoms=km.atoms[keep])
    after = log_likelihood(km_new, w_new)
    if after < before - _TRACE_SLACK:
        return km, w
    return km_new, w_new


def _insert_atom(km: KernelMatrix, w, scan: KernelMatrix, index: int):
    """Append scan grid point ``index`` to the support, with its table column.

    Existing weights shrink uniformly: the new weight starts at 1/(m+1) and
    halves until the objective does not decrease, which always terminates
    because the candidate's directional derivative exceeds one.
    """
    log_k = np.concatenate([km.log_k, scan.log_k[:, index : index + 1]], axis=1)
    atoms = np.concatenate([km.atoms, scan.atoms[index : index + 1]])
    km_new = KernelMatrix(log_k, atoms=atoms)
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
    scan = _scan_table(ds, box_arr, opts.refine_grid)
    for round_idx in range(opts.max_refinements + 1):
        w, trace, iters, _ = em_fit(km, w, opts)
        trace_parts.append(trace)
        total_iters += iters
        km, w = _guarded_prune(km, w, opts.prune_eps)
        measure = MixingMeasure(km.atoms, w)
        # certify() scans these renormalized weights, so the last round's scan is the fit's certificate
        cert, best = _scan_certificate(km, measure.weights, opts.refine_grid, scan)
        # stop when certified, out of rounds, or when the arg-max is an atom (the scan cannot improve on it)
        on_atom = np.any(np.all(km.atoms == cert.argmax_point[None, :], axis=1))
        if cert.holds(opts.refine_tol) or round_idx == opts.max_refinements or on_atom:
            break
        # not an atom, so the arg-max is a grid point: best < G
        km, w = _insert_atom(km, w, scan, best)
    return _fit_result(measure, np.concatenate(trace_parts), total_iters, cert, opts)


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
    quad_points_per_cell: int = DEFAULT_QUAD_POINTS,
) -> FitResult:
    """Sieve maximum-likelihood fit: EM over the basis coefficients.

    The feasible set is fixed, so there is no support refinement; the
    certificate scans the directional derivative over the basis elements
    themselves (the extreme points of the hull). The fit is ``converged``
    exactly when the certificate holds, as for a discrete fit.
    """
    opts = opts or FitOptions()
    km = build_sieve_kernel_matrix(ds, basis, quad_points_per_cell)
    w, trace, iterations, _ = em_fit(km, np.full(basis.m, 1.0 / basis.m), opts)
    measure = SieveDensity(basis, w)
    cert = _scan_certificate(km, measure.coefficients, basis.m)[0]
    return _fit_result(measure, trace, iterations, cert, opts)


def _lattice_blocks(total: int, m: int, prefix: tuple = ()):
    """Integer vectors ``prefix + (m entries summing to total)``, lexicographically, in blocks."""
    if m == 2:
        block = np.empty((total + 1, len(prefix) + 2), dtype=np.int64)
        block[:, : len(prefix)] = prefix
        block[:, -2] = np.arange(total + 1)
        block[:, -1] = total - block[:, -2]
        yield block
        return
    for a in range(total + 1):
        yield from _lattice_blocks(total - a, m - 1, prefix + (a,))


def _lattice_chunks(total: int, m: int):
    """The lattice of ``_lattice_blocks`` regrouped into chunks of at least 20000 rows."""
    chunk, rows = [], 0
    for block in _lattice_blocks(total, m):
        chunk.append(block)
        rows += block.shape[0]
        if rows >= 20000:
            yield np.concatenate(chunk)
            chunk, rows = [], 0
    if chunk:
        yield np.concatenate(chunk)


def brute_force_oracle(km: KernelMatrix, resolution: int) -> np.ndarray:
    """Exhaustive simplex-lattice search for the weight optimum (desk scale).

    Enumerates all weight vectors with components j/resolution in
    lexicographic order and returns the first maximizer, making ties
    deterministic. Independent of the EM path by construction.
    """
    m = km.m
    if resolution < 1:
        raise InvalidArgumentError("resolution must be >= 1")
    if m > 4 or resolution * m > 10**7 or math.comb(resolution + m - 1, m - 1) > 2 * 10**7:
        raise InvalidArgumentError(
            "oracle budget exceeded: needs m <= 4, resolution*m <= 1e7 and at most 2e7 lattice points"
        )
    if m == 1:
        return np.array([1.0])

    E, shift = km.shifted
    best_value, best_w = -np.inf, None
    for W in _lattice_chunks(resolution, m):
        # (C, N): log mixture rows for every lattice point in the chunk; summing
        # the integer lattice before one division keeps exact ties exact
        mix = np.log(np.maximum((E[None] * W[:, None, :]).sum(axis=2) / resolution, 1e-320))
        values = (mix + shift[None, :]).mean(axis=1)
        idx = int(np.argmax(values))
        if values[idx] > best_value:
            best_value, best_w = float(values[idx]), W[idx] / resolution
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
