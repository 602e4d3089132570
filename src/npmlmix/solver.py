"""Maximization of the mixture log-likelihood over weights and supports.

Both fits run the constrained-Newton support method (CNM) of Wang, "On fast
computation of the NPMLE of a mixing distribution", JRSS-B 69 (2007) 185-198.
Each round scans the directional derivative d = (1/N) sum_i k_i / K(mu)(x_i)
over a candidate set (the scan grid plus the atoms, or the sieve's basis
elements) and stops once Lindsay's condition sup d <= 1 + refine_tol holds
(``Certificate.holds``); ``_fit_result`` makes a fit ``converged`` exactly
then. Otherwise a discrete fit appends the scan grid's local maxima of d as
zero-weight atoms, Newton steps solve the weights, and the atoms left at
weight zero are dropped; the sieve fit keeps its basis. ``em_fit`` remains
as the reference EM weight solver.

A scan takes d at every candidate in blocks of rows (individuals), one mat-vec
per block: with E = exp(L - shift) for the block's log-kernel table L at all
the candidates and shift each row's maximum over them, the block adds c @ E to d,
where c_i = exp(min(shift_i - log K(mu)(x_i), 700)) / N (``_slab_derivs``). One
builder, ``_dir_derivs_from_rows``, makes every scan's blocks, each table within
``likelihood._TABLE_BYTES`` and E in place of it: a fit keeps its grid's
blocks, ``certify`` and ``directional_derivatives`` stream them. One
``_scan_certificate``, over them and ``KernelMatrix.shifted``, computes every certificate.
An inserted atom takes its column from ``kernel_columns`` at its point.
A Newton step whose weights have a wide support reduces its least-squares
problem once by QR, so its NNLS works on an (m + 1)-row triangle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InvalidArgumentError
from .likelihood import (
    DEFAULT_QUAD_POINTS,
    KernelMatrix,
    _TABLE_BYTES,
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
    TensorGrid,
    _check_box,
    _checked_weights,
    _clean_weights,
    new_uniform_grid_measure,
)

STATUS_CONVERGED = "converged"
STATUS_ITER_LIMIT = "iter-limit"

# Newton steps per round on one support, and the weight move that ends a round early
_STEPS_PER_ROUND = 8
_STEP_MOVE_TOL = 1e-10
# weight of the NNLS sum-to-one row, Armijo's sufficient-increase fraction, line-search halvings
_SUM_ROW = 1e3
_ARMIJO = 0.25
_HALVINGS = 40


@dataclass(frozen=True)
class FitOptions:
    """Fit knobs; the first two tune ``em_fit`` only, ``prune_eps`` only a sieve's reported atom count."""

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


def _fit_result(measure, trace: np.ndarray, cert: Certificate, opts: FitOptions) -> FitResult:
    """Every fit's result: ``converged`` exactly when its certificate holds, one iteration per step traced."""
    status = STATUS_CONVERGED if cert.holds(opts.refine_tol) else STATUS_ITER_LIMIT
    return FitResult(measure, trace, float(trace[-1]), trace.size - 1, cert, status)


def _mean_log(M: np.ndarray) -> float:
    """Mean log of a mixture column: the bits of ``np.mean(np.log(M))``, without its overhead."""
    return float(np.log(M).sum() / M.shape[0])


def em_fit(km: KernelMatrix, w0, opts: Optional[FitOptions] = None) -> Tuple[np.ndarray, np.ndarray, int, str]:
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
    current = _mean_log(M) + shift_mean
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
        value = _mean_log(M) + shift_mean
        trace.append(value)
        gain = value - current
        current = value
        if gain <= opts.tol_rel_loglik * max(1.0, abs(value)):
            status = STATUS_CONVERGED
            break
    return w, np.asarray(trace), len(trace) - 1, status


def directional_derivatives(ds, mu: MixingMeasure, points: np.ndarray) -> np.ndarray:
    """Vectorized directional derivatives at many candidate points, streamed in scan row blocks."""
    km = build_kernel_matrix(ds, mu)
    return _ScanTable(ds, points, _dir_derivs_from_rows(ds, points)).derivs(row_log_mixture(km, mu.weights))


# cap on shift_i - log K(mu)(x_i) in a scan, so that d stays finite
_LOG_RATIO_CAP = 700.0


def _slab(log_cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(E, shift) of a row block's log table: shift is each row's maximum over every candidate, or -inf if none.

    E = exp(log_cols - shift), in place.
    """
    shift = log_cols.max(axis=1, initial=-np.inf)
    log_cols -= shift[:, None]
    return np.exp(log_cols, out=log_cols), shift


def _slab_derivs(E: np.ndarray, shift: np.ndarray, log_rows: np.ndarray, N: int) -> np.ndarray:
    """A row block's terms of the directional derivatives d_j = (1/N) sum_i k_ij / K(mu)(x_i), as one mat-vec.

    With c_i = exp(min(shift_i - log_rows_i, 700)) / N over the block's rows, the
    block adds c @ E to d. Without the cap, each term rounds L_ij - shift_i and
    shift_i - log_rows_i, and the N terms of d are summed block by block, so
    |d_hat_j - d_j| <= d_j * eps * (N + 6 + max_i (|L_ij - shift_i| + |shift_i - log_rows_i|)),
    eps = 2^-52, against the exact exp-mean of the same log values. The cap
    bounds d by e^700 whatever N is, and keeps it at least e^700 / N at a
    column where a capped row has its maximum, so such a measure never certifies.
    """
    c = np.exp(np.minimum(shift - log_rows, _LOG_RATIO_CAP)) / N
    return c @ E


def _dir_derivs_from_rows(ds, points):
    """Every scan's row blocks (rows, E, shift) within ``_TABLE_BYTES``; bench/tracer.py maps this name to ``scan``."""
    step = max(1, _TABLE_BYTES // (8 * max(1, len(points))))
    for start in range(0, ds.N, step):
        yield (slice(start, start + step), *_slab(kernel_columns(ds.row_slice(start, start + step), points)))


def _certificate(values: np.ndarray, candidates: np.ndarray, grid_resolution: int) -> Certificate:
    """Sup of the directional derivative and its candidate; ties go to the first."""
    best = int(np.argmax(values))
    return Certificate(float(values[best]), candidates[best].copy(), grid_resolution)


def _scan_grid(box_arr: np.ndarray, resolution: int) -> TensorGrid:
    # plain linspace, not the start-grid node rule: resolution 1 scans lo
    return TensorGrid([np.linspace(lo, hi, resolution) for lo, hi in box_arr])


@dataclass(frozen=True)
class _ScanTable:
    """Scan candidates: a dataset, its points (an array or a grid), and their kernel as row blocks (rows, E, shift).

    The blocks are ``_dir_derivs_from_rows``': a tuple a fit keeps, or the generator that ``certify``
    and ``directional_derivatives`` read once, so their memory does not grow with N or the points.
    """

    ds: object
    atoms: Union[np.ndarray, TensorGrid]
    blocks: Iterable[Tuple[slice, np.ndarray, np.ndarray]]

    def derivs(self, log_rows: np.ndarray) -> np.ndarray:
        """d at every candidate: each row block's ``_slab_derivs``, summed in row order into zeros."""
        out = np.zeros(len(self.atoms))
        for rows, E, shift in self.blocks:
            out += _slab_derivs(E, shift, log_rows[rows], log_rows.shape[0])
            del E, shift  # a streamed block is freed before the next one is built
        return out


def _scan_table(ds, box_arr: np.ndarray, resolution: int) -> _ScanTable:
    """The scan grid's (N, G) kernel, in row blocks exponentiated in place of their log tables; built once per fit."""
    grid = _scan_grid(box_arr, resolution)
    return _ScanTable(ds, np.asarray(grid), tuple(_dir_derivs_from_rows(ds, grid)))


def _scan_certificate(
    km: KernelMatrix, w, resolution: int, scan: Optional[_ScanTable] = None
) -> Tuple[Certificate, np.ndarray]:
    """Certificate over the points of ``scan``, if given, then the columns of ``km``, and every d it scanned.

    A discrete fit passes its kept scan table and ``certify`` a streamed one, so
    value j < G is d at the grid point ``scan.atoms[j]``; a sieve fit passes
    none and scans its basis elements, the extreme points of the hull.
    """
    log_rows = row_log_mixture(km, w)
    values, candidates = _slab_derivs(*km.shifted, log_rows, km.N), km.atoms
    if scan is not None:
        values, candidates = np.concatenate([scan.derivs(log_rows), values]), np.concatenate([scan.atoms, candidates])
    return _certificate(values, candidates, resolution), values


def certify(
    ds, mu: Union[MixingMeasure, SieveDensity], box=None, grid_resolution: int = 64,
    quad_points_per_cell: int = DEFAULT_QUAD_POINTS,
) -> Certificate:
    """Recompute the sup of a fit's directional derivative.

    For a discrete measure the fit's ``_scan_certificate`` covers a uniform grid
    over the box, streamed in the fit's row blocks, so that its scan holds one
    block of at most ``_TABLE_BYTES`` (or one row) whatever N and the resolution
    are, then the atoms from the measure's own table; the fit is optimal on the box
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
    grid = _scan_grid(box_arr, grid_resolution)
    scan = _ScanTable(ds, grid, _dir_derivs_from_rows(ds, grid))
    return _scan_certificate(build_kernel_matrix(ds, mu), mu.weights, grid_resolution, scan)[0]


def _nnls(A: np.ndarray, b: np.ndarray, reduce: bool = True) -> np.ndarray:
    """Lawson-Hanson active-set solution of min ||A x - b|| subject to x >= 0.

    With ``reduce``, [A | b] is first reduced to its triangular QR factor
    [R | r]: ||A x - b||^2 = ||R x - r||^2 + const, so each least-squares solve
    has at most m + 1 rows however tall A is. The tolerance is A's either way.
    """
    m = A.shape[1]
    x = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    tol = 10.0 * np.finfo(float).eps * max(A.shape) * np.abs(A).sum(axis=0).max()
    if reduce:
        Rb = np.linalg.qr(np.column_stack([A, b]), mode="r")
        A, b = Rb[:, :m], Rb[:, m]
    for _ in range(3 * m):
        grad = A.T @ (b - A @ x)
        if not np.any(~passive & (grad > tol)):
            break
        passive[np.argmax(np.where(passive, -np.inf, grad))] = True
        while True:
            z = np.zeros(m)
            z[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            if np.all(z[passive] > 0):
                x = z
                break
            # move from x towards z until a passive entry reaches zero, and free it
            hit = np.flatnonzero(passive & (z <= 0))
            ratios = x[hit] / np.maximum(x[hit] - z[hit], np.finfo(float).tiny)
            x = x + ratios.min() * (z - x)
            passive[hit[np.argmin(ratios)]] = False
            passive &= x > tol
            x[~passive] = 0.0
    return x


def _newton_step(E: np.ndarray, w: np.ndarray, current: float) -> Tuple[np.ndarray, float]:
    """One constrained-Newton step on a fixed support: the new weights and ``_mean_log(E @ w)``.

    With S = E / (E w), the quadratic model of the log-likelihood is maximized
    over the simplex by min ||S v - 2|| (rows scaled by 1/sqrt(N)), v >= 0, with
    a heavy sum-to-one row. The step towards v backtracks until the
    log-likelihood rises by an Armijo fraction of the slope; when no step size
    raises it, the weights come back unchanged.

    The NNLS reduces its system by QR when that costs less: the QR takes about
    2 N m^2 flops, and the tall solves it saves about 2 N k^3 / 3 for an active
    set that grows to k columns, taken as the support of w. A discrete fit's
    atoms mostly carry weight; a sieve fit's basis mostly does not.
    """
    N = E.shape[0]
    S = E / np.maximum(E @ w, 1e-300)[:, None]
    A = np.vstack([S / math.sqrt(N), np.full((1, w.size), _SUM_ROW)])
    b = np.concatenate([np.full(N, 2.0 / math.sqrt(N)), [_SUM_ROW]])
    target = _nnls(A, b, reduce=np.count_nonzero(w) ** 3 > 3 * w.size**2)
    target /= target.sum()
    slope = float(S.mean(axis=0) @ (target - w))
    alpha = 1.0
    for _ in range(_HALVINGS):
        trial = (1.0 - alpha) * w + alpha * target
        value = _mean_log(np.maximum(E @ trial, 1e-300))
        if value > current and value >= current + _ARMIJO * alpha * slope:
            return trial, value
        alpha *= 0.5
    return w, current


def _grid_local_maxima(values: np.ndarray, resolution: int, p: int) -> np.ndarray:
    """Flat indices of the grid points where d is at least every 3^p-stencil neighbour's."""
    d = values.reshape((resolution,) * p)
    padded = np.pad(d, 1, constant_values=-np.inf)
    peak = np.ones(d.shape, dtype=bool)
    for offset in itertools.product(range(3), repeat=p):
        peak &= d >= padded[tuple(slice(o, o + resolution) for o in offset)]
    return np.flatnonzero(peak)


def _insert_atom(km: KernelMatrix, w, scan: _ScanTable, values: np.ndarray, resolution: int):
    """Append the grid's local maxima of d above one that are not atoms yet: (km, w, how many).

    Each new atom has zero weight; its column comes from ``kernel_columns`` at its
    point, with the bits of its grid column.
    """
    new = _grid_local_maxima(values[: len(scan.atoms)], resolution, scan.atoms.shape[1])
    new = new[values[new] > 1.0]
    new = new[~np.all(scan.atoms[new][:, None, :] == km.atoms[None, :, :], axis=2).any(axis=1)]
    if not new.size:
        return km, w, 0
    points = scan.atoms[new]
    log_k = np.concatenate([km.log_k, kernel_columns(scan.ds, points)], axis=1)
    km = KernelMatrix(log_k, atoms=np.concatenate([km.atoms, points]))
    return km, np.concatenate([w, np.zeros(new.size)]), new.size


def _cnm(km: KernelMatrix, w, opts: FitOptions, resolution: int, scan: Optional[_ScanTable] = None):
    """CNM rounds from weights ``w``: (km, weights, loglik trace, certificate).

    A discrete fit passes its scan table and gains and loses atoms; a sieve
    fit passes none and keeps its basis. The trace holds the start value and
    one value per Newton step.
    """
    E, shift = km.shifted
    trace = [_mean_log(np.maximum(E @ w, 1e-300)) + float(shift.mean())]
    for round_idx in range(opts.max_refinements + 1):
        # the weights the returned measure will hold, so the last scan is the fit's certificate
        w = _clean_weights(w, km.m)
        cert, values = _scan_certificate(km, w, resolution, scan)
        if cert.holds(opts.refine_tol) or round_idx == opts.max_refinements:
            break
        inserted = 0
        if scan is not None:
            km, w, inserted = _insert_atom(km, w, scan, values, resolution)
        E, shift = km.shifted
        start, current = w, _mean_log(np.maximum(E @ w, 1e-300))
        for _ in range(_STEPS_PER_ROUND):
            w_new, current = _newton_step(E, w, current)
            trace.append(current + float(shift.mean()))
            w, step = w_new, float(np.max(np.abs(w_new - w)))
            if step <= _STEP_MOVE_TOL:
                break
        if not inserted and np.array_equal(w, start):
            break  # nothing changed, so every later round would scan the same measure
        keep = w > 0
        if scan is not None and not keep.all():
            km, w = KernelMatrix(km.log_k[:, keep], atoms=km.atoms[keep]), w[keep]
    return km, w, np.asarray(trace), cert


def _refine(ds, mu: MixingMeasure, box_arr: np.ndarray, opts: FitOptions) -> FitResult:
    """CNM support refinement from a starting measure.

    ``box_arr`` is a box already checked against the measure's dimension.
    """
    scan = _scan_table(ds, box_arr, opts.refine_grid)
    km, w, trace, cert = _cnm(build_kernel_matrix(ds, mu), mu.weights, opts, opts.refine_grid, scan)
    return _fit_result(MixingMeasure(km.atoms, w), trace, cert, opts)


def fit_npml(ds, box, initial_counts, opts: Optional[FitOptions] = None) -> FitResult:
    """Discrete maximum-likelihood fit: grid init, CNM support refinement, certify."""
    opts = opts or FitOptions()
    box_arr = _check_box(box, ds.spec.p)
    return _refine(ds, new_uniform_grid_measure(box_arr, initial_counts), box_arr, opts)


def fit_sieve(
    ds, basis: SieveBasis, opts: Optional[FitOptions] = None, quad_points_per_cell: int = DEFAULT_QUAD_POINTS
) -> FitResult:
    """Sieve maximum-likelihood fit: CNM rounds over the basis coefficients.

    The feasible set is fixed, so there is no support refinement; the
    certificate scans the directional derivative over the basis elements
    themselves (the extreme points of the hull). The fit is ``converged``
    exactly when the certificate holds, as for a discrete fit.
    """
    opts = opts or FitOptions()
    km = build_sieve_kernel_matrix(ds, basis, quad_points_per_cell)
    _, w, trace, cert = _cnm(km, np.full(basis.m, 1.0 / basis.m), opts, basis.m)
    return _fit_result(SieveDensity(basis, w), trace, cert, opts)


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
