"""Discrete mixing measures, the hat-density sieve, and distances between fits.

Measures are immutable: constructors copy their inputs and mark the arrays
read-only, so values can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateMeasureError, InvalidArgumentError

# measures hold simplex points exactly; solver inputs may carry rounding noise
_MEASURE_NEG_TOL = 1e-15
_SOLVER_NEG_TOL = 1e-12
_WEIGHT_SUM_TOL = 1e-6
# weights summing to one within this are kept as they are, so cleaning twice changes no bit
_RENORMALIZE_TOL = 1e-12


def _checked_weights(weights, m: Optional[int] = None, neg_tol: float = _SOLVER_NEG_TOL) -> np.ndarray:
    """The one weight validator: finite, >= -neg_tol, clipped at 0, not all zero.

    When ``m`` is given the vector must also have exactly m entries.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    if m is not None and w.shape[0] != m:
        raise InvalidArgumentError(f"got {w.shape[0]} weights, expected {m}")
    if not np.all(np.isfinite(w)):
        raise InvalidArgumentError("weights must be finite")
    if np.any(w < -neg_tol):
        raise InvalidArgumentError("weights must be nonnegative")
    w = np.maximum(w, 0.0)
    if w.sum() <= 0:
        raise InvalidArgumentError("weights must not all be zero")
    return w


def _clean_weights(weights, m: int) -> np.ndarray:
    """Validated weights of length m that sum to one, renormalized when off by more than 1e-12."""
    w = _checked_weights(weights, m, _MEASURE_NEG_TOL)
    total = w.sum()
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise InvalidArgumentError(f"weights sum to {total!r}, expected 1")
    return w / total if abs(total - 1.0) > _RENORMALIZE_TOL else w


def _check_box(box, p: Optional[int] = None) -> np.ndarray:
    """The one box check: a (p, 2) table of finite lo < hi bounds (any p >= 1 if None)."""
    box_arr = np.asarray(box, dtype=float)
    bad_shape = box_arr.ndim != 2 or box_arr.shape[1] != 2 or box_arr.shape[0] == 0
    if bad_shape or (p is not None and box_arr.shape[0] != p):
        expected = "p" if p is None else str(p)
        raise InvalidArgumentError(f"box must be a ({expected}, 2) table of (lo, hi) pairs")
    if not np.all(np.isfinite(box_arr)):
        raise InvalidArgumentError(f"box bounds must be finite, got {box_arr.tolist()}")
    if np.any(box_arr[:, 0] >= box_arr[:, 1]):
        raise InvalidArgumentError("box is empty: each axis needs lo < hi")
    return box_arr


def _grid_axes(box_arr: np.ndarray, counts) -> list:
    """Per-axis grid nodes: endpoints included, or the midpoint for a single node.

    ``counts`` is an int or a sequence of per-axis node counts.
    """
    p = box_arr.shape[0]
    if np.isscalar(counts):
        counts = [int(counts)] * p
    counts = [int(c) for c in counts]
    if len(counts) != p:
        raise InvalidArgumentError("node counts length does not match box dimension")
    if any(c < 1 for c in counts):
        raise InvalidArgumentError("node counts must be >= 1 per axis")
    return [
        np.array([(lo + hi) / 2.0]) if c == 1 else np.linspace(lo, hi, c)
        for (lo, hi), c in zip(box_arr, counts)
    ]


def _tensor_points(axes) -> np.ndarray:
    """Tensor product of per-axis values as (P, p) rows, the last axis fastest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


class TensorGrid:
    """Tensor product of per-axis values; ``len`` and ``np.asarray`` see its points, ``_tensor_points(axes)``."""

    def __init__(self, axes):
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)

    def __len__(self) -> int:
        return math.prod(a.shape[0] for a in self.axes)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return _tensor_points(self.axes).astype(dtype or float, copy=False)

    def slabs(self, size: int):
        """Sub-grids of at most ``size`` points that tile the grid in point order: (start, sub-grid), a scan's slabs.

        Each is a run of leading-axis values or, where one value's sub-grid is larger, a slab of that.
        """
        lead, rest = self.axes[0], TensorGrid(self.axes[1:])
        per = len(rest)
        for i in range(0, lead.shape[0], max(1, size // per)):
            if per <= size:
                yield i * per, TensorGrid((lead[i : i + size // per],) + rest.axes)
            else:
                for start, part in rest.slabs(size):
                    yield i * per + start, TensorGrid((lead[i : i + 1],) + part.axes)


def _point_blocks(points, size: int):
    """(start, block) of at most ``size`` scan candidates: row blocks of a point array, slabs of a ``TensorGrid``."""
    if isinstance(points, TensorGrid):
        return points.slabs(size)
    return ((start, points[start : start + size]) for start in range(0, len(points), size))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MixingMeasure:
    """Discrete candidate mixing law: m atoms in R^p with simplex weights."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.shape[0] == 0:
            raise InvalidArgumentError("atoms must form a nonempty (m, p) array")
        if not np.all(np.isfinite(atoms)):
            raise InvalidArgumentError("atoms must be finite")
        w = _clean_weights(self.weights, atoms.shape[0])
        object.__setattr__(self, "atoms", _freeze(atoms))
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def m(self) -> int:
        return self.atoms.shape[0]

    @property
    def p(self) -> int:
        return self.atoms.shape[1]


def new_uniform_grid_measure(box: Sequence, counts) -> MixingMeasure:
    """Equal-weight measure on a tensor grid over the box.

    ``box`` is a sequence of (lo, hi) pairs; ``counts`` an int or sequence of
    per-axis node counts. Axes with a single node get the interval midpoint;
    otherwise nodes include the endpoints.
    """
    atoms = _tensor_points(_grid_axes(_check_box(box), counts))
    m = atoms.shape[0]
    return MixingMeasure(atoms, np.full(m, 1.0 / m))


def prune(mu: MixingMeasure, eps: float) -> MixingMeasure:
    """Drop atoms with weight below eps and renormalize the rest."""
    if not (0 < eps < 1):
        raise InvalidArgumentError("eps must lie in (0, 1)")
    keep = mu.weights >= eps
    if not np.any(keep):
        raise DegenerateMeasureError("all weights fall below the pruning threshold")
    w = mu.weights[keep]
    return MixingMeasure(mu.atoms[keep], w / w.sum())


def _w1_discrete(u_vals, u_w, v_vals, v_w) -> float:
    """Exact W1 of two weighted discrete 1-d measures: each CDF sums its own weights in one merged order."""
    vals = np.concatenate([u_vals, v_vals])
    order = np.argsort(vals, kind="stable")
    from_u, w = order < len(u_vals), np.concatenate([u_w, v_w])[order]
    u_cum, v_cum = np.cumsum(np.where(from_u, w, 0.0)), np.cumsum(np.where(from_u, 0.0, w))
    return float(np.sum(np.abs(u_cum[:-1] / u_cum[-1] - v_cum[:-1] / v_cum[-1]) * np.diff(vals[order])))


def measure_distance(mu: MixingMeasure, nu: MixingMeasure) -> float:
    """Mean over coordinates of the marginal W1 distances (a pseudometric)."""
    if mu.p != nu.p:
        raise InvalidArgumentError("measures live in different dimensions")
    vals = [
        _w1_discrete(mu.atoms[:, c], mu.weights, nu.atoms[:, c], nu.weights)
        for c in range(mu.p)
    ]
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# Hat-density sieve
# ---------------------------------------------------------------------------


class SieveBasis:
    """Tensor-product hat densities on a uniform grid over a compact box.

    Per axis with k >= 2 nodes the nodes are equispaced including the
    endpoints (spacing h); element j is the tent at node j normalized to
    integrate to 1 (boundary tents are half tents). A single-node axis
    degenerates to the uniform density on that interval. Every convex
    combination of the tensor-product elements is a probability density
    supported in the box.
    """

    def __init__(self, box: Sequence, node_counts):
        box_arr = _check_box(box)
        self._axis_nodes = _grid_axes(box_arr, node_counts)
        self.box = _freeze(box_arr)
        self.node_counts = tuple(nodes.shape[0] for nodes in self._axis_nodes)
        self.nodes = _freeze(_tensor_points(self._axis_nodes))

    @property
    def p(self) -> int:
        return self.box.shape[0]

    @property
    def m(self) -> int:
        return self.nodes.shape[0]

    def _axis_log_values(self, axis: int, x: np.ndarray) -> np.ndarray:
        """Log of the normalized 1-d element values at points x: (len(x), c)."""
        nodes = self._axis_nodes[axis]
        lo, hi = self.box[axis]
        c = nodes.shape[0]
        if c == 1:
            inside = (x >= lo) & (x <= hi)
            out = np.full((x.shape[0], 1), -np.inf)
            out[inside, 0] = -np.log(hi - lo)
            return out
        h = (hi - lo) / (c - 1)
        tent = np.maximum(0.0, 1.0 - np.abs(x[:, None] - nodes[None, :]) / h)
        norms = np.full(c, h)
        norms[[0, -1]] = h / 2.0
        vals = tent / norms[None, :]
        with np.errstate(divide="ignore"):
            return np.log(vals)

    def log_basis_values(self, points: np.ndarray) -> np.ndarray:
        """Log basis densities at points: (Q, m) with -inf off support."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        per_axis = [self._axis_log_values(a, points[:, a]) for a in range(self.p)]
        out = per_axis[0]
        for a in range(1, self.p):
            out = out[:, :, None] + per_axis[a][:, None, :]
            out = out.reshape(points.shape[0], -1)
        return out

    def _axis_rules(self, points_per_cell: int) -> list:
        """Per-axis Gauss-Legendre rules exact per grid cell: one (points, weights) pair per axis."""
        if points_per_cell < 1:
            raise InvalidArgumentError("points_per_cell must be >= 1")
        gl_x, gl_w = np.polynomial.legendre.leggauss(points_per_cell)
        rules = []
        for (lo, hi), nodes in zip(self.box, self._axis_nodes):
            edges = np.array([lo, hi]) if nodes.shape[0] == 1 else nodes
            a, b = edges[:-1, None], edges[1:, None]
            half = (b - a) / 2.0
            # (cells, points) read row by row: each cell's rule in turn
            rules.append((((a + b) / 2.0 + half * gl_x).reshape(-1), (half * gl_w).reshape(-1)))
        return rules

    def quadrature(self, points_per_cell: int):
        """Tensor Gauss-Legendre rule exact per grid cell: (points as a ``TensorGrid``, log_weights)."""
        axis_pts, axis_w = zip(*self._axis_rules(points_per_cell))
        return TensorGrid(axis_pts), np.log(np.prod(_tensor_points(axis_w), axis=1))

    def log_axis_factors(self, points_per_cell: int) -> list:
        """Per axis, log(w_q phi_c(x_q)) over that axis's rule and elements: (Q_a, c_a), -inf off support.

        The quadrature-weighted basis table, entry (q, j) = w_q phi_j(x_q) in the
        order of ``quadrature`` and ``nodes``, is the Kronecker product of their
        exponentials.
        """
        return [
            np.log(w)[:, None] + self._axis_log_values(a, x)
            for a, (x, w) in enumerate(self._axis_rules(points_per_cell))
        ]


@dataclass(frozen=True)
class SieveDensity:
    """A point of the sieve: simplex coefficients over the basis elements."""

    basis: SieveBasis
    coefficients: np.ndarray

    def __post_init__(self):
        w = _clean_weights(self.coefficients, self.basis.m)
        object.__setattr__(self, "coefficients", _freeze(w))


def sieve_to_measure(d: SieveDensity) -> MixingMeasure:
    """Node representation of a sieve density, for distance reporting."""
    return MixingMeasure(d.basis.nodes, d.coefficients)
