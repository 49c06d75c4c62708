"""Bezier bases on the reference triangle and tetrahedron.

Reference conventions (vertex roles match the barycentric maps used by
the mesh module):

* triangle:    v1=(0,0), v2=(0,1), v3=(1,0) in (xi, eta);
  multi-index (i, j) carries exponents  v1: p-i-j,  v2: j,  v3: i.
* tetrahedron: v1=(0,0,0), v2=(0,0,1), v3=(0,1,0), v4=(1,0,0);
  multi-index (i, j, k) carries exponents v1: p-i-j-k, v2: k, v3: j, v4: i.

Evaluation is factorized through the collapsed (Duffy) coordinates, with
dual-number sweeps supplying the univariate derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul

import numpy as np

from .bernstein import eval_all
from .errors import DomainError, SingularCollapse

COLLAPSE_TOL = 1e-12

TRI_VERTICES = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
TET_VERTICES = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                         [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])

# local vertex pairs/triples (0-based, ascending) in the paper's numbering
TRI_EDGES = ((0, 1), (0, 2), (1, 2))
TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
TET_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


@dataclass(frozen=True)
class MultiIndex2:
    p: int
    i: int
    j: int

    def __post_init__(self):
        if min(self.i, self.j) < 0 or self.i + self.j > self.p:
            raise DomainError(f"invalid triangle multi-index {(self.i, self.j)} for p={self.p}")

    @property
    def exponents(self):
        """Barycentric exponents by local vertex (v1, v2, v3)."""
        return (self.p - self.i - self.j, self.j, self.i)


@dataclass(frozen=True)
class MultiIndex3:
    p: int
    i: int
    j: int
    k: int

    def __post_init__(self):
        if min(self.i, self.j, self.k) < 0 or self.i + self.j + self.k > self.p:
            raise DomainError(
                f"invalid tetrahedron multi-index {(self.i, self.j, self.k)} for p={self.p}")

    @property
    def exponents(self):
        """Barycentric exponents by local vertex (v1, v2, v3, v4)."""
        return (self.p - self.i - self.j - self.k, self.k, self.j, self.i)


@dataclass(frozen=True)
class Polytope:
    """A vertex, edge, face or cell of the reference simplex."""

    kind: str                 # "vertex" | "edge" | "face" | "cell"
    vertices: tuple           # ascending local vertex indices, 0-based

    @property
    def name(self) -> str:
        tag = {"vertex": "v", "edge": "e", "face": "f", "cell": "c"}[self.kind]
        return tag + "".join(str(v + 1) for v in self.vertices)


@dataclass(frozen=True)
class CollapsedPoint:
    """Point in the collapsed unit square/cube, components in [0, 1]."""

    coords: tuple

    def __post_init__(self):
        if any(c < 0.0 or c > 1.0 for c in self.coords):
            raise DomainError(f"collapsed coordinates {self.coords} outside [0,1]")


def _points(cp) -> np.ndarray:
    """A CollapsedPoint or an array of points as an (n, dim) float array."""
    return np.atleast_2d(np.asarray(cp.coords if isinstance(cp, CollapsedPoint) else cp,
                                    dtype=float))


def duffy_forward(cp) -> np.ndarray:
    """Collapsed coordinates -> reference simplex coordinates.

    Accepts a CollapsedPoint or an (n, d) array; returns matching shape.
    Coordinate d is scaled by (1 - c_0) ... (1 - c_{d-1}).
    """
    pts = _points(cp)
    scale = np.cumprod(np.hstack([np.ones((len(pts), 1)), 1.0 - pts[:, :-1]]), axis=1)
    out = pts * scale
    if isinstance(cp, CollapsedPoint) or np.asarray(cp).ndim == 1:
        return out[0]
    return out


def _collapse_denominators(pts: np.ndarray) -> np.ndarray:
    """1, 1 - x_0, 1 - x_0 - x_1, ... (n, dim): what the inverse Duffy map
    divides coordinate d by."""
    dens = [np.ones(len(pts))]
    for d in range(pts.shape[1] - 1):
        dens.append(dens[-1] - pts[:, d])
    return np.stack(dens, axis=1)


def duffy_inverse(pt) -> np.ndarray:
    """Reference simplex coordinates -> collapsed coordinates.

    Raises SingularCollapse when a collapse denominator (1-xi, or
    1-xi-eta in 3D) falls below 1e-14.
    """
    pts = np.atleast_2d(np.asarray(pt, dtype=float))
    den = _collapse_denominators(pts)
    if np.any(den < 1e-14):
        raise SingularCollapse("duffy inverse undefined at xi = 1 or xi + eta = 1")
    out = pts / den
    if np.asarray(pt).ndim == 1:
        return out[0]
    return out


def collapsed_safe(simplex_pts: np.ndarray, dim: int) -> np.ndarray:
    """Inverse Duffy map with singular denominators filled by zero.

    Exact for base-function *values*: wherever a denominator vanishes the
    corresponding univariate factor is constant, so the fill value is
    irrelevant.  Out-of-range round-off is clipped.
    """
    pts = np.atleast_2d(np.asarray(simplex_pts, dtype=float))[:, :dim]
    den = _collapse_denominators(pts)
    ok = den > 1e-14
    return np.clip(np.where(ok, pts / np.where(ok, den, 1.0), 0.0), 0.0, 1.0)


def traversal_order(p: int, dim: int):
    """Multi-indices in the Duffy-induced traversal order.

    Outermost index first: (i, j) with i outer, and (i, j, k) with i
    outer, j middle, k inner.  On every edge the induced order runs from
    the lower to the higher vertex index.
    """
    if dim == 2:
        return [MultiIndex2(p, i, j) for i in range(p + 1) for j in range(p + 1 - i)]
    if dim == 3:
        return [MultiIndex3(p, i, j, k)
                for i in range(p + 1)
                for j in range(p + 1 - i)
                for k in range(p + 1 - i - j)]
    raise DomainError(f"dim must be 2 or 3, got {dim}")


def classify(mi) -> Polytope:
    """Polytope owning one base function: the span of its support vertices."""
    exps = mi.exponents
    support = tuple(v for v, e in enumerate(exps) if e > 0)
    kind = {1: "vertex", 2: "edge", 3: "face", 4: "cell"}[len(support)]
    if isinstance(mi, MultiIndex2) and len(support) == 3:
        kind = "cell"
    return Polytope(kind, support)


@dataclass
class H1ShapeSet:
    """Scalar basis data at a batch of points: values (n, nb), reference
    gradients (n, nb, dim), in traversal order."""

    p: int
    values: np.ndarray
    grads: np.ndarray


def n_basis(p: int, dim: int) -> int:
    return (p + 1) * (p + 2) // 2 if dim == 2 else (p + 1) * (p + 2) * (p + 3) // 6


@lru_cache(maxsize=None)
def _sweep_columns(p: int, dim: int):
    """Columns (dim, nb) that the sweep reads from the stacked univariate
    tables, one row per axis, and the lowest degree (dim,) of each axis.

    Axis d of the multi-index idx is a Bernstein function of degree
    p - idx[0] - ... - idx[d-1] at position idx[d]; the tables of degrees
    lo..p sit side by side, degree q from column (q(q+1) - lo(lo+1))/2 on.
    """
    idx = np.array(index_tuples(p, dim)).reshape(-1, dim)
    deg = p - np.cumsum(idx, axis=1) + idx
    lo = deg.min(axis=0)
    return (deg * (deg + 1) // 2 - lo * (lo + 1) // 2 + idx).T, lo


def _sweep(p: int, pts: np.ndarray):
    """Values (n, nb) and collapsed-coordinate partials (n, nb, dim) of
    the degree-``p`` basis at collapsed points (n, dim).

    Each function is a product of one univariate Bernstein factor per
    axis; ``eval_all`` supplies every factor's value and derivative in one
    dual-number sweep per degree.
    """
    cols, lo = _sweep_columns(p, pts.shape[1])
    vals, ders = [], []
    for d, col in enumerate(cols):
        rows = [eval_all(q, pts[:, d]) for q in range(lo[d], p + 1)]
        vals.append(np.take(np.concatenate([r.values for r in rows], axis=1), col, axis=1))
        ders.append(np.take(np.concatenate([r.derivs for r in rows], axis=1), col, axis=1))
    partials = [reduce(mul, vals[:d] + [ders[d]] + vals[d + 1:])
                for d in range(len(cols))]
    return reduce(mul, vals), np.stack(partials, axis=-1)


def _collapse_jacobian(pts: np.ndarray) -> np.ndarray:
    """Jacobian (n, dim, dim) of the inverse Duffy map at collapsed points:
    row d is the reference gradient of collapsed coordinate d."""
    n, dim = pts.shape
    scale = np.cumprod(np.hstack([np.ones((n, 1)), 1.0 / (1.0 - pts[:, :-1])]),
                       axis=1)
    rows = np.where(np.tri(dim, k=-1, dtype=bool), pts[:, :, None], np.eye(dim))
    return rows * scale[:, :, None]


def bezier_eval(p: int, dim: int, cp) -> H1ShapeSet:
    """All degree-``p`` base functions of the reference triangle (dim 2)
    or tetrahedron (dim 3) at collapsed points.

    ``cp`` is a CollapsedPoint or an (n, dim) array.  Gradients are taken
    with respect to the reference coordinates via the chain rule of the
    Duffy map; points with a collapse coordinate (all but the last) near
    1 are rejected.
    """
    pts = _points(cp)
    if p < 1:
        raise DomainError(f"bezier_eval needs p >= 1, got {p}")
    if np.any(pts[:, :-1] > 1.0 - COLLAPSE_TOL):
        raise SingularCollapse("gradient chain rule singular on a collapse line")
    values, partials = _sweep(p, pts)
    return H1ShapeSet(p, values, partials @ _collapse_jacobian(pts))


def bezier_tri_eval(p: int, cp) -> H1ShapeSet:
    """All triangle base functions of degree ``p`` at collapsed points."""
    return bezier_eval(p, 2, cp)


def bezier_tet_eval(p: int, cp) -> H1ShapeSet:
    """All tetrahedron base functions of degree ``p`` at collapsed points."""
    return bezier_eval(p, 3, cp)


def bezier_values(p: int, dim: int, simplex_pts: np.ndarray) -> np.ndarray:
    """Base-function values (n, nb) at arbitrary reference points.

    Uses the zero-filled collapsed map, which is exact for values even on
    the collapse lines; valid for p = 0 as well.
    """
    return _sweep(p, collapsed_safe(simplex_pts, dim))[0]


@lru_cache(maxsize=None)
def _lowering(p: int, dim: int):
    """Columns of the degree p-1 values, with a zero column appended
    last, that the degree-reduction identity reads for each degree-p
    function: (nb, dim) for idx - e_d and (nb,) for idx itself."""
    pos = index_position(p - 1, dim)
    zero = len(pos)
    down = [[pos.get(t[:d] + (t[d] - 1,) + t[d + 1:], zero) for d in range(dim)]
            for t in index_tuples(p, dim)]
    same = [pos.get(t, zero) for t in index_tuples(p, dim)]
    return np.array(down), np.array(same)


def bezier_gradients(p: int, dim: int, simplex_pts: np.ndarray) -> np.ndarray:
    """Reference gradients (n, nb, dim) at arbitrary reference points.

    Uses the degree-reduction identity (the xi-derivative of b^p_{ijk} is
    p (b^{p-1}_{i-1,j,k} - b^{p-1}_{ijk}), analogously for eta and zeta),
    so it is exact on the collapse lines where the Duffy chain rule is
    not.  Out-of-range lowered indices contribute zero.
    """
    pts = np.atleast_2d(np.asarray(simplex_pts, dtype=float))
    if p == 0:
        return np.zeros((pts.shape[0], 1, dim))
    low = bezier_values(p - 1, dim, pts)
    low = np.hstack([low, np.zeros((low.shape[0], 1))])
    down, same = _lowering(p, dim)
    return p * (np.take(low, down, axis=1) - np.take(low, same, axis=1)[:, :, None])


@lru_cache(maxsize=None)
def index_tuples(p: int, dim: int):
    """Traversal-ordered plain index tuples, cached."""
    if dim == 2:
        return tuple((mi.i, mi.j) for mi in traversal_order(p, 2))
    return tuple((mi.i, mi.j, mi.k) for mi in traversal_order(p, 3))


@lru_cache(maxsize=None)
def index_position(p: int, dim: int):
    """Map index tuple -> position in traversal order, cached."""
    return {t: n for n, t in enumerate(index_tuples(p, dim))}
