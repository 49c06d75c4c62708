"""Bezier bases on the reference triangle and tetrahedron.

Reference conventions (vertex roles match the barycentric maps used by
the mesh module):

* triangle:    v1=(0,0), v2=(0,1), v3=(1,0) in (xi, eta);
  multi-index (i, j) carries exponents  v1: p-i-j,  v2: j,  v3: i.
* tetrahedron: v1=(0,0,0), v2=(0,0,1), v3=(0,1,0), v4=(1,0,0);
  multi-index (i, j, k) carries exponents v1: p-i-j-k, v2: k, v3: j, v4: i.

``polytopes(dim, rank)`` is the one local numbering of the vertices,
edges and faces, read by the mesh, the bases, the dof map and the
Dirichlet embedding alike.

``bezier_eval`` is the one entry point: it takes reference points and
is exact on the whole closed simplex, vertices and collapse lines
included.  Internally each base function factorizes into univariate
Bernstein functions of the collapsed (Duffy) coordinates, with
dual-number sweeps supplying their derivatives.  The chain rule's
1/(1 - c) is absorbed by the scaled-factor identity
B^n_i(c)/(1 - c) = n/(n - i) B^{n-1}_i(c), so no point is singular.
Collapsed coordinates stay private to this module and the quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, product
from operator import mul

import numpy as np

from .bernstein import eval_all
from .errors import DomainError

TRI_VERTICES = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
TET_VERTICES = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                         [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


@lru_cache(maxsize=None)
def polytopes(dim: int, rank: int):
    """The rank-``rank`` polytopes of the reference ``dim``-simplex, its
    ascending (rank + 1)-subsets of local vertices in lexicographic order:
    the paper's numbering of local vertices, edges and faces."""
    return tuple(combinations(range(dim + 1), rank + 1))


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


def duffy_forward(pts) -> np.ndarray:
    """Collapsed coordinates (n, d) -> reference simplex coordinates:
    coordinate d is scaled by (1 - c_0) ... (1 - c_{d-1})."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    scale = np.cumprod(np.hstack([np.ones((len(pts), 1)), 1.0 - pts[:, :-1]]), axis=1)
    return pts * scale


def _collapse_denominators(pts: np.ndarray) -> np.ndarray:
    """1, 1 - x_0, 1 - x_0 - x_1, ... (n, dim): what the inverse Duffy map
    divides coordinate d by."""
    dens = [np.ones(len(pts))]
    for d in range(pts.shape[1] - 1):
        dens.append(dens[-1] - pts[:, d])
    return np.stack(dens, axis=1)


def collapsed_safe(simplex_pts: np.ndarray, dim: int) -> np.ndarray:
    """Inverse Duffy map with singular denominators filled by zero.

    Exact for ``bezier_eval``: its values and gradients are polynomials
    in the collapsed coordinates that, where a denominator vanishes, do
    not depend on the coordinate it divides, so the fill value is
    irrelevant.  Out-of-range round-off is clipped.
    """
    pts = np.atleast_2d(np.asarray(simplex_pts, dtype=float))[:, :dim]
    den = _collapse_denominators(pts)
    ok = den > 1e-14
    return np.clip(np.where(ok, pts / np.where(ok, den, 1.0), 0.0), 0.0, 1.0)


def traversal_order(p: int, dim: int):
    """Multi-indices in the Duffy-induced traversal order (``index_tuples``)."""
    if dim not in (2, 3):
        raise DomainError(f"dim must be 2 or 3, got {dim}")
    return [(MultiIndex2 if dim == 2 else MultiIndex3)(p, *t) for t in index_tuples(p, dim)]


def classify(mi) -> Polytope:
    """Polytope owning one base function: the span of its support vertices."""
    exps = mi.exponents
    support = tuple(v for v, e in enumerate(exps) if e > 0)
    n = len(support)
    kind = "cell" if n == len(exps) else {1: "vertex", 2: "edge", 3: "face"}[n]
    return Polytope(kind, support)


@dataclass
class H1ShapeSet:
    """Scalar basis data at a batch of points: values (n, nb), reference
    gradients (n, nb, dim), in traversal order."""

    p: int
    values: np.ndarray
    grads: np.ndarray


@lru_cache(maxsize=None)
def _sweep_columns(p: int, dim: int):
    """Where the sweep reads each function's univariate factors: per axis
    (rows of the (dim, nb) arrays) the column of its factor B^n_i, the
    column of B^{n-1}_i and the scale n/(n - i) (0 where i = n) that make
    B^n_i/(1 - c), and the lowest degree (dim,) tabulated.

    Axis d of the multi-index idx is a Bernstein function of degree
    n = p - idx[0] - ... - idx[d-1] at position i = idx[d]; the tables of
    degrees lo..p sit side by side, degree q from column
    (q(q+1) - lo(lo+1))/2 on.
    """
    idx = np.array(index_tuples(p, dim)).reshape(-1, dim)
    deg = p - np.cumsum(idx, axis=1) + idx
    lo = np.maximum(deg.min(axis=0) - 1, 0)
    start = deg * (deg + 1) // 2 - lo * (lo + 1) // 2
    top = deg > idx
    lowered = np.where(top, start - deg + idx, 0)
    scale = np.where(top, deg / np.maximum(deg - idx, 1), 0.0)
    return (start + idx).T, lowered.T, scale.T, lo


def bezier_eval(p: int, dim: int, x) -> H1ShapeSet:
    """All degree-``p`` base functions of the reference triangle (dim 2)
    or tetrahedron (dim 3) and their reference gradients at the
    reference points ``x`` (n, dim), anywhere on the closed simplex.

    Each function is a product of univariate Bernstein factors B_d of the
    collapsed coordinates c_d, whose values and derivatives B'_d come
    from one dual-number sweep per degree.  The chain rule through the
    Duffy map is folded into the factors, so nothing is divided:

        grad b = sum_d prod_{e<d} B~_e B'_d prod_{e>d} B_e (c_d, .., c_d, 1, 0, ..)

    with the 1 in slot d and the scaled factor
    B~_e = B^n_i(c_e)/(1 - c_e) = n/(n - i) B^{n-1}_i(c_e), set to 0 for
    i = n, where every later factor is constant.
    """
    if p < 1:
        raise DomainError(f"bezier_eval needs p >= 1, got {p}")
    c = collapsed_safe(x, dim)
    cols, lowered, scale, lo = _sweep_columns(p, dim)
    vals, ders, scaled = [], [], []
    for d in range(dim):
        rows = [eval_all(q, c[:, d]) for q in range(lo[d], p + 1)]
        table = np.concatenate([r.values for r in rows], axis=1)
        vals.append(np.take(table, cols[d], axis=1))
        ders.append(np.take(np.concatenate([r.derivs for r in rows], axis=1),
                            cols[d], axis=1))
        scaled.append(np.take(table, lowered[d], axis=1) * scale[d])
    grads = np.zeros(vals[0].shape + (dim,))
    for d in range(dim):
        term = reduce(mul, scaled[:d] + [ders[d]] + vals[d + 1:])
        grads[:, :, :d] += term[:, :, None] * c[:, None, d:d + 1]
        grads[:, :, d] += term
    return H1ShapeSet(p, reduce(mul, vals), grads)


@lru_cache(maxsize=None)
def index_tuples(p: int, dim: int):
    """The degree-p multi-indices as plain tuples in the Duffy-induced
    traversal order, cached: lexicographic, outermost index first ((i, j)
    with i outer; (i, j, k) with i outer, k inner).  On every edge the
    induced order runs from the lower to the higher vertex index."""
    return tuple(t for t in product(range(p + 1), repeat=dim) if sum(t) <= p)


@lru_cache(maxsize=None)
def index_position(p: int, dim: int):
    """Map index tuple -> position in traversal order, cached."""
    return {t: n for n, t in enumerate(index_tuples(p, dim))}
