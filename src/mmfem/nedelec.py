"""H(curl)-conforming Nedelec bases of first and second type.

Base functions are built from the scalar Bezier basis by attaching
constant template vectors (second type) or combinations of the
lowest-order rotational functions (first type) to the functions of each
polytope, plus gradient families and, on tetrahedra, a non-gradient cell
family.  Every function carries the polytope it attaches to.  A
polytope's functions are listed by its own vertices alone (ascending),
so their order, the ordinals of ``dofmap.local_entities``, agrees in all
elements sharing it: the tangential trace is globally continuous.

One rule places the scalars of a polytope in both dimensions (``_index``):
given the exponents of the polytope's vertices after its first, the first
takes the rest of the degree, and the exponents e_v of the local vertices
v read as the multi-index (e_dim, .., e_1) of the simplex module.

``eval_vector_shapes`` is the one evaluator.  Every function is a sum
of one to three terms, each a scalar (a ``bezier_eval`` function or the
constant 1) times a vector (theta_c or e_d), or a scalar's gradient; one
cached flat term table per space lists them.  So a function costs a few
scalar-basis operations per point at every degree, the complexity of
the Bernstein-Bezier basis, and is exact on the closed simplex.

Trace conventions used throughout: on an edge from lower to higher local
vertex with reference tangent t, second-type edge functions satisfy
<t, theta> = b_m^p(alpha) where m is the exponent of the higher vertex;
first-type edge blocks trace to {1, d/dalpha b_m^{p+1}}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np

from .errors import DomainError
from .simplex import Polytope, bezier_eval, index_position, index_tuples, polytopes

E1_2D, E2_2D = np.eye(2)
E1, E2, E3 = np.eye(3)


@dataclass(frozen=True)
class SpaceDescriptor:
    """Finite element space: family, polynomial degree, simplex dimension."""

    family: str   # "nedelec1" | "nedelec2" | "h1"
    degree: int
    dim: int

    def __post_init__(self):
        for name in ("degree", "dim"):
            value = getattr(self, name)
            if not (isinstance(value, Real) and value % 1 == 0):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))   # 2.0 keys the caches as 2
        if self.family not in ("nedelec1", "nedelec2", "h1"):
            raise DomainError(f"unknown family {self.family!r}")
        min_deg = {"nedelec1": 0, "nedelec2": 1, "h1": 1}[self.family]
        if self.degree < min_deg:
            raise DomainError(f"{self.family} needs degree >= {min_deg}")
        if self.dim not in (2, 3):
            raise DomainError("dim must be 2 or 3")


@dataclass(frozen=True)
class VectorShapeFn:
    """One H(curl) base function on the reference simplex: the linear
    combination ``terms`` of (primitive, coefficient) pairs.

    Primitives are hashable tuples:
      ("theta", c)           lowest-order rotational function theta_c
      ("bvec", q, idx, d)    scalar b^q_idx times the unit vector e_d
      ("btheta", q, idx, c)  scalar b^q_idx times theta_c
      ("grad", q, idx)       gradient of the scalar b^q_idx

    ``kind`` only labels the construction ("lowest", "template",
    "lowest_template", "gradient" or "cell_nongrad"); evaluation reads
    ``terms`` alone.
    """

    kind: str
    polytope: Polytope
    terms: tuple


def _lowest(poly, c):
    return VectorShapeFn("lowest", poly, ((("theta", c), 1.0),))


def _template(poly, q, index, vec):
    """Scalar b^q_index times a constant vector."""
    return VectorShapeFn("template", poly,
                         tuple((("bvec", q, tuple(index), d), float(t))
                               for d, t in enumerate(vec) if t != 0.0))


def _lowest_template(poly, q, index, pairs):
    """Scalar b^q_index times a combination of lowest-order functions,
    given as (function index, coefficient) pairs."""
    return VectorShapeFn("lowest_template", poly,
                         tuple((("btheta", q, tuple(index), c), coeff)
                               for c, coeff in pairs))


def _gradient(poly, q, index):
    return VectorShapeFn("gradient", poly,
                         ((("grad", q, tuple(index)), 1.0),))


def lowest_order_tri(pts):
    """Values (n, 3, 2) and rots (3,) of the three lowest-order functions."""
    pts = np.atleast_2d(pts)
    xi, eta = pts[:, 0], pts[:, 1]
    n = pts.shape[0]
    vals = np.empty((n, 3, 2))
    vals[:, 0, 0] = eta
    vals[:, 0, 1] = 1.0 - xi
    vals[:, 1, 0] = 1.0 - eta
    vals[:, 1, 1] = xi
    vals[:, 2, 0] = eta
    vals[:, 2, 1] = -xi
    rots = np.array([-2.0, 2.0, -2.0])
    return vals, rots


def lowest_order_tet(pts):
    """Values (n, 6, 3) and curls (6, 3) of the six lowest-order functions."""
    pts = np.atleast_2d(pts)
    xi, eta, zeta = pts[:, 0], pts[:, 1], pts[:, 2]
    n = pts.shape[0]
    z = np.zeros(n)
    vals = np.empty((n, 6, 3))
    vals[:, 0] = np.stack([zeta, zeta, 1.0 - xi - eta], axis=1)
    vals[:, 1] = np.stack([eta, 1.0 - xi - zeta, eta], axis=1)
    vals[:, 2] = np.stack([1.0 - eta - zeta, xi, xi], axis=1)
    vals[:, 3] = np.stack([z, zeta, -eta], axis=1)
    vals[:, 4] = np.stack([zeta, z, -xi], axis=1)
    vals[:, 5] = np.stack([eta, -xi, z], axis=1)
    curls = np.array([[-2.0, 2.0, 0.0],
                      [2.0, 0.0, -2.0],
                      [0.0, -2.0, 2.0],
                      [-2.0, 0.0, 0.0],
                      [0.0, 2.0, 0.0],
                      [0.0, 0.0, -2.0]])
    return vals, curls


def _interior_1d(p):
    return range(1, p)


def _index(p, verts, exps, dim):
    """Degree-p scalar multi-index of the exponents ``exps`` on the
    vertices verts[1:] of a polytope, the rest p - sum(exps) on its first
    vertex verts[0], and 0 elsewhere: with e_v the exponent of local
    vertex v, the index (e_dim, .., e_1) of the simplex module."""
    e = [0] * (dim + 1)
    e[verts[0]] = p - sum(exps)
    for v, x in zip(verts[1:], exps):
        e[v] = x
    return tuple(e[:0:-1])


def _edge_templates(p, edge_vecs, dim):
    """Second-type edge blocks, by exponent m of the higher vertex: per
    edge of ``edge_vecs`` the lower-vertex template (m = 0), the interior
    one (m = 1..p-1) and the higher-vertex one (m = p)."""
    return [_template(Polytope("edge", e), p, _index(p, e, (m,), dim), vec)
            for e, (lo, mid, hi) in edge_vecs.items()
            for m, vec in enumerate([lo] + [mid] * (p - 1) + [hi])]


def _edge_gradients(p, dim):
    """First-type edge blocks: theta_n of the n-th edge, then the
    gradients of the degree p+1 scalars on the edge, by exponent m = 1..p
    of the higher vertex."""
    fns = []
    for n, e in enumerate(polytopes(dim, 1)):
        poly = Polytope("edge", e)
        fns.append(_lowest(poly, n))
        fns.extend(_gradient(poly, p + 1, _index(p + 1, e, (m,), dim))
                   for m in range(1, p + 1))
    return fns


def _face_interior(p):
    """(eb, ec) exponent pairs of face-interior scalars, canonical order."""
    return [(eb, ec) for ec in range(1, p) for eb in range(1, p - ec)]


def _face_templates(poly, p, dim, vecs):
    """Second-type face block (the cell block of a triangle): the edge-face
    families of edges (a,b), (a,c), (b,c), then two pure families over the
    face interior, with the five templates ``vecs`` in that order; each
    scalar is given by the exponents (eb, ec) of b and c (``_index``)."""
    vab, vac, vbc, pure1, pure2 = vecs
    blocks = ([((m, 0), vab) for m in _interior_1d(p)]
              + [((0, m), vac) for m in _interior_1d(p)]
              + [((p - m, m), vbc) for m in _interior_1d(p)]
              + [(exps, pure1) for exps in _face_interior(p)]
              + [(exps, pure2) for exps in _face_interior(p)])
    return [_template(poly, p, _index(p, poly.vertices, exps, dim), vec)
            for exps, vec in blocks]


def _face_lowest_templates(poly, p, dim, vb=-1.0):
    """First-type face block (the cell block of a triangle): lowest-order
    templates at vertices a and b, on the edges (a,b), (a,c), (b,c) and in
    the interior, then the gradients of the degree p+1 face-interior
    scalars.  With x, y, z the positions of the face's edges (a,b), (a,c),
    (b,c) in the cell's edge list (``simplex.polytopes(dim, 1)``), the templates
    are theta_z at a, vb theta_y at b (vb = +1 only for the triangle's
    cell), theta_z - theta_y, theta_x + theta_z and theta_x - theta_y on
    the edges and theta_x - theta_y + theta_z inside."""
    a, b, c = poly.vertices
    x, y, z = (polytopes(dim, 1).index(e) for e in ((a, b), (a, c), (b, c)))
    ab, ac, bc = [(z, 1.0), (y, -1.0)], [(x, 1.0), (z, 1.0)], [(x, 1.0), (y, -1.0)]
    blocks = ([((0, 0), [(z, 1.0)]), ((p, 0), [(y, vb)])]
              + [((m, 0), ab) for m in _interior_1d(p)]
              + [((0, m), ac) for m in _interior_1d(p)]
              + [((p - m, m), bc) for m in _interior_1d(p)]
              + [(exps, [(x, 1.0), (y, -1.0), (z, 1.0)]) for exps in _face_interior(p)])
    fns = [_lowest_template(poly, p, _index(p, poly.vertices, exps, dim), pairs)
           for exps, pairs in blocks]
    return fns + [_gradient(poly, p + 1, _index(p + 1, poly.vertices, exps, dim))
                  for exps in _face_interior(p + 1)]


# ---------------------------------------------------------------------------
# triangle bases

def nedelec2_tri(p: int):
    """Second-type triangle basis; (p+1)(p+2) functions."""
    if p < 1:
        raise DomainError("nedelec2 needs p >= 1")
    fns = _edge_templates(p, {(0, 1): (E2_2D, E2_2D, E1_2D + E2_2D),
                              (0, 2): (E1_2D, E1_2D, E1_2D + E2_2D),
                              (1, 2): (E1_2D, 0.5 * (E1_2D - E2_2D), -E2_2D)}, 2)
    return fns + _face_templates(Polytope("cell", (0, 1, 2)), p, 2,
                                 (-E1_2D, E2_2D, E1_2D + E2_2D, E2_2D, E1_2D))


def nedelec1_tri(p: int):
    """First-type triangle basis; (p+1)(p+3) functions."""
    if p < 0:
        raise DomainError("nedelec1 needs p >= 0")
    fns = _edge_gradients(p, 2)
    if p == 0:
        return fns
    return fns + _face_lowest_templates(Polytope("cell", (0, 1, 2)), p, 2, vb=1.0)


# ---------------------------------------------------------------------------
# tetrahedral bases

def _cell_interior(q):
    """Cell-interior degree-q scalar indices (i, j, k), traversal order."""
    return [(i, j, k) for i in range(1, q) for j in range(1, q - i)
            for k in range(1, q - i - j)]


def nedelec2_tet(p: int):
    """Second-type tetrahedral basis; (p+1)(p+2)(p+3)/2 functions."""
    if p < 1:
        raise DomainError("nedelec2 needs p >= 1")
    s = E1 + E2 + E3
    fns = _edge_templates(p, {
        (0, 1): (E3, E3, s), (0, 2): (E2, E2, s), (0, 3): (E1, E1, s),
        (1, 2): (E2, E2, -E3), (1, 3): (E1, E1, -E3), (2, 3): (E1, E1, -E2),
    }, 3)
    face_vecs = {
        (0, 1, 2): (-E2, E3, s, E3, E2),
        (0, 1, 3): (-E1, E3, s, E3, E1),
        (0, 2, 3): (-E1, E2, s, E2, E1),
        (1, 2, 3): (-E1, E2, -E3, E2, E1),
    }
    for f in polytopes(3, 2):
        fns += _face_templates(Polytope("face", f), p, 3, face_vecs[f])

    # cell block: four face-cell families then three interior families
    pairs = [(i, j) for i in range(1, p) for j in range(1, p - i)]
    blocks = ([((0, j, k), -E1) for j, k in pairs] + [((i, 0, k), E2) for i, k in pairs]
              + [((i, j, 0), -E3) for i, j in pairs]
              + [((i, j, p - i - j), s) for i, j in pairs]
              + [(idx, vec) for vec in (E3, E2, E1) for idx in _cell_interior(p)])
    cell = Polytope("cell", (0, 1, 2, 3))
    return fns + [_template(cell, p, idx, vec) for idx, vec in blocks]


def nedelec1_tet(p: int):
    """First-type tetrahedral basis; (p+4)(p+3)(p+1)/2 functions."""
    if p < 0:
        raise DomainError("nedelec1 needs p >= 0")
    fns = _edge_gradients(p, 3)
    if p == 0:
        return fns
    for f in polytopes(3, 2):
        fns += _face_lowest_templates(Polytope("face", f), p, 3)

    # non-gradient cell families (restricted construction, degree q = p+2):
    # q b^{q-1} e_axis - c grad b^q, then the gradients of degree p+1
    q, inner = p + 2, _cell_interior(p + 2)
    nongrad = ([(0, (i - 1, j, k), (i, j, k), i / q) for i, j, k in inner]
               + [(1, (i, j - 1, k), (i, j, k), j / q) for i, j, k in inner]
               + [(2, (i, j, 0), (i, j, 1), 1.0 / q) for i, j, k in inner if k == 1])
    cell = Polytope("cell", (0, 1, 2, 3))
    fns += [VectorShapeFn("cell_nongrad", cell, ((("bvec", q - 1, vidx, axis), float(q)),
                                                  (("grad", q, gidx), -c)))
            for axis, vidx, gidx, c in nongrad]
    return fns + [_gradient(cell, p + 1, idx) for idx in _cell_interior(p + 1)]


@lru_cache(maxsize=None)
def build_basis(space: SpaceDescriptor):
    """Reference basis function list for an H(curl) space, cached."""
    if space.family == "nedelec2":
        return tuple(nedelec2_tri(space.degree) if space.dim == 2
                     else nedelec2_tet(space.degree))
    if space.family == "nedelec1":
        return tuple(nedelec1_tri(space.degree) if space.dim == 2
                     else nedelec1_tet(space.degree))
    raise DomainError("build_basis handles H(curl) families only")


@dataclass
class VectorShapeSet:
    """Vector basis data at a batch of points: values (n, nb, dim) and
    reference curls (n, nb) in 2D (the scalar rot) or (n, nb, 3)."""

    values: np.ndarray
    curls: np.ndarray


def _term(prim, start, dim):
    """Scalar column, vector column and gradient flag of one primitive;
    ``start`` maps a scalar degree to its first scalar column."""
    n_theta = 3 if dim == 2 else 6
    if prim[0] == "theta":
        return 0, prim[1], False
    scol = start[prim[1]] + index_position(prim[1], dim)[prim[2]]
    if prim[0] == "grad":
        return scol, n_theta + dim, True
    return scol, prim[3] + (n_theta if prim[0] == "bvec" else 0), False


@lru_cache(maxsize=None)
def _terms(space: SpaceDescriptor):
    """The flat term table of the basis of ``space``, function by function:
    the scalar degrees used, each term's coefficient, scalar column,
    vector column and gradient flag, and each function's first term.

    Scalar columns index the ``bezier_eval`` tables of the degrees side
    by side after column 0, the constant 1 of a lowest-order term; vector
    columns index theta_0, theta_1, .., e_0, .., e_{dim-1}, then the zero
    vector of a gradient term.
    """
    fns = build_basis(space)
    terms = [term for fn in fns for term in fn.terms]
    degrees = sorted({prim[1] for prim, _ in terms if prim[0] != "theta"})
    sizes = [len(index_tuples(q, space.dim)) for q in degrees]
    start = dict(zip(degrees, np.cumsum([1] + sizes)))
    rows = [(coeff, *_term(prim, start, space.dim)) for prim, coeff in terms]
    coeff, scol, vcol, grad = (np.array(col) for col in zip(*rows))
    first = np.cumsum([0] + [len(fn.terms) for fn in fns[:-1]])
    return degrees, coeff, scol, vcol, grad, first


def _cross(g, v):
    """g x v over the leading (component) axis, one component in 2D: the
    curl of b v for a constant v."""
    if len(g) == 2:
        return g[:1] * v[1:] - g[1:] * v[:1]
    return np.stack([g[1] * v[2] - g[2] * v[1], g[2] * v[0] - g[0] * v[2],
                     g[0] * v[1] - g[1] * v[0]])


def eval_vector_shapes(space: SpaceDescriptor, x) -> VectorShapeSet:
    """Values (n, nb, dim) and reference curls of the basis of ``space``
    at the reference points x (n, dim), anywhere on the closed simplex.

    Each term of the flat table (``_terms``) is a scalar b from
    ``bezier_eval`` and a vector v, evaluated as coeff (b v + g grad b)
    with curl coeff (b curl v + grad b x v), component-major; one
    ``np.add.reduceat`` sums the terms of each function.  Curls are
    (n, nb) in 2D (the scalar rot) and (n, nb, 3) in 3D; gradient-kind
    functions report exactly zero curl.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    degrees, coeff, scol, vcol, grad, first = _terms(space)
    n, dim = x.shape
    theta, rot = lowest_order_tri(x) if dim == 2 else lowest_order_tet(x)
    rot = rot.reshape(len(rot), -1)       # 2D rots as (3, 1)
    tabs = [bezier_eval(q, dim, x) for q in degrees]
    b = np.vstack([np.ones((1, n))] + [t.values.T for t in tabs])[scol]
    gb = np.hstack([np.zeros((dim, 1, n))] + [t.grads.T for t in tabs])[:, scol]
    units = np.broadcast_to(np.eye(dim, dim + 1)[..., None], (dim, dim + 1, n))
    v = np.hstack([theta.T, units])[:, vcol]
    curl_v = np.vstack([rot, np.zeros((dim + 1, rot.shape[1]))]).T[:, vcol, None]
    c = coeff[:, None]
    values = np.add.reduceat(c * (b * v + grad[:, None] * gb), first, axis=1)
    curls = np.add.reduceat(c * (b * curl_v + _cross(gb, v)), first, axis=1)
    # back to C-ordered (n, nb, component) tables, the layout callers' einsums read
    values, curls = np.ascontiguousarray(values.T), np.ascontiguousarray(curls.T)
    return VectorShapeSet(values, curls[..., 0] if dim == 2 else curls)
