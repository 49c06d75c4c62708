"""Hierarchical embedding of Dirichlet data.

Vertices are evaluated directly; edges solve small 1D problems against
the known univariate traces; faces solve surface problems in the mixed
tangent frame T = [g1, g2, n].  Because the Bernstein basis is not
hierarchical the levels must run vertex -> edge -> face, with each level
moving the already-fixed values to the right-hand side.

The H(curl) projections realize the consistent coupling condition: the
tangential trace of the microdistortion row is matched to the tangential
part of the prescribed displacement gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bernstein import eval_all
from .dofmap import DofMap
from .errors import DegenerateFace, SingularEdge
from .mesh import Mesh
from .nedelec import SpaceDescriptor, build_basis, eval_vector_shapes
from .quadrature import _gauss01, rule_for
from .simplex import (TET_VERTICES, bezier_eval, duffy_inverse,
                      index_position, traversal_order)

_GAUSS_FLOOR = 24   # headroom for oscillatory boundary data on coarse meshes


@dataclass
class ConstraintSet:
    """Ordered dof -> value map."""

    values: dict = field(default_factory=dict)

    def set(self, dof, value):
        self.values[int(dof)] = float(value)

    def merge(self, other: "ConstraintSet"):
        self.values.update(other.values)
        return self

    def __len__(self):
        return len(self.values)

    def items(self):
        return self.values.items()


def _edge_geometry(mesh, e):
    va, vb = mesh.edges[e]
    xa, xb = mesh.vertices[va], mesh.vertices[vb]
    t = xb - xa
    nt = np.linalg.norm(t)
    if nt < 1e-14:
        raise SingularEdge(f"edge {e} has zero length")
    return xa, xb, t, nt


def _collect_entities(mesh, facet_groups):
    """Per group: facet list plus the vertices/edges they touch, each
    entity reported once globally (first group wins)."""
    seen_v, seen_e, seen_f = set(), set(), set()
    lookup = mesh.edge_lookup() if mesh.dim == 3 else None
    out = []
    for facets, payload in facet_groups:
        verts, edgs, fcs = [], [], []
        for f in np.asarray(facets, dtype=int):
            fv = [int(v) for v in mesh.facet_vertices(f)]
            for v in fv:
                if v not in seen_v:
                    seen_v.add(v)
                    verts.append(v)
            if mesh.dim == 2:
                if f not in seen_e:
                    seen_e.add(f)
                    edgs.append(int(f))
            else:
                if f not in seen_f:
                    seen_f.add(f)
                    fcs.append(int(f))
                for pair in ((fv[0], fv[1]), (fv[0], fv[2]), (fv[1], fv[2])):
                    e = lookup[pair]
                    if e not in seen_e:
                        seen_e.add(e)
                        edgs.append(e)
        out.append((verts, edgs, fcs, payload))
    return out


# ---------------------------------------------------------------------------
# H1 field

def vertex_values(mesh: Mesh, dofmap: DofMap, verts, ufunc, cons, comp_offset=0,
                  comp=0):
    for v in verts:
        val = np.asarray(ufunc(mesh.vertices[v][None, :]), dtype=float).reshape(-1)
        cons.set(comp_offset + dofmap.vertex_dof(v), val[comp] if val.size > 1
                 else val[0])


@lru_cache(maxsize=None)
def _edge_h1_ref(q):
    """Edge Gauss rule and Bernstein derivatives (ng, q+1) at degree q."""
    a, w = _gauss01(max(q + 2, _GAUSS_FLOOR))
    return a, w, eval_all(q, a).derivs


def edge_h1_projection(mesh: Mesh, dofmap: DofMap, e, gradfunc, cons,
                       comp_offset=0, comp=0):
    """Interior edge dofs from the 1D tangential-stiffness problem; vertex
    dofs must already be present in ``cons``."""
    q = dofmap.space.degree
    if q < 2:
        return
    xa, xb, t, nt = _edge_geometry(mesh, e)
    a, w, dn = _edge_h1_ref(q)
    grads = np.asarray(gradfunc(xa[None, :] + a[:, None] * t[None, :]), dtype=float)
    if grads.ndim == 3:
        grads = grads[:, comp, :]
    tgrad = grads @ t                    # <t, grad u~>

    k = np.einsum("q,qa,qb->ab", w / nt, dn, dn)
    f = np.einsum("q,qa->a", w / nt, dn * tgrad[:, None])
    va, vb = mesh.edges[e]
    v0 = cons.values[comp_offset + dofmap.vertex_dof(va)]
    v1 = cons.values[comp_offset + dofmap.vertex_dof(vb)]
    rhs = f[1:q] - k[1:q, 0] * v0 - k[1:q, q] * v1
    sol = np.linalg.solve(k[1:q, 1:q], rhs)
    for ordinal, val in enumerate(sol):
        cons.set(comp_offset + dofmap.edge_dofs(e)[ordinal], val)


def _face_frame(mesh, f):
    """Chart x(xi2, eta2) = xa + xi2 (xc - xa) + eta2 (xb - xa) and the
    mixed transformation data of the face."""
    fa, fb, fc = mesh.faces[f]
    xa, xb, xc = mesh.vertices[fa], mesh.vertices[fb], mesh.vertices[fc]
    g1 = xc - xa
    g2 = xb - xa
    n = np.cross(g1, g2)
    det_t = float(n @ n)
    if det_t < 1e-28:
        raise DegenerateFace(f"face {f} has zero area")
    T = np.stack([g1, g2, n], axis=1)
    tinv_t = np.linalg.inv(T).T
    tstar = tinv_t[:, :2]                # [g^1, g^2]
    return (fa, fb, fc), xa, g1, g2, tstar, det_t


def _face_cell_context(mesh, f):
    """Owning cell of a boundary face and the local vertices (a, b, c) of
    the face in it."""
    cell = mesh.face_cell(f)
    loc_of = {int(g): i for i, g in enumerate(mesh.cells[cell])}
    return cell, tuple(loc_of[int(v)] for v in mesh.faces[f])


@lru_cache(maxsize=None)
def _face_h1_ref(q):
    """Face rule and 2D Bernstein gradients at degree q."""
    rule = rule_for(2, min(max(2 * q + 2, 14), 20))
    return rule, bezier_eval(q, 2, rule.points).grads


def face_h1_projection(mesh: Mesh, dofmap: DofMap, f, gradfunc, cons,
                       comp_offset=0, comp=0):
    """Interior face dofs from the surface-gradient problem; vertex and
    edge dofs must already be present."""
    q = dofmap.space.degree
    if q < 3:
        return
    (fa, fb, fc), xa, g1, g2, tstar, det_t = _face_frame(mesh, f)
    rule, grads2 = _face_h1_ref(q)
    pts2 = rule.simplex_points
    surf = np.einsum("de,qne->qnd", tstar, grads2)   # (nq, nb2, 3)

    xq = xa[None, :] + np.outer(pts2[:, 0], g1) + np.outer(pts2[:, 1], g2)
    grads = np.asarray(gradfunc(xq), dtype=float)
    if grads.ndim == 3:
        grads = grads[:, comp, :]

    w = rule.weights * np.sqrt(det_t)
    k = np.einsum("q,qnd,qmd->nm", w, surf, surf)
    rhs = np.einsum("q,qnd,qd->n", w, surf, grads)

    # columns of the 2D basis keyed by global dof (vertices, edges, interior)
    known, interior = [], []
    pos2 = index_position(q, 2)
    edge_of = _face_edge_map(mesh, f)
    for mi in traversal_order(q, 2):
        col = pos2[(mi.i, mi.j)]
        exps = mi.exponents            # (a, b, c) roles on the face
        on = tuple(v for v, e in enumerate(exps) if e > 0)
        if len(on) == 1:
            gdof = dofmap.vertex_dof((fa, fb, fc)[on[0]])
            known.append((col, cons.values[comp_offset + gdof]))
        elif len(on) == 2:
            e = edge_of[on]
            hi = on[1]
            gdof = dofmap.edge_dofs(e)[exps[hi] - 1]
            known.append((col, cons.values[comp_offset + gdof]))
        else:
            interior.append(col)
    for col, val in known:
        rhs -= k[:, col] * val
    sol = np.linalg.solve(k[np.ix_(interior, interior)], rhs[interior])
    fdofs = dofmap.face_dofs(f)
    for ordinal, val in enumerate(sol):
        cons.set(comp_offset + fdofs[ordinal], val)


def _face_edge_map(mesh, f):
    """role pair (within a,b,c) -> global edge id for the face's edges."""
    fa, fb, fc = (int(v) for v in mesh.faces[f])
    lookup = mesh.edge_lookup()
    return {(0, 1): lookup[(fa, fb)], (0, 2): lookup[(fa, fc)],
            (1, 2): lookup[(fb, fc)]}


def h1_dirichlet(mesh: Mesh, dofmap: DofMap, groups, n_comps=1,
                 comp_stride=None) -> ConstraintSet:
    """Hierarchical H1 embedding.

    ``groups`` is a list of (facet_ids, ufunc, gradfunc); for vector
    fields the callbacks return (n, n_comps) values and (n, n_comps, dim)
    gradients and each component is constrained independently with
    stride ``comp_stride`` (defaults to the scalar dof count).
    """
    stride = comp_stride if comp_stride is not None else dofmap.n_dofs
    cons = ConstraintSet()
    staged = _collect_entities(mesh, [(facets, (uf, gf)) for facets, uf, gf
                                      in groups])
    for comp in range(n_comps):
        off = comp * stride
        for verts, _, _, (uf, _) in staged:
            vertex_values(mesh, dofmap, verts, uf, cons, off, comp)
    for comp in range(n_comps):
        off = comp * stride
        for _, edgs, _, (_, gf) in staged:
            for e in edgs:
                edge_h1_projection(mesh, dofmap, e, gf, cons, off, comp)
    for comp in range(n_comps):
        off = comp * stride
        for _, _, fcs, (_, gf) in staged:
            for f in fcs:
                face_h1_projection(mesh, dofmap, f, gf, cons, off, comp)
    return cons


# ---------------------------------------------------------------------------
# H(curl) field: consistent coupling projections

def _edge_trace_matrix(space: SpaceDescriptor, a):
    """Tangential traces (nq, p+1) of an edge dof block at parameters a,
    identical for every edge by the template construction."""
    p = space.degree
    if space.family == "nedelec2":
        return eval_all(p, a).values
    cols = [np.ones_like(a)]
    dn = eval_all(p + 1, a).derivs
    for m in range(1, p + 1):
        cols.append(dn[:, m])
    return np.stack(cols, axis=1)


@lru_cache(maxsize=None)
def _edge_hcurl_ref(space: SpaceDescriptor):
    """Edge Gauss rule and tangential traces of an edge dof block."""
    a, w = _gauss01(max(space.degree + 3, _GAUSS_FLOOR))
    return a, w, _edge_trace_matrix(space, a)


def edge_hcurl_projection(mesh: Mesh, dofmap: DofMap, e, gradfunc, cons,
                          comp_offset=0, comp=0):
    """All dofs of one edge from the 1D consistent-coupling problem
    <p, t> = <grad u~, t>."""
    xa, xb, t, nt = _edge_geometry(mesh, e)
    a, w, tr = _edge_hcurl_ref(dofmap.space)
    grads = np.asarray(gradfunc(xa[None, :] + a[:, None] * t[None, :]), dtype=float)
    if grads.ndim == 3:
        grads = grads[:, comp, :]
    tgrad = grads @ t

    k = np.einsum("q,qa,qb->ab", w * nt, tr, tr)
    f = np.einsum("q,qa->a", w * nt, tr * tgrad[:, None])
    sol = np.linalg.solve(k, f)
    edofs = dofmap.edge_dofs(e)
    for ordinal, val in enumerate(sol):
        cons.set(comp_offset + edofs[ordinal], val)


@lru_cache(maxsize=None)
def _face_trace_ref(space: SpaceDescriptor, face_locals, rule_degree):
    """Reference-face traces of the basis functions supported on the face
    with local vertices (a, b, c), identical for every face with that
    local position.

    Returns (basis functions, trace (nq, nfn, 2), rot (nq, nfn)).
    """
    la, lb, lc = face_locals
    Va, Vb, Vc = TET_VERTICES[la], TET_VERTICES[lb], TET_VERTICES[lc]
    dphi = np.stack([Vc - Va, Vb - Va], axis=1)   # (3, 2)
    fns = build_basis(space)
    keep = [l for l, fn in enumerate(fns)
            if set(fn.polytope.vertices) <= set(face_locals)]
    ref3 = Va[None, :] + rule_for(2, rule_degree).simplex_points @ dphi.T
    vs = eval_vector_shapes(space, np.clip(duffy_inverse(ref3), 0.0, 1.0))
    trace = np.einsum("de,qnd->qne", dphi, vs.values[:, keep])
    normal = np.cross(dphi[:, 0], dphi[:, 1])
    rot = np.einsum("d,qnd->qn", normal, vs.curls[:, keep])
    return tuple(fns[l] for l in keep), trace, rot


def _face_trace_shapes(mesh, dofmap, f, rule):
    """Reference-face traces of every basis function supported on face f.

    Returns (trace (nq, nfn, 2), rot (nq, nfn), dof ids, is_face_dof).
    """
    cell, face_locals = _face_cell_context(mesh, f)
    fns, trace, rot = _face_trace_ref(dofmap.space, face_locals, rule.degree)
    gdofs, is_face = [], []
    edge_index = mesh.edge_lookup()
    cv = mesh.cells[cell]
    for fn in fns:
        if fn.polytope.kind == "edge":
            ge = edge_index[tuple(sorted(int(cv[v]) for v in fn.polytope.vertices))]
            gdofs.append(dofmap.edge_dofs(ge)[fn.ordinal])
            is_face.append(False)
        else:
            gdofs.append(dofmap.face_dofs(f)[fn.ordinal])
            is_face.append(True)
    return trace, rot, np.asarray(gdofs), np.asarray(is_face, dtype=bool)


def face_hcurl_projection(mesh: Mesh, dofmap: DofMap, f, gradfunc, cons,
                          comp_offset=0, comp=0):
    """Face dofs from the surface H(rot) problem; edge dofs must already
    be present and are moved to the right-hand side."""
    space = dofmap.space
    p = space.degree
    if dofmap.per_face == 0:
        return
    (fa, fb, fc), xa, g1, g2, tstar, det_t = _face_frame(mesh, f)
    rule = rule_for(2, min(max(2 * (p + 2) + 2, 14), 20))
    trace, rot, gdofs, is_face = _face_trace_shapes(mesh, dofmap, f, rule)

    phys = np.einsum("de,qne->qnd", tstar, trace)
    sq = np.sqrt(det_t)
    w = rule.weights * sq
    k = (np.einsum("q,qnd,qmd->nm", w, phys, phys)
         + np.einsum("q,qn,qm->nm", rule.weights / sq, rot, rot))

    xq = xa[None, :] + np.outer(rule.simplex_points[:, 0], g1) \
        + np.outer(rule.simplex_points[:, 1], g2)
    grads = np.asarray(gradfunc(xq), dtype=float)
    if grads.ndim == 3:
        grads = grads[:, comp, :]
    rhs = np.einsum("q,qnd,qd->n", w, phys, grads)

    known = np.flatnonzero(~is_face)
    for idx in known:
        rhs -= k[:, idx] * cons.values[comp_offset + int(gdofs[idx])]
    own = np.flatnonzero(is_face)
    sol = np.linalg.solve(k[np.ix_(own, own)], rhs[own])
    for idx, val in zip(own, sol):
        cons.set(comp_offset + int(gdofs[idx]), val)


def hcurl_dirichlet(mesh: Mesh, dofmap: DofMap, groups, n_comps=1,
                    comp_stride=None, comp_offset0=0) -> ConstraintSet:
    """Consistent-coupling embedding for an H(curl) space.

    ``groups`` is a list of (facet_ids, gradfunc); gradfunc returns the
    prescribed displacement gradient rows, (n, dim) or (n, n_comps, dim).
    """
    stride = comp_stride if comp_stride is not None else dofmap.n_dofs
    cons = ConstraintSet()
    staged = _collect_entities(mesh, list(groups))
    for comp in range(n_comps):
        off = comp_offset0 + comp * stride
        for _, edgs, _, gf in staged:
            for e in edgs:
                edge_hcurl_projection(mesh, dofmap, e, gf, cons, off, comp)
    for comp in range(n_comps):
        off = comp_offset0 + comp * stride
        for _, _, fcs, gf in staged:
            for f in fcs:
                face_hcurl_projection(mesh, dofmap, f, gf, cons, off, comp)
    return cons
