"""Hierarchical embedding of Dirichlet data.

A system has one Dirichlet datum: the boundary facets and the callbacks
of the prescribed displacement u~ (and its gradient).  One call per
field: ``h1_dirichlet`` or ``hcurl_dirichlet`` takes the field's
``dofmap.FieldLayout`` (dofmap, components, offset) and that datum and
returns the constrained global dofs and their values, two arrays, which
the assembler leaves out of the system.

Vertices are evaluated directly.  Edges and faces are one projection,
parametrized by the entity rank: on each entity the tangential traces of
the owning cell's base functions (H1: of their gradients), read from the
basis evaluators, are matched in L2 to the tangential part of grad u~.
Because the Bernstein basis is not hierarchical the levels must run
vertex -> edge -> face, with each level moving the already-fixed values
to the right-hand side.

The H(curl) projections realize the consistent coupling condition: the
tangential trace of the microdistortion row is matched to the tangential
part of the prescribed displacement gradient.

Every map is affine, so each level runs batched for all of its entities
and components: one callback call on all of the level's points, one
batched solve, and the known dofs moved to the right-hand side by one
gather.  An entity's matrix is
sqrt(det) sum_de M[d, e] G^de (+ the rot Gram block / sqrt(det) on an
H(curl) face), with M the metric of its dual tangents (t / |t|^2 on an
edge, the mixed frame inv([g1, g2, n])^T on a face) and G^de reference
Gram blocks of the traces on the entity's slot in its owning cell.
Memory: levels run in entity chunks whose temporaries hold at most
mesh._CHUNK_NNZ (2 M) entries, beside one (n_comps, n_dofs) array
of the values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .dofmap import FieldLayout, local_entities
from .errors import DegenerateFace, SingularEdge
from .mesh import Mesh, _chunks
from .nedelec import SpaceDescriptor, eval_vector_shapes
from .quadrature import _gauss01, rule_for
from .simplex import (TET_EDGES, TET_FACES, TET_VERTICES, TRI_EDGES, TRI_VERTICES,
                      bezier_eval)

_GAUSS_FLOOR = 24   # headroom for oscillatory boundary data on coarse meshes


def _entities(mesh, facets):
    """Per entity rank (0 vertices, 1 edges, 2 faces in 3D): the sorted
    unique entities of the facets."""
    facets = np.asarray(facets, dtype=np.int64).reshape(-1)
    fv = mesh.facet_vertices(facets)
    touched = [fv, facets]
    if mesh.dim == 3:
        touched[1:] = [mesh.edge_ids(fv[:, [0, 0, 1]], fv[:, [1, 2, 2]]), facets]
    return [np.unique(ids) for ids in touched]


def _gradients(gradfunc, pts, n_comps):
    """gradfunc at the points (..., dim) as (..., n_comps, dim), stored one
    component after another: the rounding of the einsums that read it
    depends on that memory layout."""
    flat = pts.reshape(-1, pts.shape[-1])
    rows = np.asarray(gradfunc(flat), dtype=float).reshape(len(flat), n_comps, -1)
    rows = np.ascontiguousarray(rows.swapaxes(0, 1)).swapaxes(0, 1)
    return rows.reshape(pts.shape[:-1] + rows.shape[1:])


# ---------------------------------------------------------------------------
# levels: each fixes the dofs of a batch of entities in x (n_comps, n_dofs)
# and returns them, (n_entities, dofs per entity)

def _vertices(mesh, dofmap, _rank, verts, ufunc, x):
    rows = np.asarray(ufunc(mesh.vertices[verts]), dtype=float)
    dofs = dofmap.vertex_dof(verts)[:, None]
    x[:, dofs[:, 0]] = rows.reshape(len(verts), len(x)).T
    return dofs


# local edges and faces of a cell, by (cell dim, entity rank)
_SLOTS = {(2, 1): TRI_EDGES, (3, 1): TET_EDGES, (3, 2): TET_FACES}


@lru_cache(maxsize=None)
def _rule(space: SpaceDescriptor, rank):
    """Points (nq, rank) and weights on the reference edge or face."""
    h1 = space.family == "h1"
    if rank == 1:
        a, w = _gauss01(max(space.degree + (2 if h1 else 3), _GAUSS_FLOOR))
        return a[:, None], w
    rule = rule_for(2, min(max(2 * (space.degree + (0 if h1 else 2)) + 2, 14), 20))
    return rule.simplex_points, rule.weights


@lru_cache(maxsize=None)
def _reference(space: SpaceDescriptor, rank):
    """Per local slot of the rank-``rank`` entities of a cell: reference
    data of the base functions supported on it, identical for every
    entity in that slot.

    Each slot gives their columns in a cell_dofs row (known lower-rank
    functions first, then the entity's own in ordinal order), the number
    known, the Gram blocks G (rank, rank, n, n) of their tangential
    traces, the Gram matrix of their rots (H(curl) faces only, else None)
    and the weighted traces (nq, n, rank) of the right-hand side.  Traces
    are taken along the slot's tangents (v_last - v_0, ..., v_1 - v_0);
    H1 traces are of the gradients.  All slots come from one evaluator
    call.
    """
    slots, ents = _SLOTS[space.dim, rank], local_entities(space)
    corners = (TRI_VERTICES if space.dim == 2 else TET_VERTICES)[np.array(slots)]
    dphis = np.swapaxes(corners[:, :0:-1] - corners[:, :1], 1, 2)   # (slot, dim, rank)
    pts, w = _rule(space, rank)
    x = (corners[:, None, 0] + pts @ np.swapaxes(dphis, 1, 2)).reshape(-1, space.dim)
    shape = (len(slots), len(w), -1, space.dim)
    if space.family == "h1":
        vecs, curls = bezier_eval(space.degree, space.dim, x).grads, None
    else:
        vs = eval_vector_shapes(space, x)
        vecs, curls = vs.values, vs.curls.reshape(shape) if rank == 2 else None
    vecs = vecs.reshape(shape)
    refs = []
    for s, dphi in enumerate(dphis):
        known = [l for l, (r, local, _) in enumerate(ents) if r < rank and set(
            [local] if r == 0 else _SLOTS[space.dim, r][local]) <= set(slots[s])]
        own = sorted((ordinal, l) for l, (r, local, ordinal) in enumerate(ents)
                     if (r, local) == (rank, s))
        cols = np.array(known + [l for _, l in own])
        trace = np.einsum("de,qnd->qne", dphi, vecs[s][:, cols])
        wtrace = w[:, None, None] * trace
        rot_gram = None
        if curls is not None:
            rot = curls[s][:, cols] @ np.cross(dphi[:, 0], dphi[:, 1])
            rot_gram = np.einsum("q,qn,qm->nm", w, rot, rot)
        refs.append((cols, len(known), np.einsum("qnd,qme->denm", wtrace, trace),
                     rot_gram, wtrace))
    return tuple(refs)


def _frame(mesh, rank, ids):
    """First vertex xa (n, dim), tangents g (n, dim, rank) = (x_last - xa,
    ..., x_1 - xa), dual tangents and det(g^T g) of the edges (rank 1) or
    faces (rank 2) ``ids``.  The dual of an edge's t is t / |t|^2; a
    face's are the first two columns of inv([g1, g2, n])^T."""
    verts = (mesh.edges, mesh.faces)[rank - 1][ids]
    xa = mesh.vertices[verts[:, 0]]
    g = np.swapaxes(mesh.vertices[verts[:, :0:-1]] - xa[:, None], 1, 2)
    if rank == 1:
        det = np.sum(g[..., 0] ** 2, axis=1)
        short = det < 1e-28
        if short.any():
            raise SingularEdge(f"edge {ids[np.argmax(short)]} has zero length")
        return xa, g, g / det[:, None, None], det
    n = np.cross(g[..., 0], g[..., 1])
    det = np.sum(n * n, axis=1)
    flat = det < 1e-28
    if flat.any():
        raise DegenerateFace(f"face {ids[np.argmax(flat)]} has zero area")
    dual = np.swapaxes(np.linalg.inv(np.concatenate([g, n[..., None]], axis=2)), 1, 2)
    return xa, g, dual[..., :2], det


def _project(mesh, dofmap, rank, ids, gradfunc, x):
    """Surface H1 / H(rot) problem of each edge (rank 1) or face (rank 2)
    for its own dofs: the tangential trace of grad u~ matched in L2, the
    lower-rank dofs moved to the right-hand side.  Fixes the interior
    dofs of an H1 space, every edge and face dof of an H(curl) space."""
    xa, g, dual, det = _frame(mesh, rank, ids)
    cells = mesh.entity_cell(rank, ids)
    slots = np.argmax((mesh.cell_edges, mesh.cell_faces)[rank - 1][cells]
                      == ids[:, None], axis=1)
    pts = _rule(dofmap.space, rank)[0]
    grads = _gradients(gradfunc, xa[:, None] + np.einsum("qe,nde->nqd", pts, g), len(x))
    gt = np.einsum("nde,nqcd->nqce", dual, grads)
    sq = np.sqrt(det)[:, None, None]
    metric = sq * np.einsum("nde,ndg->neg", dual, dual)
    refs = _reference(dofmap.space, rank)
    n, nk = len(refs[0][0]), refs[0][1]
    k = np.empty((len(ids), n, n))
    rhs = np.empty((len(ids), n, len(x)))
    dofs = np.empty((len(ids), n), dtype=np.int64)
    for s, (cols, _, gram, rot_gram, wtrace) in enumerate(refs):
        sel = slots == s
        if not sel.any():
            continue
        k[sel] = np.einsum("fde,denm->fnm", metric[sel], gram)
        if rot_gram is not None:
            k[sel] += rot_gram / sq[sel]
        rhs[sel] = sq[sel] * np.einsum("qne,fqce->fnc", wtrace, gt[sel])
        dofs[sel] = dofmap.cell_dofs[cells[sel]][:, cols]
    rhs = rhs[:, nk:] - np.einsum("fuk,cfk->fuc", k[:, nk:, :nk], x[:, dofs[:, :nk]])
    own = dofs[:, nk:]
    x[:, own] = np.linalg.solve(k[:, nk:, nk:], rhs).transpose(2, 0, 1)
    return own


def _per_entity(space, rank, n_comps):
    """Largest per-entity temporary of a level: the callback rows, or an
    entity matrix."""
    if rank == 0:
        return n_comps
    return max(len(_rule(space, rank)[1]) * n_comps * space.dim,
               len(_reference(space, rank)[0][0]) ** 2)


def _embed(mesh, layout, facets, funcs):
    """Run the levels vertex -> edge -> face on the entities of ``facets``,
    each with its callback of ``funcs``, on every component of
    ``layout``: the constrained global dofs and their values, ordered
    component, level, entity, ordinal.  A level without dofs is skipped."""
    dofmap, n_comps = layout.dofmap, layout.n_comps
    x = np.full((n_comps, dofmap.n_dofs), np.nan)
    parts = [np.zeros(0, np.int64)]
    for rank, ids in enumerate(_entities(mesh, facets)):
        if (dofmap.per_vertex, dofmap.per_edge, dofmap.per_face)[rank]:
            level = _vertices if rank == 0 else _project
            size = _per_entity(dofmap.space, rank, n_comps)
            parts += [level(mesh, dofmap, rank, ids[chunk], funcs[rank], x).ravel()
                      for chunk in _chunks(len(ids), size)]
    dofs = np.concatenate(parts)
    return layout.dofs(np.arange(n_comps)[:, None], dofs).ravel(), x[:, dofs].ravel()


def h1_dirichlet(mesh: Mesh, layout: FieldLayout, facets, ufunc, gradfunc):
    """Hierarchical H1 embedding of the field ``layout`` on ``facets``:
    the constrained global dofs and their values.

    For vector fields the callbacks return (n, n_comps) values and (n,
    n_comps, dim) gradients and each component is constrained
    independently.
    """
    return _embed(mesh, layout, facets, (ufunc, gradfunc, gradfunc))


def hcurl_dirichlet(mesh: Mesh, layout: FieldLayout, facets, gradfunc):
    """Consistent-coupling embedding of the H(curl) field ``layout`` on
    ``facets``: the constrained global dofs and their values.

    gradfunc returns the prescribed displacement gradient rows, (n,
    n_comps, dim).
    """
    return _embed(mesh, layout, facets, (None, gradfunc, gradfunc))
