"""Hierarchical embedding of Dirichlet data.

One call per field: ``h1_dirichlet`` or ``hcurl_dirichlet`` takes the
field's ``assembly.FieldLayout`` (dofmap, components, offset) and returns
the global {dof: value} dict, from which the assembler leaves the
constrained dofs out of the system.

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

Every map is affine, so each level runs batched, once per facet group
for all of its entities and components: one callback call on all of the
level's points, one batched solve, and the known dofs moved to the
right-hand side by one gather.  An entity's matrix is
sqrt(det) sum_de M[d, e] G^de (+ the rot Gram block / sqrt(det) on an
H(curl) face), with M the metric of its dual tangents (t / |t|^2 on an
edge, the mixed frame inv([g1, g2, n])^T on a face) and G^de reference
Gram blocks of the traces on the entity's slot in its owning cell.
Memory: levels run in entity chunks whose temporaries hold at most
assembly's _CHUNK_NNZ (2 M) entries, beside one (n_comps, n_dofs) array
of the values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .assembly import FieldLayout, _chunks
from .dofmap import local_entities
from .errors import DegenerateFace, SingularEdge
from .mesh import Mesh
from .nedelec import SpaceDescriptor, eval_vector_shapes
from .quadrature import _gauss01, rule_for
from .simplex import (TET_EDGES, TET_FACES, TET_VERTICES, TRI_EDGES, TRI_VERTICES,
                      bezier_eval)

_GAUSS_FLOOR = 24   # headroom for oscillatory boundary data on coarse meshes


def _entities(mesh, facet_groups):
    """Per entity rank (0 vertices, 1 edges, 2 faces in 3D): the entities
    of the facet groups in order of first touch and the group owning
    each, the first that touches it."""
    facets = [np.asarray(f, dtype=np.int64).reshape(-1) for f in facet_groups]
    group = np.repeat(np.arange(len(facets)), [len(f) for f in facets])
    facets = np.concatenate(facets or [np.zeros(0, np.int64)])
    fv = mesh.facet_vertices(facets)
    touched = {0: fv, 1: facets[:, None]}
    if mesh.dim == 3:
        touched[1] = mesh.edge_ids(fv[:, [0, 0, 1]], fv[:, [1, 2, 2]])
        touched[2] = facets[:, None]
    out = {}
    for rank, ids in touched.items():
        owner = np.repeat(group, ids.shape[1])
        _, first = np.unique(ids.ravel(), return_index=True)
        first.sort()
        out[rank] = ids.ravel()[first], owner[first]
    return out


def _per_comp(rows, comps):
    """Callback rows (n, k, ...) as (n, len(comps), ...): column c for
    component c, or the one column for every component."""
    return rows[:, comps if rows.shape[1] > 1 else np.zeros_like(comps)]


def _gradients(gradfunc, pts, comps):
    """gradfunc at the points (..., dim) as (..., len(comps), dim)."""
    flat = pts.reshape(-1, pts.shape[-1])
    rows = np.asarray(gradfunc(flat), dtype=float).reshape(len(flat), -1, flat.shape[1])
    return _per_comp(rows, comps).reshape(pts.shape[:-1] + (len(comps), flat.shape[1]))


# ---------------------------------------------------------------------------
# levels: each fixes the dofs of a batch of entities in x (n_comps, n_dofs)
# and returns them, (n_entities, dofs per entity)

def _vertices(mesh, dofmap, _rank, verts, ufunc, x, comps):
    rows = np.asarray(ufunc(mesh.vertices[verts]), dtype=float).reshape(len(verts), -1)
    dofs = dofmap.vertex_dof(verts)[:, None]
    x[:, dofs[:, 0]] = _per_comp(rows, comps).T
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


def _project(mesh, dofmap, rank, ids, gradfunc, x, comps):
    """Surface H1 / H(rot) problem of each edge (rank 1) or face (rank 2)
    for its own dofs: the tangential trace of grad u~ matched in L2, the
    lower-rank dofs moved to the right-hand side.  Fixes the interior
    dofs of an H1 space, every edge and face dof of an H(curl) space."""
    xa, g, dual, det = _frame(mesh, rank, ids)
    cells = mesh.entity_cell(rank, ids)
    slots = np.argmax((mesh.cell_edges, mesh.cell_faces)[rank - 1][cells]
                      == ids[:, None], axis=1)
    pts = _rule(dofmap.space, rank)[0]
    grads = _gradients(gradfunc, xa[:, None] + np.einsum("qe,nde->nqd", pts, g), comps)
    gt = np.einsum("nde,nqcd->nqce", dual, grads)
    sq = np.sqrt(det)[:, None, None]
    metric = sq * np.einsum("nde,ndg->neg", dual, dual)
    refs = _reference(dofmap.space, rank)
    n, nk = len(refs[0][0]), refs[0][1]
    k = np.empty((len(ids), n, n))
    rhs = np.empty((len(ids), n, len(comps)))
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


def _has_dofs(dofmap, rank):
    """Vertex levels always run (vertex_dof rejects an H(curl) space)."""
    return (1, dofmap.per_edge, dofmap.per_face)[rank] > 0


def _embed(mesh, layout, facet_groups, levels):
    """Run ``levels``, (rank, callback per group) in order, on every
    component of ``layout``; the constraints are ordered level,
    component, group, entity, ordinal."""
    dofmap, comps = layout.dofmap, np.arange(layout.n_comps)
    x = np.full((layout.n_comps, dofmap.n_dofs), np.nan)
    ents = _entities(mesh, facet_groups)
    keys, vals = [], []
    for rank, funcs in levels:
        if not _has_dofs(dofmap, rank):
            continue
        ids, owner = ents[rank]
        size = _per_entity(dofmap.space, rank, layout.n_comps)
        level = _vertices if rank == 0 else _project
        parts = [np.zeros(0, np.int64)]
        for g, func in enumerate(funcs):
            mine = ids[owner == g]
            parts += [level(mesh, dofmap, rank, mine[chunk], func, x, comps).ravel()
                      for chunk in _chunks(len(mine), size)]
        dofs = np.concatenate(parts)
        keys.append(layout.dofs(comps[:, None], dofs).ravel())
        vals.append(x[:, dofs].ravel())
    return dict(zip(np.concatenate(keys).tolist(), np.concatenate(vals).tolist()))


def h1_dirichlet(mesh: Mesh, layout: FieldLayout, groups) -> dict:
    """Hierarchical H1 embedding of the field ``layout``: {dof: value}.

    ``groups`` is a list of (facet_ids, ufunc, gradfunc); for vector
    fields the callbacks return (n, n_comps) values and (n, n_comps, dim)
    gradients and each component is constrained independently.
    """
    ufuncs = [uf for _, uf, _ in groups]
    gradfuncs = [gf for _, _, gf in groups]
    return _embed(mesh, layout, [facets for facets, _, _ in groups],
                  ((0, ufuncs), (1, gradfuncs), (2, gradfuncs)))


def hcurl_dirichlet(mesh: Mesh, layout: FieldLayout, groups) -> dict:
    """Consistent-coupling embedding of the H(curl) field ``layout``:
    {dof: value}.

    ``groups`` is a list of (facet_ids, gradfunc); gradfunc returns the
    prescribed displacement gradient rows, (n, dim) or (n, n_comps, dim).
    """
    gradfuncs = [gf for _, gf in groups]
    return _embed(mesh, layout, [facets for facets, _ in groups],
                  ((1, gradfuncs), (2, gradfuncs)))
