"""Hierarchical embedding of Dirichlet data.

One call per field: ``h1_dirichlet`` or ``hcurl_dirichlet`` takes the
field's ``assembly.FieldLayout`` (dofmap, components, offset) and returns
the global {dof: value} dict, from which the assembler leaves the
constrained dofs out of the system.

Vertices are evaluated directly; edges solve small 1D problems against
the known univariate traces; faces solve surface problems in the mixed
tangent frame T = [g1, g2, n].  Because the Bernstein basis is not
hierarchical the levels must run vertex -> edge -> face, with each level
moving the already-fixed values to the right-hand side.

The H(curl) projections realize the consistent coupling condition: the
tangential trace of the microdistortion row is matched to the tangential
part of the prescribed displacement gradient.

Every map is affine, so each level runs batched, once per facet group
for all of its entities and components: one callback call on all of the
level's points, one batched solve, and the known dofs moved to the
right-hand side by one gather.  An edge problem is one reference matrix
for every edge (the edge length cancels), and a face matrix is
sqrt(det) sum_de M[d, e] G^de (+ the rot Gram block / sqrt(det) in
H(curl)), with M the face's 2x2 metric and G^de reference Gram blocks
of the face-supported functions of the owning cell.  Memory: levels run
in entity chunks whose temporaries hold at most assembly's _CHUNK_NNZ
(2 M) entries, beside one (n_comps, n_dofs) array of the values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .assembly import FieldLayout, _chunks
from .bernstein import eval_all
from .dofmap import local_entities
from .errors import DegenerateFace, SingularEdge
from .mesh import Mesh
from .nedelec import SpaceDescriptor, eval_vector_shapes
from .quadrature import _gauss01, rule_for
from .simplex import TET_EDGES, TET_FACES, TET_VERTICES, bezier_eval

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

def _vertices(mesh, dofmap, verts, ufunc, x, comps):
    rows = np.asarray(ufunc(mesh.vertices[verts]), dtype=float).reshape(len(verts), -1)
    dofs = dofmap.vertex_dof(verts)[:, None]
    x[:, dofs[:, 0]] = _per_comp(rows, comps).T
    return dofs


@lru_cache(maxsize=None)
def _edge_ref(space: SpaceDescriptor):
    """Edge Gauss points, the weighted tangential traces (ng, nu) of the
    edge's own functions, and the blocks (K_uu, K_uk) of the reference
    matrix against them and the known vertex functions (H1 only).

    Traces are identical for every edge by the template construction:
    H1 d/dalpha b^q (vertex functions first), N-II b^p, N-I
    {1, d/dalpha b^{p+1}_m}.
    """
    p, h1 = space.degree, space.family == "h1"
    nk = 2 if h1 else 0
    a, w = _gauss01(max(p + (2 if h1 else 3), _GAUSS_FLOOR))
    if h1:
        trace = eval_all(p, a).derivs[:, [0, p] + list(range(1, p))]
    elif space.family == "nedelec2":
        trace = eval_all(p, a).values
    else:
        trace = np.hstack([np.ones((len(a), 1)), eval_all(p + 1, a).derivs[:, 1:p + 1]])
    wtrace = w[:, None] * trace
    k = wtrace.T @ trace
    return a, wtrace[:, nk:], k[nk:, nk:], k[nk:, :nk]


def _edges(mesh, dofmap, edges, gradfunc, x, comps):
    """<t, grad u~> in L2 along each edge: the interior dofs of an H1
    space, every dof of an H(curl) space."""
    a, wtrace, kuu, kuk = _edge_ref(dofmap.space)
    ends = mesh.edges[edges]
    xa = mesh.vertices[ends[:, 0]]
    t = mesh.vertices[ends[:, 1]] - xa
    short = np.linalg.norm(t, axis=1) < 1e-14
    if short.any():
        raise SingularEdge(f"edge {edges[np.argmax(short)]} has zero length")
    grads = _gradients(gradfunc, xa[:, None, :] + a[:, None] * t[:, None, :], comps)
    tgrad = np.einsum("eqcd,ed->qec", grads, t)
    rhs = (np.tensordot(wtrace, tgrad, axes=(0, 0))
           - np.einsum("uk,cek->uec", kuk, x[:, ends[:, :kuk.shape[1]]]))
    sol = np.linalg.solve(kuu, rhs.reshape(len(kuu), -1)).reshape(rhs.shape)
    own = dofmap.edge_dofs(edges[:, None])
    x[:, own] = sol.transpose(2, 1, 0)
    return own


def _face_frame(mesh, f):
    """Chart x(xi2, eta2) = xa + xi2 (xc - xa) + eta2 (xb - xa) and the
    mixed transformation data of face f, or stacked for an array f."""
    fa, fb, fc = mesh.faces[f].T
    xa = mesh.vertices[fa]
    g1 = mesh.vertices[fc] - xa
    g2 = mesh.vertices[fb] - xa
    n = np.cross(g1, g2)
    det_t = np.sum(n * n, axis=-1)
    flat = np.atleast_1d(det_t) < 1e-28
    if flat.any():
        raise DegenerateFace(f"face {np.atleast_1d(f)[np.argmax(flat)]} has zero area")
    tinv_t = np.swapaxes(np.linalg.inv(np.stack([g1, g2, n], axis=-1)), -1, -2)
    return (fa, fb, fc), xa, g1, g2, tinv_t[..., :2], det_t


def _face_rule(space: SpaceDescriptor):
    q = space.degree if space.family == "h1" else space.degree + 2
    return rule_for(2, min(max(2 * q + 2, 14), 20))


def _support(rank, local):
    """Local tetrahedron vertices of the entity a base function attaches to."""
    return (local,) if rank == 0 else (TET_EDGES, TET_FACES, ((0, 1, 2, 3),))[rank - 1][local]


@lru_cache(maxsize=None)
def _face_ref(space: SpaceDescriptor, slot):
    """Reference data of the base functions supported on local face
    ``slot`` of a tetrahedron, identical for every face in that slot.

    Returns their columns in a cell_dofs row (known vertex and edge
    functions first, then the face's own in ordinal order), the number
    known, the Gram blocks G (2, 2, n, n) of their tangential traces, the
    Gram matrix of their rots (None for H1) and the weighted traces
    (nq, n, 2) of the right-hand side.  H1 traces are surface gradients.
    """
    face = TET_FACES[slot]
    ents = local_entities(space)
    known = [l for l, (rank, local, _) in enumerate(ents)
             if rank < 2 and set(_support(rank, local)) <= set(face)]
    own = sorted((ordinal, l) for l, (rank, local, ordinal) in enumerate(ents)
                 if (rank, local) == (2, slot))
    cols = np.array(known + [l for _, l in own])
    va, vb, vc = TET_VERTICES[list(face)]
    dphi = np.stack([vc - va, vb - va], axis=1)   # (3, 2)
    rule = _face_rule(space)
    x = va + rule.simplex_points @ dphi.T
    rot_gram = None
    if space.family == "h1":
        vecs = bezier_eval(space.degree, 3, x).grads[:, cols]
    else:
        vs = eval_vector_shapes(space, x)
        vecs = vs.values[:, cols]
        rot = vs.curls[:, cols] @ np.cross(dphi[:, 0], dphi[:, 1])
        rot_gram = np.einsum("q,qn,qm->nm", rule.weights, rot, rot)
    trace = np.einsum("de,qnd->qne", dphi, vecs)
    wtrace = rule.weights[:, None, None] * trace
    return cols, len(known), np.einsum("qnd,qme->denm", wtrace, trace), rot_gram, wtrace


def _faces(mesh, dofmap, faces, gradfunc, x, comps):
    """Surface H1 / H(rot) problem of each face for its own dofs, the
    vertex and edge dofs moved to the right-hand side."""
    _, xa, g1, g2, tstar, det_t = _face_frame(mesh, faces)
    cells = mesh.face_cell(faces)
    slots = np.argmax(mesh.cell_faces[cells] == faces[:, None], axis=1)
    pts = _face_rule(dofmap.space).simplex_points
    grads = _gradients(gradfunc, xa[:, None, :] + pts[:, :1] * g1[:, None, :]
                       + pts[:, 1:] * g2[:, None, :], comps)
    gt = np.einsum("fde,fqcd->fqce", tstar, grads)
    sq = np.sqrt(det_t)[:, None, None]
    metric = sq * np.einsum("fde,fdg->feg", tstar, tstar)
    refs = [_face_ref(dofmap.space, s) for s in range(len(TET_FACES))]
    n, nk = len(refs[0][0]), refs[0][1]
    k = np.empty((len(faces), n, n))
    rhs = np.empty((len(faces), n, len(comps)))
    dofs = np.empty((len(faces), n), dtype=np.int64)
    for s, (cols, _, gram, rot_gram, wtrace) in enumerate(refs):
        sel = slots == s
        k[sel] = np.einsum("fde,denm->fnm", metric[sel], gram)
        if rot_gram is not None:
            k[sel] += rot_gram / sq[sel]
        rhs[sel] = sq[sel] * np.einsum("qne,fqce->fnc", wtrace, gt[sel])
        dofs[sel] = dofmap.cell_dofs[cells[sel]][:, cols]
    rhs = rhs[:, nk:] - np.einsum("fuk,cfk->fuc", k[:, nk:, :nk], x[:, dofs[:, :nk]])
    own = dofs[:, nk:]
    x[:, own] = np.linalg.solve(k[:, nk:, nk:], rhs).transpose(2, 0, 1)
    return own


_LEVELS = (_vertices, _edges, _faces)


def _per_entity(space, rank, n_comps):
    """Largest per-entity temporary of a level: the callback rows, or a
    face matrix."""
    if rank == 0:
        return n_comps
    if rank == 1:
        return len(_edge_ref(space)[0]) * n_comps * space.dim
    return max(len(_face_rule(space).weights) * n_comps * 3,
               len(_face_ref(space, 0)[0]) ** 2)


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
        parts = [np.zeros(0, np.int64)]
        for g, func in enumerate(funcs):
            mine = ids[owner == g]
            parts += [_LEVELS[rank](mesh, dofmap, mine[chunk], func, x, comps).ravel()
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
