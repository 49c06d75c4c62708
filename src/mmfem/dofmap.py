"""Global degree-of-freedom numbering for H1 and H(curl) spaces.

Every reference base function attaches to a polytope of its element.
Because cell vertex ids are stored ascending, matching a local polytope
to its global entity is enough to glue shared dofs: ordinals along an
edge count from the lower to the higher vertex, face ordinals follow
the canonical (higher-vertex exponent outer, middle inner) traversal.
Global ids are blocked vertex / edge / face / cell, each contiguous.
``FieldLayout`` places a field of k components in the global vector of
a system node-major: the k dofs of one scalar dof are adjacent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SpaceMismatch
from .mesh import Mesh
from .nedelec import SpaceDescriptor, _face_interior, build_basis
from .simplex import TET_EDGES, TET_FACES, TRI_EDGES, classify, traversal_order

_LOCAL_EDGE_POS = {
    2: {e: n for n, e in enumerate(TRI_EDGES)},
    3: {e: n for n, e in enumerate(TET_EDGES)},
}
_LOCAL_FACE_POS = {f: n for n, f in enumerate(TET_FACES)}


@lru_cache(maxsize=None)
def _face_interior_rank(p):
    """(ec, eb) -> ordinal for face-interior scalar exponents at degree p,
    in the canonical order of ``nedelec._face_interior``."""
    return {(ec, eb): n for n, (eb, ec) in enumerate(_face_interior(p))}


@lru_cache(maxsize=None)
def _h1_reference(degree: int, dim: int):
    """Per local function: (entity_rank, local_entity, ordinal).

    entity_rank: 0 vertex, 1 edge, 2 face, 3 cell.  local_entity is the
    local vertex index, edge slot, face slot, or 0 for the cell.
    """
    out = []
    cell_ord = 0
    for mi in traversal_order(degree, dim):
        poly = classify(mi)
        exps = mi.exponents
        if poly.kind == "vertex":
            out.append((0, poly.vertices[0], 0))
        elif poly.kind == "edge":
            hi = poly.vertices[1]
            out.append((1, _LOCAL_EDGE_POS[dim][poly.vertices], exps[hi] - 1))
        elif poly.kind == "face" and dim == 3:
            b, c = poly.vertices[1], poly.vertices[2]
            rank = _face_interior_rank(degree)[(exps[c], exps[b])]
            out.append((2, _LOCAL_FACE_POS[poly.vertices], rank))
        else:
            out.append((3, 0, cell_ord))
            cell_ord += 1
    return tuple(out)


@lru_cache(maxsize=None)
def _hcurl_reference(space: SpaceDescriptor):
    out = []
    for fn in build_basis(space):
        poly = fn.polytope
        if poly.kind == "edge":
            out.append((1, _LOCAL_EDGE_POS[space.dim][poly.vertices], fn.ordinal))
        elif poly.kind == "face":
            out.append((2, _LOCAL_FACE_POS[poly.vertices], fn.ordinal))
        else:
            out.append((3, 0, fn.ordinal))
    return tuple(out)


def local_entities(space: SpaceDescriptor):
    """Per local base function of ``space``, in cell_dofs column order:
    (entity_rank, local_entity, ordinal)."""
    if space.family == "h1":
        return _h1_reference(space.degree, space.dim)
    return _hcurl_reference(space)


@dataclass
class DofMap:
    """Scalar-space dof layout over one mesh."""

    space: SpaceDescriptor
    n_dofs: int
    cell_dofs: np.ndarray      # (nc, n_local)
    per_vertex: int
    per_edge: int
    per_face: int
    per_cell: int
    edge_base: int
    face_base: int
    cell_base: int

    def vertex_dof(self, v: int) -> int:
        if self.per_vertex == 0:
            raise SpaceMismatch("space has no vertex dofs")
        return v


@dataclass
class FieldLayout:
    """One physical field inside the global dof vector, numbered node-major:
    component r of scalar dof i is global dof offset + n_comps i + r."""

    name: str
    space: SpaceDescriptor
    dofmap: DofMap
    n_comps: int          # components (vector H1) or tensor rows (H(curl))
    offset: int

    def dofs(self, comp, scalar):
        """Global dofs of components ``comp`` of scalar dofs ``scalar``
        (broadcast)."""
        return self.offset + self.n_comps * np.asarray(scalar) + comp

    def cell_dofs(self, cells=slice(None)):
        """Global dofs (nc, n_comps, n_local) of a cell chunk."""
        return self.dofs(np.arange(self.n_comps)[:, None],
                         self.dofmap.cell_dofs[cells][:, None, :])


def build_dofmap(mesh: Mesh, space: SpaceDescriptor) -> DofMap:
    if space.dim != mesh.dim:
        raise SpaceMismatch(f"space dim {space.dim} != mesh dim {mesh.dim}")
    ref = local_entities(space)
    per_vertex = int(space.family == "h1")

    counts = {1: 0, 2: 0, 3: 0}
    for rank, _, ordinal in ref:
        if rank in counts:
            counts[rank] = max(counts[rank], ordinal + 1)
    per_edge, per_face, per_cell = counts[1], counts[2], counts[3]

    nv = mesh.n_vertices if per_vertex else 0
    edge_base = nv
    face_base = edge_base + per_edge * mesh.n_edges
    cell_base = face_base + per_face * mesh.n_faces
    n_dofs = cell_base + per_cell * mesh.n_cells

    nc = mesh.n_cells
    cell_dofs = np.empty((nc, len(ref)), dtype=np.int64)
    for l, (rank, local, ordinal) in enumerate(ref):
        if rank == 0:
            cell_dofs[:, l] = mesh.cells[:, local]
        elif rank == 1:
            cell_dofs[:, l] = edge_base + per_edge * mesh.cell_edges[:, local] + ordinal
        elif rank == 2:
            cell_dofs[:, l] = face_base + per_face * mesh.cell_faces[:, local] + ordinal
        else:
            cell_dofs[:, l] = cell_base + per_cell * np.arange(nc) + ordinal

    return DofMap(space=space, n_dofs=n_dofs, cell_dofs=cell_dofs,
                  per_vertex=per_vertex, per_edge=per_edge, per_face=per_face,
                  per_cell=per_cell, edge_base=edge_base, face_base=face_base,
                  cell_base=cell_base)
