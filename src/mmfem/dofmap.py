"""Global degree-of-freedom numbering for H1 and H(curl) spaces.

Every reference base function attaches to the polytope its support
spans: a vertex, edge, face or the cell.  One rule gives its dof slot
in all families (``local_entities``): the polytope's rank, its position
in ``simplex.polytopes`` and the count of earlier functions on it.  Cell
vertex ids are stored ascending and the bases order a polytope's
functions by its own vertices, so that count agrees in all cells sharing
the polytope: this glues the shared dofs.  Global ids are blocked
vertex / edge / face / cell, each contiguous.  ``FieldLayout`` places a
field of k components in the global vector of a system node-major: the
k dofs of one scalar dof are adjacent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SpaceMismatch
from .mesh import Mesh
from .nedelec import SpaceDescriptor, build_basis
from .simplex import classify, polytopes, traversal_order


@lru_cache(maxsize=None)
def local_entities(space: SpaceDescriptor):
    """Per local base function of ``space``, in cell_dofs column order,
    its dof slot (entity_rank, local_entity, ordinal): the rank of its
    polytope (0 vertex, 1 edge, 2 face, 3 cell, also in 2D), the
    polytope's position in ``simplex.polytopes`` and the number of
    earlier functions on it."""
    if space.family == "h1":
        supports = [classify(mi).vertices for mi in traversal_order(space.degree, space.dim)]
    else:
        supports = [fn.polytope.vertices for fn in build_basis(space)]
    seen, out = Counter(), []
    for verts in supports:
        rank = len(verts) - 1
        out.append((3 if rank == space.dim else rank,
                    polytopes(space.dim, rank).index(verts), seen[verts]))
        seen[verts] += 1
    return tuple(out)


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
    # per rank: the global entities of each cell, their count, dofs per entity
    entities = (mesh.cells, mesh.cell_edges, mesh.cell_faces,
                np.arange(mesh.n_cells)[:, None])
    counts = (mesh.n_vertices, mesh.n_edges, mesh.n_faces, mesh.n_cells)
    per = [max([o + 1 for r, _, o in ref if r == rank], default=0) for rank in range(4)]
    base = np.cumsum([0] + [k * n for k, n in zip(per, counts)]).tolist()

    cell_dofs = np.empty((mesh.n_cells, len(ref)), dtype=np.int64)
    for l, (rank, local, ordinal) in enumerate(ref):
        cell_dofs[:, l] = base[rank] + per[rank] * entities[rank][:, local] + ordinal
    return DofMap(space, base[4], cell_dofs, *per, *base[1:4])
