"""Simplicial meshes with global orientation and affine reference maps.

Cells store their vertex ids sorted ascending; every derived edge and
face therefore traverses from lower to higher global id in all incident
cells, which is the whole orientation convention.  The affine map of a
cell assigns the sorted vertices to the reference roles (v1, v2, v3[,
v4]) and uses the column order of the reference coordinate directions:
2D J = [x3-x1, x2-x1], 3D J = [x4-x1, x3-x1, x2-x1].  det J is signed;
integration uses its absolute value.

Mesh files are JSON with keys "dim", "vertices", "cells" and
"boundary_tags" (label -> list of boundary facet vertex-id arrays).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BadIndex, DegenerateCell, InvalidParam, ParseError
from .simplex import TET_EDGES, TET_FACES, TRI_EDGES

_EDGE_LOCAL = {2: TRI_EDGES, 3: TET_EDGES}
_CHUNK_NNZ = 2_000_000


def _chunks(n, per_item):
    """Slices of ``n`` cells or entities whose temporaries hold at most
    _CHUNK_NNZ entries, ``per_item`` being the largest per-item temporary."""
    size = max(1, _CHUNK_NNZ // per_item)
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


@dataclass
class Mesh:
    dim: int
    vertices: np.ndarray          # (nv, dim)
    cells: np.ndarray             # (nc, dim+1), rows sorted ascending
    edges: np.ndarray             # (ne, 2) sorted unique
    cell_edges: np.ndarray        # (nc, 3 or 6) edge ids in local edge order
    faces: np.ndarray = None      # (nf, 3), 3D only
    cell_faces: np.ndarray = None
    boundary_facets: np.ndarray = None   # edge ids (2D) / face ids (3D)
    boundary_tags: dict = field(default_factory=dict)
    origins: np.ndarray = None    # (nc, dim)
    jacs: np.ndarray = None       # (nc, dim, dim)
    dets: np.ndarray = None       # signed
    inv_ts: np.ndarray = None     # (nc, dim, dim) J^{-T}

    _owner: dict = field(default_factory=dict, repr=False)   # see entity_cell

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    def edge_ids(self, a, b):
        """Ids of the edges (a, b), a < b, in the sorted edge list."""
        nv = self.n_vertices
        return np.searchsorted(self.edges[:, 0] * nv + self.edges[:, 1], a * nv + b)

    def entity_cell(self, rank, ids):
        """Lowest id of a cell containing each edge (rank 1) or face
        (rank 2) of ``ids``; the tables are built lazily."""
        if rank not in self._owner:
            local = (self.cell_edges, self.cell_faces)[rank - 1]
            owner = np.full((self.n_edges, self.n_faces)[rank - 1], self.n_cells)
            np.minimum.at(owner, local.ravel(),
                          np.repeat(np.arange(self.n_cells), local.shape[1]))
            self._owner[rank] = owner
        return self._owner[rank][ids]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    @property
    def n_edges(self):
        return self.edges.shape[0]

    @property
    def n_faces(self):
        return 0 if self.faces is None else self.faces.shape[0]

    def map_points(self, c, ref_pts: np.ndarray) -> np.ndarray:
        """Reference simplex coordinates (nq, dim) -> physical coordinates,
        (nq, dim) for one cell ``c``, (nc, nq, dim) for a slice or an
        array of cells."""
        return (self.origins[c][..., None, :]
                + np.atleast_2d(ref_pts) @ np.swapaxes(self.jacs[c], -1, -2))

    def facet_vertices(self, f: int) -> np.ndarray:
        return self.edges[f] if self.dim == 2 else self.faces[f]

    def tagged_facets(self, tag: str) -> np.ndarray:
        try:
            return self.boundary_tags[tag]
        except KeyError:
            raise BadIndex(f"unknown boundary tag {tag!r}") from None

    def volume(self) -> float:
        d = self.dim
        return float(np.sum(np.abs(self.dets))) / (2.0 if d == 2 else 6.0)


def build(vertices, cells, tags=None) -> Mesh:
    """Assemble a mesh from raw arrays.

    ``tags`` maps a label to a list of boundary facet vertex-id tuples;
    an entry that is not one raises BadIndex naming the label.
    """
    vertices = np.asarray(vertices, dtype=float)
    cells = np.asarray(cells, dtype=np.int64)
    dim = vertices.shape[1]
    if dim not in (2, 3):
        raise InvalidParam(f"dim must be 2 or 3, got {dim}")
    if cells.ndim != 2 or cells.shape[1] != dim + 1:
        raise InvalidParam("cells must be (nc, dim+1)")
    if cells.size and (cells.min() < 0 or cells.max() >= len(vertices)):
        raise BadIndex("cell references vertex outside range")
    bad = np.flatnonzero(~np.all(np.isfinite(vertices), axis=1))
    if len(bad):
        raise InvalidParam(f"vertex {bad[0]} has non-finite coordinates "
                           f"{vertices[bad[0]].tolist()}")

    cells = np.sort(cells, axis=1)

    # reference role assignment: J columns follow the xi, eta(, zeta) directions
    x1 = vertices[cells[:, 0]]
    jacs = np.swapaxes(vertices[cells[:, :0:-1]] - x1[:, None], 1, 2).copy()
    dets = np.linalg.det(jacs)
    scale = max(vertices.max(axis=0).max() - vertices.min(axis=0).min(), 1.0)
    if not np.all(np.abs(dets) >= 1e-14 * scale ** dim):
        bad = int(np.argmin(np.abs(dets)))
        raise DegenerateCell(f"cell {bad} has |det J| = {abs(dets[bad]):.3e}")
    inv_ts = np.transpose(np.linalg.inv(jacs), (0, 2, 1))

    local_edges = _EDGE_LOCAL[dim]
    raw = np.concatenate([cells[:, le] for le in local_edges], axis=0)
    edges, inverse = np.unique(raw, axis=0, return_inverse=True)
    cell_edges = inverse.reshape(len(local_edges), -1).T.copy()

    faces = cell_faces = None
    if dim == 3:
        rawf = np.concatenate([cells[:, lf] for lf in TET_FACES], axis=0)
        faces, finv = np.unique(rawf, axis=0, return_inverse=True)
        cell_faces = finv.reshape(len(TET_FACES), -1).T.copy()
    # every facet lies in some cell, so the counts cover all facets
    counts = np.bincount((cell_edges if dim == 2 else cell_faces).ravel())
    boundary = np.flatnonzero(counts == 1)

    mesh = Mesh(dim=dim, vertices=vertices, cells=cells, edges=edges,
                cell_edges=cell_edges, faces=faces, cell_faces=cell_faces,
                boundary_facets=boundary, origins=x1, jacs=jacs, dets=dets,
                inv_ts=inv_ts)

    if tags:
        facet_lookup = {tuple(mesh.facet_vertices(f)): f for f in boundary}
        resolved = {}
        for label, facets in tags.items():
            ids = []
            for fv in facets:
                key = tuple(sorted(int(v) for v in np.atleast_1d(fv)))
                if key not in facet_lookup:
                    raise BadIndex(f"tag {label!r}: {key} is not a boundary facet")
                ids.append(facet_lookup[key])
            resolved[label] = np.asarray(sorted(ids), dtype=np.int64)
        mesh.boundary_tags = resolved
    return mesh


def _box_axes(bounds, n, dim):
    """Per-axis gridlines: n may be an int, a tuple of per-axis counts, or
    a tuple whose entries are explicit breakpoint sequences."""
    if np.isscalar(n):
        n = (int(n),) * dim
    if len(n) != dim:
        raise InvalidParam("n must match the number of axes")
    axes = []
    for (lo, hi), spec in zip(bounds, n):
        if not hi > lo:
            raise InvalidParam("box bounds must be increasing")
        if np.isscalar(spec):
            if int(spec) < 1:
                raise InvalidParam("axis subdivision count must be >= 1")
            axes.append(np.linspace(lo, hi, int(spec) + 1))
        else:
            pts = np.asarray(spec, dtype=float)
            if pts.ndim != 1 or len(pts) < 2 or not np.all(np.diff(pts) > 0):
                raise InvalidParam("axis breakpoints must be increasing")
            if not (abs(pts[0] - lo) <= 1e-12 and abs(pts[-1] - hi) <= 1e-12):
                raise InvalidParam("axis breakpoints must span the bounds")
            axes.append(pts)
    return axes, tuple(len(a) - 1 for a in axes)


def generate_box(bounds, n) -> Mesh:
    """Simplicial mesh of a rectangle (2 triangles/quad) or box (6 tets/hex).

    Side tags "x-", "x+", ... mark the boundary facets of each plane.
    """
    bounds = [tuple(map(float, b)) for b in bounds]
    dim = len(bounds)
    if dim not in (2, 3):
        raise InvalidParam(f"box needs 2 or 3 axes, got {dim}")
    axes, n = _box_axes(bounds, n, dim)

    if dim == 2:
        nx, ny = n
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        verts = np.stack([X.ravel(), Y.ravel()], axis=1)
        vid = lambda i, j: i * (ny + 1) + j
        cells = []
        for i in range(nx):
            for j in range(ny):
                a, b = vid(i, j), vid(i + 1, j)
                c, d = vid(i + 1, j + 1), vid(i, j + 1)
                cells.append((a, b, c))
                cells.append((a, c, d))
        mesh = build(verts, cells)
    else:
        nx, ny, nz = n
        X, Y, Z = np.meshgrid(axes[0], axes[1], axes[2], indexing="ij")
        verts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
        vid = lambda i, j, k: (i * (ny + 1) + j) * (nz + 1) + k
        # Kuhn split: six tets per hexahedron sharing the main diagonal,
        # identical in every hex so shared faces match up.
        perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        cells = []
        for i in range(nx):
            for j in range(ny):
                for k in range(nz):
                    base = np.array([i, j, k])
                    for perm in perms:
                        path = [base.copy()]
                        for ax in perm:
                            nxt = path[-1].copy()
                            nxt[ax] += 1
                            path.append(nxt)
                        cells.append(tuple(vid(*pt) for pt in path))
        mesh = build(verts, cells)

    tags = {}
    names = ["x", "y", "z"][:dim]
    for ax, name in enumerate(names):
        for side, val in (("-", bounds[ax][0]), ("+", bounds[ax][1])):
            ids = []
            for f in mesh.boundary_facets:
                fv = mesh.facet_vertices(f)
                if np.all(np.abs(mesh.vertices[fv, ax] - val) < 1e-12):
                    ids.append(f)
            tags[name + side] = np.asarray(ids, dtype=np.int64)
    mesh.boundary_tags = tags
    return mesh


def _merge_ring(inner_ids, inner_ang, outer_ids, outer_ang):
    """Triangulate the annulus between two concentric vertex rings."""
    m1, m2 = len(inner_ids), len(outer_ids)
    tris = []
    i = o = 0
    while i < m1 or o < m2:
        adv_inner = False
        if i < m1 and o < m2:
            next_i = inner_ang[(i + 1) % m1] + (2 * np.pi if i + 1 >= m1 else 0.0)
            next_o = outer_ang[(o + 1) % m2] + (2 * np.pi if o + 1 >= m2 else 0.0)
            adv_inner = next_i <= next_o
        elif i < m1:
            adv_inner = True
        ci, co = inner_ids[i % m1], outer_ids[o % m2]
        if adv_inner:
            tris.append((ci, co, inner_ids[(i + 1) % m1]))
            i += 1
        else:
            tris.append((ci, co, outer_ids[(o + 1) % m2]))
            o += 1
    return tris


def generate_disk(radius: float, target_h: float = None, n_rings: int = None) -> Mesh:
    """Structured disk mesh from concentric rings (6 k vertices on ring k).

    Boundary vertices lie exactly on the circle; all boundary edges carry
    the tag "boundary".  Either ``target_h`` or ``n_rings`` selects the
    resolution.
    """
    if not 0.0 < radius < np.inf:
        raise InvalidParam(f"radius must be positive and finite, got {radius}")
    if n_rings is None:
        if target_h is None or not target_h > 0.0:
            raise InvalidParam("need target_h > 0 or n_rings")
        n_rings = max(1, int(np.ceil(radius / target_h)))
    if n_rings < 1:
        raise InvalidParam(f"n_rings must be >= 1, got {n_rings}")

    verts = [(0.0, 0.0)]
    rings = [[0]]
    angles = [[0.0]]
    for k in range(1, n_rings + 1):
        r = radius * k / n_rings
        ang = 2.0 * np.pi * np.arange(6 * k) / (6 * k)
        ids = list(range(len(verts), len(verts) + 6 * k))
        verts.extend(zip(r * np.cos(ang), r * np.sin(ang)))
        rings.append(ids)
        angles.append(list(ang))

    cells = [(0, rings[1][j], rings[1][(j + 1) % 6]) for j in range(6)]
    for k in range(1, n_rings):
        cells.extend(_merge_ring(rings[k], angles[k], rings[k + 1], angles[k + 1]))

    mesh = build(np.asarray(verts), cells)
    mesh.boundary_tags = {"boundary": mesh.boundary_facets.copy()}
    return mesh


def io_write(mesh: Mesh, path) -> None:
    """Write the documented JSON mesh format (lossless round trip)."""
    data = {
        "dim": mesh.dim,
        "vertices": mesh.vertices.tolist(),
        "cells": mesh.cells.tolist(),
        "boundary_tags": {
            label: [mesh.facet_vertices(f).tolist() for f in facets]
            for label, facets in mesh.boundary_tags.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(data, fh)


def _json_array(path, field, value, ids=False):
    """A JSON array of numbers as float, or as int64 vertex ids if ``ids``;
    ParseError naming the file and ``field`` unless it is rectangular,
    numeric and (ids) integral."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {field} must be a rectangular array of numbers "
                         f"({exc})") from None
    if arr.ndim == 0:
        raise ParseError(f"{path}: {field} must be a list, got {value!r}")
    if not ids:
        return arr
    bad = arr[~(np.isfinite(arr) & (arr == np.round(arr)))]
    if bad.size:
        raise ParseError(f"{path}: {field}: {bad[0]} is not an integer vertex id")
    return arr.astype(np.int64)


def io_read(path) -> Mesh:
    """Read a JSON mesh file; raises ParseError with context on bad input."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: not a JSON object")
    for key in ("dim", "vertices", "cells"):
        if key not in data:
            raise ParseError(f"{path}: missing {key!r} key")
    vertices = _json_array(path, "'vertices'", data["vertices"])
    if vertices.ndim != 2 or vertices.shape[1] != data["dim"]:
        raise ParseError(f"{path}: 'vertices' must be (n, {data['dim']})")
    cells = _json_array(path, "'cells'", data["cells"], ids=True)
    tags = data.get("boundary_tags", {})
    if not isinstance(tags, dict):
        raise ParseError(f"{path}: 'boundary_tags' must be an object")
    tags = {label: _json_array(path, f"'boundary_tags' {label!r}", facets, ids=True)
            for label, facets in tags.items()}
    try:
        return build(vertices, cells, tags=tags)
    except (BadIndex, InvalidParam, DegenerateCell) as exc:
        raise ParseError(f"{path}: {exc}") from None
