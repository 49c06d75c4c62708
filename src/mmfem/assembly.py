"""Sparse assembly of the antiplane and full 3D variational forms.

Physical-element quantities follow the affine maps: H1 gradients and
H(curl) values transform by J^{-T} (covariant Piola), the 2D rot scales
by 1/det J and the 3D curl by J/det J, with signed determinants so that
the quadratic forms are orientation-safe.

Every form runs through one chunked driver: a per-form kernel maps a
chunk of cells at once from the cached reference tables and returns
element matrices as batched matmuls K_c = F_c F_c^T (sqrt(w) folded into
F, so they are exactly symmetric); the 3D forms combine scalar Gram
blocks per pair of derivative directions with the isotropic moduli.
Entries are added into the CSR ``Pattern`` built once from the cell dofs,
which the system keeps for the solver.  Any temporary of a chunk holds at
most _CHUNK_NNZ entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .cholesky import _supervariables
from .dofmap import DofMap, build_dofmap
from .errors import SpaceMismatch
from .materials import MaterialParams
from .mesh import Mesh
from .nedelec import SpaceDescriptor, eval_vector_shapes
from .quadrature import rule_for
from .simplex import bezier_eval

_CHUNK_NNZ = 2_000_000


@dataclass
class FieldLayout:
    """One physical field inside the global dof vector."""

    name: str
    space: SpaceDescriptor
    dofmap: DofMap
    n_comps: int          # components (vector H1) or tensor rows (H(curl))
    offset: int

    def comp_offset(self, r):
        return self.offset + r * self.dofmap.n_dofs

    def cell_dofs(self, cells=slice(None)):
        """Global dofs (nc, n_comps, n_local) of a cell chunk."""
        comps = self.comp_offset(np.arange(self.n_comps))
        return comps[:, None] + self.dofmap.cell_dofs[cells][:, None, :]


@dataclass
class SparseSystem:
    """Assembled symmetric system with optional Dirichlet constraints.

    ``c_matrix``, the unit-coefficient part of K(c) = matrix + c c_matrix
    (curl-curl of the lc sweep, div-div of the Cauchy form), shares the
    CSR pattern of ``matrix``, so ``matrix_at`` only combines data arrays.
    An assembled system carries that ``Pattern`` for the solver; a system
    built from a bare matrix has none.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    fields: dict
    mesh: Mesh
    constraints: dict = field(default_factory=dict)
    c_matrix: sp.csr_matrix = None
    pattern: Pattern = None

    @property
    def n_dofs(self):
        return self.rhs.shape[0]

    def set_constraints(self, cons: dict):
        self.constraints = dict(cons)

    def matrix_at(self, c: float):
        if self.matrix is None:
            raise ValueError("the system carries no matrices (a solution "
                             "of solve_family keeps it without them)")
        if self.c_matrix is None:
            return self.matrix
        K = self.matrix
        return sp.csr_matrix((K.data + c * self.c_matrix.data,
                              K.indices, K.indptr), shape=K.shape)


@lru_cache(maxsize=None)
def _h1_ref(degree, dim, quad_degree):
    rule = rule_for(dim, quad_degree)
    sh = bezier_eval(degree, dim, rule.points)
    return rule, sh.values, sh.grads


@lru_cache(maxsize=None)
def _hcurl_ref(space: SpaceDescriptor, quad_degree):
    rule = rule_for(space.dim, quad_degree)
    vs = eval_vector_shapes(space, rule.points)
    return rule, vs.values, vs.curls


def _phys_grads(mat, ref):
    """A (dim, dim) matrix, or a stack (nc, dim, dim) of them, applied to
    reference vectors (nq, nb, dim): J^{-T} for gradients and H(curl)
    values, J/det J for 3D curls."""
    nq, nb, dim = ref.shape
    out = ref.reshape(nq * nb, dim) @ np.swapaxes(mat, -1, -2)
    return out.reshape(np.shape(mat)[:-2] + ref.shape)


def _default_degree(u_space, p_space=None):
    p = u_space.degree - 1
    if p_space is not None:
        p = max(p, p_space.degree)
    return 2 * p + 2


def _layouts(mesh, spaces, n_comps):
    """Fields named by ``spaces``, stacked in the global vector in order."""
    fields, offset = {}, 0
    for name, space in spaces.items():
        dm = build_dofmap(mesh, space)
        fields[name] = FieldLayout(name, space, dm, n_comps, offset)
        offset += n_comps * dm.n_dofs
    return fields


# ---------------------------------------------------------------------------
# chunked driver

def _chunks(n_cells, per_cell):
    """Cell slices whose temporaries hold at most _CHUNK_NNZ entries,
    ``per_cell`` being the largest per-cell temporary."""
    size = max(1, _CHUNK_NNZ // per_cell)
    for start in range(0, n_cells, size):
        yield slice(start, min(start + size, n_cells))


def _weights(mesh, rule, cells):
    return rule.weights * np.abs(mesh.dets[cells])[:, None]


def _call(func, xq):
    """A point callback on all points of a chunk, reshaped to (nc, nq, ...)."""
    vals = np.asarray(func(xq.reshape(-1, xq.shape[-1])), dtype=float)
    return vals.reshape(xq.shape[:2] + vals.shape[1:])


def _values(mesh, table, cells):
    """Basis values (nc or 1, nq, nb, dim) on a chunk: scalar tables (nq, nb)
    with a unit trailing axis, vector tables (nq, nb, dim) mapped by J^{-T}."""
    return (table[None, :, :, None] if table.ndim == 2
            else _phys_grads(mesh.inv_ts[cells], table))


def _project(w, fv, vals):
    """(nc, n_comps, nb) integrals sum_q w <f_r, v_a> of point values fv
    (nc, nq, n_comps, dim) against basis values from ``_values``."""
    a = vals.transpose(0, 2, 1, 3).reshape(len(vals), vals.shape[2], -1)
    b = (w[:, :, None, None] * fv).transpose(0, 1, 3, 2)
    return (a @ b.reshape(len(w), a.shape[2], -1)).transpose(0, 2, 1)


def _gram(f):
    """Batched F F^T of (nc, rows, cols) feature stacks."""
    return f @ f.transpose(0, 2, 1)


class Pattern:
    """CSR pattern of a system's matrices (every coupling through a
    cell), the position of every element entry in it, and the
    supervariable of every dof.

    All fields have k components; element matrices are ordered (r, A, s,
    B): components outermost, then the cell's scalar dofs A of all fields.
    The pattern is the scalar pattern S of the stacked dofmaps with each
    entry expanded to a k x k block: global row (field f, component r,
    dof i) lists, field by field and then component by component, the
    columns of S row i.  It is sorted and symmetric, so its CSR arrays
    are its CSC arrays.  Entry (r, s) of the block of scalar entry e in
    row i sits at p0[e] + r * rstride[i] + s * seg[e], seg[e] being the
    length of the segment of row i in e's column field, rstride[i] k
    times the entries of S in the rows of i's field.

    The dofs of the scalar dofs in one set of cells (a mesh entity, or
    entities with the same cells, such as a boundary face and the
    interior of its only cell) have one row set: ``group`` labels them
    for the factorization.  Memory: ``indices`` 4 bytes per entry (int32
    below 2^31 entries), ``indptr`` and ``group`` one index per dof, and
    for k > 1 12 bytes per scalar entry (4/3 per entry at k = 3).
    """

    def __init__(self, layouts):
        k = self.k = layouts[0].n_comps
        sizes = np.array([fl.dofmap.n_dofs for fl in layouts])
        starts = np.concatenate([[0], np.cumsum(sizes)])
        self.scalar_dofs = np.concatenate(
            [fl.dofmap.cell_dofs + s for fl, s in zip(layouts, starts)], axis=1)
        nc, nloc = self.scalar_dofs.shape
        ns = int(starts[-1])
        incidence = sp.csr_matrix(
            (np.ones(self.scalar_dofs.size), self.scalar_dofs.ravel(),
             np.arange(0, nc * nloc + 1, nloc)), shape=(nc, ns))
        cells_of = incidence.tocsc()    # the cells of each scalar dof
        group = _supervariables(cells_of.indptr, cells_of.indices, ns)
        S = incidence.T @ incidence     # symmetric: CSC arrays are CSR arrays
        S = sp.csr_matrix((S.data, S.indices, S.indptr), shape=(ns, ns))
        S.sort_indices()
        self.s_indptr, self.s_indices = S.indptr, S.indices
        itype = np.int32 if k * k * S.nnz < 2 ** 31 else np.int64
        self.group = np.concatenate([np.tile(group[a:b], k)
                                     for a, b in zip(starts[:-1], starts[1:])])
        if k == 1:     # the pattern is S; the expansion would copy it
            self.indptr, self.indices = S.indptr, S.indices
            return
        e = np.arange(S.nnz, dtype=itype)
        row = np.repeat(np.arange(ns, dtype=itype), np.diff(S.indptr))
        col_field = np.searchsorted(starts[1:-1], S.indices, side="right")
        seg_id = row * len(sizes) + col_field
        seg = np.bincount(seg_id, minlength=ns * len(sizes)).astype(itype)
        rank = e - (np.cumsum(seg, dtype=itype) - seg)[seg_id]
        self.seg = seg[seg_id]
        field_nnz = S.indptr[starts].astype(itype)     # S entries before each field
        row_field = np.repeat(np.arange(len(sizes)), sizes)
        self.rstride = k * np.diff(field_nnz)[row_field]
        xpos = k * e - (k - 1) * rank   # (r, s) = (0, 0) copy, fields' r = 0 rows
        self.p0 = xpos + (k * k - k) * field_nnz[row_field][row]
        # a row's columns do not depend on its component r: the r = 0 rows
        # of each field, repeated k times
        x = np.empty(k * S.nnz, dtype=itype)
        col0 = S.indices + (k - 1) * starts[col_field]  # global column, s = 0
        for s in range(k):
            x[xpos + s * self.seg] = col0 + s * sizes[col_field]
        self.indices = np.concatenate(
            [np.tile(x[k * a:k * b], k) for a, b in zip(field_nnz, field_nnz[1:])])
        self.indptr = np.concatenate([[0], np.cumsum(np.concatenate(
            [np.tile(k * np.diff(S.indptr[a:b + 1]), k)
             for a, b in zip(starts[:-1], starts[1:])]))]).astype(itype)

    def positions(self, cells):
        """Positions of the element entries of a chunk, in the order of
        the element matrices."""
        sd = self.scalar_dofs[cells]
        rows, cols = np.broadcast_arrays(sd[:, :, None], sd[:, None, :])
        where = sp.csr_matrix(
            (np.arange(len(self.s_indices), dtype=self.indptr.dtype),
             self.s_indices, self.s_indptr), shape=(len(self.s_indptr) - 1,) * 2)
        e = np.asarray(where[rows.ravel(), cols.ravel()]).reshape(rows.shape)
        if self.k == 1:
            return e
        comp = np.arange(self.k, dtype=e.dtype)
        return (self.p0[e][:, None, :, None, :]
                + comp[:, None, None, None] * self.rstride[sd][:, None, :, None, None]
                + comp[:, None] * self.seg[e][:, None, :, None, :])


def _assemble(mesh, rule, fields, kernel, per_cell, loads=(), n_mats=1):
    """System of ``kernel(cells) -> [element matrices]`` (``matrix``,
    ``c_matrix`` if n_mats = 2) and the load vector of ``loads``, (field,
    reference table, callback or None).  The
    ``n_mats`` matrices share one CSR pattern, every coupling through a
    cell, also where its sum over cells vanishes: dropping those entries
    breaks the k x k block structure that the minimum-degree ordering of
    the factorization relies on, and raises its fill."""
    pat = Pattern(list(fields.values()))
    nc, nloc = len(pat.scalar_dofs), pat.k * pat.scalar_dofs.shape[1]
    data = np.zeros((n_mats, len(pat.indices)))
    for cells in _chunks(nc, max(per_cell, n_mats * nloc * nloc)):
        pos = pat.positions(cells).ravel()
        for d, k in zip(data, kernel(cells)):
            np.add.at(d, pos, k.ravel())
    n = len(pat.indptr) - 1
    rhs = np.zeros(n)
    for layout, table, func in (load for load in loads if load[2] is not None):
        for cells in _chunks(nc, per_cell):
            w = _weights(mesh, rule, cells)
            xq = mesh.map_points(cells, rule.simplex_points)
            fv = _call(func, xq).reshape(w.shape + (layout.n_comps, -1))
            np.add.at(rhs, layout.cell_dofs(cells),
                      _project(w, fv, _values(mesh, table, cells)))

    mats = [sp.csr_matrix((d, pat.indices, pat.indptr), shape=(n, n))
            for d in data] + [None]
    return SparseSystem(matrix=mats[0], rhs=rhs, fields=fields, mesh=mesh,
                        c_matrix=mats[1], pattern=pat)


def _iso_blocks(G, diag, swap, trace):
    """Element matrices K[c, r, a, s, b] of an isotropic form over fields
    whose row r is the vector function of dof (r, a),
        diag delta_rs sum_d G[c,a,d,b,d] + swap G[c,a,s,b,r] + trace G[c,a,r,b,s],
    from scalar Gram blocks G[c,a,d,b,e] = sum_q w phi_a,d phi_b,e.  With
    (diag, swap, trace) = (mu + mu_c, mu - mu_c, lam) this is
    lam tr E tr E + 2 mu sym E : sym E + 2 mu_c skw E : skw E.
    """
    K = swap * G.transpose(0, 4, 1, 2, 3) + trace * G.transpose(0, 2, 1, 4, 3)
    tr = G[:, :, 0, :, 0] + G[:, :, 1, :, 1] + G[:, :, 2, :, 2]
    for r in range(3):
        K[:, r, :, r, :] += diag * tr
    return K


def _direction_gram(vals, w):
    """Gram blocks G[c, a, d, b, e] = sum_q w v_a,d v_b,e of (nc, nq, nb, dim)."""
    nc, nq, nb, dim = vals.shape
    f = (vals * np.sqrt(w)[:, :, None, None]).transpose(0, 2, 3, 1)
    return _gram(f.reshape(nc, nb * dim, nq)).reshape(nc, nb, dim, nb, dim)


# ---------------------------------------------------------------------------
# forms

def assemble_antiplane(mesh: Mesh, params: MaterialParams,
                       u_space: SpaceDescriptor, p_space: SpaceDescriptor,
                       f=None, m=None, quad_degree=None) -> SparseSystem:
    """System for the antiplane form
    mu_e <grad u - p, grad du - dp> + mu_micro <p, dp>
    + mu_macro lc^2 rot p rot dp  -  (f, du) - (m, dp).
    """
    if mesh.dim != 2 or u_space.dim != 2 or p_space.dim != 2:
        raise SpaceMismatch("antiplane model is two-dimensional")
    if u_space.family != "h1" or p_space.family not in ("nedelec1", "nedelec2"):
        raise SpaceMismatch("need scalar H1 u-space and H(curl) p-space")
    qd = quad_degree or _default_degree(u_space, p_space)
    rule, uvals, ugrads = _h1_ref(u_space.degree, 2, qd)
    _, pvals, pcurls = _hcurl_ref(p_space, qd)
    fields = _layouts(mesh, {"u": u_space, "p": p_space}, 1)
    nbu, nb, nq = ugrads.shape[1], ugrads.shape[1] + pvals.shape[1], len(rule.weights)
    s_e, s_m, s_c = np.sqrt([params.mu_e, params.mu_micro, params.curl_coeff])

    def kernel(cells):
        # point features sqrt(mu_e)(grad u - p), sqrt(mu_micro) p, sqrt(cc) rot p
        w = _weights(mesh, rule, cells)
        gu = _phys_grads(mesh.inv_ts[cells], ugrads).swapaxes(1, 2)
        pv = _phys_grads(mesh.inv_ts[cells], pvals).swapaxes(1, 2)
        F = np.zeros((len(w), nb, nq, 5))
        F[:, :nbu, :, :2] = s_e * gu
        F[:, nbu:, :, :2] = -s_e * pv
        F[:, nbu:, :, 2:4] = s_m * pv
        F[:, nbu:, :, 4] = s_c * pcurls.T / mesh.dets[cells][:, None, None]
        F *= np.sqrt(w)[:, None, :, None]
        return [_gram(F.reshape(len(w), nb, nq * 5))]

    return _assemble(mesh, rule, fields, kernel, nb * nq * 5,
                     loads=[(fields["u"], uvals, f), (fields["p"], pvals, m)])


def assemble_full3d(mesh: Mesh, params: MaterialParams,
                    u_space: SpaceDescriptor, p_space: SpaceDescriptor,
                    f=None, M=None, quad_degree=None,
                    split_curl: bool = False) -> SparseSystem:
    """System for the relaxed micromorphic form with [H1]^3 displacement
    and one H(curl) space per microdistortion row (row-wise Curl).

    With ``split_curl`` the curl-curl part is kept as a separate matrix
    with unit coefficient so characteristic-length sweeps can recombine
    without reassembly.
    """
    if mesh.dim != 3 or u_space.dim != 3 or p_space.dim != 3:
        raise SpaceMismatch("full model is three-dimensional")
    if u_space.family != "h1" or p_space.family not in ("nedelec1", "nedelec2"):
        raise SpaceMismatch("need H1 u-space and H(curl) P-space")
    if min(params.lam_e, params.lam_micro) < 0.0:
        raise SpaceMismatch("factorized assembly needs lam_e, lam_micro >= 0")
    qd = quad_degree or _default_degree(u_space, p_space)
    rule, uvals, ugrads = _h1_ref(u_space.degree, 3, qd)
    _, pvals, pcurls = _hcurl_ref(p_space, qd)
    fields = _layouts(mesh, {"u": u_space, "p": p_space}, 3)
    nbu, nbs = ugrads.shape[1], ugrads.shape[1] + pvals.shape[1]
    # E = Du - P enters with (mu_e, mu_c, lam_e), P alone with
    # (mu_micro, lam_micro); see _iso_blocks
    pr = params
    e_coef = (pr.mu_e + pr.mu_c, pr.mu_e - pr.mu_c, pr.lam_e)
    p_coef = (pr.mu_e + pr.mu_c + pr.mu_micro, pr.mu_e - pr.mu_c + pr.mu_micro,
              pr.lam_e + pr.lam_micro)

    def kernel(cells):
        w = _weights(mesh, rule, cells)
        gu = _phys_grads(mesh.inv_ts[cells], ugrads)
        pv = _phys_grads(mesh.inv_ts[cells], pvals)
        pc = _phys_grads(mesh.jacs[cells] / mesh.dets[cells][:, None, None],
                         pcurls)
        G = _direction_gram(np.concatenate([gu, pv], axis=2), w)
        u, p = slice(0, nbu), slice(nbu, nbs)
        K = np.empty((len(w), 3, nbs, 3, nbs))
        K[:, :, u, :, u] = _iso_blocks(G[:, u, :, u], *e_coef)
        K[:, :, u, :, p] = -_iso_blocks(G[:, u, :, p], *e_coef)
        K[:, :, p, :, u] = K[:, :, u, :, p].transpose(0, 3, 4, 1, 2)
        K[:, :, p, :, p] = _iso_blocks(G[:, p, :, p], *p_coef)
        # row-wise Curl: the same scalar block on each of the three rows
        fc = (pc * np.sqrt(w)[:, :, None, None]).swapaxes(1, 2)
        kc = _gram(fc.reshape(len(w), nbs - nbu, -1))
        kc *= 1.0 if split_curl else pr.curl_coeff
        mats = [K, np.zeros_like(K)] if split_curl else [K]
        for r in range(3):
            mats[-1][:, r, p, r, p] += kc
        return mats

    return _assemble(mesh, rule, fields, kernel, 9 * nbs * len(rule.weights),
                     loads=[(fields["u"], uvals, f), (fields["p"], pvals, M)],
                     n_mats=2 if split_curl else 1)


def assemble_cauchy3d(mesh: Mesh, u_space: SpaceDescriptor, f=None,
                      quad_degree=None) -> SparseSystem:
    """Classical linear elasticity for the lc energy bounds, split by
    modulus: ``matrix`` S is its mu = 1 part and ``c_matrix`` D its
    lam = 1 (div-div) part, so moduli (lam, mu) give mu S + lam D."""
    if mesh.dim != 3 or u_space.dim != 3 or u_space.family != "h1":
        raise SpaceMismatch("cauchy3d needs a 3D H1 space")
    qd = quad_degree or 2 * u_space.degree
    rule, uvals, ugrads = _h1_ref(u_space.degree, 3, qd)
    fields = _layouts(mesh, {"u": u_space}, 3)

    def kernel(cells):
        gu = _phys_grads(mesh.inv_ts[cells], ugrads)
        G = _direction_gram(gu, _weights(mesh, rule, cells))
        return [_iso_blocks(G, 1.0, 1.0, 0.0), G.transpose(0, 2, 1, 4, 3)]

    return _assemble(mesh, rule, fields, kernel,
                     3 * ugrads.shape[1] * len(rule.weights),
                     loads=[(fields["u"], uvals, f)], n_mats=2)


# ---------------------------------------------------------------------------
# post-processing

def _l2_distance(mesh, layout, x, func, rule, table):
    """L2 distance between a field and a callback on physical points."""
    total = 0.0
    for cells in _chunks(mesh.n_cells, table.size * layout.n_comps):
        got = x[layout.cell_dofs(cells)][:, None] @ _values(mesh, table, cells)
        exact = _call(func, mesh.map_points(cells, rule.simplex_points))
        diff = got - exact.reshape(got.shape[:2] + (-1,) + got.shape[3:])
        sq = (diff ** 2).reshape(diff.shape[:2] + (-1,)).sum(axis=2)
        total += float(np.sum(_weights(mesh, rule, cells) * sq))
    return np.sqrt(total)


def l2_error_h1(mesh: Mesh, layout: FieldLayout, x, func, quad_degree=None):
    """L2 distance between an H1 field and a callback on physical points."""
    qd = quad_degree or 2 * layout.space.degree + 2
    rule, uvals, _ = _h1_ref(layout.space.degree, mesh.dim, qd)
    return _l2_distance(mesh, layout, x, func, rule, uvals)


def l2_error_hcurl(mesh: Mesh, layout: FieldLayout, x, func, quad_degree=None):
    """L2 distance for an H(curl) field; rows stacked for tensor fields."""
    qd = quad_degree or 2 * (layout.space.degree + 1) + 2
    rule, pvals, _ = _hcurl_ref(layout.space, qd)
    return _l2_distance(mesh, layout, x, func, rule, pvals)


def rot_l2_norm(mesh: Mesh, layout: FieldLayout, x, quad_degree=None):
    """L2 norm of the 2D rot of an H(curl) field."""
    qd = quad_degree or 2 * (layout.space.degree + 1)
    rule, _, pcurls = _hcurl_ref(layout.space, qd)
    total = 0.0
    for cells in _chunks(mesh.n_cells, pcurls.size):
        rot = x[layout.cell_dofs(cells)[:, 0]] @ pcurls.T / mesh.dets[cells, None]
        total += float(np.sum(_weights(mesh, rule, cells) * rot ** 2))
    return np.sqrt(total)
