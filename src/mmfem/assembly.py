"""Sparse assembly of the antiplane and full 3D variational forms.

On affine cells H1 gradients and H(curl) values map by J^{-T} (covariant
Piola), the 2D rot by 1/det J and the 3D curl by J/det J, so with
constant moduli an element matrix is a linear combination of reference
Gram blocks G^de_ab = sum_q w_q v_a,d v_b,e (Kirby & Logg, ACM TOMS 32,
2006), cached per form, spaces and rule as one symmetrized half-table
(n_terms nb (nb + 1) doubles, n_terms 9 or 27).  One chunked driver
embeds the system's one Dirichlet datum, then forms just the stored half
of a chunk's element matrices Y + Y^T, exactly symmetric, by GEMMs of
per-cell coefficients with that table, and adds it into the lower
triangle of the CSR ``Pattern`` of the free dofs, built once on the
free polytopes: every matrix is stored as the entries on or below its
diagonal.  Entries in a constrained row or column go to a spare slot
that is dropped; the element matrices, applied to x_c unformed, give
the lift -K_fc x_c and x_c^T K_cc x_c (deal.II's
distribute_local_to_global; Bangerth, Hartmann & Kanschat, ACM TOMS 33,
2007): no matrix on all dofs exists.  Memory beside the triangles, the
lifts, the constrained values and the pattern: per cell the offsets of
its lower polytope pairs (4 bytes each), its scalar dofs and their free
numbers (12 bytes per local scalar dof) and whether it has a constrained
dof (1 byte), M x_c of each matrix (a double per dof), then per chunk
(``_element_chunks``) the halves of all matrices and their positions,
no element tensor; under Dirichlet data also [G; G^T] (2 n_terms nb^2
doubles), then G x_c on the cells with a constrained dof.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import dirichlet
from .cholesky import _ranges, _supervariables
from .dofmap import FieldLayout, build_dofmap, local_entities
from .errors import InvalidParam, SpaceMismatch
from .materials import MaterialParams
from .mesh import Mesh, _chunks
from .nedelec import SpaceDescriptor, eval_vector_shapes
from .quadrature import rule_for
from .simplex import bezier_eval

@dataclass
class SparseSystem:
    """Assembled symmetric system on its free dofs: ``matrix`` the lower
    triangle of K_ff (CSR rows with sorted columns, the diagonal last)
    and ``rhs`` the free load plus the lift -K_fc x_c of the constrained
    values x_c.  ``c_matrix``, the triangle of the free block of the
    unit-coefficient part of K(c) = matrix + c c_matrix (curl-curl of
    the lc sweep, div-div of the Cauchy form), shares its CSR pattern,
    so K(c) only combines data arrays.  A bare system is built with such
    triangles too; the walk of ``solver.solve_family`` checks this
    contract once at its entry (canonical CSR, no entry above the
    diagonal, ``c_matrix`` on the same ``indptr`` and ``indices``).
    ``free`` masks the free dofs of all ``n_dofs``, ``x_con`` is x_c
    (zero at the free dofs), ``lift`` (n_mats, n_free) and
    ``con_energy`` (n_mats) hold -M_fc x_c and x_c^T M_cc x_c of each
    matrix; a bare system (matrix and rhs) has every dof free.  An
    assembled one carries the supervariable labels of its free dofs
    (``Pattern.group``) and the wall seconds of its Dirichlet embedding
    ``dirichlet_s`` and of the rest ``assembly_s``.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    fields: dict
    mesh: Mesh
    c_matrix: sp.csr_matrix = None
    free: np.ndarray = None
    x_con: np.ndarray = None
    lift: np.ndarray = None
    con_energy: np.ndarray = None
    group: np.ndarray = None
    assembly_s: float = 0.0
    dirichlet_s: float = 0.0

    def __post_init__(self):
        if self.free is None:
            n, n_mats = len(self.rhs), 1 if self.c_matrix is None else 2
            self.free, self.x_con = np.ones(n, dtype=bool), np.zeros(n)
            self.lift, self.con_energy = np.zeros((n_mats, n)), np.zeros(n_mats)

    @property
    def n_dofs(self):
        return len(self.free)

    def full(self, xf):
        """Values of all dofs from those of the free ones."""
        x = self.x_con.copy()
        x[self.free] = xf
        return x


@lru_cache(maxsize=None)
def _h1_ref(degree, dim, quad_degree):
    rule = rule_for(dim, quad_degree)
    sh = bezier_eval(degree, dim, rule.simplex_points)
    return rule, sh.values, sh.grads


@lru_cache(maxsize=None)
def _hcurl_ref(space: SpaceDescriptor, quad_degree):
    rule = rule_for(space.dim, quad_degree)
    vs = eval_vector_shapes(space, rule.simplex_points)
    return rule, vs.values, vs.curls


def _exact_gram(w, v):
    """Gram blocks G[(d, e), a, b] = sum_q w_q v_a,d v_b,e of a table v (nq,
    nb, dim) rounded about once, not by the ulps of a float64 sum that add
    up over the cells sharing them: w^(1/2) v in three slices of (53 - log2
    nq) / 2 bits, whose products BLAS sums exactly (Ozaki et al. 2012)."""
    nq, nb, dim = v.shape
    f = (np.sqrt(w)[:, None, None] * v).reshape(nq, -1)
    bits = (53 - int(np.ceil(np.log2(nq)))) // 2
    unit, parts = 2.0 ** np.ceil(np.log2(np.abs(f).max())), []
    for _ in range(3):
        unit *= 2.0 ** -bits
        parts.append(np.round(f / unit) * unit)
        f = f - parts[-1]
    f1, f2, f3 = parts
    c12, c13 = f1.T @ f2, f1.T @ f3
    g = ((f2.T @ f2 + (c13 + c13.T)) + (c12 + c12.T)) + f1.T @ f1
    return g.reshape(nb, dim, nb, dim).transpose(1, 3, 0, 2).reshape(-1, nb, nb)


@lru_cache(maxsize=None)
def _form_ref(u_degree, p_space, quad_degree, dim):
    """The symmetrized half-table (2 n_terms, n_pairs + nb) of the halved
    reference tensors G (n_terms, nb, nb), the Gram blocks over the local
    basis (u, p) of the strain Du - P, of P and of curl P (the 2D rot),
    or of Du alone: rows G[t, A, B], then G[t, B, A]; columns the local
    pairs A > B (``Pattern.pairs``), then the diagonal A = B.  The P-P
    block goes with P alone, fewer GEMM terms and roundings."""
    rule, _, vecs = _h1_ref(u_degree, dim, quad_degree)
    tables, nq, nbu = [vecs], len(vecs), vecs.shape[1]
    if p_space is not None:
        _, pvals, pcurls = _hcurl_ref(p_space, quad_degree)
        tables = [np.concatenate([vecs, -pvals], axis=1)] + [
            np.concatenate([np.zeros((nq, nbu, v.shape[2])), v], axis=1)
            for v in (pvals, pcurls.reshape(nq, pcurls.shape[1], -1))]
    ref = np.concatenate([_exact_gram(rule.weights, v) for v in tables])
    ref[:dim * dim, nbu:, nbu:] = 0.0     # empty without a p-space
    (a, b), d = np.tril_indices(ref.shape[1], -1), np.arange(ref.shape[1])
    return 0.5 * np.concatenate([np.concatenate([ref[:, a, b], ref[:, d, d]], axis=1),
                                 np.concatenate([ref[:, b, a], ref[:, d, d]], axis=1)])


def _phys_grads(mat, ref):
    """A (dim, dim) matrix, or a stack (nc, dim, dim) of them, applied to
    reference vectors (nq, nb, dim): J^{-T} for gradients and H(curl)
    values."""
    nq, nb, dim = ref.shape
    out = ref.reshape(nq * nb, dim) @ np.swapaxes(mat, -1, -2)
    return out.reshape(np.shape(mat)[:-2] + ref.shape)


def _default_degree(u_space, p_space=None):
    return 2 * max(u_space.degree - 1, p_space.degree if p_space is not None else 0) + 2


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


def _constraints(mesh, fields, data, coupled):
    """Free-dof mask and constrained values (zero at the free dofs) of the
    Dirichlet datum ``data``, (facet_ids, ufunc, gradfunc) or None,
    embedded in u and, if ``coupled``, by the consistent coupling
    condition in p."""
    n = sum(fl.n_comps * fl.dofmap.n_dofs for fl in fields.values())
    free, x_con = np.ones(n, dtype=bool), np.zeros(n)
    if data is not None:
        facets, ufunc, gradfunc = data
        cons = [dirichlet.h1_dirichlet(mesh, fields["u"], facets, ufunc, gradfunc)]
        if coupled:
            cons.append(dirichlet.hcurl_dirichlet(mesh, fields["p"], facets, gradfunc))
        for dofs, values in cons:
            free[dofs], x_con[dofs] = False, values
    return free, x_con


class Pattern:
    """CSR pattern of the lower triangles of a system's free blocks (every
    coupling of two free dofs through a cell, column <= row), the
    supervariable of every free dof, and the per-cell offsets from which
    ``positions`` places the element entries chunk by chunk.

    Every local base function belongs to one polytope of its cell
    (``dofmap.local_entities``), whose n_E scalar dofs the dofmap numbers
    consecutively from cell_dofs - ordinal.  Fields have k components,
    numbered node-major (``FieldLayout``: global dof k i + r is component
    r of scalar dof i of the stacked dofmaps), so a polytope E owns one
    run of k n_E global dofs.  The constraints fix whole runs, so the
    free dofs are the free runs in order, and the pattern is the lower
    graph Q of the free polytopes (adjacent where they share a cell) in
    blocks (Ashcraft, SIAM J. Sci. Comput. 16, 1995): row g of E holds
    the runs of the F < E in E's row of Q, then E's own run up to g,
    sorted with the diagonal last.  Entry (g, h), h in the run of F from
    start(F), sits at indptr[g] + off(E, F) + h - start(F), off(E, F)
    the length of the runs before F's in E's row.

    An element matrix, ordered (r, s, A, B) (components outermost, then
    the cell's scalar dofs A of all fields), is exactly symmetric, so
    only its stored half is formed and scattered (``_halves``): the
    ``pairs`` A > B for every (r, s), then the diagonal A = B with r >=
    s.  Each goes to the lower entry of its global pair; an entry in a
    constrained row or column goes to the spare slot len(indices), one
    past the pattern.

    Polytopes with one set of cells (a boundary face and the interior of
    its only cell) have one row set: ``group`` labels their free dofs for
    the factorization.  Memory: ``indices`` 4 bytes per entry (int32
    below 2^31 entries), ``indptr`` and ``group`` one index per free dof;
    per cell ``offsets``, off(E, F) - start(F) of each lower pair of its
    polytopes (4 bytes each), ``scalar_dofs`` (int64) and ``free_dofs``
    (int32) of its local scalar dofs and ``cut`` (1 byte).
    """

    def __init__(self, layouts, free):
        k = self.k = layouts[0].n_comps
        starts = np.cumsum([0] + [fl.dofmap.n_dofs for fl in layouts])
        self.scalar_dofs = np.concatenate(
            [fl.dofmap.cell_dofs + s for fl, s in zip(layouts, starts)], axis=1)
        ents = np.array([(i,) + e for i, fl in enumerate(layouts)
                         for e in local_entities(fl.space)])
        # a cell's polytopes (field, rank, entity); ``slot`` that of each local dof
        _, rep, slot, size = np.unique(ents[:, :3], axis=0, return_index=True,
                                       return_inverse=True, return_counts=True)
        first = self.scalar_dofs[:, rep] - ents[rep, 3]     # (nc, n_poly)
        node = free.reshape(-1, k)
        self.node_free = node[:, 0]
        on, pon = self.node_free[self.scalar_dofs], self.node_free[first]
        if np.any(node != node[:, :1]) or np.any(on != pon[:, slot]):
            raise InvalidParam("the Dirichlet constraints fix some, not all, of the "
                               f"{k} components of the scalar dofs of a polytope")
        self.cut = ~on.all(axis=1)              # cells with a constrained dof
        # free scalar numbering; 0 for constrained ones, whose entries are masked
        number = np.cumsum(self.node_free, dtype=np.int32 if len(free) < 2 ** 31
                           else np.int64) - 1
        self.free_dofs = np.where(on, number[self.scalar_dofs], 0)
        # the free polytopes in order, their runs and the cells of each
        n_at = np.zeros(len(node), dtype=np.int64)
        n_at[first] = size * pon
        poly, runs = (np.cumsum(n_at > 0) - 1)[first], k * n_at[n_at > 0]
        nq, start, cell = len(runs), np.cumsum(runs) - runs, np.nonzero(pon)[0]
        cells_of = sp.csc_matrix((np.ones(len(cell), dtype=bool), (cell, poly[pon])),
                                 shape=(len(first), nq))
        self.group = np.repeat(_supervariables(cells_of.indptr, cells_of.indices, nq), runs)
        # Q from the lower pairs (x >= y) of each cell's free polytopes
        x, y = np.tril_indices(first.shape[1])
        both = pon[:, x] & pon[:, y]
        pe, pf = poly[:, x][both], poly[:, y][both]
        pe, pf = np.maximum(pe, pf), np.minimum(pe, pf)
        Q = sp.csr_matrix((np.ones(len(pe), dtype=bool), (pe, pf)), shape=(nq, nq))
        # Q in blocks, E's block row the runs of its row of Q: ``at`` the
        # start of each run in them, ``head`` that of each block row
        lens, n_row = runs[Q.indices], np.diff(Q.indptr)
        at = np.cumsum(lens) - lens
        head = at[Q.indptr[:-1]]
        # row g of E: its block row up to g, off(E, E) + g - start(E) + 1 entries
        lens_g = np.repeat(at[Q.indptr[1:] - 1] - head, runs) + _ranges(np.ones(nq), runs)
        itype = np.int32 if lens_g.sum() < 2 ** 31 - 1 else np.int64
        self.indptr = np.concatenate([[0], np.cumsum(lens_g)]).astype(itype)
        self.indices = _ranges(start[Q.indices], lens, itype).take(
            _ranges(np.repeat(head, runs), lens_g, itype))
        # off(E, F) - start(F) of each cell's lower pairs, looked up in Q
        Q.data = at - np.repeat(head, n_row) - start[Q.indices]
        self.offsets = np.zeros(both.shape, dtype=itype)
        if nq:      # (SciPy answers no indices with a sparse matrix)
            self.offsets[both] = Q[pe, pf].A1
        # the stored half's pairs A > B (the diagonal A = B ends its rows),
        # and the lower pair hi (hi + 1) / 2 + lo of polytopes of each
        self.pairs = a, b = np.tril_indices(len(ents), -1)
        hi, lo = np.maximum(slot[a], slot[b]), np.minimum(slot[a], slot[b])
        self.pair_offset = hi * (hi + 1) // 2 + lo

    def positions(self, cells):
        """Positions of the stored halves of a chunk's element matrices:
        (nc, k k n_pairs) of the pairs, (nc, k (k + 1) / 2, nb) of the
        diagonal (``_halves`` order); without free dofs, all the spare
        slot 0.  A pair A > B whose global order is reversed (scalar dof
        of A below that of B) swaps the components of row and column."""
        k, (a, b), span = self.k, self.pairs, self.span(cells)
        sd, (r, s) = self.free_dofs[cells], np.tril_indices(k)
        off = self.offsets[cells][:, self.pair_offset]      # (nc, pair)
        if not len(self.indices):
            return (np.zeros((len(sd), k * k * len(a)), dtype=off.dtype),
                    np.zeros((len(sd), len(r), sd.shape[1]), dtype=off.dtype))
        # entry (r, s) of a diagonal block, s <= r, ends row k i + r at r - s
        diag = (self.indptr[k * sd[:, None] + r[:, None] + 1]
                - (r - s + 1)[:, None].astype(off.dtype))            # (nc, rs, A)
        sa, sb, comp = sd[:, a], sd[:, b], np.arange(k, dtype=off.dtype)
        row, swap = np.maximum(sa, sb), sa < sb
        first = self.indptr[k * row[:, None] + comp[:, None]]         # (nc, r, pair)
        first += (off + k * np.minimum(sa, sb))[:, None]    # column k j, component 0
        pos = np.empty((len(sd), k, k, len(a)), dtype=off.dtype)     # (nc, r, s, pair)
        np.add(first[:, :, None], comp[:, None], out=pos)
        for i, j in zip(*np.triu_indices(k, 1)):    # in place, no full temporary
            lo, hi = pos[:, i, j], pos[:, j, i]
            lo[swap], hi[swap] = hi[swap], lo[swap]
        if span is not None:
            on = self.node_free[self.scalar_dofs[cells][span]]
            np.copyto(diag[span], len(self.indices), where=~on[:, None])
            np.copyto(pos[span], len(self.indices),
                      where=~(on[:, a] & on[:, b])[:, None, None])
        return pos.reshape(len(pos), -1), diag

    def span(self, cells):
        """The slice of a chunk from its first to its last cell with a
        constrained dof (boundary cells tend to be adjacent), or None."""
        hit = np.flatnonzero(self.cut[cells])
        return slice(hit[0], hit[-1] + 1) if len(hit) else None


def _element_chunks(n_cells, table, n_mats, k, nb):
    """Chunks of cells whose halves of all matrices with their positions
    (8 n_mats + 4 bytes per entry of a half), or the lifts' G x_c (k 2
    n_terms nb doubles per cell), fit in mesh._CHUNK_NNZ doubles."""
    half = k * k * (table.shape[1] - nb) + k * (k + 1) // 2 * nb
    return _chunks(n_cells, max(n_mats * half + half // 2, k * len(table) * nb))


def _halves(mesh, coeffs, table, cells, nb):
    """Coefficients x2 = [x, x with r and s swapped] (n_mats, nc, k, k, 2
    n_terms) of a chunk, x = coeffs(|det J|^(1/2) J^{-T}, J, |det J|),
    and the stored halves of its element matrices K[r, s, A, B] = x2[r,
    s] @ table[:, AB], one GEMM over all matrices per part: pairs A > B
    (n_mats, nc, k, k, n_pairs) and diagonal A = B, r >= s (n_mats, nc,
    k (k + 1) / 2, nb)."""
    adet = np.abs(mesh.dets[cells])
    x = coeffs(mesh.inv_ts[cells] * np.sqrt(adet)[:, None, None], mesh.jacs[cells], adet)
    x2 = np.concatenate([x, x.swapaxes(2, 3)], axis=4)
    n_pairs, (r, s) = table.shape[1] - nb, np.tril_indices(x.shape[2])
    pairs = x2.reshape(-1, len(table)) @ table[:, :n_pairs]
    diag = x2[:, :, r, s].reshape(-1, len(table)) @ table[:, n_pairs:]
    return (x2, pairs.reshape(x.shape[:4] + (n_pairs,)),
            diag.reshape(x.shape[:2] + (len(r), nb)))


def _assemble(mesh, rule, fields, table, coeffs, loads=(), n_mats=1,
              dirichlet=None, coupled=True):
    """System of the element matrices of ``_halves`` (``matrix``,
    ``c_matrix`` if n_mats = 2) and the load vector of ``loads``, (field,
    reference table, callback or None), on the free dofs of the Dirichlet
    datum ``dirichlet`` (``_constraints``).  The matrices share one CSR
    pattern of lower triangles (``Pattern``), every coupling through a
    cell, also where its sum over cells vanishes: dropping those breaks
    the k x k block structure that the factorization's ordering relies
    on, raising fill.  Each lower entry receives one stored element entry
    per cell, in cell order, so each matrix is the lower triangle of the
    exactly symmetric matrix the element matrices give.  The lifts apply
    K_e, unformed, to x_e: (K_e x_e)[r, A] = sum_s x2[r, s] @ G[s, :, A],
    G = [G_t; G_t^T] x_e."""
    t0 = time.perf_counter()
    free, x_con = _constraints(mesh, fields, dirichlet, coupled)
    t1 = time.perf_counter()
    pat = Pattern(list(fields.values()), free)
    (nc, nb), k, nnz = pat.scalar_dofs.shape, pat.k, len(pat.indices)
    # one array per matrix, so that SciPy keeps views without the last
    # entry, the spare slot, instead of copying them
    data = [np.zeros(nnz + 1) for _ in range(n_mats)]
    ax = np.zeros((n_mats, len(free)))      # M x_con of each matrix
    x_node, comp = x_con.reshape(-1, k), np.arange(k)
    if pat.cut.any():       # [G_t; G_t^T] (2 n_terms, nb, nb) from the table
        (a, b), d, t = pat.pairs, np.arange(nb), len(table) // 2
        full = np.empty((len(table), nb, nb))
        full[:, a, b], full[:, d, d] = table[:, :len(a)], table[:, len(a):]
        full[:t, b, a], full[t:, b, a] = table[t:, :len(a)], table[:t, :len(a)]
    for cells in _element_chunks(nc, table, n_mats, k, nb):
        pos, dpos = pat.positions(cells)
        x2, pairs, diag = _halves(mesh, coeffs, table, cells, nb)
        for m in range(n_mats):     # in cell order per entry
            np.add.at(data[m], pos.ravel(), pairs[m].ravel())
            np.add.at(data[m], dpos.ravel(), diag[m].ravel())
        del pairs, diag, pos, dpos
        span = pat.span(cells)
        if span is not None:    # G (ns, s t, A) of x_con on the span's cells
            sd = pat.scalar_dofs[cells][span]
            xe = x_node[sd].transpose(0, 2, 1).reshape(-1, nb)
            g = (xe @ full.reshape(-1, nb).T).reshape(len(sd), -1, nb)
            for m in range(n_mats):
                np.add.at(ax[m], k * sd[:, None, :] + comp[:, None],
                          x2[m, span].reshape(len(sd), k, -1) @ g)
            del xe, g
        del x2      # before the next chunk's
    rhs = np.zeros(len(free))
    for layout, tab, func in (load for load in loads if load[2] is not None):
        for cells in _chunks(nc, tab.size * layout.n_comps):
            w = _weights(mesh, rule, cells)
            xq = mesh.map_points(cells, rule.simplex_points)
            fv = _call(func, xq).reshape(w.shape + (layout.n_comps, -1))
            np.add.at(rhs, layout.cell_dofs(cells),
                      _project(w, fv, _values(mesh, tab, cells)))

    n, lift = len(pat.indptr) - 1, -ax[:, free]
    mats = [sp.csr_matrix((d[:nnz], pat.indices, pat.indptr), shape=(n, n))
            for d in data] + [None]
    return SparseSystem(matrix=mats[0], rhs=rhs[free] + lift[0], fields=fields,
                        mesh=mesh, c_matrix=mats[1], free=free, x_con=x_con,
                        lift=lift, con_energy=ax @ x_con, group=pat.group,
                        assembly_s=time.perf_counter() - t1, dirichlet_s=t1 - t0)


def _iso(S, diag, swap, trace):
    """Coefficients (nc, 3, 3, 9) [r, s, (d, e)] = diag delta_rs (S^T S)_de +
    swap S_sd S_re + trace S_rd S_se of diag delta_rs sum_t G[a,t,b,t] + swap
    G[a,s,b,r] + trace G[a,r,b,s], G[a,r,b,s] = S_rd S_se G^de_ab, dof (r, a)
    of row r; (mu + mu_c, mu - mu_c, lam) gives lam (tr E)^2 + 2 mu |sym
    E|^2 + 2 mu_c |skw E|^2."""
    ss = S[:, :, None, :, None] * S[:, None, :, None, :]    # S_rd S_se
    x = swap * ss.transpose(0, 2, 1, 3, 4) + trace * ss
    x[:, [0, 1, 2], [0, 1, 2]] += diag * (np.swapaxes(S, 1, 2) @ S)[:, None]
    return x.reshape(len(S), 3, 3, 9)


# ---------------------------------------------------------------------------
# forms

def assemble_antiplane(mesh: Mesh, params: MaterialParams,
                       u_space: SpaceDescriptor, p_space: SpaceDescriptor,
                       f=None, m=None, dirichlet=None) -> SparseSystem:
    """System for the antiplane form
    mu_e <grad u - p, grad du - dp> + mu_micro <p, dp>
    + mu_macro lc^2 rot p rot dp  -  (f, du) - (m, dp) under the
    Dirichlet datum ``dirichlet``, (facet_ids, ufunc, gradfunc) or None;
    the coupling condition enters p through the curvature term, so lc > 0.
    """
    if mesh.dim != 2 or u_space.dim != 2 or p_space.dim != 2:
        raise SpaceMismatch("antiplane model is two-dimensional")
    if u_space.family != "h1" or p_space.family not in ("nedelec1", "nedelec2"):
        raise SpaceMismatch("need scalar H1 u-space and H(curl) p-space")
    qd = _default_degree(u_space, p_space)
    rule, uvals, _ = _h1_ref(u_space.degree, 2, qd)
    _, pvals, _ = _hcurl_ref(p_space, qd)
    fields = _layouts(mesh, {"u": u_space, "p": p_space}, 1)
    pr = params

    def coeffs(S, J, adet):
        # the Gram blocks of grad u - p and of p weigh S^T S, the rot's 1 / |det|
        g = (np.swapaxes(S, 1, 2) @ S).reshape(-1, 4)
        x = np.concatenate([pr.mu_e * g, (pr.mu_e + pr.mu_micro) * g,
                            pr.curl_coeff / adet[:, None]], axis=1)
        return x[None, :, None, None]

    return _assemble(mesh, rule, fields, _form_ref(u_space.degree, p_space, qd, 2),
                     coeffs, loads=[(fields["u"], uvals, f), (fields["p"], pvals, m)],
                     dirichlet=dirichlet, coupled=pr.lc > 0.0)


def assemble_full3d(mesh: Mesh, params: MaterialParams,
                    u_space: SpaceDescriptor, p_space: SpaceDescriptor,
                    f=None, M=None, split_curl: bool = False,
                    dirichlet=None) -> SparseSystem:
    """System for the relaxed micromorphic form with [H1]^3 displacement
    and one H(curl) space per microdistortion row (row-wise Curl) under
    the Dirichlet datum ``dirichlet`` (in P by the coupling condition).

    With ``split_curl`` the curl-curl part is kept as a separate matrix
    with unit coefficient so characteristic-length sweeps can recombine
    without reassembly.
    """
    if mesh.dim != 3 or u_space.dim != 3 or p_space.dim != 3:
        raise SpaceMismatch("full model is three-dimensional")
    if u_space.family != "h1" or p_space.family not in ("nedelec1", "nedelec2"):
        raise SpaceMismatch("need H1 u-space and H(curl) P-space")
    qd = _default_degree(u_space, p_space)
    rule, uvals, _ = _h1_ref(u_space.degree, 3, qd)
    _, pvals, _ = _hcurl_ref(p_space, qd)
    fields = _layouts(mesh, {"u": u_space, "p": p_space}, 3)
    # E = Du - P enters with (mu_e, mu_c, lam_e), P alone adds (mu_micro,
    # lam_micro), see _iso and _form_ref; row-wise Curl: curl P of row r
    # weighs (J^T J) / |det| on the diagonal blocks
    pr, n_mats = params, 2 if split_curl else 1
    cc = 1.0 if split_curl else pr.curl_coeff

    def coeffs(S, J, adet):
        x = np.zeros((n_mats, len(S), 3, 3, 27))
        e = np.array([pr.mu_e + pr.mu_c, pr.mu_e - pr.mu_c, pr.lam_e])
        x[0, ..., :9] = _iso(S, *e)
        x[0, ..., 9:18] = _iso(S, *(e + [pr.mu_micro, pr.mu_micro, pr.lam_micro]))
        curl = (np.swapaxes(J, 1, 2) @ J / adet[:, None, None]).reshape(-1, 1, 1, 9)
        x[-1, ..., 18:] = cc * np.eye(3)[..., None] * curl
        return x

    return _assemble(mesh, rule, fields, _form_ref(u_space.degree, p_space, qd, 3),
                     coeffs, loads=[(fields["u"], uvals, f), (fields["p"], pvals, M)],
                     n_mats=n_mats, dirichlet=dirichlet)


def assemble_cauchy3d(mesh: Mesh, u_space: SpaceDescriptor, f=None,
                      dirichlet=None) -> SparseSystem:
    """Classical linear elasticity for the lc energy bounds, split by
    modulus: ``matrix`` S is its mu = 1 part and ``c_matrix`` D its
    lam = 1 (div-div) part, so moduli (lam, mu) give mu S + lam D; under
    the Dirichlet datum ``dirichlet``."""
    if mesh.dim != 3 or u_space.dim != 3 or u_space.family != "h1":
        raise SpaceMismatch("cauchy3d needs a 3D H1 space")
    qd = 2 * u_space.degree
    rule, uvals, _ = _h1_ref(u_space.degree, 3, qd)
    fields = _layouts(mesh, {"u": u_space}, 3)

    def coeffs(S, J, adet):
        return np.stack([_iso(S, 1.0, 1.0, 0.0), _iso(S, 0.0, 0.0, 1.0)])

    return _assemble(mesh, rule, fields, _form_ref(u_space.degree, None, qd, 3),
                     coeffs, loads=[(fields["u"], uvals, f)], n_mats=2,
                     dirichlet=dirichlet, coupled=False)


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


def l2_error_h1(mesh: Mesh, layout: FieldLayout, x, func):
    """L2 distance between an H1 field and a callback on physical points."""
    rule, uvals, _ = _h1_ref(layout.space.degree, mesh.dim, 2 * layout.space.degree + 2)
    return _l2_distance(mesh, layout, x, func, rule, uvals)


def l2_error_hcurl(mesh: Mesh, layout: FieldLayout, x, func):
    """L2 distance for an H(curl) field; rows stacked for tensor fields."""
    rule, pvals, _ = _hcurl_ref(layout.space, 2 * layout.space.degree + 4)
    return _l2_distance(mesh, layout, x, func, rule, pvals)


def rot_l2_norm(mesh: Mesh, layout: FieldLayout, x):
    """L2 norm of the 2D rot of an H(curl) field."""
    rule, _, pcurls = _hcurl_ref(layout.space, 2 * layout.space.degree + 2)
    total = 0.0
    for cells in _chunks(mesh.n_cells, pcurls.size):
        rot = x[layout.cell_dofs(cells)[:, 0]] @ pcurls.T / mesh.dets[cells, None]
        total += float(np.sum(_weights(mesh, rule, cells) * rot ** 2))
    return np.sqrt(total)
