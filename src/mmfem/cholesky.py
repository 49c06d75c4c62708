"""Supernodal multifrontal Cholesky factorization of sparse SPD matrices.

``factor(K)`` computes P K P^T = L L^T for a symmetric positive definite
K given by its lower triangle, canonical CSR (rows with sorted columns,
the diagonal last), as ``assembly`` stores its matrices and
``solver.solve_family`` checks them.  A pivot block that is not positive
definite raises NotPositiveDefinite, so a completed factor certifies K
as SPD.

Analysis (``analyse``), once per sparsity pattern:

1. Supervariables (Ashcraft's compressed graph, SIAM J. Sci. Comput. 16,
   1995): columns with identical row sets, from the finite element
   pattern (``assembly.Pattern.group``) or, for a bare matrix, exact.
2. Ordering and symbolic factor.  The quotient graph, one node per
   supervariable, is ordered by SuperLU's multiple minimum degree
   (MMD_AT_PLUS_A) and factored there with Stieltjes values
   (off-diagonal -1, strictly diagonally dominant), whose Cholesky
   factor has no cancellation: the pattern of that L is the symbolic
   factor, postordered by one permutation of SuperLU's unsorted L (only
   the columns that end a supernode get sorted).  The ordering sees the
   block pattern only, never the values of K.
3. Supernodes.  Fundamental supernodes of the quotient tree in
   postorder, then relaxed amalgamation of a last child into its parent
   (CHOLMOD's default thresholds, ``_RELAX``).
4. Schedule.  Supernodes are grouped by their height in the tree
   (leaves first) and their front shape: k pivot columns, n front rows,
   m = n - k update rows; a large front (m > _FLAT_ROWS) is a group of
   its own.  The extend-add of each group into its parents is planned
   here: for a small child, the positions of its update rows in its
   parent's front (relative rows, one index per row, found per node);
   for a large one, runs of consecutive parent rows.  Then the position
   in the factor of every stored entry (``Symbolic.dst``, in storage
   order), linear in the new index of its row for a fixed column: found
   once per supervariable, in the row of its last column, which holds
   every column that the rows of the others hold.

Numeric factorization: one (n, k) panel per supernode holds the factor;
K's stored entries go into it in one scatter, ``values[dst] = K.data``.
Groups run in order of height.  A single front is factored in place on
its panel by LAPACK and BLAS-3: dpotrf for L11, L21 = F21 L11^-T by
dtrtri into a k x k temporary and an in-place dtrmm, and dsyrk for
V = L21 L21^T (``_front``); a batch of small fronts by NumPy's batched
Cholesky, inverse and matmul.  V plus the children's waiting parts is
the negated update matrix, valid and read on and below the diagonal
only.  Its parts in the parents' pivot columns are subtracted from their
panels at once; the rest waits until the parent has formed its own V.
Small update matrices (m <= _FLAT_ROWS) move by flat positions computed
from the relative rows and a lower-triangle template per m, a piece of
children of one parent group at a time, and their waiting part is a
flat copy with its positions.  Larger ones move by block pairs of runs
of consecutive parent rows; a child's rows that land in its parent's
update matrix are its last ones, and what waits of them is a staircase:
per trailing run, a copy of its rows up to the run's end (the pairs on
and below the diagonal read no more).  Forward and backward
substitution run by the same groups, through a solve plan that each
``Factor`` builds once: per group, views of its pivot block and of L21
and the front rows, so a solve derives no view or index of its own and
copies no part of the factor; a single supernode's dtrsv works in place.

Memory: the factor, ``Symbolic.size`` entries, the sum of n k over the
supernodes (``nnz`` counts the entries on or below the diagonal); the
analysis, ``Symbolic.nbytes``: one index per stored entry of K (int32
below 2^31), the front rows and one index per update row of each small
child; and while the factor is computed, at most ``Symbolic.update_peak``
8-byte words of update storage, found by walking the schedule
(``_update_peak``).  So ``factor`` holds at most 8 (size + update_peak)
bytes (``Symbolic.factor_bytes``; Python objects and NumPy's iteration
buffers included), with no gather or copy of K's entries.  The analysis
itself peaks below nbytes, a fixed term and 24 bytes per stored entry
of K (``analyse``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from .errors import FactorizationFailed, InsufficientMemory, NotPositiveDefinite

# entries per chunk of the per-entry passes of the analysis (at most
# 0.66 MB of temporaries)
_CHUNK = 1 << 13
# the fixed term of the traced peak of ``analyse``
_FIXED_BYTES = 1 << 20
# Python objects and NumPy's iteration buffers in ``factor``: per group
# (a panel view and its entry of the solve plan), per waiting part (its
# tuple, array headers and lists), per run of a waiting staircase (three
# ints and a piece), and in one step: an in-place add of strided blocks
# buffers its three operands, getbufsize() doubles each (``ufunc.at``
# less), and small objects
_OBJ_GROUP, _OBJ_PART, _OBJ_RUN = 768, 384, 352
_OBJ_STEP = 3 * 8 * np.getbufsize() + (16 << 10)
# Update matrices of up to _FLAT_ROWS rows move by flat positions,
# computed in ``factor`` from 4 bytes per row, larger ones by block
# pairs of runs (one Python step per pair), and their fronts go alone.
_FLAT_ROWS = 128
# lower entries per piece of a group's flat extend-adds (about 3 MB of
# temporaries, counted by _update_peak)
_PIECE = 1 << 17
# Relaxed amalgamation, CHOLMOD's defaults (Chen, Davis, Hager &
# Rajamanickam, ACM TOMS 35, 2008): a child merges into its parent when
# the merged supernode has at most `cols` columns and a fraction of
# explicit zeros below `zeros`; a last pair with unbounded width.
_RELAX = ((4, 1.0), (16, 0.8), (48, 0.1), (np.inf, 0.05))


def _ranges(starts, lengths, dtype=np.int64):
    """Concatenation of arange(s, s + l) over the pairs (s, l)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    return (np.arange(ends[-1] if len(ends) else 0, dtype=dtype)
            + np.repeat((np.asarray(starts, dtype=np.int64) - ends
                         + lengths).astype(dtype), lengths))


def _column_chunks(indptr, size=_CHUNK):
    """Column ranges (c0, c1) holding at most ``size`` entries each (at
    least one column), so that per-entry temporaries stay small."""
    n, c0 = len(indptr) - 1, 0
    while c0 < n:
        c1 = int(np.searchsorted(indptr, indptr[c0] + size,
                                 side="right")) - 1
        c1 = min(max(c1, c0 + 1), n)
        yield c0, c1
        c0 = c1


def _supervariables(indptr, indices, n):
    """Label of each column, equal for the columns of one row set: the
    row lists of the columns of one count, sorted as rows of one array."""
    counts = np.diff(indptr)
    order = np.argsort(counts, kind="stable")
    label = np.empty(n, dtype=np.int64)
    for cols in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
        c = int(counts[cols[0]]) if len(cols) else 0
        rows = indices[_ranges(indptr[cols], np.full(len(cols), c))].reshape(
            len(cols), c)
        o = np.lexsort(rows.T[::-1]) if c else np.arange(len(cols))
        new = np.concatenate([[True], np.any(rows[o[1:]] != rows[o[:-1]], axis=1)])
        label[cols[o]] = c * (n + 1) + np.cumsum(new)
    return label


def _quotient_factor(rows, t_label, label, lastcol):
    """Ordering and symbolic factor of the quotient graph, from the
    ``rows`` on or above the diagonal of the last column of each
    supervariable (``t_label``, its label), which meet every neighbour
    whose last column comes first, at that column: (perm, Lp, Li) with
    perm[new] = old supervariable and (Lp, Li) SuperLU's CSC pattern of
    the Cholesky factor in the new order (unsorted).  Memory: Q (12 bytes
    per entry, two per edge) from A and its transpose (12 bytes per edge
    each), then SuperLU's L (12 bytes per entry), then its pattern (4)."""
    ns = len(lastcol)
    keep = np.zeros(len(label), dtype=bool)
    keep[lastcol] = True
    keep = keep[rows]
    qr = label[rows[keep]]
    qc = t_label[keep]
    off = qr != qc
    qc, qr = qc[off], qr[off]
    # Stieltjes values: the factor of an M-matrix has no cancellation.
    # Q = A + A^T, A[qc, qr] = -1 (each pair once) with half the diagonal
    degree = np.bincount(qc, minlength=ns) + np.bincount(qr, minlength=ns)
    ends = np.cumsum(np.bincount(qc, minlength=ns))      # qc is sorted
    A = sp.csr_matrix((np.full(len(qr) + ns, -1.0),
                       np.insert(qr, ends, np.arange(ns, dtype=qr.dtype)),
                       np.concatenate([[0], ends + np.arange(1, ns + 1)])),
                      shape=(ns, ns))
    del qr, qc, off, keep
    A.data[A.indptr[1:] - 1] = 0.5 * (degree + 1.0)     # each row's last
    A.sort_indices()
    Q = A + A.T.tocsr()
    del A
    # Q is symmetric: its CSR arrays are its CSC ones, no conversion
    lu = spla.splu(sp.csc_matrix((Q.data, Q.indices, Q.indptr), shape=Q.shape),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    del Q
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationFailed("quotient graph pivoted off the diagonal")
    L, perm = lu.L, np.argsort(lu.perm_c)
    del lu
    return perm, L.indptr, L.indices


def _postorder(parent):
    """A postorder of the forest given by ``parent`` (-1 at roots, every
    parent numbered after its children), siblings in ascending order."""
    par = parent.tolist()
    size = [1] * len(par)
    for j, p in enumerate(par):
        if p >= 0:
            size[p] += size[j]
    # place subtrees right to left: each node last in its own range,
    # the children's ranges before it, from the last child down
    at, free, top = [0] * len(par), [0] * len(par), len(par)
    for j in range(len(par) - 1, -1, -1):
        p = par[j]
        if p < 0:
            top -= size[j]
            start = top
        else:
            free[p] -= size[j]
            start = free[p]
        at[j] = free[j] = start + size[j] - 1
    return np.argsort(np.asarray(at))


def _amalgamate(first, last, k, rows, nz, sparent):
    """Relaxed amalgamation of the supernodes (in postorder; node ranges
    first..last).  Returns (kept, first, final) where ``final`` maps each
    supernode to the kept supernode that absorbed it.  Only the last
    child, whose nodes end just before the parent's, can join it."""
    cand = np.flatnonzero(sparent >= 0)
    cand = cand[last[cand] + 1 == first[sparent[cand]]]
    first, k, rows, nz = (a.tolist() for a in (first, k, rows, nz))
    merged = []
    for s, p in zip(cand.tolist(), sparent[cand].tolist()):
        cols, nrow = k[s] + k[p], k[s] + rows[p]
        zeros = 1.0 - (nz[s] + nz[p]) / (cols * nrow - cols * (cols - 1) // 2)
        if any(cols <= c and zeros < z for c, z in _RELAX):
            first[p], k[p], rows[p] = first[s], cols, nrow
            nz[p] += nz[s]
            merged.append(s)
    kept = np.bincount(merged, minlength=len(k)) == 0
    final = np.where(kept, np.arange(len(k)), sparent)
    while not np.array_equal(final[final], final):     # merge chains
        final = final[final]
    return kept, np.asarray(first), np.asarray(final)


@dataclass
class _Group:
    """Supernodes of one height and one front shape (k pivot columns, n
    front rows; a large front alone), stored as a (B, n, k) panel block.

    The extend-add of its update matrices V (B, m, m) into the parents,
    on and below the diagonal: update matrices up to _FLAT_ROWS rows go
    by flat positions that ``factor`` derives from ``flat``, larger ones
    by block pairs of runs of consecutive parent rows.  A child's rows
    that land in its parent's pivot columns come first: ``t`` of them,
    from ``rel`` for a small child; runs ``runs[:t]`` of a large child,
    whose ``runs[t:]``, its trailing rows from ``runs[t][0]`` on, land in
    the parent's update matrix.
    """
    offset: int         # start of the panels in the factor storage
    k: int
    n: int
    rows: np.ndarray    # (B, n) front rows in the factor's order
    flat: tuple         # small children (rel, pgroup, slot, pbase): the
                        # (B, m) rows of each in its parent's front, the
                        # parent's group, index in it and panel offset
    blocks: list        # (parent group, child, parent slot, runs, t),
                        # runs: [(j0, j1, p0)] rows j0:j1 -> p0:


def _pieces(pgroup, L):
    """A group's small children in runs of one parent group, each cut
    into pieces of at most _PIECE lower entries (at least one child of
    ``L`` entries): (c0, c1)."""
    size = max(1, _PIECE // L)
    cuts = (np.flatnonzero(np.diff(pgroup)) + 1).tolist()
    for r0, r1 in zip([0, *cuts], [*cuts, len(pgroup)]):
        for c0 in range(r0, r1, size):
            yield c0, min(c0 + size, r1)


def _update_peak(groups, pos):
    """Peak bytes of update storage while ``factor`` runs, group by
    group: the pending flat copies (a value and a ``pos``-byte position
    per entry) and staircases, plus the group's update matrices V (before
    them, a batch's pivot temporaries: inverse and Cholesky factor, then
    the product for L21; a single front's inverse of L11), and while V
    lives, the copies taken from it and the temporaries of
    ``_flat_moves``: (4 pos + 1) m + 32 bytes per child, and for one piece
    of children (2 pos + 17) L each and 8 L, L = m (m + 1) / 2 its lower
    entries.  Throughout, the
    lower-triangle templates of the small update matrices' sizes: 12 L
    bytes per size.  Python objects and NumPy's buffers: _OBJ_GROUP per
    group, _OBJ_PART per waiting part (a piece of flat copies or a
    staircase) and _OBJ_RUN per run of a staircase, and _OBJ_STEP
    throughout."""
    gk = np.asarray([g.k for g in groups])
    pending = [0] * len(groups)
    total = peak = 0
    fixed = _OBJ_GROUP * len(groups) + _OBJ_STEP
    for m in {g.n - g.k for g in groups if g.flat is not None}:
        fixed += 12 * (m * (m + 1) // 2)
    for g, grp in enumerate(groups):
        B, k, m = len(grp.rows), grp.k, grp.n - grp.k
        V = 8 * B * m * m
        work = 8 * B * k * max(2 * k, m) if B > 1 else 8 * k * k * (m > 0)
        peak = max(peak, total + max(V, work))
        total -= pending[g]
        new = temp = 0
        if grp.flat is not None:
            pgroup, L = grp.flat[1], m * (m + 1) // 2
            t = np.sum(grp.flat[0] < gk[pgroup][:, None], axis=1)
            wait = (8 + pos) * (m - t) * (m - t + 1) // 2
            qs, at = np.unique(pgroup, return_index=True)
            for q, w in zip(qs.tolist(), np.add.reduceat(wait, at).tolist()):
                pending[q] += w
                new += w
            for c0, _ in _pieces(pgroup, L):
                pending[pgroup[c0]] += _OBJ_PART
                new += _OBJ_PART
            temp = ((4 * pos + 1) * B * m + 32 * B + 8 * L
                    + (2 * pos + 17) * L * min(B, max(1, _PIECE // L)))
        for q, _, _, runs, t in grp.blocks:
            if t < len(runs):
                tail = _OBJ_PART + sum(8 * (i1 - i0) * (i1 - runs[t][0])
                                       + _OBJ_RUN for i0, i1, _ in runs[t:])
                pending[q] += tail
                new += tail
        peak = max(peak, total + V + new + temp)
        total += new
    return peak + fixed


@dataclass
class Symbolic:
    """Analysis of one sparsity pattern, reused by every numeric factor
    of a matrix on that pattern."""
    perm: np.ndarray            # perm[new] = old column
    groups: list                # _Group in factorization order
    dst: np.ndarray             # factor position of each stored entry
    size: int                   # factor storage entries
    nnz: int                    # factor entries (lower trapezoids)
    supernodes: int
    update_peak: int            # peak update storage of factor, 8-byte words

    @property
    def factor_bytes(self):
        """Bytes of the factor storage and the peak update storage."""
        return 8 * (self.size + self.update_peak)

    @property
    def nbytes(self):
        """Bytes of the arrays the analysis keeps."""
        arrays = [self.perm, self.dst]
        for g in self.groups:
            arrays += [g.rows, *(g.flat or ())]
        return sum(a.nbytes for a in arrays)


def _runs(rel, k):
    """Maximal runs of consecutive positions in ``rel`` that do not cross
    position k: (j0, j1, rel[j0])."""
    cut = np.flatnonzero((np.diff(rel) != 1) | (rel[1:] == k)) + 1
    starts = np.concatenate([[0], cut])
    ends = np.concatenate([cut, [len(rel)]])
    return list(zip(starts.tolist(), ends.tolist(), rel[starts].tolist()))


def _supernodes(parent, qcount, sc, sz, qoff):
    """Supernodes of the postordered quotient tree (scalar column counts
    ``sc``) as node ranges: (first, last, parent supernode) after relaxed
    amalgamation."""
    ns = len(parent)
    nchild = np.bincount(parent[parent >= 0], minlength=ns)
    # fundamental: chains j -> j + 1 of only children whose structures nest
    chain = ((parent[:-1] == np.arange(1, ns)) & (nchild[1:] == 1)
             & (qcount[:-1] == qcount[1:] + 1))
    first = np.flatnonzero(np.concatenate([[True], ~chain]))
    last = np.concatenate([first[1:], [ns]]) - 1
    snode_of_node = np.repeat(np.arange(len(first)), last - first + 1)
    k = qoff[last + 1] - qoff[first]
    nz = np.add.reduceat(sz * sc - sz * (sz - 1) // 2, first)
    sparent = np.where(parent[last] >= 0, snode_of_node[parent[last]], -1)
    kept, first, final = _amalgamate(first, last, k, k + sc[last] - sz[last],
                                     nz, sparent)
    renum = np.cumsum(kept) - 1
    sparent = np.where(sparent[kept] >= 0, renum[final[sparent[kept]]], -1)
    return first[kept], last[kept], sparent


def analyse(K, label=None) -> Symbolic:
    """Ordering, symbolic factor, supernodes and schedule of the pattern
    of the symmetric matrix whose lower triangle is the canonical CSR
    ``K``; see the module docstring.  Columns of one ``label`` must
    have one row set in that symmetric pattern
    (``assembly.Pattern.group``); without labels, exact row sets group
    the columns.  ``Symbolic.dst`` holds the factor position of each
    stored entry of the triangle, in storage order.

    Row i of the triangle holds the rows <= i of column i of the
    symmetric matrix, and the columns of a supervariable share their row
    set, so the row of its last column holds every row that any of its
    stored entries needs: the analysis reads that row once per
    supervariable and the symmetric pattern is never formed (for a
    bare matrix without labels, only transiently to find them).

    The traced peak of the analysis of a triangle stays below
    ``Symbolic.nbytes`` + _FIXED_BYTES (1 MiB) + 24 bytes per stored
    entry.  The fixed term covers the temporaries of the per-entry
    passes (chunks of _CHUNK entries, at most 0.66 MB), the schedule's
    Python objects and SciPy's temporaries of the quotient ordering
    (about 100 KB on a 145-dof matrix).  The per-entry term holds for
    finite element patterns, whose supervariable graph has few edges and
    a symbolic factor of few entries beside the stored ones (about 48
    bytes per edge, 12 per factor entry here, ``_quotient_factor``).
    Measured above nbytes: 11.0 bytes per stored entry on the 2D
    benchmark system (peak 22.4 MB), 1.4 on the 3D one; 52 on random
    matrices without supervariables, whose fill doubles them.
    """
    indptr, indices, n = K.indptr, K.indices, K.shape[0]
    if n == 0:
        none = np.zeros(0, dtype=np.int64)
        return Symbolic(perm=none, groups=[], size=0, nnz=0, dst=none,
                        supernodes=0, update_peak=0)
    stype = np.int32 if max(len(indices), n) < 2 ** 31 else np.int64
    if label is None:   # exact row sets of the symmetric pattern
        P = sp.csr_matrix((np.ones(len(indices), dtype=bool), indices, indptr),
                          shape=(n, n))
        P = P + P.T
        label = _supervariables(P.indptr, P.indices, n)
        del P
    # counts of the symmetric pattern's columns: the row of the triangle
    # (``up``, the diagonal last if stored) and the column below it
    up = np.diff(indptr)
    has, counts = np.flatnonzero(up), up.astype(np.int64)
    counts[has] -= indices[indptr[has + 1] - 1] == has
    for a, b in _column_chunks(indptr, max(_CHUNK, n)):  # O(entries + n)
        counts += np.bincount(indices[indptr[a]:indptr[b]], minlength=n)
    # supervariables numbered in order of their first columns
    _, repcol, label = np.unique(label, return_index=True,
                                 return_inverse=True)
    label = np.argsort(np.argsort(repcol))[label.ravel()].astype(stype)
    repcol = np.sort(repcol)
    if np.any(counts != counts[repcol][label]):
        raise FactorizationFailed("columns of one supervariable have "
                                  "different row counts")
    ns = len(repcol)
    size_of = np.bincount(label, minlength=ns)
    lastcol = np.argsort(label, kind="stable")[np.cumsum(size_of) - 1]
    # the rows <= the last column of each supervariable, and its label
    tptr = np.concatenate([[0], np.cumsum(up[lastcol])]).astype(stype)
    rows = indices[_ranges(indptr[lastcol], up[lastcol], stype)].astype(stype)
    t_label = np.repeat(np.arange(ns, dtype=stype), up[lastcol])
    qperm, Lp, Li = _quotient_factor(rows, t_label, label, lastcol)
    # the elimination tree (each column's first row below the diagonal),
    # then L's columns and rows in its postorder
    qcount = np.diff(Lp)
    parent = np.minimum.reduceat(np.where(
        Li > np.repeat(np.arange(ns, dtype=Li.dtype), qcount), Li, ns), Lp[:-1])
    parent = np.where(parent < ns, parent, -1)
    post = _postorder(parent)
    ipost = np.argsort(post)
    parent = np.append(ipost, -1)[parent[post]]
    sc = np.add.reduceat(size_of[qperm][Li], Lp[:-1])[post]  # scalar counts
    qperm, qcount = qperm[post], qcount[post]

    # scalar order: supervariables in the new order, the columns of one
    # in ascending original order
    sz = size_of[qperm]
    qoff = np.concatenate([[0], np.cumsum(sz)])
    node_of_label = np.argsort(qperm).astype(stype)
    perm = np.argsort(node_of_label[label], kind="stable")
    iperm = np.empty(n, dtype=np.int64)
    iperm[perm] = np.arange(n)

    first, last, sparent = _supernodes(parent, qcount, sc, sz, qoff)
    S, c0 = len(first), qoff[first]
    k = qoff[last + 1] - c0

    # front rows: the supernode's nodes, then the structure of its last
    # node below the diagonal (its column of L, renumbered and sorted);
    # qfront is each node's first front row
    own, below = last - first + 1, qcount[last] - 1
    qptr = np.concatenate([[0], np.cumsum(own + below)])
    key = np.repeat(np.arange(S, dtype=np.int64) * ns, qcount[last])
    qrows = np.empty(qptr[-1], dtype=stype)
    qrows[_ranges(qptr[:-1], own - 1)] = _ranges(first, own - 1)
    qrows[_ranges(qptr[:-1] + own - 1, qcount[last])] = np.sort(
        key + ipost[Li[_ranges(Lp[post[last]], qcount[last])]]) - key
    del Lp, Li, key
    qfront = np.cumsum(sz[qrows]) - sz[qrows]
    qfront = (qfront - np.repeat(qfront[qptr[:-1]], own + below)).astype(stype)
    nrow = np.add.reduceat(sz[qrows], qptr[:-1])
    rptr = np.concatenate([[0], np.cumsum(nrow)])
    srows = _ranges(qoff[qrows], sz[qrows])

    # entry (s, node): 1 + the node's index in qrows (a search in row s)
    front = sp.csr_array((np.arange(1, len(qrows) + 1), qrows, qptr), (S, ns))

    def node_pos(s, v):
        """Index in qrows of node v in the front of supernode s."""
        at, far = qptr[s] + v - first[s], (v < first[s]) | (v > last[s])
        if far.any():   # not one of s's own nodes
            at[far] = front[s[far], v[far]] - 1
        if np.any(at < 0):
            raise FactorizationFailed("symbolic factor misses an entry")
        return at

    # groups of one (height, k, n), heights from the leaves up, a large
    # front (m > _FLAT_ROWS) alone; within a group the supernodes are
    # sorted by the group of their parent
    hl = [0] * S
    for s, p in enumerate(sparent.tolist()):
        if p >= 0 and hl[p] <= hl[s]:
            hl[p] = hl[s] + 1
    shape = np.stack([hl, k, nrow, np.where(nrow - k > _FLAT_ROWS,
                                            np.arange(1, S + 1), 0)])
    order = np.lexsort(shape[::-1])
    new = np.concatenate([[True], np.any(np.diff(shape[:, order]) != 0,
                                         axis=0)])
    group_of = np.empty(S, dtype=np.int64)
    group_of[order] = np.cumsum(new) - 1
    pgroup = np.where(sparent >= 0, group_of[sparent], -1)
    order = np.lexsort((np.arange(S), pgroup, group_of))
    gptr = np.concatenate([np.flatnonzero(new), [S]])
    B, gk, gn = np.diff(gptr), k[order[gptr[:-1]]], nrow[order[gptr[:-1]]]
    goff = np.concatenate([[0], np.cumsum(B * gn * gk)])
    slot_in, pbase = np.empty((2, S), dtype=np.int64)  # in the group, panel
    slot_in[order] = np.arange(S) - np.repeat(gptr[:-1], B)
    pbase[order] = np.repeat(goff[:-1], B) + slot_in[order] * np.repeat(gn * gk, B)
    groups = [_Group(offset=int(goff[g]), k=int(gk[g]), n=int(gn[g]), flat=None,
                     blocks=[], rows=srows[rptr[order[g0:g1]][:, None]
                                           + np.arange(gn[g])])
              for g, (g0, g1) in enumerate(zip(gptr[:-1], gptr[1:]))]
    size = int(goff[-1])
    # positions in the factor storage and in the update matrices
    largest = max([size] + [len(g.rows) * (g.n - g.k) ** 2 for g in groups])
    itype = np.int32 if largest < 2 ** 31 else np.int64

    # the update rows of each supernode in its parent's front (srows'
    # layout); per supernode in ``order``, its parent's group, slot, panel
    nrel = np.zeros(len(qrows), dtype=itype)
    at = _ranges(qptr[:-1] + own, below)
    nrel[at] = qfront[node_pos(np.repeat(sparent, below), qrows[at])]
    frel = _ranges(nrel, sz[qrows], itype)
    del nrel, at
    ps = sparent[order]
    pg, pslot, pb = pgroup[order], slot_in[ps].astype(itype), pbase[ps].astype(itype)
    for grp, g0, g1 in zip(groups, gptr[:-1], gptr[1:]):
        m = grp.n - grp.k
        if m == 0:
            continue
        rel = frel[rptr[order[g0:g1]][:, None] + np.arange(grp.k, grp.n)]
        if m <= _FLAT_ROWS:
            grp.flat = (rel, pg[g0:g1], pslot[g0:g1], pb[g0:g1])
        else:
            for b, (q, s, r) in enumerate(zip(pg[g0:g1].tolist(),
                                              pslot[g0:g1].tolist(), rel)):
                runs = _runs(r, groups[q].k)
                t = sum(p0 < groups[q].k for _, _, p0 in runs)
                grp.blocks.append((q, b, s, runs, t))
    del frel

    # positions in the factor.  The stored entry (i, j), j <= i, is entry
    # (p[i], p[j]) of P K P^T (p: the new order).  Row i of the triangle
    # is a prefix of the row of the last column of i's supervariable T,
    # which holds j at the same offset, and for that j the position is
    # term + coef p[i]: with s the supernode of the first of the two nodes
    # and f + x the front row of a scalar x of the other (f looked up once
    # per run of one supervariable in the row), if j's node is after T's
    # (column p[i], row p[j]) coef 1 and term base[s] + k[s] (f + p[j]),
    # else coef k[s] and term base[s] + k[s] f + p[j] (in T's own node
    # p[j] <= p[i]).  T's own diagonal block is full (or empty).
    iperm = iperm.astype(itype)
    so = np.repeat(np.arange(S, dtype=itype), own)     # of a node
    base, ks = (pbase - c0).astype(itype), k.astype(itype)
    term = np.empty(len(rows), dtype=itype)
    coef = np.empty(len(rows), dtype=itype)
    cown = np.zeros(ns, dtype=np.int64)
    for a, b in _column_chunks(tptr):
        x, y = tptr[a], tptr[b]
        r, t = rows[x:y], t_label[x:y]
        u = label[r]
        new = np.concatenate([[True], u[1:] != u[:-1], [True]])
        new[tptr[a:b] - x] = True
        cut = np.flatnonzero(new[:-1])
        span = np.diff(cut, append=y - x)
        u, t = u[cut], t[cut]
        cown[a:b] = np.bincount(t[u == t] - a, span[u == t], b - a)
        I, J = node_of_label[u], node_of_label[t]
        after, hi, s = I > J, np.maximum(I, J), so[np.minimum(I, J)]
        f = (qfront[node_pos(s, hi)] - qoff[hi]).astype(itype)
        term[x:y] = (np.repeat(base[s] + ks[s] * f, span)
                     + np.repeat(np.where(after, ks[s], 1), span) * iperm[r])
        coef[x:y] = np.repeat(np.where(after, 1, ks[s]), span)
    del rows, t_label, r, t     # r and t are views
    if np.any((cown != 0) & (cown != size_of)):
        raise FactorizationFailed("columns of one supervariable have "
                                  "different row sets")
    dst = np.empty(len(indices), dtype=itype)
    for a, b in _column_chunks(indptr):
        at = _ranges(tptr[label[a:b]], up[a:b], stype)
        d = dst[indptr[a]:indptr[b]]
        np.take(coef, at, out=d)
        d *= np.repeat(iperm[a:b], up[a:b])
        d += term.take(at)
    nnz = int(np.sum(k * nrow - k * (k - 1) // 2))
    peak = _update_peak(groups, np.dtype(itype).itemsize)
    return Symbolic(perm=perm, groups=groups, dst=dst, size=size, nnz=nnz,
                    supernodes=S, update_peak=-(-peak // 8))


class Factor:
    """Numeric supernodal Cholesky factor; ``solve(b)`` solves K x = b
    for b of shape (n,), or (n, r) column by column.

    Group g's panels are ``values[offset:offset + B n k]`` as (B, n, k):
    rows :k hold the pivot block (L11 for a single supernode, its inverse
    for a batch), rows k: hold L21.  The solve plan ``plan`` holds, per
    group, the pivot columns (a slice for a single supernode, else the
    (B, k) rows), views of the pivot block and of L21, and L21's front
    rows (L21 and its rows None where n = k), all views of the panels
    and of the analysis.
    """

    def __init__(self, symbolic, values):
        self.symbolic = symbolic
        self.values = values
        self.nnz = symbolic.nnz
        self.supernodes = symbolic.supernodes
        self.panels = [
            values[g.offset:g.offset + len(g.rows) * g.n * g.k].reshape(
                len(g.rows), g.n, g.k) for g in symbolic.groups]
        self.plan = []
        for g, P in zip(symbolic.groups, self.panels):
            k, rows = g.k, g.rows
            if len(P) == 1:
                # LAPACK's view: the C-order L11 is a Fortran-order L11^T
                P, rows = P[0], rows[0]
                cols, L11 = slice(int(rows[0]), int(rows[0]) + k), P[:k].T
            else:
                cols, L11 = rows[:, :k], P[:, :k]
            if g.n > k:
                self.plan.append((cols, L11, P[..., k:, :], rows[..., k:]))
            else:
                self.plan.append((cols, L11, None, None))

    def solve(self, b):
        sym, b = self.symbolic, np.asarray(b, dtype=float)
        if b.ndim == 2:
            return np.array([self.solve(c) for c in b.T]).reshape(b.T.shape).T
        x, trsv = b[sym.perm], blas.dtrsv
        for cols, L11, L21, rows in self.plan:
            if type(cols) is slice:
                # in place: y is the view x[cols]
                y = trsv(L11, x[cols], lower=0, trans=1, overwrite_x=1)
                if rows is not None:
                    x[rows] -= L21 @ y
                continue
            y = x[cols] = (L11 @ x[cols][..., None])[..., 0]
            if rows is not None:
                np.subtract.at(x, rows, (L21 @ y[..., None])[..., 0])
        for cols, L11, L21, rows in reversed(self.plan):
            z = x[cols]
            if type(cols) is slice:
                if rows is not None:
                    z -= x[rows] @ L21
                trsv(L11, z, lower=0, overwrite_x=1)
                continue
            if rows is not None:
                z -= (x[rows][:, None, :] @ L21)[:, 0]
            x[cols] = (z[:, None, :] @ L11)[:, 0]
        out = np.empty_like(x)
        out[sym.perm] = x
        return out


def _breakdown(k):
    raise NotPositiveDefinite(f"Cholesky breakdown in a {k} x {k} pivot block")


def _front(P, k):
    """Factor the (B, n, k) panels ``P`` of one group in place (pivot
    blocks already updated) and return the update matrices
    V = L21 L21^T as (B, m, m), valid on and below the diagonal, or None
    if m = n - k = 0."""
    B, n = P.shape[:2]
    if B == 1:
        # In place on the panel's Fortran-order view F = [L11^T, L21^T]
        # (C order's lower triangle is Fortran order's upper one): dpotrf;
        # L21^T = L11^-1 F21^T by dtrtri and an in-place dtrmm, k^3 / 3
        # flops more than dtrsm but about twice as fast on these panels
        # (one thread: k = 396, m = 1257 13.7 -> 8.6 ms; k = 291, m = 1239
        # 9.4 -> 4.4 ms); V's lower triangle by dsyrk.  Numeric factor with
        # large fronts batched (about 6.5 GF/s) -> alone, one thread: 3D
        # benchmark system 0.43-0.54 -> 0.35-0.43 s, criterion 8's sweep
        # system 4.2-4.8 -> 3.5-3.6 s (two threads: 4.8-5.3 -> 2.8-3.2 s).
        F = P[0].T
        _, info = lapack.dpotrf(F[:, :k], lower=0, overwrite_a=1)
        if info:
            _breakdown(k)
        if n == k:
            return None
        blas.dtrmm(1.0, lapack.dtrtri(F[:, :k], lower=0)[0], F[:, k:],
                   trans_a=1, overwrite_b=1)
        return blas.dsyrk(1.0, F[:, k:], trans=1).T[None]
    try:
        P[:, :k] = np.linalg.inv(np.linalg.cholesky(P[:, :k]))
    except np.linalg.LinAlgError:
        _breakdown(k)
    P[:, k:] = P[:, k:] @ np.swapaxes(P[:, :k], 1, 2)
    if n == k:
        return None
    return P[:, k:] @ np.swapaxes(P[:, k:], 1, 2)


def _tril(m):
    """The entries on and below the diagonal of an m x m matrix, column
    by column: (flat positions i m + j, rows i, columns j), int32.  The
    first t m - t (t - 1) / 2 lie in the first t columns."""
    j, i = np.triu_indices(m)
    return tuple(a.astype(np.int32) for a in (i * m + j, i, j))


def _entries(V, j, i, tril, e0, e1, keep):
    """(positions, values) of the entries e0:e1 of ``tril`` in the flat
    update matrices V: the position of entry (row r, column c) of child
    b is j[b, c] + i[b, r]; only where ``keep`` (b, e), if given."""
    tri, it, jt = tril
    dst = np.take(j, jt[e0:e1], axis=1)
    dst += np.take(i, it[e0:e1], axis=1)
    v = np.take(V, tri[e0:e1], axis=1)
    if keep is None:
        return dst.ravel(), v.ravel()
    return dst[keep], v[keep]


def _flat_moves(V, grp, gk, gm, values, pending, tril):
    """Extend-add of a group's small update matrices V (B, m, m), on and
    below the diagonal (``gk``, ``gm``: k and m of each group; ``tril``:
    ``_tril(m)``).  Entry (i, j) of a child with t rows in its parent's
    pivot columns goes, for j < t, to the parent's panel at pbase +
    rel[i] k + rel[j], subtracted now; else to the parent group's update
    matrices at (slot m - k) m - k + rel[i] m + rel[j], waiting as
    (positions, values).  Those are the first t m - t (t - 1) / 2
    entries of ``tril`` and the rest; where the t of a piece's children
    differ, a mask picks each child's part."""
    rel, pgroup, slot, pbase = grp.flat
    B, m = rel.shape
    L = len(tril[0])
    k, mq = gk[pgroup][:, None], gm[pgroup][:, None]
    t = np.sum(rel < k, axis=1)
    now = t * m - t * (t - 1) // 2
    now_j, now_i = pbase[:, None] + rel, k * rel
    wait_j, wait_i = (slot[:, None] * mq - k) * mq - k + rel, mq * rel
    V = V.reshape(B, m * m)
    for c0, c1 in _pieces(pgroup, L):
        p = now[c0:c1, None]
        lo, hi = int(p.min()), int(p.max())
        if hi:
            keep = np.arange(hi) < p if lo < hi else None
            np.subtract.at(values, *_entries(V[c0:c1], now_j[c0:c1],
                                             now_i[c0:c1], tril, 0, hi, keep))
        if lo < L:
            keep = np.arange(lo, L) >= p if lo < hi else None
            pending[pgroup[c0]].append(_entries(
                V[c0:c1], wait_j[c0:c1], wait_i[c0:c1], tril, lo, L, keep))


def _extend_add(V, children):
    """Add the children's waiting parts into the update matrices V: flat
    copies at their positions, staircases by pairs of runs (on and below
    the diagonal: run a's piece holds the columns of runs 0..a).  A
    function, so that no loop variable keeps a child's part alive."""
    Vf = V.reshape(-1)
    for item in children:
        if len(item) == 2:
            np.add.at(Vf, *item)
            continue
        pieces, s, runs = item
        for a, (Vc, (i0, i1, q0)) in enumerate(zip(pieces, runs)):
            for j0, j1, p0 in runs[:a + 1]:
                V[s, q0:q0 + i1 - i0, p0:p0 + j1 - j0] += Vc[:, j0:j1]


def available_memory():
    """Bytes this process can still allocate, read only: the smaller of
    the kernel's MemAvailable and the room left under the memory limit of
    the process's cgroup (v2), None where neither can be read."""
    figures = []
    try:
        with open("/proc/meminfo") as f:
            figures += [int(x.split()[1]) << 10 for x in f
                        if x.startswith("MemAvailable:")]
        with open("/proc/self/cgroup") as f:
            base = "/sys/fs/cgroup" + [x[3:].strip() for x in f
                                       if x.startswith("0::")][0]
        with open(base + "/memory.max") as f, open(base + "/memory.current") as g:
            limit, used = f.read().strip(), int(g.read())
        figures += [] if limit == "max" else [int(limit) - used]
    except (OSError, IndexError, ValueError):
        pass
    return min(figures, default=None)


def too_large(K, sym, need, free):
    """Message of InsufficientMemory for a factorization of ``K``
    analysed by ``sym`` that needs ``need`` bytes, ``free`` available."""
    return (f"the Cholesky factor of {K.shape[0]} free dofs and {K.nnz} stored "
            f"entries needs {need} bytes (factor_bytes {sym.factor_bytes}); "
            f"{free} bytes are available")


def factor(K, sym=None) -> Factor:
    """Supernodal Cholesky factor of the SPD matrix whose lower triangle
    is the canonical CSR ``K``, analysed by ``sym`` (see ``analyse``),
    read from ``K.data``; raises NotPositiveDefinite where a pivot block
    is not positive definite, InsufficientMemory where an allocation
    fails.
    Beside the factor and the analysis it holds at most
    ``sym.update_peak`` words of update storage (module docstring)."""
    if sym is None:
        sym = analyse(K)
    try:
        return _factor(K, sym)
    except MemoryError as exc:
        raise InsufficientMemory(too_large(K, sym, sym.factor_bytes,
                                           available_memory())) from exc


def _factor(K, sym):
    values = np.zeros(sym.size)
    values[sym.dst] = K.data
    pending = [[] for _ in sym.groups]
    itype = sym.dst.dtype
    gk = np.asarray([g.k for g in sym.groups], dtype=itype)
    gm = np.asarray([g.n - g.k for g in sym.groups], dtype=itype)
    tril = {m: _tril(m) for m in {g.n - g.k for g in sym.groups
                                  if g.flat is not None}}
    factor = Factor(sym, values)
    for g, (grp, P) in enumerate(zip(sym.groups, factor.panels)):
        children, pending[g] = pending[g], None
        V = _front(P, grp.k)
        if V is None:
            continue
        _extend_add(V, children)
        children = None
        if grp.flat is not None:
            _flat_moves(V, grp, gk, gm, values, pending,
                        tril[grp.n - grp.k])
        for q, b, s, runs, t in grp.blocks:
            # the pairs in the parent's pivot columns now, and for later
            # the staircase of the trailing rows, per run up to its end
            Pq = factor.panels[q][s]
            for a, (i0, i1, q0) in enumerate(runs):
                for j0, j1, p0 in runs[:min(a + 1, t)]:
                    Pq[q0:q0 + i1 - i0, p0:p0 + j1 - j0] -= V[b, i0:i1, j0:j1]
            if t < len(runs):
                c, pk, tail = runs[t][0], sym.groups[q].k, runs[t:]
                pending[q].append(([V[b, i0:i1, c:i1].copy() for i0, i1, _ in tail],
                                   s, [(i0 - c, i1 - c, q0 - pk) for i0, i1, q0 in tail]))
        V = None    # before the next group forms its own
    return factor
