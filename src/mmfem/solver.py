"""Sparse symmetric solve and field post-processing.

The constrained system is reduced to its free dofs by index arrays into
the data of its matrices, which share one symmetric CSR pattern.  A
single system is factored by the supernodal Cholesky of ``cholesky``
straight from that data, with one refinement step when the residual
asks for it; memory: the matrix, the analysis
(``info["analysis_bytes"]``: two indices per free-block entry on or
below the diagonal, and the schedule), and the stored factor with, while
it is computed, its peak update storage (``info["factor_bytes"]``,
bounded by the analysis).  A completed Cholesky certifies the system
SPD; a matrix it rejects is factored by SuperLU's LU instead and
reported not SPD.  A family K(c) = A + c C (the lc sweep: C curl-curl,
c = mu_macro lc^2; the Cauchy bounds: C div-div, c = lam / mu) holds
the free blocks of A and C and one K(c) data array instead of the full
matrices.  It is
walked in ascending c: the first value is factored, and each later one
runs CG preconditioned by the current factor from the previous
solution; all its factorizations share one analysis.  The walk needs K
at the smallest c SPD and C positive semidefinite, c of any sign: after
an SPD factor at c0, K(c) = K(c0) + (c - c0) C is SPD too.  The walk
factors again at a value whose CG fails or misses the tolerance, and
ahead of time after a CG that used more than half of PCG_BUDGET.  Every
solution meets relative residual RESIDUAL_TOL against its own matrix,
or the solve raises.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import cholesky
from .assembly import _CHUNK_NNZ, SparseSystem
from .errors import (FactorizationFailed, NonConvergence, NotPositiveDefinite,
                     PointOutsideMesh)
from .nedelec import eval_vector_shapes
from .simplex import bezier_eval

RESIDUAL_TOL = 1e-10
PCG_BUDGET = 30     # CG iterations per value of a family solve
_STAGES = dict.fromkeys(("assembly", "reduction", "analysis", "factor", "solve"), 0.0)


@dataclass
class FieldSolution:
    """Global coefficients plus the space/dof metadata needed to evaluate.

    ``info`` records how the solve went: ``path`` ("direct" or "pcg"),
    ``iterations`` (CG), ``residual``, and for direct solves
    ``refinements``, ``factor`` ("cholesky" or "lu"), ``lu_fill`` (the
    stored factor entries), and ``supernodes``, ``factor_bytes`` (the
    bytes of the factor storage plus its peak update storage,
    ``cholesky.Symbolic.factor_bytes``) and ``analysis_bytes`` (the bytes
    the analysis keeps, ``cholesky.Symbolic.nbytes``), all None for LU;
    ``stages`` holds the wall seconds of ``assembly``, ``reduction``,
    ``analysis``, numeric ``factor`` and ``solve`` (triangular solves and
    refinement, or CG).
    ``energy`` is 1/2 x^T K x where the solve computed it (``solve_family``).
    Solutions of ``solve_family`` keep their system without its matrices
    (``matrix``, ``c_matrix`` and ``group`` are None).
    """

    system: SparseSystem
    x: np.ndarray
    residual: float
    spd: bool
    info: dict = field(default_factory=dict)
    energy: float = None

    @property
    def mesh(self):
        return self.system.mesh


@dataclass
class _Split:
    """Free/constrained split of a system's dofs."""

    system: SparseSystem
    free: np.ndarray
    con: np.ndarray
    vals: np.ndarray

    def blocks(self, *mats):
        """K_ff of each matrix, CSC on one pair of index arrays: the free
        rows' entries in free columns, in CSR order, are its CSC entries."""
        M = mats[0]
        keep = np.repeat(self.free, np.diff(M.indptr))
        keep &= self.free[M.indices]
        sel = np.flatnonzero(keep).astype(M.indices.dtype)
        counts = np.diff(np.searchsorted(sel, M.indptr))[self.free]
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(sel.dtype)
        indices = (np.cumsum(self.free, dtype=sel.dtype) - 1)[M.indices[sel]]
        return [sp.csc_matrix((M.data[sel], indices, indptr),
                              shape=(len(counts),) * 2) for M in mats]

    def full(self, xf, xc):
        x = np.zeros(len(self.free))
        x[self.free], x[self.con] = xf, xc
        return x

    def product(self, M, xf, xc=0.0):
        """The free rows of M @ x: K_ff @ xf at xc = 0 (the zeros leave
        every sum of the CSR product as in K_ff @ xf), and -M_fc @ vals,
        the rhs lift, negated at xf = 0, xc = vals."""
        return (M @ self.full(xf, xc))[self.free]

    def solution(self, xf, spd, info, energy=None):
        return FieldSolution(system=self.system, x=self.full(xf, self.vals),
                             residual=info["residual"], spd=spd, info=info,
                             energy=energy)


def _split(system: SparseSystem) -> _Split:
    system.matrix.sum_duplicates()      # sorted indices, as the pattern's
    con = np.fromiter(system.constraints.keys(), dtype=np.int64,
                      count=len(system.constraints))
    free = np.ones(system.n_dofs, dtype=bool)
    free[con] = False
    return _Split(system, free, con, np.fromiter(
        system.constraints.values(), dtype=float, count=len(con)))


def _relative_residual(Kx, rhs):
    bnorm = np.linalg.norm(rhs)
    return float(np.linalg.norm(Kx - rhs) / (bnorm if bnorm > 0 else 1.0))


def _splu_spd(K, symbolic=None, split=None):
    """Factor of the reduced system, ``K`` (CSC) or with ``split`` its
    free block, analysed by ``symbolic``: (factor, spd).

    It must be symmetric: the Cholesky reads only the entries on or below
    the diagonal of its permuted matrix, so an unsymmetric matrix fails
    the residual check of ``_direct``.  A completed Cholesky certifies
    SPD; a matrix it rejects is factored by SuperLU's LU (symmetric-mode
    ordering) and reported not SPD; a failed LU raises FactorizationFailed.
    """
    try:
        return cholesky.factor(K, symbolic), True
    except NotPositiveDefinite:
        pass
    Kff = K if split is None else split.blocks(K)[0]
    try:
        lu = spla.splu(Kff, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationFailed(
            f"SuperLU failed on the reduced system with {Kff.shape[0]} "
            f"free dofs: {exc}") from exc
    return lu, False


def _direct(K, rhs, symbolic, split=None, require_spd=False):
    """Factor, solve and refine once if needed; returns (xf, lu, spd,
    info).  The system is ``K`` or its free block (``_splu_spd``)."""
    def product(x):
        return K @ x if split is None else split.product(K, x)

    t0 = time.perf_counter()
    lu, spd = _splu_spd(K, symbolic, split)
    t1 = time.perf_counter()
    if require_spd and not spd:
        raise NotPositiveDefinite(
            f"Cholesky of the reduced system with {len(rhs)} free dofs "
            "broke down")
    xf = lu.solve(rhs)
    res = _relative_residual(product(xf), rhs)
    refinements = 0
    if res > RESIDUAL_TOL:
        # one step of iterative refinement keeps large systems at tolerance
        xf = xf + lu.solve(rhs - product(xf))
        res = _relative_residual(product(xf), rhs)
        refinements = 1
    if res > RESIDUAL_TOL:
        raise NonConvergence(
            f"relative residual {res:.2e} > {RESIDUAL_TOL} after "
            f"{refinements} refinement step on {len(rhs)} free dofs")
    return xf, lu, spd, {"path": "direct", "iterations": 0, "residual": res,
                         "refinements": refinements,
                         "factor": "cholesky" if spd else "lu",
                         "lu_fill": int(lu.nnz),
                         "supernodes": lu.supernodes if spd else None,
                         "factor_bytes": (lu.symbolic.factor_bytes if spd
                                          else None),
                         "analysis_bytes": (lu.symbolic.nbytes if spd
                                            else None),
                         "stages": {**_STAGES, "factor": t1 - t0,
                                    "solve": time.perf_counter() - t1}}


def _pcg(K, rhs, lu, x0):
    """CG on K preconditioned by an SPD factor, from x0, within
    PCG_BUDGET iterations; returns (xf, iterations, converged)."""
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    M = spla.LinearOperator(K.shape, matvec=lu.solve, dtype=float)
    xf, info = spla.cg(K, rhs, x0=x0, rtol=RESIDUAL_TOL / 10.0, atol=0.0,
                       maxiter=PCG_BUDGET, M=M, callback=count)
    return xf, iterations, info == 0


def solve(system: SparseSystem, require_spd=False) -> FieldSolution:
    """Direct sparse solve of the constrained system ``system.matrix``,
    which must be symmetric (see ``_splu_spd``).

    A failed factorization raises FactorizationFailed, a residual above
    RESIDUAL_TOL after one refinement step NonConvergence.
    """
    t0 = time.perf_counter()
    split, K = _split(system), system.matrix
    rhs = system.rhs[split.free] - split.product(K, 0.0, split.vals)
    t1 = time.perf_counter()
    sym = cholesky.analyse(K, label=system.group, free=split.free)
    t2 = time.perf_counter()
    xf, _, spd, info = _direct(K, rhs, sym, split, require_spd)
    info["stages"].update(assembly=system.assembly_s, reduction=t1 - t0,
                          analysis=t2 - t1)
    return split.solution(xf, spd, info)


def solve_family(system: SparseSystem, coeffs) -> list:
    """Solutions of (system.matrix + c system.c_matrix) x = rhs for each
    c in ``coeffs``, in input order, by one chain: the walk and its
    contract are in the module docstring (a CG solution reports the spd
    verdict of its factor).  The walk depends only on iteration counts,
    so repeated runs give identical results.  Each solution records its
    energy 1/2 x^T K(c) x, computed from the reduced blocks: with x_c the
    constrained values and lift = -K_fc x_c,
    x^T K x = x_f^T K_ff x_f - 2 x_f^T lift + x_c^T K_cc x_c.  The
    system's assembly and the chain's reduction and analysis ``stages``
    go on its first solution, at the smallest c.  The solutions keep the
    system without its matrices, so a caller that hands over its only
    reference lets the full matrices go before the first factorization.
    """
    t0 = time.perf_counter()
    split = _split(system)
    # c_matrix shares the pattern of the base matrix (SparseSystem), so
    # C and K(c) keep only data arrays; K's is rewritten for each value
    A, C = split.blocks(system.matrix, system.c_matrix)
    x_con = split.full(0.0, split.vals)
    Ax, Cx = system.matrix @ x_con, system.c_matrix @ x_con
    lift_a, lift_c = -Ax[split.free], -Cx[split.free]
    e_a, e_c = float(x_con @ Ax), float(x_con @ Cx)
    rhs_a = system.rhs[split.free] + lift_a
    label = None if system.group is None else system.group[split.free]
    # from here on only the reduced blocks hold matrix data
    split.system = replace(system, matrix=None, c_matrix=None, group=None)
    del system
    K = sp.csc_matrix((np.empty_like(A.data), A.indices, A.indptr),
                      shape=A.shape)
    t1 = time.perf_counter()
    sym = cholesky.analyse(K, label=label)
    shared = {"assembly": split.system.assembly_s, "reduction": t1 - t0,
              "analysis": time.perf_counter() - t1}
    out = [None] * len(coeffs)
    lu = xf = None
    refactor = True
    for i in np.argsort(coeffs, kind="stable"):
        c = float(coeffs[i])
        np.multiply(C.data, c, out=K.data)
        K.data += A.data
        rhs = rhs_a + c * lift_c
        info, cg_s = None, 0.0
        if not refactor:
            t = time.perf_counter()
            x_cg, iterations, converged = _pcg(K, rhs, lu, xf)
            res = _relative_residual(K @ x_cg, rhs)
            cg_s = time.perf_counter() - t
            if converged and res <= RESIDUAL_TOL:
                xf = x_cg
                info = {"path": "pcg", "iterations": iterations,
                        "residual": res, "stages": {**_STAGES, "solve": cg_s}}
                refactor = iterations > PCG_BUDGET // 2
        if info is None:
            lu = None   # release the old factor before the new one
            xf, lu, spd, info = _direct(K, rhs, sym)
            info["stages"]["solve"] += cg_s     # a failed CG first
            # CG needs an SPD preconditioner
            refactor = not spd
        info["stages"].update(shared)
        shared = {}
        # PCG runs only from an SPD factor at c0 <= c, and K(c) =
        # K(c0) + (c - c0) C with C a Gram matrix, so K(c) is SPD too
        energy = 0.5 * (xf @ (K @ xf) - 2.0 * (xf @ (lift_a + c * lift_c))
                        + e_a + c * e_c)
        out[i] = split.solution(xf, spd, info, float(energy))
    return out


def locate_cells(mesh, points, tol=1e-12):
    """Containing cell and reference coordinates of each of the (n, dim)
    ``points`` by the barycentric sign test; ties resolve to the lowest
    cell id."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, dim = points.shape
    cells = np.empty(n, dtype=np.int64)
    refs = np.empty((n, dim))
    step = max(1, _CHUNK_NNZ // (mesh.n_cells * dim))
    for s in range(0, n, step):
        diffs = points[s:s + step, None, :] - mesh.origins
        # inv(J) is the transpose of the stored J^{-T}
        ref = diffs[..., 0, None] * mesh.inv_ts[:, 0]
        for e in range(1, dim):
            ref = ref + diffs[..., e, None] * mesh.inv_ts[:, e]
        ok = (ref.min(axis=2) >= -tol) & (1.0 - ref.sum(axis=2) >= -tol)
        rows = np.arange(len(ref))
        hit = ok.argmax(axis=1)
        outside = np.flatnonzero(~ok[rows, hit])
        if len(outside):
            raise PointOutsideMesh(
                f"point {points[s + outside[0]]} not inside any cell")
        cells[s:s + len(ref)] = hit
        refs[s:s + len(ref)] = ref[rows, hit]
    return cells, refs


def locate_cell(mesh, point, tol=1e-12):
    """``locate_cells`` for one point: (cell, reference coordinates)."""
    cells, refs = locate_cells(mesh, np.asarray(point)[None, :], tol)
    return int(cells[0]), refs[0]


def sample_line(sol: FieldSolution, points):
    """(u, P) values at an (n, dim) array of physical points.

    u is (n,) for a scalar field or (n, 3) for a vector one; P is (n, 2)
    or (n, 3, 3), assembled from the row fields, or None without a p
    field.
    """
    mesh = sol.mesh
    cells, ref = locate_cells(mesh, points)
    ref = np.clip(ref, 0.0, None)
    ref = ref / np.maximum(ref.sum(axis=1, keepdims=True), 1.0)

    uf = sol.system.fields["u"]
    vals_u = bezier_eval(uf.space.degree, mesh.dim, ref).values
    u = (sol.x[uf.cell_dofs(cells)] @ vals_u[:, :, None])[..., 0]
    if uf.n_comps == 1:
        u = u[:, 0]

    pf = sol.system.fields.get("p")
    if pf is None:
        return u, None
    # covariant Piola: J^{-T} applied to each reference value
    phys = (eval_vector_shapes(pf.space, ref).values
            @ np.swapaxes(mesh.inv_ts[cells], -1, -2))
    P = sol.x[pf.cell_dofs(cells)] @ phys
    return u, (P[:, 0] if pf.n_comps == 1 else P)


def eval_field(sol: FieldSolution, point):
    """(u, P) values at one physical point; ``sample_line`` for one point."""
    us, Ps = sample_line(sol, np.asarray(point, dtype=float)[None, :])
    return us[0], (None if Ps is None else Ps[0])
