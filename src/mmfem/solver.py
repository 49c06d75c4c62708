"""Sparse symmetric solve and field post-processing.

The constrained system is reduced to its free dofs once.  A single
system is factored by the supernodal Cholesky of ``cholesky``, with one
refinement step when the residual asks for it; its memory is the stored
factor plus, while it is computed, the update matrices of the factored
supernodes whose parents are not factored yet.  A completed Cholesky
certifies the system SPD; a matrix it rejects is factored by SuperLU's
LU instead and reported not SPD.  A family K(c) = A + c C (the lc
sweep: C curl-curl, c = mu_macro lc^2; the Cauchy bounds: C div-div,
c = lam / mu) is walked in ascending c: the first value is factored,
and each later one runs CG preconditioned by the current factor from
the previous solution; all its factorizations share one analysis.  The
walk needs K at the smallest c SPD and C positive semidefinite, c of
any sign: after an SPD factor at c0, K(c) = K(c0) + (c - c0) C is SPD
too.  A few iterations suffice near the anchor; the walk factors again
at a value whose CG fails or misses the tolerance, and ahead of time
after a CG that used more than half of PCG_BUDGET.  Every solution
meets relative residual RESIDUAL_TOL against its own matrix, or the
solve raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import cholesky
from .assembly import _CHUNK_NNZ, SparseSystem
from .errors import (FactorizationFailed, NonConvergence, NotPositiveDefinite,
                     PointOutsideMesh)
from .nedelec import eval_vector_values
from .simplex import bezier_values

RESIDUAL_TOL = 1e-10
PCG_BUDGET = 30     # CG iterations per value of a family solve


@dataclass
class FieldSolution:
    """Global coefficients plus the space/dof metadata needed to evaluate.

    ``info`` records how the solve went: ``path`` ("direct" or "pcg"),
    ``iterations`` (CG), ``residual``, and for direct solves
    ``refinements``, ``factor`` ("cholesky" or "lu"), ``lu_fill`` (the
    stored factor entries) and ``supernodes`` (None for LU).  ``energy``
    is 1/2 x^T K x where the solve computed it (``solve_family``).
    Solutions of ``solve_family`` keep their system without its matrices
    (``matrix`` and ``c_matrix`` are None).
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

    def coeffs(self, name, comp=0):
        layout = self.system.fields[name]
        off = layout.comp_offset(comp)
        return self.x[off:off + layout.dofmap.n_dofs]


@dataclass
class _Split:
    """Free/constrained split of a system's dofs."""

    system: SparseSystem
    free_idx: np.ndarray
    con: np.ndarray
    vals: np.ndarray

    def solution(self, xf, spd, info, energy=None):
        x = np.zeros(self.system.n_dofs)
        x[self.con] = self.vals
        x[self.free_idx] = xf
        return FieldSolution(system=self.system, x=x,
                             residual=info["residual"], spd=spd, info=info,
                             energy=energy)


def _reduce(system: SparseSystem, mats):
    """The split of ``system`` and, for each matrix of ``mats``, its free
    block (CSC) and rhs lift -M_fc @ vals.

    Slicing depends only on the sparsity pattern, so matrices on one
    pattern get free blocks on one pattern.
    """
    con = np.fromiter(system.constraints.keys(), dtype=np.int64,
                      count=len(system.constraints))
    vals = np.fromiter(system.constraints.values(), dtype=float,
                       count=len(system.constraints))
    free = np.ones(system.n_dofs, dtype=bool)
    free[con] = False
    free_idx = np.flatnonzero(free)
    blocks = []
    for M in mats:
        rows = M[free_idx]
        lift = -(rows[:, con] @ vals)
        ff = rows[:, free_idx]
        del rows    # before the CSC copy: transients raise the peak RSS
        blocks.append((ff.tocsc(), lift))
    return _Split(system, free_idx, con, vals), blocks


def _relative_residual(K, xf, rhs):
    bnorm = np.linalg.norm(rhs)
    return float(np.linalg.norm(K @ xf - rhs) / (bnorm if bnorm > 0 else 1.0))


def _splu_spd(Kff):
    """Factor of the reduced system: (factor, spd).

    ``Kff`` must be symmetric: the Cholesky reads only the entries on or
    below the diagonal of its permuted matrix, so an unsymmetric matrix
    is factored as if its upper part mirrored the lower one and fails
    the residual check of ``_direct``.  The supernodal Cholesky
    certifies SPD by completing.  A matrix it
    rejects is factored by SuperLU's LU (symmetric-mode ordering) and
    reported not SPD; a failed LU raises FactorizationFailed.
    """
    try:
        return cholesky.factor(Kff), True
    except NotPositiveDefinite:
        pass
    try:
        lu = spla.splu(Kff, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationFailed(
            f"SuperLU failed on the reduced system with {Kff.shape[0]} "
            f"free dofs: {exc}") from exc
    return lu, False


def _direct(Kff, rhs, require_spd=False):
    """Factor, solve and refine once if needed; returns (xf, lu, spd, info)."""
    lu, spd = _splu_spd(Kff)
    if require_spd and not spd:
        raise NotPositiveDefinite(
            f"Cholesky of the reduced system with {Kff.shape[0]} free dofs "
            "broke down")
    xf = lu.solve(rhs)
    res = _relative_residual(Kff, xf, rhs)
    refinements = 0
    if res > RESIDUAL_TOL:
        # one step of iterative refinement keeps large systems at tolerance
        xf = xf + lu.solve(rhs - Kff @ xf)
        res = _relative_residual(Kff, xf, rhs)
        refinements = 1
    if res > RESIDUAL_TOL:
        raise NonConvergence(
            f"relative residual {res:.2e} > {RESIDUAL_TOL} after "
            f"{refinements} refinement step on {Kff.shape[0]} free dofs")
    return xf, lu, spd, {"path": "direct", "iterations": 0, "residual": res,
                         "refinements": refinements,
                         "factor": "cholesky" if spd else "lu",
                         "lu_fill": int(lu.nnz),
                         "supernodes": lu.supernodes if spd else None}


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
    split, [(Kff, lift)] = _reduce(system, [system.matrix])
    xf, _, spd, info = _direct(Kff, system.rhs[split.free_idx] + lift,
                               require_spd)
    return split.solution(xf, spd, info)


def solve_family(system: SparseSystem, coeffs) -> list:
    """Solutions of (system.matrix + c system.c_matrix) x = rhs for each
    c in ``coeffs``, in input order, by one chain: the walk and its
    contract are in the module docstring (a CG solution reports the spd
    verdict of its factor).  The walk depends only on iteration counts,
    so repeated runs give identical results.  Each solution records its
    energy 1/2 x^T K(c) x, computed from the reduced blocks: with x_c the
    constrained values and lift = -K_fc x_c,
    x^T K x = x_f^T K_ff x_f - 2 x_f^T lift + x_c^T K_cc x_c.
    The solutions keep the system without its matrices, so a caller that
    hands over its only reference lets the full matrices go before the
    first factorization.
    """
    split, [(A, lift_a), (C, lift_c)] = _reduce(
        system, [system.matrix, system.c_matrix])
    x_con = np.zeros(system.n_dofs)
    x_con[split.con] = split.vals
    e_a, e_c = (float(x_con @ (M @ x_con))
                for M in (system.matrix, system.c_matrix))
    rhs_a = system.rhs[split.free_idx] + lift_a
    # from here on only the reduced blocks hold matrix data
    split.system = replace(system, matrix=None, c_matrix=None)
    del system
    # c_matrix shares the pattern of the base matrix (SparseSystem),
    # so C and K(c) keep only data arrays; K's is rewritten for each value
    C = sp.csc_matrix((C.data, A.indices, A.indptr), shape=A.shape)
    K = sp.csc_matrix((np.empty_like(A.data), A.indices, A.indptr),
                      shape=A.shape)
    out = [None] * len(coeffs)
    lu = xf = None
    refactor = True
    with cholesky.shared_analysis():
        for i in np.argsort(coeffs, kind="stable"):
            c = float(coeffs[i])
            np.multiply(C.data, c, out=K.data)
            K.data += A.data
            rhs = rhs_a + c * lift_c
            info = None
            if not refactor:
                x_cg, iterations, converged = _pcg(K, rhs, lu, xf)
                res = _relative_residual(K, x_cg, rhs)
                if converged and res <= RESIDUAL_TOL:
                    xf = x_cg
                    info = {"path": "pcg", "iterations": iterations,
                            "residual": res}
                    refactor = iterations > PCG_BUDGET // 2
            if info is None:
                lu = None   # release the old factor before the new one
                xf, lu, spd, info = _direct(K, rhs)
                # CG needs an SPD preconditioner
                refactor = not spd
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
    vals_u = bezier_values(uf.space.degree, mesh.dim, ref)
    u = (sol.x[uf.cell_dofs(cells)] @ vals_u[:, :, None])[..., 0]
    if uf.n_comps == 1:
        u = u[:, 0]

    pf = sol.system.fields.get("p")
    if pf is None:
        return u, None
    # covariant Piola: J^{-T} applied to each reference value
    phys = (eval_vector_values(pf.space, ref)
            @ np.swapaxes(mesh.inv_ts[cells], -1, -2))
    P = sol.x[pf.cell_dofs(cells)] @ phys
    return u, (P[:, 0] if pf.n_comps == 1 else P)


def eval_field(sol: FieldSolution, point):
    """(u, P) values at one physical point; ``sample_line`` for one point."""
    us, Ps = sample_line(sol, np.asarray(point, dtype=float)[None, :])
    return us[0], (None if Ps is None else Ps[0])
