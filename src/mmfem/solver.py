"""Sparse symmetric solve and field post-processing.

A system holds only its free dofs (``assembly`` leaves the Dirichlet
dofs out), and its matrices are the lower triangles of symmetric
matrices on one CSR pattern.  Every product with such a matrix K is the
one triangle product of ``_product``, T x + T^T x - d x (T the stored
triangle, d its diagonal), in the residual checks, CG and the energies;
only SuperLU's fallback below forms the whole matrix.

There is one solve path, the walk of ``solve_family`` over the values c
of K(c) = A + c C (the lc sweep: C curl-curl, c = mu_macro lc^2; the
Cauchy bounds: C div-div, c = lam / mu); ``solve`` is the walk at one
value, and a system without ``c_matrix`` is its own K(c) for every c.
The walk checks its input once, at its entry (else InvalidParam): finite
coefficients, ``matrix`` canonical CSR with no entry above the diagonal,
``c_matrix`` on its ``indptr`` and ``indices``, one ``lift`` row per
matrix.  It goes in ascending c.  The first value is factored by the
supernodal Cholesky of ``cholesky`` straight from the triangle's data
and solved once; each later one runs CG preconditioned by the current
factor from the previous solution, and all factorizations share one
analysis.  A completed Cholesky certifies K(c) SPD; a matrix it rejects
is factored by SuperLU's LU instead and reported not SPD.  The walk needs
K at the smallest c SPD and C positive semidefinite, c of any sign:
after an SPD factor at c0, K(c) = K(c0) + (c - c0) C is SPD too.  CG is
the in-repo loop of ``_pcg`` (SciPy's ``cg``, update for update); from
its fifth iteration on it gives up where the count projected from its
mean contraction so far exceeds PCG_BUDGET, so an attempt that cannot
converge in the budget stops early (Saad, Iterative Methods for Sparse
Linear Systems, 2nd ed., 2003, section 6.11).  The walk factors again at
a value whose CG gives up, runs out of its budget or misses the
tolerance, and ahead of time after a CG that used more than half of
PCG_BUDGET.  The decisions read only residual norms and iteration
counts, so repeated runs give identical results.  Every
solution meets relative residual RESIDUAL_TOL against its own matrix, or
the walk raises: Cholesky is backward stable, so a larger residual is
the conditioning's, which a correction step in working precision cannot
lower (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
2002, sections 10.1, 12.1).  The K x_f of the residual check gives the energy.
Memory: the triangles and one K(c) data array
(``info["matrix_bytes"]``), the analysis (``info["analysis_bytes"]``:
one index per stored entry, and the schedule), and the stored factor
with, while it is computed, its peak update storage
(``info["factor_bytes"]``, bounded by the analysis).  Right after the
analysis the walk compares that bound, plus eight vectors of the free
dofs and one solution per value, with ``cholesky.available_memory()``
and raises InsufficientMemory before it allocates the factor, as
``cholesky.factor`` does where an allocation fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import cholesky
from .assembly import SparseSystem
from .errors import (FactorizationFailed, InsufficientMemory, InvalidParam,
                     NonConvergence, NotPositiveDefinite, PointOutsideMesh)
from .mesh import _CHUNK_NNZ
from .nedelec import eval_vector_shapes
from .simplex import bezier_eval

RESIDUAL_TOL = 1e-10
PCG_BUDGET = 30     # CG iterations per value of a family solve
_PROJECT_FROM = 5   # CG iterations before an attempt may be given up
_STAGES = dict.fromkeys(("assembly", "dirichlet", "analysis", "factor", "solve"), 0.0)


@dataclass
class FieldSolution:
    """Global coefficients plus the space/dof metadata needed to evaluate:
    one value of the walk of ``solve_family``.

    ``info`` records how the walk reached it: ``path`` ("direct" or
    "pcg"), ``iterations`` (CG), ``residual``, ``stages`` (the wall
    seconds of ``assembly``, of its Dirichlet embedding ``dirichlet``,
    ``analysis``, numeric ``factor`` and ``solve``: triangular solves and
    the residual check, or CG), and on the direct path ``factor``
    ("cholesky" or "lu"), ``lu_fill`` (the stored factor entries),
    ``matrix_bytes`` (the data and index arrays of the matrices the walk
    holds), and ``supernodes``, ``factor_bytes`` (the bytes of the factor
    storage plus its peak update storage,
    ``cholesky.Symbolic.factor_bytes``) and ``analysis_bytes`` (the bytes
    the analysis keeps, ``cholesky.Symbolic.nbytes``), all None for LU.
    Where CG ran at this value (on either path: a direct solution after a
    CG that failed), ``cg_history`` is its relative residuals r_0 ... r_j
    at the top of each iteration (j its iterations), ``cg_stop`` why it
    ended: "converged", "projected" (given up: the projected count
    ``cg_projected`` exceeded PCG_BUDGET), "budget" (PCG_BUDGET iterations
    run) or "residual" (converged, but the residual check against K x
    missed RESIDUAL_TOL); all three None where no CG ran, ``cg_projected``
    None unless given up.  ``energy`` is 1/2 x^T K x.  The solution keeps
    its system without its matrices (``matrix``, ``c_matrix`` and
    ``group`` are None).
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


def _relative_residual(Kx, rhs):
    bnorm = np.linalg.norm(rhs)
    return float(np.linalg.norm(Kx - rhs) / (bnorm if bnorm > 0 else 1.0))


def _product(T):
    """x -> K x for the symmetric K whose lower triangle is the canonical
    CSR matrix ``T``: T x + T^T x - d x, at about the cost of one K x.
    The diagonal d is read where it is stored, last in its row."""
    last, rows = T.indptr[1:] - 1, np.flatnonzero(np.diff(T.indptr))
    rows = rows[T.indices[last[rows]] == rows]
    d = np.zeros(T.shape[0])
    d[rows] = T.data[last[rows]]
    Tt = T.T

    def Kx(x):
        # in place, in the order of T x + T^T x - d x
        y = T @ x
        y += Tt @ x
        y -= d * x
        return y
    return Kx


def _matrix_bytes(mats):
    """Bytes of the data arrays of ``mats``, matrices on one pattern, and
    of that pattern's index arrays."""
    return (sum(M.data.nbytes for M in mats) + mats[0].indices.nbytes
            + mats[0].indptr.nbytes)


def _splu_spd(T, symbolic=None):
    """(factor, spd) of the symmetric matrix whose lower triangle is
    ``T``, analysed by ``symbolic``.  A completed Cholesky certifies SPD;
    a matrix it rejects is factored by SuperLU's LU (symmetric-mode
    ordering) on the full matrix, formed for that only, and reported not
    SPD; a failed LU raises FactorizationFailed."""
    try:
        return cholesky.factor(T, symbolic), True
    except NotPositiveDefinite:
        pass
    try:
        lu = spla.splu((T + T.T - sp.diags(T.diagonal())).tocsc(),
                       permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationFailed(
            f"SuperLU failed on the free block with {T.shape[0]} "
            f"free dofs: {exc}") from exc
    return lu, False


def _direct(K, Kx, rhs, symbolic, require_spd):
    """Factor the free block whose lower triangle is ``K`` (``_splu_spd``)
    and solve once; returns (xf, K xf, lu, spd, info), K applied by
    ``Kx``.  A residual above RESIDUAL_TOL raises NonConvergence."""
    t0 = time.perf_counter()
    lu, spd = _splu_spd(K, symbolic)
    t1 = time.perf_counter()
    if require_spd and not spd:
        raise NotPositiveDefinite(
            f"Cholesky of the free block with {len(rhs)} free dofs "
            "broke down")
    xf = lu.solve(rhs)
    kx = Kx(xf)
    res = _relative_residual(kx, rhs)
    if not res <= RESIDUAL_TOL:     # a NaN residual fails too
        raise NonConvergence(f"relative residual {res:.2e} > {RESIDUAL_TOL} "
                             f"on {len(rhs)} free dofs")
    return xf, kx, lu, spd, {
        "path": "direct", "iterations": 0, "residual": res,
        "factor": "cholesky" if spd else "lu", "lu_fill": int(lu.nnz),
        "supernodes": lu.supernodes if spd else None,
        "factor_bytes": lu.symbolic.factor_bytes if spd else None,
        "analysis_bytes": lu.symbolic.nbytes if spd else None,
        "stages": {**_STAGES, "factor": t1 - t0,
                   "solve": time.perf_counter() - t1}}


def _pcg(Kx, rhs, solve, x0):
    """CG on K, applied by ``Kx``, preconditioned by an SPD factor's
    ``solve``, from x0, to relative residual RESIDUAL_TOL / 10 within
    PCG_BUDGET iterations: SciPy's ``cg`` (its norm test at the top of
    each iteration and its updates, in its order).  From iteration
    _PROJECT_FROM on it gives up where the count projected from the mean
    contraction so far, j + log(tol / r_j) / log((r_j / r_0)^(1/j)),
    exceeds PCG_BUDGET.  Returns (x, history, stop, projected): the
    relative residuals r_0 ... r_j of the norm tests, why it ended
    ("converged", "projected" or "budget") and the projection it gave up
    at, else None."""
    tol = RESIDUAL_TOL / 10.0
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0:
        return rhs.copy(), [0.0], "converged", None
    atol = tol * bnorm
    x = np.array(x0, dtype=float)
    r = rhs - Kx(x) if x.any() else rhs.copy()
    history = []
    for j in range(PCG_BUDGET + 1):
        rnorm = np.linalg.norm(r)
        history.append(float(rnorm / bnorm))
        if rnorm < atol:
            return x, history, "converged", None
        if j == PCG_BUDGET:
            return x, history, "budget", None
        if j >= _PROJECT_FROM:
            # log of the contraction over j iterations; none (or NaN)
            # projects to infinity
            shrink = math.log(history[j] / history[0])
            projected = (j + j * math.log(tol / history[j]) / shrink
                         if shrink < 0 else math.inf)
            if projected > PCG_BUDGET:
                return x, history, "projected", projected
        z = solve(r)
        rho = np.dot(r, z)
        if j:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = Kx(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho


def solve(system: SparseSystem, require_spd=False) -> FieldSolution:
    """The solution of K x = rhs for K = system.matrix: the walk of
    ``solve_family`` at the one value c = 0."""
    return solve_family(system, [0.0], require_spd)[0]


def solve_family(system: SparseSystem, coeffs, require_spd=False) -> list:
    """Solutions of K(c) x = rhs for each c in ``coeffs``, in input
    order, by the walk of the module docstring (a CG solution reports the
    spd verdict of its factor; repeated runs give identical results).
    A system outside the contract raises InvalidParam; with
    ``require_spd`` a factor that is not SPD raises NotPositiveDefinite;
    a failed factorization raises FactorizationFailed, a residual above
    RESIDUAL_TOL NonConvergence, a factor that does not fit in the
    available memory InsufficientMemory.  Each energy comes from the free blocks
    and the system's lifts and constants (``SparseSystem``):
    x^T K x = x_f^T K_ff x_f - 2 x_f^T lift + x_c^T K_cc x_c.  The
    system's assembly and Dirichlet stages and the analysis go on the
    first solution, at the smallest c.
    """
    A, C = system.matrix, system.c_matrix
    mats = [A] if C is None else [A, C]
    bad = [c for c in np.asarray(coeffs, dtype=float).ravel()
           if not np.isfinite(c)]
    if bad:
        raise InvalidParam(f"coefficient {bad[0]} is not finite")
    if len(system.lift) != len(mats):
        raise InvalidParam(f"expected {len(mats)} lift rows (one per "
                           f"matrix), got {len(system.lift)}")
    if not (sp.issparse(A) and A.format == "csr" and A.has_canonical_format):
        raise InvalidParam("matrix is not canonical CSR (sorted, no duplicates)")
    rows = np.flatnonzero(np.diff(A.indptr))
    if np.any(A.indices[A.indptr[rows + 1] - 1] > rows):
        raise InvalidParam("matrix has entries above the diagonal")
    if C is not None and not (sp.issparse(C) and C.format == "csr" and all(
            u is v or np.array_equal(u, v)
            for u, v in ((C.indptr, A.indptr), (C.indices, A.indices)))):
        raise InvalidParam("c_matrix is not CSR on the pattern of matrix")
    lift_a, e_a = system.lift[0], system.con_energy[0]
    K = A       # a system without c_matrix is its own K(c) for every c
    if C is not None:
        lift_c, e_c = system.lift[1], system.con_energy[1]
        # K(c) on the pattern both share keeps only a data array,
        # rewritten for each value
        K = sp.csr_matrix((np.empty_like(A.data), A.indices, A.indptr),
                          shape=A.shape)
        mats.append(K)
    t0 = time.perf_counter()
    sym = cholesky.analyse(K, label=system.group)
    # the factor, eight vectors of the walk and a solution per value
    need = sym.factor_bytes + 8 * (8 * K.shape[0] + len(coeffs) * system.n_dofs)
    free = cholesky.available_memory()
    if free is not None and need > free:
        raise InsufficientMemory(cholesky.too_large(K, sym, need, free))
    shared = {"assembly": system.assembly_s, "dirichlet": system.dirichlet_s,
              "analysis": time.perf_counter() - t0}
    matrix_bytes = _matrix_bytes(mats)
    kept = replace(system, matrix=None, c_matrix=None, group=None)
    out = [None] * len(coeffs)
    lu = xf = None
    refactor = True
    for i in np.argsort(coeffs, kind="stable"):
        c = float(coeffs[i])
        rhs, lift, con_c = system.rhs, lift_a, 0.0
        if C is not None:
            np.multiply(C.data, c, out=K.data)
            K.data += A.data
            rhs, lift, con_c = (system.rhs + c * lift_c, lift_a + c * lift_c,
                                c * e_c)
        Kx = _product(K)
        info, cg_s = None, 0.0
        cg = dict.fromkeys(("cg_history", "cg_stop", "cg_projected"))
        if not refactor:
            t = time.perf_counter()
            x_cg, history, stop, projected = _pcg(Kx, rhs, lu.solve, xf)
            if stop == "converged":
                kx = Kx(x_cg)
                res = _relative_residual(kx, rhs)
                if not res <= RESIDUAL_TOL:     # a NaN residual fails too
                    stop = "residual"
            cg_s = time.perf_counter() - t
            cg = {"cg_history": history, "cg_stop": stop,
                  "cg_projected": projected}
            if stop == "converged":
                xf = x_cg
                iterations = len(history) - 1
                info = {"path": "pcg", "iterations": iterations,
                        "residual": res, "stages": {**_STAGES, "solve": cg_s}}
                refactor = iterations > PCG_BUDGET // 2
        if info is None:
            lu = None   # release the old factor before the new one
            xf, kx, lu, spd, info = _direct(K, Kx, rhs, sym, require_spd)
            info["stages"]["solve"] += cg_s     # a failed CG first
            info["matrix_bytes"] = matrix_bytes
            # CG needs an SPD preconditioner
            refactor = not spd
        info.update(cg)
        info["stages"].update(shared)
        shared = {}
        # PCG runs only from an SPD factor at c0 <= c, and K(c) =
        # K(c0) + (c - c0) C with C a Gram matrix, so K(c) is SPD too
        energy = 0.5 * (xf @ kx - 2.0 * (xf @ lift) + e_a + con_c)
        out[i] = FieldSolution(system=kept, x=kept.full(xf),
                               residual=info["residual"], spd=spd, info=info,
                               energy=float(energy))
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
