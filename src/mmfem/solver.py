"""Sparse symmetric solve and field post-processing."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SparseSystem
from .errors import NonConvergence, NotPositiveDefinite, PointOutsideMesh
from .nedelec import eval_vector_values
from .simplex import bezier_values

RESIDUAL_TOL = 1e-10


@dataclass
class FieldSolution:
    """Global coefficients plus the space/dof metadata needed to evaluate."""

    system: SparseSystem
    x: np.ndarray
    residual: float
    spd: bool
    info: dict = field(default_factory=dict)

    @property
    def mesh(self):
        return self.system.mesh

    def coeffs(self, name, comp=0):
        layout = self.system.fields[name]
        off = layout.comp_offset(comp)
        return self.x[off:off + layout.dofmap.n_dofs]


def _reduced_system(system: SparseSystem, matrix=None):
    K = system.matrix if matrix is None else matrix
    n = system.n_dofs
    con = np.fromiter(system.constraints.keys(), dtype=np.int64,
                      count=len(system.constraints))
    vals = np.fromiter(system.constraints.values(), dtype=float,
                       count=len(system.constraints))
    free = np.ones(n, dtype=bool)
    free[con] = False
    free_idx = np.flatnonzero(free)
    Kff = K[free_idx][:, free_idx].tocsc()
    rhs = system.rhs[free_idx]
    if len(con):
        rhs = rhs - K[free_idx][:, con] @ vals
    return Kff, rhs, free_idx, con, vals


def _splu_spd(Kff):
    """Cholesky-like SuperLU factorization.

    A symmetric matrix is certified SPD only if no row was pivoted away
    from the symmetric ordering (perm_r == perm_c, so the factorization
    is P K P^T = L U with U = D L^T) and every pivot is positive.
    """
    lu = spla.splu(Kff, permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    spd = bool(np.array_equal(lu.perm_r, lu.perm_c)
               and np.all(lu.U.diagonal() > 0.0))
    return lu, spd


def solve(system: SparseSystem, matrix=None, require_spd=False) -> FieldSolution:
    """Direct sparse solve of the constrained system.

    Falls back to diagonally preconditioned CG if the factorization
    fails; either path must reach relative residual 1e-10.
    """
    Kff, rhs, free_idx, con, vals = _reduced_system(system, matrix)
    n = system.n_dofs
    x = np.zeros(n)
    x[con] = vals

    spd = False
    xf = None
    try:
        lu, spd = _splu_spd(Kff)
        if require_spd and not spd:
            raise NotPositiveDefinite("factorization produced non-positive pivots")
        xf = lu.solve(rhs)
        # one step of iterative refinement keeps large systems at tolerance
        r = rhs - Kff @ xf
        if np.linalg.norm(r) > RESIDUAL_TOL * max(np.linalg.norm(rhs), 1e-300):
            xf = xf + lu.solve(r)
    except NotPositiveDefinite:
        raise
    except Exception:
        xf = None

    bnorm = np.linalg.norm(rhs)
    if xf is not None:
        res = np.linalg.norm(Kff @ xf - rhs) / (bnorm if bnorm > 0 else 1.0)
    if xf is None or res > RESIDUAL_TOL:
        diag = Kff.diagonal()
        diag = np.where(np.abs(diag) > 1e-300, diag, 1.0)
        M = sp.diags(1.0 / diag)
        xf, info = spla.cg(Kff, rhs, rtol=RESIDUAL_TOL / 10.0, atol=0.0,
                           maxiter=50 * Kff.shape[0], M=M,
                           x0=xf if xf is not None else None)
        if info != 0:
            raise NonConvergence(f"CG failed with info={info}")
        res = np.linalg.norm(Kff @ xf - rhs) / (bnorm if bnorm > 0 else 1.0)
        if res > RESIDUAL_TOL:
            raise NonConvergence(f"relative residual {res:.2e} > {RESIDUAL_TOL}")

    x[free_idx] = xf
    return FieldSolution(system=system, x=x, residual=float(res), spd=spd)


def locate_cell(mesh, point, tol=1e-12):
    """Containing cell by barycentric sign test; ties resolve to the
    lowest cell id."""
    point = np.asarray(point, dtype=float)
    diffs = point[None, :] - mesh.origins
    # inv(J) is the transpose of the stored J^{-T}
    ref = np.einsum("ced,ce->cd", mesh.inv_ts, diffs)
    lam_last = 1.0 - ref.sum(axis=1)
    ok = (ref.min(axis=1) >= -tol) & (lam_last >= -tol)
    hits = np.flatnonzero(ok)
    if len(hits) == 0:
        raise PointOutsideMesh(f"point {point} not inside any cell")
    c = int(hits[0])
    return c, ref[c]


def eval_field(sol: FieldSolution, point):
    """(u, P) values at one physical point.

    u is a scalar (antiplane) or length-3 vector; P is a 2-vector or a
    3x3 tensor assembled from the row fields.
    """
    mesh = sol.mesh
    c, ref = locate_cell(mesh, point)
    ref = np.clip(ref, 0.0, None)
    s = ref.sum()
    if s > 1.0:
        ref = ref / s
    uf = sol.system.fields["u"]
    vals_u = bezier_values(uf.space.degree, mesh.dim, ref[None, :])[0]
    dofs_u = uf.dofmap.cell_dofs[c]
    u = np.array([sol.x[uf.comp_offset(r) + dofs_u] @ vals_u
                  for r in range(uf.n_comps)])
    if uf.n_comps == 1:
        u = float(u[0])

    pf = sol.system.fields.get("p")
    if pf is None:
        return u, None
    ref_vals = eval_vector_values(pf.space, ref[None, :])[0]
    phys_vals = ref_vals @ mesh.inv_ts[c].T
    dofs_p = pf.dofmap.cell_dofs[c]
    rows = [sol.x[pf.comp_offset(r) + dofs_p] @ phys_vals
            for r in range(pf.n_comps)]
    P = rows[0] if pf.n_comps == 1 else np.stack(rows)
    return u, P


def sample_line(sol: FieldSolution, points):
    """eval_field over an (n, dim) array of points; returns (us, Ps)."""
    us, Ps = [], []
    for pt in np.atleast_2d(points):
        u, P = eval_field(sol, pt)
        us.append(u)
        Ps.append(P)
    return np.asarray(us), np.asarray(Ps)
