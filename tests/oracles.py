"""Test oracles: full matrices, constrained systems formed from them,
the matrix K(c) of a family, one-point field evaluation, SciPy's CG and
the supernodal solve without a plan, the dense-coefficient Nedelec
evaluator, and closed forms that only tests use.

The assembler stores the lower triangle of each matrix.  ``symmetric``
forms the whole matrix from it, and ``assemble_full`` assembles the
whole matrix on all dofs directly from the assembler's element halves;
``assemble_yyt`` does so from element matrices Y + Y^T of the reference
tensors, an independent reference for the values of the halves.
``constrain`` forms a free system the way the assembler does not: the
free blocks sliced from the matrices of a system assembled without
Dirichlet data, the lifts and constants from CSR products with the
whole matrices.
"""

from dataclasses import replace
from math import comb

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas

from mmfem import assembly
from mmfem.assembly import SparseSystem
from mmfem.bernstein import eval_all
from mmfem.dirichlet import h1_dirichlet, hcurl_dirichlet
from mmfem.dual import seed
from mmfem.errors import BadIndex, InvalidParam
from mmfem.mesh import _chunks
from mmfem.nedelec import build_basis, lowest_order_tet, lowest_order_tri
from mmfem.simplex import bezier_eval, index_position
from mmfem.solver import locate_cells, sample_line


def symmetric(T):
    """T + T^T - diag(T), the symmetric CSR matrix whose lower triangle is
    ``T``, with every stored entry of T kept (also exact zeros)."""
    T = sp.coo_matrix(T)
    off = T.row != T.col
    return sp.csr_matrix((np.concatenate([T.data, T.data[off]]),
                          (np.concatenate([T.row, T.col[off]]),
                           np.concatenate([T.col, T.row[off]]))), shape=T.shape)


def matrix_at(system, c):
    """The lower triangle of K(c) = matrix + c c_matrix of ``system`` on
    their shared pattern; the matrix of a system without c_matrix."""
    if system.matrix is None:
        raise InvalidParam("the system carries no matrices (a solution "
                           "of solve_family keeps it without them)")
    if system.c_matrix is None:
        return system.matrix
    K = system.matrix
    return sp.csr_matrix((K.data + c * system.c_matrix.data,
                          K.indices, K.indptr), shape=K.shape)


def _spy(form, args, kwargs):
    """``form(*args, **kwargs)`` and the arguments of its ``_assemble`` call."""
    seen, real = {}, assembly._assemble

    def spy(mesh, rule, fields, table, coeffs, loads=(), n_mats=1, **rest):
        seen.update(mesh=mesh, fields=fields, table=table, coeffs=coeffs, n_mats=n_mats)
        return real(mesh, rule, fields, table, coeffs, loads, n_mats, **rest)

    assembly._assemble = spy
    try:
        return form(*args, **kwargs), seen
    finally:
        assembly._assemble = real


def _dofs_per_cell(fields):
    """Scalar dofs of a cell over all fields."""
    return sum(fl.dofmap.cell_dofs.shape[1] for fl in fields.values())


def _whole(system, seen, elements):
    """``system`` with its matrices whole on all dofs: the element matrices
    (n_mats, nc, k, k, nb, nb) of ``elements``, (cells, matrices) chunk by
    chunk, added entry by entry, both triangles, in cell order, on the
    pattern of every coupling through a cell."""
    dofs = np.concatenate([fl.cell_dofs() for fl in seen["fields"].values()], axis=2)
    n, keys, vals = system.n_dofs, [], [[] for _ in range(seen["n_mats"])]
    for cells, kc in elements:
        g = dofs[cells]
        keys.append((g[:, :, None, :, None] * n + g[:, None, :, None, :]).ravel())
        for v, km in zip(vals, kc):
            v.append(km.ravel())
    entries, at = np.unique(np.concatenate(keys), return_inverse=True)
    indptr = np.searchsorted(entries, np.arange(n + 1) * n)
    mats = []
    for v in vals:
        data = np.zeros(len(entries))
        np.add.at(data, at.ravel(), np.concatenate(v))
        mats.append(sp.csr_matrix((data, entries % n, indptr), shape=(n, n)))
    return replace(system, matrix=mats[0], c_matrix=mats[1] if len(mats) == 2 else None)


def assemble_full(form, *args, **kwargs):
    """``form(*args, **kwargs)``, an ``assemble_*`` call without Dirichlet
    data, with its matrices whole: the stored halves of the assembler's
    element matrices (``assembly._halves`` on the assembler's chunks)
    mirrored into whole element matrices (``_whole``)."""
    system, seen = _spy(form, args, kwargs)
    k, nb = seen["fields"]["u"].n_comps, _dofs_per_cell(seen["fields"])
    (a, b), d, (r, s) = np.tril_indices(nb, -1), np.arange(nb), np.tril_indices(k)

    def elements():
        mesh, table = seen["mesh"], seen["table"]
        for cells in assembly._element_chunks(mesh.n_cells, table, seen["n_mats"], k, nb):
            _, pairs, diag = assembly._halves(mesh, seen["coeffs"], table, cells, nb)
            kc = np.empty(pairs.shape[:4] + (nb, nb))
            kc[..., a, b] = pairs
            kc.transpose(0, 1, 3, 2, 5, 4)[..., a, b] = pairs
            kc[:, :, r[:, None], s[:, None], d, d] = diag
            kc[:, :, s[:, None], r[:, None], d, d] = diag
            yield cells, kc

    return _whole(system, seen, elements())


def gram_blocks(table, nb):
    """The halved reference tensors G (n_terms, nb, nb) whose rows G[t, A,
    B], then G[t, B, A], on the local pairs A > B and then the diagonal,
    make ``table`` (``assembly._form_ref``)."""
    (a, b), d, n_terms = np.tril_indices(nb, -1), np.arange(nb), len(table) // 2
    assert np.array_equal(table[:n_terms, len(a):], table[n_terms:, len(a):])
    G = np.empty((n_terms, nb, nb))
    G[:, a, b], G[:, b, a] = table[:n_terms, :len(a)], table[n_terms:, :len(a)]
    G[:, d, d] = table[:n_terms, len(a):]
    return G


def assemble_yyt(form, *args, **kwargs):
    """``form(*args, **kwargs)`` without Dirichlet data, its matrices whole
    (``_whole``) from element matrices K[r, s, A, B] = Y[r, s, A, B] +
    Y[s, r, B, A], Y = x @ G over the reference tensors G of the
    assembler's table (``gram_blocks``): a reference for the values of
    the assembler's stored halves that shares none of their arithmetic."""
    system, seen = _spy(form, args, kwargs)
    mesh, coeffs, n_mats = seen["mesh"], seen["coeffs"], seen["n_mats"]
    nb = _dofs_per_cell(seen["fields"])
    G = gram_blocks(seen["table"], nb)

    def elements():
        for cells in _chunks(mesh.n_cells, n_mats * G.size):
            adet = np.abs(mesh.dets[cells])
            x = coeffs(mesh.inv_ts[cells] * np.sqrt(adet)[:, None, None],
                       mesh.jacs[cells], adet)
            y = (x.reshape(-1, len(G)) @ G.reshape(len(G), -1)).reshape(
                x.shape[:4] + (nb, nb))
            yield cells, y + y.transpose(0, 1, 3, 2, 5, 4)

    return _whole(system, seen, elements())


def embed(system, data, coupled=True):
    """(dofs, values) of the Dirichlet datum ``data``, (facet_ids, ufunc,
    gradfunc), embedded in u and, if ``coupled``, by the consistent
    coupling condition in p."""
    facets, ufunc, gradfunc = data
    parts = [h1_dirichlet(system.mesh, system.fields["u"], facets, ufunc, gradfunc)]
    if coupled:
        parts.append(hcurl_dirichlet(system.mesh, system.fields["p"], facets, gradfunc))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def constrain(system, constraints):
    """The free system of ``system``, every dof free (a bare or unconstrained
    assembled system, lower triangles), under ``constraints`` (dofs,
    values); ``matrix`` and ``c_matrix`` are the lower triangles of its
    blocks M[free][:, free]."""
    free = np.ones(system.n_dofs, dtype=bool)
    x_con = np.zeros(system.n_dofs)
    dofs, values = constraints
    free[dofs] = False
    x_con[dofs] = values
    mats = [M for M in (system.matrix, system.c_matrix) if M is not None]
    mx = [symmetric(M) @ x_con for M in mats]
    lift = np.array([-v[free] for v in mx])
    blocks = [M[free][:, free] for M in mats] + [None]
    return SparseSystem(
        matrix=blocks[0], rhs=system.rhs[free] + lift[0], fields=system.fields,
        mesh=system.mesh, c_matrix=blocks[1], free=free, x_con=x_con,
        lift=lift, con_energy=np.array([x_con @ v for v in mx]),
        group=None if system.group is None else system.group[free])


def eval_single(p, i, xi):
    """One Bernstein base function b_i^p from the closed form, as a dual
    number: the oracle of ``bernstein.eval_all``'s recursion."""
    if not 0 <= i <= p:
        raise BadIndex(f"index {i} outside 0..{p}")
    x = seed(xi)
    return comb(p, i) * x ** i * (1.0 - x) ** (p - i)


def n_basis(p, dim):
    """Number of degree-p Bernstein polynomials on a triangle or tetrahedron."""
    return (p + 1) * (p + 2) // 2 if dim == 2 else (p + 1) * (p + 2) * (p + 3) // 6


def dense_vector_shapes(space, x):
    """Values (n, nb, dim) and curls of the basis of ``space`` at the
    reference points x the dense way, the oracle of
    ``eval_vector_shapes``'s term table: every distinct primitive of
    ``build_basis`` tabulated into P (n, n_prim, dim) and its curl into R,
    the basis C^T P and C^T R with C the dense n_prim x nb coefficients."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, dim = x.shape
    fns = build_basis(space)
    row = {prim: k for k, prim in enumerate(dict.fromkeys(
        prim for fn in fns for prim, _ in fn.terms))}
    prims = list(row)
    C = np.zeros((len(prims), len(fns)))
    for m, fn in enumerate(fns):
        for prim, coeff in fn.terms:
            C[row[prim], m] += coeff
    theta, rot = lowest_order_tri(x) if dim == 2 else lowest_order_tet(x)
    rot = rot.reshape(len(rot), -1)
    tabs = {q: bezier_eval(q, dim, x) for q in {prim[1] for prim in prims
                                                if prim[0] != "theta"}}
    P = np.zeros((n, len(prims), dim))
    R = np.zeros((n, len(prims), rot.shape[1]))
    for k, prim in enumerate(prims):
        if prim[0] == "theta":
            P[:, k], R[:, k] = theta[:, prim[1]], rot[prim[1]]
            continue
        col = index_position(prim[1], dim)[prim[2]]
        b, g = tabs[prim[1]].values[:, col, None], tabs[prim[1]].grads[:, col]
        if prim[0] == "grad":
            P[:, k] = g
            continue
        v = np.eye(dim)[prim[3]] if prim[0] == "bvec" else theta[:, prim[3]]
        v = np.broadcast_to(v, g.shape)
        curl = (g[:, :1] * v[:, 1:] - g[:, 1:] * v[:, :1] if dim == 2
                else np.cross(g, v))
        P[:, k] = b * v
        R[:, k] = curl if prim[0] == "bvec" else b * rot[prim[3]] + curl
    curls = C.T @ R
    return C.T @ P, curls[..., 0] if dim == 2 else curls


def edge_traces(space, a):
    """Tangential traces (na, n) at the edge parameters ``a`` of the base
    functions on an edge, in closed form: H1 d/dalpha b^p (the two vertex
    functions first, then the interior ones), N-II b^p, N-I
    {1, d/dalpha b^{p+1}_m}."""
    p = space.degree
    if space.family == "h1":
        return eval_all(p, a).derivs[:, [0, p] + list(range(1, p))]
    if space.family == "nedelec2":
        return eval_all(p, a).values
    return np.hstack([np.ones((len(a), 1)), eval_all(p + 1, a).derivs[:, 1:p + 1]])


def edge_dofs(dofmap, e):
    """The interior dofs of edge e."""
    return dofmap.edge_base + dofmap.per_edge * e + np.arange(dofmap.per_edge)


def face_dofs(dofmap, f):
    """The interior dofs of face f in a 3D dofmap."""
    return dofmap.face_base + dofmap.per_face * f + np.arange(dofmap.per_face)


def apply_isotropic(lam, mu, s):
    """Isotropic fourth-order tensor action lam*tr(S)*I + 2*mu*S."""
    s = np.asarray(s, dtype=float)
    return lam * np.trace(s) * np.eye(s.shape[0]) + 2.0 * mu * s


def apply_tensors(params, sym_part, skw_part):
    """Elastic and Cosserat stress contributions (C_e sym, C_c skw)."""
    return (apply_isotropic(params.lam_e, params.mu_e, sym_part),
            2.0 * params.mu_c * np.asarray(skw_part, dtype=float))


def locate_cell(mesh, point, tol=1e-12):
    """``locate_cells`` for one point: (cell, reference coordinates)."""
    cells, refs = locate_cells(mesh, np.asarray(point)[None, :], tol)
    return int(cells[0]), refs[0]


def eval_field(sol, point):
    """(u, P) values at one physical point; ``sample_line`` for one point."""
    us, Ps = sample_line(sol, np.asarray(point, dtype=float)[None, :])
    return us[0], (None if Ps is None else Ps[0])


def scipy_pcg(Kx, rhs, solve, x0, rtol, maxiter):
    """SciPy's ``cg`` on K, applied by ``Kx``, preconditioned by
    ``solve``, from x0, to relative residual ``rtol``: (x, iterations,
    SciPy's info)."""
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    n = len(rhs)
    A = spla.LinearOperator((n, n), matvec=Kx, dtype=float)
    M = spla.LinearOperator((n, n), matvec=solve, dtype=float)
    x, info = spla.cg(A, rhs, x0=x0, rtol=rtol, atol=0.0, maxiter=maxiter,
                      M=M, callback=count)
    return x, iterations, info


def factor_solve(F, b):
    """K x = b by the supernodal factor ``F`` (``cholesky.Factor``) for
    b of shape (n,), its views and front rows derived group by group from
    the panels and the analysis, as ``Factor.solve`` did before its plan."""
    sym = F.symbolic
    x = np.asarray(b, dtype=float)[sym.perm]
    work = list(zip(sym.groups, F.panels))
    for g, P in work:
        k = g.k
        if len(P) == 1:
            c0 = g.rows[0, 0]
            y = x[c0:c0 + k] = blas.dtrsv(P[0, :k].T, x[c0:c0 + k],
                                          lower=0, trans=1)
            if g.n > k:
                x[g.rows[0, k:]] -= P[0, k:] @ y
            continue
        cols = g.rows[:, :k]
        y = x[cols] = (P[:, :k] @ x[cols][..., None])[..., 0]
        if g.n > k:
            np.subtract.at(x, g.rows[:, k:], (P[:, k:] @ y[..., None])[..., 0])
    for g, P in reversed(work):
        k = g.k
        if len(P) == 1:
            c0 = g.rows[0, 0]
            z = x[c0:c0 + k]
            if g.n > k:
                z -= x[g.rows[0, k:]] @ P[0, k:]
            x[c0:c0 + k] = blas.dtrsv(P[0, :k].T, z, lower=0)
            continue
        cols = g.rows[:, :k]
        z = x[cols]
        if g.n > k:
            z -= (x[g.rows[:, k:]][:, None, :] @ P[:, k:])[:, 0]
        x[cols] = (z[:, None, :] @ P[:, :k])[:, 0]
    out = np.empty_like(x)
    out[sym.perm] = x
    return out
