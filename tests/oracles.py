"""Test oracles: constrained systems formed from full matrices, and
one-point field evaluation.

``constrain`` forms a free system the way the assembler does not: the
free blocks sliced from the matrices of a system assembled without
Dirichlet data, the lifts and constants from CSR products.
"""

import numpy as np

from mmfem.assembly import SparseSystem
from mmfem.dirichlet import h1_dirichlet, hcurl_dirichlet
from mmfem.solver import locate_cells, sample_line


def embed(system, groups, coupled=True):
    """{dof: value} of the Dirichlet data ``groups``, (facet_ids, ufunc,
    gradfunc), embedded in u and, if ``coupled``, by the consistent
    coupling condition in p."""
    cons = h1_dirichlet(system.mesh, system.fields["u"], groups)
    if coupled:
        cons.update(hcurl_dirichlet(system.mesh, system.fields["p"],
                                    [(facets, gf) for facets, _, gf in groups]))
    return cons


def constrain(system, constraints):
    """The free system of ``system``, every dof free (a bare or unconstrained
    assembled system), under ``constraints`` {dof: value}; ``matrix`` and
    ``c_matrix`` are its blocks M[free][:, free]."""
    free = np.ones(system.n_dofs, dtype=bool)
    x_con = np.zeros(system.n_dofs)
    con = np.array(list(constraints), dtype=np.int64)
    free[con] = False
    x_con[con] = [constraints[i] for i in con.tolist()]
    mats = [M for M in (system.matrix, system.c_matrix) if M is not None]
    mx = [M @ x_con for M in mats]
    lift = np.array([-v[free] for v in mx])
    blocks = [M[free][:, free] for M in mats] + [None]
    return SparseSystem(
        matrix=blocks[0], rhs=system.rhs[free] + lift[0], fields=system.fields,
        mesh=system.mesh, c_matrix=blocks[1], free=free, x_con=x_con,
        lift=lift, con_energy=np.array([x_con @ v for v in mx]),
        group=None if system.group is None else system.group[free])


def locate_cell(mesh, point, tol=1e-12):
    """``locate_cells`` for one point: (cell, reference coordinates)."""
    cells, refs = locate_cells(mesh, np.asarray(point)[None, :], tol)
    return int(cells[0]), refs[0]


def eval_field(sol, point):
    """(u, P) values at one physical point; ``sample_line`` for one point."""
    us, Ps = sample_line(sol, np.asarray(point, dtype=float)[None, :])
    return us[0], (None if Ps is None else Ps[0])
