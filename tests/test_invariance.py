"""Results must not depend on the numbering of vertices and cells, nor
on a rigid rotation of the mesh and its data.

Each relabelling case solves one problem on a mesh and on random relabellings of it;
the fill-reducing ordering then sees a different pattern every time.
Quadrature rules above the tabulated symmetric ones (triangles to degree
6, tetrahedra to degree 2) are collapsed tensor rules whose points follow
the cells' vertex order, so with non-polynomial data they move the L2
errors and the Dirichlet values at the level of the quadrature error.
The cases therefore use degree 1 in 2D, where every rule is symmetric,
and polynomial data that every rule integrates exactly in 3D.
"""

import numpy as np
import pytest

from mmfem.assembly import (assemble_antiplane, assemble_full3d, l2_error_h1,
                            l2_error_hcurl)
from mmfem.benchmarks import (anti_exact_grad_u, anti_exact_p, anti_exact_u,
                              anti_load_f, anti_load_m, antiplane_params,
                              bending_grad_u, bending_u, sweep_mesh,
                              sweep_params)
from mmfem.mesh import build, generate_disk
from mmfem.nedelec import SpaceDescriptor
from mmfem.solver import solve
from oracles import constrain, embed, symmetric

SEEDS = (1, 2, 3)


def _relabel(mesh, seed):
    rng = np.random.default_rng(seed)
    vperm = rng.permutation(len(mesh.vertices))
    cperm = rng.permutation(len(mesh.cells))
    vertices = np.empty_like(mesh.vertices)
    vertices[vperm] = mesh.vertices
    tags = {label: [vperm[mesh.facet_vertices(f)] for f in facets]
            for label, facets in mesh.boundary_tags.items()}
    return build(vertices, vperm[mesh.cells][cperm], tags=tags)


def _antiplane(mesh, family):
    """The antiplane benchmark problem (``solve_antiplane``) on ``mesh``,
    constrained from the full matrix, which gives its energy."""
    full = assemble_antiplane(mesh, antiplane_params(), SpaceDescriptor("h1", 2, 2),
                              SpaceDescriptor(family, 1, 2), f=anti_load_f,
                              m=anti_load_m)
    sol = solve(constrain(full, embed(full, (mesh.tagged_facets("boundary"),
                                             anti_exact_u, anti_exact_grad_u))))
    uf, pf = full.fields["u"], full.fields["p"]
    return sol, [0.5 * sol.x @ (symmetric(full.matrix) @ sol.x),
                 l2_error_h1(mesh, uf, sol.x, anti_exact_u),
                 l2_error_hcurl(mesh, pf, sol.x, anti_exact_p)]


def _quad_u(x):
    return np.stack([1.0 + x[:, 0], x[:, 1] * x[:, 2], x[:, 0] ** 2], axis=1)


def _linear_P(x):
    return np.eye(3) * (1.0 + x[:, 0])[:, None, None]


def _full3d(mesh, family, ufunc=bending_u, gradfunc=bending_grad_u):
    """Cube with the sweep moduli and the quadratic bending displacement
    (or ``ufunc``/``gradfunc``) on every face; L2 distances to fixed
    polynomials."""
    system = assemble_full3d(mesh, sweep_params(1.0),
                             SpaceDescriptor("h1", 2, 3),
                             SpaceDescriptor(family, 1, 3))
    facets = np.concatenate([mesh.tagged_facets(t) for t in
                             ("x-", "x+", "y-", "y+", "z-", "z+")])
    sol = solve(constrain(system, embed(system, (facets, ufunc, gradfunc))),
                require_spd=True)
    uf, pf = system.fields["u"], system.fields["p"]
    return sol, [0.5 * sol.x @ (symmetric(system.matrix) @ sol.x),
                 l2_error_h1(mesh, uf, sol.x, _quad_u),
                 l2_error_hcurl(mesh, pf, sol.x, _linear_P)]


@pytest.mark.parametrize("case, mesh, family", [
    (_antiplane, generate_disk(10.0, n_rings=3), "nedelec1"),
    (_antiplane, generate_disk(10.0, n_rings=3), "nedelec2"),
    (_full3d, sweep_mesh(0), "nedelec1"),
    (_full3d, sweep_mesh(0), "nedelec2"),
])
def test_relabelling_invariance(case, mesh, family):
    sol, ref = case(mesh, family)
    assert sol.info["factor"] == "cholesky" and sol.residual <= 1e-10
    fills = {sol.info["lu_fill"]}
    for seed in SEEDS:
        sol, values = case(_relabel(mesh, seed), family)
        assert sol.spd and sol.residual <= 1e-10
        np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0.0)
        fills.add(sol.info["lu_fill"])
    # the relabellings reach the ordering: the factors differ
    assert len(fills) > 1


def _rotation():
    """A fixed proper rotation (det +1) about no coordinate axis."""
    a, b = 0.7, -0.4
    rz = np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0],
                   [0.0, 0.0, 1.0]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(b), -np.sin(b)],
                   [0.0, np.sin(b), np.cos(b)]])
    return rz @ rx


@pytest.mark.parametrize("family", ["nedelec1", "nedelec2"])
def test_rigid_motion_invariance(family):
    """Rotating the cube by Q and its Dirichlet data by u -> Q u(Q^T x),
    grad u -> Q grad u(Q^T x) Q^T leaves the energy of the isotropic
    model unchanged."""
    Q = _rotation()
    mesh = sweep_mesh(0)
    sol, ref = _full3d(mesh, family)
    tags = {label: [mesh.facet_vertices(f) for f in facets]
            for label, facets in mesh.boundary_tags.items()}
    rotated = build(mesh.vertices @ Q.T, mesh.cells, tags=tags)

    def ufunc(x):
        return bending_u(x @ Q) @ Q.T

    def gradfunc(x):
        return Q @ bending_grad_u(x @ Q) @ Q.T

    sol_rot, values = _full3d(rotated, family, ufunc, gradfunc)
    assert sol.residual <= 1e-10
    assert sol_rot.spd and sol_rot.residual <= 1e-10
    np.testing.assert_allclose(values[0], ref[0], rtol=1e-12, atol=0.0)
