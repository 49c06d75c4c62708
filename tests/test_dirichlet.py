import numpy as np
import pytest

from mmfem import dirichlet
from mmfem.dirichlet import _frame, _reference, _rule
from mmfem.benchmarks import sweep_grad_u, sweep_mesh, sweep_u
from mmfem.bernstein import eval_all
from mmfem.dofmap import FieldLayout, _face_interior_rank, build_dofmap
from mmfem.mesh import build, generate_box, generate_disk
from mmfem.nedelec import SpaceDescriptor, eval_vector_shapes
from mmfem.simplex import bezier_eval, traversal_order
from oracles import edge_dofs, edge_traces, face_dofs


def _layout(mesh, space, n_comps=1, offset=0):
    return FieldLayout("f", space, build_dofmap(mesh, space), n_comps, offset)


def _as_dict(dofs, values):
    """{dof: value} of an embedding, each dof constrained once."""
    cons = dict(zip(dofs.tolist(), values.tolist()))
    assert len(cons) == len(dofs) == len(values)
    return cons


def h1_dirichlet(*args):
    return _as_dict(*dirichlet.h1_dirichlet(*args))


def hcurl_dirichlet(*args):
    return _as_dict(*dirichlet.hcurl_dirichlet(*args))


def const_func(c):
    return lambda x: np.full(len(np.atleast_2d(x)), c)


def linear_func(a):
    a = np.asarray(a, dtype=float)
    def u(x):
        return np.atleast_2d(x) @ a
    def grad(x):
        return np.tile(a, (len(np.atleast_2d(x)), 1))
    return u, grad


def _edge_trace(mesh, dm, cons, e, ts):
    """Embedded trace on edge e at the edge parameters ``ts``, with the
    edge's end points."""
    va, vb = mesh.edges[e]
    coeffs = np.array([cons[dm.vertex_dof(va)]]
                      + [cons[d] for d in edge_dofs(dm, e)]
                      + [cons[dm.vertex_dof(vb)]])
    xa, xb = mesh.vertices[va], mesh.vertices[vb]
    pts = xa[None, :] + ts[:, None] * (xb - xa)[None, :]
    return eval_all(len(coeffs) - 1, ts).values @ coeffs, pts


class TestVertexValues:
    def test_constant(self):
        mesh = generate_disk(10.0, n_rings=1)
        layout = _layout(mesh, SpaceDescriptor("h1", 2, 2))
        dm = layout.dofmap
        facets = mesh.tagged_facets("boundary")
        verts = sorted({int(v) for f in facets for v in mesh.facet_vertices(f)})
        cons = h1_dirichlet(mesh, layout, facets, const_func(3.25),
                            linear_func([0.0, 0.0])[1])
        vdofs = dm.vertex_dof(np.array(verts))
        assert all(abs(cons[d] - 3.25) < 1e-15 for d in vdofs)
        # exactly the boundary vertices are constrained among the vertices
        all_vdofs = set(dm.vertex_dof(np.arange(mesh.n_vertices)).tolist())
        assert set(cons) & all_vdofs == set(vdofs.tolist())

    def test_coordinate_function(self):
        mesh = build([[0, 0], [2, 0], [0, 1]], [[0, 1, 2]])
        layout = _layout(mesh, SpaceDescriptor("h1", 1, 2))
        u, grad = linear_func([1.0, 0.0])
        # facet edge (0, 1) holds vertex 1
        cons = h1_dirichlet(mesh, layout, [mesh.edge_ids(0, 1)], u, grad)
        assert abs(cons[layout.dofmap.vertex_dof(1)] - 2.0) < 1e-15

    def test_disk_boundary_value(self):
        # u~ = sin((x^2+y^2)/5) at (10, 0) evaluates to sin(20)
        mesh = generate_disk(10.0, n_rings=1)
        layout = _layout(mesh, SpaceDescriptor("h1", 1, 2))
        vid = int(np.argmin(np.linalg.norm(mesh.vertices - [10, 0], axis=1)))
        facets = [f for f in mesh.tagged_facets("boundary")
                  if vid in mesh.facet_vertices(f)]
        func = lambda x: np.sin((np.atleast_2d(x) ** 2).sum(axis=1) / 5.0)
        grad = lambda x: (0.4 * np.cos((np.atleast_2d(x) ** 2).sum(axis=1) / 5.0)[:, None]
                          * np.atleast_2d(x))
        cons = h1_dirichlet(mesh, layout, facets, func, grad)
        assert abs(cons[layout.dofmap.vertex_dof(vid)] - np.sin(20.0)) < 1e-14


class TestEdgeH1:
    def test_linear_reproduction(self):
        mesh = build([[0, 0], [3, 1], [0, 2]], [[0, 1, 2]])
        layout = _layout(mesh, SpaceDescriptor("h1", 3, 2))
        u, grad = linear_func([0.5, -0.25])
        cons = h1_dirichlet(mesh, layout, np.arange(mesh.n_edges), u, grad)
        # interior dofs must reproduce the Bezier coefficients of the
        # linear exactly: check the trace along every edge
        for e in range(mesh.n_edges):
            trace, pts = _edge_trace(mesh, layout.dofmap, cons, e,
                                     np.linspace(0, 1, 7))
            np.testing.assert_allclose(trace, u(pts), atol=1e-13)

    def test_unit_edge_stiffness_entry(self):
        # interior stiffness for quadratic on a unit edge: integral of
        # (d/da 2a(1-a))^2 = 4/3
        a = np.polynomial.legendre.leggauss(6)
        x = 0.5 * (a[0] + 1)
        w = 0.5 * a[1]
        dn = eval_all(2, x).derivs[:, 1]
        val = float(w @ (dn * dn))
        assert abs(val - 4.0 / 3.0) < 1e-13

    def test_sine_convergence_in_p(self):
        mesh = build([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        u = lambda x: np.sin(3.0 * np.atleast_2d(x)[:, 0])
        grad = lambda x: np.stack([3.0 * np.cos(3.0 * np.atleast_2d(x)[:, 0]),
                                   np.zeros(len(np.atleast_2d(x)))], axis=1)
        e = mesh.edge_ids(0, 1)
        errs = []
        for q in (2, 4, 6, 8):
            layout = _layout(mesh, SpaceDescriptor("h1", q, 2))
            cons = h1_dirichlet(mesh, layout, [e], u, grad)
            trace, pts = _edge_trace(mesh, layout.dofmap, cons, e,
                                     np.linspace(0, 1, 101))
            errs.append(np.abs(trace - u(pts)).max())
        assert errs[1] < errs[0] and errs[2] < errs[1] and errs[3] < errs[2]


class TestEdgeTraces:
    @pytest.mark.parametrize("family,p", [("h1", 1), ("h1", 3), ("h1", 6),
                                          ("nedelec1", 0), ("nedelec1", 2),
                                          ("nedelec2", 1), ("nedelec2", 3)])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_every_edge_slot_has_the_univariate_traces(self, family, p, dim):
        # the tangential traces of the functions on an edge slot (vertex
        # functions first for H1) are the same univariate functions on
        # every slot: their Gram blocks agree with each other and with
        # the Gram of the closed-form traces
        space = SpaceDescriptor(family, p, dim)
        a, w = _rule(space, 1)
        trace = edge_traces(space, a[:, 0])
        expected = (w[:, None] * trace).T @ trace
        scale = np.abs(expected).max()
        grams = [gram[0, 0] for _, _, gram, _, _ in _reference(space, 1)]
        assert len(grams) == (3 if dim == 2 else 6)
        for gram in grams:
            assert np.abs(gram - grams[0]).max() <= 1e-14 * scale
            assert np.abs(gram - expected).max() <= 1e-14 * scale


class TestEdgeHcurl:
    def test_unit_edge_mass_matrix(self):
        # N_II p=1 mass matrix on a unit edge is [[1/3,1/6],[1/6,1/3]]
        g = np.polynomial.legendre.leggauss(4)
        x = 0.5 * (g[0] + 1)
        w = 0.5 * g[1]
        tr = eval_all(1, x).values
        M = np.einsum("q,qa,qb->ab", w, tr, tr)
        np.testing.assert_allclose(M, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]],
                                   atol=1e-14)

    def test_zero_tangential_gradient(self):
        mesh = build([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        layout = _layout(mesh, SpaceDescriptor("nedelec2", 2, 2))
        grad = lambda x: np.stack([np.zeros(len(np.atleast_2d(x))),
                                   np.ones(len(np.atleast_2d(x)))], axis=1)
        e = mesh.edge_ids(0, 1)
        # edge (0, 1) runs from (0, 0) to (1, 0), normal to the gradient
        va, vb = mesh.edges[e]
        np.testing.assert_array_equal(mesh.vertices[vb] - mesh.vertices[va],
                                      [1.0, 0.0])
        cons = hcurl_dirichlet(mesh, layout, [e], grad)
        vals = [cons[d] for d in edge_dofs(layout.dofmap, e)]
        assert np.abs(vals).max() < 1e-14

    def test_lowest_order_line_integral(self):
        # u~ = x along an edge on the x-axis: single dof equals the
        # potential difference, giving an exact constant tangential trace
        mesh = build([[0, 0], [2, 0], [0, 2]], [[0, 1, 2]])
        layout = _layout(mesh, SpaceDescriptor("nedelec1", 0, 2))
        _, grad = linear_func([1.0, 0.0])
        e = mesh.edge_ids(0, 1)
        cons = hcurl_dirichlet(mesh, layout, [e], grad)
        # <t, theta_lowest> = 1 on the edge, t = (2,0), <t, grad u~> = 2
        assert abs(cons[edge_dofs(layout.dofmap, e)[0]] - 2.0) < 1e-13


def _quad_u3(x):
    x = np.atleast_2d(x)
    return (x[:, 0] ** 2 - 2.0 * x[:, 1] * x[:, 2] + 0.5 * x[:, 1]
            + 0.1 * x[:, 2] ** 2)


def _quad_grad3(x):
    x = np.atleast_2d(x)
    return np.stack([2 * x[:, 0],
                     -2 * x[:, 2] + 0.5,
                     -2 * x[:, 1] + 0.2 * x[:, 2]], axis=1)


def _face_edge_map(mesh, f):
    """role pair (within a,b,c) -> global edge id for the face's edges."""
    fa, fb, fc = (int(v) for v in mesh.faces[f])
    return {(0, 1): mesh.edge_ids(fa, fb), (0, 2): mesh.edge_ids(fa, fc),
            (1, 2): mesh.edge_ids(fb, fc)}


class TestFaceH1:
    def test_frame_for_axis_aligned_face(self):
        # the reference triangle embedded in z = 0: T block-reduces and
        # det T equals |n|^2
        mesh = build([[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]],
                     [[0, 1, 2, 3]])
        # face (0, 2, 3) is the z = 0 plane
        f = [i for i in range(4) if tuple(mesh.faces[i]) == (0, 2, 3)][0]
        _, g, _, det_t = _frame(mesh, 2, np.array([f]))
        n = np.cross(g[0, :, 0], g[0, :, 1])
        assert abs(det_t[0] - float(n @ n)) < 1e-14
        assert abs(n[0]) < 1e-14 and abs(n[1]) < 1e-14  # normal along z

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_quadratic_reproduction(self, q):
        mesh = generate_box(((0, 1), (0, 1), (0, 1)), 1)
        layout = _layout(mesh, SpaceDescriptor("h1", q, 3))
        dm = layout.dofmap
        facets = mesh.boundary_facets
        cons = h1_dirichlet(mesh, layout, facets, _quad_u3, _quad_grad3)
        # the embedded trace must match the quadratic at face points
        for f in facets:
            fa, fb, fc = mesh.faces[f]
            xa, g, _, _ = _frame(mesh, 2, np.array([f]))
            xa, (g1, g2) = xa[0], g[0].T
            rng = np.random.default_rng(f)
            bary = rng.dirichlet(np.ones(3), size=8)
            pts2 = bary[:, 1:]
            xq = xa[None, :] + np.outer(pts2[:, 1], g1) + np.outer(pts2[:, 0], g2)
            # evaluate the constrained trace via 2D Bezier with role mapping
            vals2 = bezier_eval(q, 2, np.stack([pts2[:, 1], pts2[:, 0]],
                                               axis=1)).values
            trace = np.zeros(len(xq))
            edge_of = _face_edge_map(mesh, f)
            for col, mi in enumerate(traversal_order(q, 2)):
                exps = mi.exponents
                on = tuple(v for v, e in enumerate(exps) if e > 0)
                if len(on) == 1:
                    dof = dm.vertex_dof((fa, fb, fc)[on[0]])
                elif len(on) == 2:
                    dof = edge_dofs(dm, edge_of[on])[exps[on[1]] - 1]
                else:
                    dof = face_dofs(dm, f)[_face_interior_rank(q)[(exps[2],
                                                                  exps[1])]]
                trace += vals2[:, col] * cons[dof]
            np.testing.assert_allclose(trace, _quad_u3(xq), atol=1e-12)


class TestFaceHcurl:
    def test_zero_tangential_data(self):
        mesh = generate_box(((0, 1), (0, 1), (0, 1)), 1)
        layout = _layout(mesh, SpaceDescriptor("nedelec2", 2, 3))
        dm = layout.dofmap
        # gradient normal to the z- face: zero tangential part
        f = int(mesh.tagged_facets("z-")[0])
        grad = lambda x: np.tile([0.0, 0.0, 1.0], (len(np.atleast_2d(x)), 1))
        cons = hcurl_dirichlet(mesh, layout, [f], grad)
        # the face's three edges and the face itself
        assert len(cons) == 3 * dm.per_edge + dm.per_face
        assert max(abs(v) for v in cons.values()) < 1e-13

    def test_linear_data_face_interior_zero(self):
        # for linear u~ the tangential trace is constant: the lowest-order
        # edge dofs capture it exactly and face interiors vanish
        mesh = generate_box(((0, 1), (0, 1), (0, 1)), 1)
        layout = _layout(mesh, SpaceDescriptor("nedelec1", 1, 3))
        _, grad = linear_func([0.3, -0.2, 0.5])
        f = int(mesh.tagged_facets("x+")[0])
        cons = hcurl_dirichlet(mesh, layout, [f], grad)
        for d in face_dofs(layout.dofmap, f):
            assert abs(cons[d]) < 1e-12

    @pytest.mark.parametrize("family,p", [("nedelec1", 1), ("nedelec1", 2),
                                          ("nedelec1", 3), ("nedelec2", 1),
                                          ("nedelec2", 2), ("nedelec2", 3)])
    def test_consistent_coupling_trace_postcheck(self, family, p):
        # after the hierarchical embedding the tangential trace of the
        # P-row matches the tangential gradient at face quadrature points
        # (p >= 1: the linear bending gradient lies in the space)
        mesh = generate_box(((-10, 10), (-10, 10), (-0.5, 0.5)), (1, 1, 1))
        space = SpaceDescriptor(family, p, 3)
        layout = _layout(mesh, space, n_comps=3)
        dm = layout.dofmap
        from mmfem.benchmarks import bending_grad_u
        facets = mesh.tagged_facets("x+")
        cons = hcurl_dirichlet(mesh, layout, facets, bending_grad_u)
        x = np.zeros(3 * dm.n_dofs)
        for d, v in cons.items():
            x[d] = v
        for f in facets:
            # evaluate the constrained field's tangential trace on the face
            cell = int(np.flatnonzero((mesh.cell_faces == f).any(axis=1))[0])
            fa, fb, fc = mesh.faces[f]
            g1, g2 = _frame(mesh, 2, np.array([f]))[1][0].T
            rng = np.random.default_rng(0)
            bary = rng.dirichlet(np.ones(3), size=20)
            pts = bary @ mesh.vertices[[fa, fb, fc]]
            ref = np.linalg.solve(mesh.jacs[cell],
                                  (pts - mesh.origins[cell]).T).T
            shp = eval_vector_shapes(space, ref).values
            phys = np.einsum("ed,qnd->qne", mesh.inv_ts[cell], shp)
            exact = bending_grad_u(pts)
            for r in range(3):
                coeffs = x[layout.dofs(r, dm.cell_dofs[cell])]
                field = np.einsum("qne,n->qe", phys, coeffs)
                for t in (g1, g2):
                    np.testing.assert_allclose(field @ t, exact[:, r] @ t,
                                               atol=1e-8)


class TestHierarchy:
    def test_vector_h1_embedding_matches_callback(self):
        mesh = generate_box(((0, 1), (0, 1), (0, 1)), 1)
        q = 2
        layout = _layout(mesh, SpaceDescriptor("h1", q, 3), n_comps=3)
        dm = layout.dofmap

        def u(x):
            x = np.atleast_2d(x)
            return np.stack([x[:, 0] + x[:, 1], x[:, 2] ** 2, x[:, 0] * x[:, 2]],
                            axis=1)

        def grad(x):
            x = np.atleast_2d(x)
            g = np.zeros((len(x), 3, 3))
            g[:, 0, 0] = 1.0
            g[:, 0, 1] = 1.0
            g[:, 1, 2] = 2 * x[:, 2]
            g[:, 2, 0] = x[:, 2]
            g[:, 2, 2] = x[:, 0]
            return g

        cons = h1_dirichlet(mesh, layout, mesh.boundary_facets, u, grad)
        # quadratic data reproduced exactly: sample via vertex dofs of all
        # boundary vertices and edge midpoood traces through bezier_eval
        for comp in range(3):
            for f in mesh.boundary_facets[:6]:
                for v in mesh.facet_vertices(f):
                    dof = int(layout.dofs(comp, dm.vertex_dof(int(v))))
                    exact = u(mesh.vertices[int(v)][None, :])[0, comp]
                    assert abs(cons[dof] - exact) < 1e-12


def _counted(func, calls, key):
    def counted(x):
        calls[key] = calls.get(key, 0) + 1
        return func(x)
    return counted


def _component(func, r):
    """Row r of a vector callback, as a scalar-field callback."""
    return lambda x: func(x)[:, r]


class TestBatchedLevels:
    def test_one_callback_call_per_level(self):
        # vertices, edges and faces each call the datum's callback once for
        # all of their entities and components, not once per entity
        mesh = sweep_mesh(1)
        calls = {}
        u, grad = _counted(sweep_u, calls, "u"), _counted(sweep_grad_u, calls, "grad")
        layout = _layout(mesh, SpaceDescriptor("h1", 3, 3), n_comps=3)
        assert len(h1_dirichlet(mesh, layout, mesh.boundary_facets, u, grad)) > 0
        assert calls == {"u": 1, "grad": 2}

        calls.clear()
        layout = _layout(mesh, SpaceDescriptor("nedelec1", 2, 3), n_comps=3)
        assert len(hcurl_dirichlet(mesh, layout, mesh.boundary_facets, grad)) > 0
        assert calls == {"grad": 2}

    def test_components_equal_single_component_embeddings(self):
        # the 3-component layout against three 1-component layouts, scalar
        # dof i of component r at the layout's dofs(r, i)
        mesh = sweep_mesh(0)
        facets = mesh.boundary_facets
        space = SpaceDescriptor("h1", 3, 3)
        multi = _layout(mesh, space, n_comps=3)
        single = {}
        for r in range(3):
            single.update(self._at_comp(multi, r, h1_dirichlet(
                mesh, _layout(mesh, space), facets, _component(sweep_u, r),
                _component(sweep_grad_u, r))))
        self._assert_equal(h1_dirichlet(mesh, multi, facets, sweep_u, sweep_grad_u),
                           single)

        space = SpaceDescriptor("nedelec1", 2, 3)
        multi = _layout(mesh, space, n_comps=3, offset=17)
        single = {}
        for r in range(3):
            single.update(self._at_comp(multi, r, hcurl_dirichlet(
                mesh, _layout(mesh, space), facets, _component(sweep_grad_u, r))))
        self._assert_equal(hcurl_dirichlet(mesh, multi, facets, sweep_grad_u), single)

    @staticmethod
    def _at_comp(layout, r, cons):
        """Constraints of scalar dofs, moved to component r of ``layout``."""
        return {int(layout.dofs(r, i)): v for i, v in cons.items()}

    @staticmethod
    def _assert_equal(a, b):
        assert set(a) == set(b)
        scale = max(abs(v) for v in a.values())
        assert max(abs(a[d] - b[d]) for d in a) <= 1e-14 * scale
