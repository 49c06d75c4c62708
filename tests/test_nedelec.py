import numpy as np
import pytest

from oracles import dense_vector_shapes

from mmfem.bernstein import eval_all
from mmfem.nedelec import (SpaceDescriptor, _terms, build_basis, eval_vector_shapes,
                           lowest_order_tet, lowest_order_tri, nedelec1_tet,
                           nedelec1_tri, nedelec2_tet, nedelec2_tri)
from mmfem.quadrature import rule_for
from mmfem.simplex import (TET_EDGES, TET_FACES, TET_VERTICES, TRI_EDGES,
                           TRI_VERTICES, bezier_eval)


def interior_points(dim, n, rng):
    lam = rng.dirichlet(np.ones(dim + 1), size=n)
    return lam[:, :dim] * 0.9 + 0.02


class TestDimensions:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_nedelec2_tri(self, p):
        assert len(nedelec2_tri(p)) == (p + 1) * (p + 2)

    @pytest.mark.parametrize("p", range(0, 7))
    def test_nedelec1_tri(self, p):
        assert len(nedelec1_tri(p)) == (p + 1) * (p + 3)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_nedelec2_tet(self, p):
        assert len(nedelec2_tet(p)) == (p + 1) * (p + 2) * (p + 3) // 2

    @pytest.mark.parametrize("p", range(0, 7))
    def test_nedelec1_tet(self, p):
        assert len(nedelec1_tet(p)) == (p + 4) * (p + 3) * (p + 1) // 2

    def test_family_structure_counts(self):
        # p=1 triangle N_II: six vertex-edge functions, nothing else
        fns = nedelec2_tri(1)
        assert all(f.polytope.kind == "edge" for f in fns)
        # p=2 triangle N_II: 6 vertex-edge + 3 pure edge + 3 edge-cell
        fns = nedelec2_tri(2)
        assert sum(f.polytope.kind == "edge" for f in fns) == 9
        assert sum(f.polytope.kind == "cell" for f in fns) == 3
        # p=1 tet N_II: 12 vertex-edge only
        assert all(f.polytope.kind == "edge" for f in nedelec2_tet(1))
        # p=0 lowest order
        assert len(nedelec1_tri(0)) == 3
        assert len(nedelec1_tet(0)) == 6


class TestLowestOrder:
    def test_tri_point_values(self):
        vals, rots = lowest_order_tri(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(vals[0, 0], [0.0, 1.0])   # theta_1 at origin
        np.testing.assert_allclose(rots, [-2.0, 2.0, -2.0])

    def test_tet_point_values(self):
        vals, curls = lowest_order_tet(np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(vals[0, 2], [1.0, 0.0, 0.0])  # theta_3
        np.testing.assert_allclose(curls[0], [-2.0, 2.0, 0.0])

    def test_rot_is_constant(self):
        rng = np.random.default_rng(0)
        pts = interior_points(2, 20, rng)
        sp = SpaceDescriptor("nedelec1", 0, 2)
        vs = eval_vector_shapes(sp, pts)
        # theta_3 = (eta, -xi): rot = -2 everywhere
        np.testing.assert_allclose(vs.curls[:, 2], -2.0, atol=1e-13)


def _curl_fd(sp, pts, h):
    """Central-difference curls (n, nb) in 2D, (n, nb, 3) in 3D."""
    dim = pts.shape[1]
    jac = np.stack([(eval_vector_shapes(sp, pts + h * e).values
                     - eval_vector_shapes(sp, pts - h * e).values) / (2 * h)
                    for e in np.eye(dim)], axis=-1)   # (n, nb, comp, axis)
    if dim == 2:
        return jac[..., 1, 0] - jac[..., 0, 1]
    return np.stack([jac[..., 2, 1] - jac[..., 1, 2], jac[..., 0, 2] - jac[..., 2, 0],
                     jac[..., 1, 0] - jac[..., 0, 1]], axis=-1)


class TestCurls:
    @pytest.mark.parametrize("family,dim,p", [
        ("nedelec1", 2, 1), ("nedelec1", 2, 2), ("nedelec1", 3, 1),
        ("nedelec1", 3, 2), ("nedelec2", 2, 2), ("nedelec2", 3, 2),
    ])
    def test_gradient_kind_zero_curl(self, family, dim, p):
        sp = SpaceDescriptor(family, p, dim)
        rng = np.random.default_rng(1)
        pts = interior_points(dim, 10, rng)
        vs = eval_vector_shapes(sp, pts)
        for m, fn in enumerate(build_basis(sp)):
            if fn.kind == "gradient":
                assert np.all(vs.curls[:, m] == 0.0)

    @pytest.mark.parametrize("family,dim,p", [
        ("nedelec2", 2, 2), ("nedelec1", 2, 2), ("nedelec2", 3, 2),
        ("nedelec1", 3, 2),
    ])
    def test_curls_match_finite_differences(self, family, dim, p):
        sp = SpaceDescriptor(family, p, dim)
        rng = np.random.default_rng(2)
        pts = interior_points(dim, 8, rng) * 0.8 + 0.05
        vs = eval_vector_shapes(sp, pts)
        assert np.abs(vs.curls - _curl_fd(sp, pts, 1e-6)).max() < 1e-5


class TestExactSequence:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_gradients_in_span(self, dim, p):
        sp = SpaceDescriptor("nedelec1", p, dim)
        rng = np.random.default_rng(p + dim)
        pts = interior_points(dim, 50, rng)
        A = eval_vector_shapes(sp, pts).values.transpose(0, 2, 1).reshape(
            50 * dim, -1)
        sh = bezier_eval(p + 1, dim, pts)
        for col in range(sh.grads.shape[1]):
            b = sh.grads[:, col].reshape(-1)
            sol, *_ = np.linalg.lstsq(A, b, rcond=None)
            assert np.linalg.norm(A @ sol - b) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("p", [1, 2])
    def test_curl_rank(self, dim, p):
        # curls span dim(N1) - dim(grad B^{p+1}) directions: the gradient
        # part is exactly the kernel on a single element
        sp = SpaceDescriptor("nedelec1", p, dim)
        rule = rule_for(dim, 2 * p + 4)
        vs = eval_vector_shapes(sp, rule.simplex_points)
        curls = vs.curls.reshape(len(rule.weights), len(build_basis(sp)), -1)
        mat = curls.transpose(1, 0, 2).reshape(len(build_basis(sp)), -1)
        rank = np.linalg.matrix_rank(mat, tol=1e-9)
        from oracles import n_basis
        n_grad = n_basis(p + 1, dim) - 1
        assert rank == len(build_basis(sp)) - n_grad


class TestEdgeTraces:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_nedelec2_tri_traces(self, p):
        # tangential traces on each edge reproduce the Bernstein basis
        sp = SpaceDescriptor("nedelec2", p, 2)
        fns = build_basis(sp)
        verts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        ts = np.linspace(0.07, 0.93, 6)
        for edge in ((0, 1), (0, 2), (1, 2)):
            lo, hi = edge
            pts = verts[lo] + ts[:, None] * (verts[hi] - verts[lo])
            t = verts[hi] - verts[lo]
            vals = eval_vector_shapes(sp, pts).values
            bern = eval_all(p, ts).values
            for m, fn in enumerate(fns):
                if fn.polytope.kind == "edge" and fn.polytope.vertices == edge:
                    trace = vals[:, m] @ t
                    np.testing.assert_allclose(trace, bern[:, fn.ordinal],
                                               atol=1e-13)

    def test_pure_edge_trace_example(self):
        # e12 pure-edge function at p=2 traces to b_{01}^2 on xi = 0
        sp = SpaceDescriptor("nedelec2", 2, 2)
        fns = build_basis(sp)
        idx = [m for m, f in enumerate(fns)
               if f.polytope.vertices == (0, 1) and f.ordinal == 1][0]
        etas = np.linspace(0.1, 0.9, 5)
        pts = np.stack([np.zeros_like(etas), etas], axis=1)
        vals = eval_vector_shapes(sp, pts).values
        trace = vals[:, idx] @ np.array([0.0, 1.0])
        np.testing.assert_allclose(trace, 2 * etas * (1 - etas), atol=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_nedelec2_tet_traces(self, p):
        # on every edge the p+1 edge functions trace to the Bernstein basis
        sp = SpaceDescriptor("nedelec2", p, 3)
        fns = build_basis(sp)
        from mmfem.simplex import TET_EDGES, TET_VERTICES
        ts = np.linspace(0.06, 0.94, 5)
        bern = eval_all(p, ts).values
        for edge in TET_EDGES:
            lo, hi = edge
            pts = TET_VERTICES[lo] + ts[:, None] * (TET_VERTICES[hi]
                                                    - TET_VERTICES[lo])
            t = TET_VERTICES[hi] - TET_VERTICES[lo]
            vals = eval_vector_shapes(sp, pts).values
            for m, fn in enumerate(fns):
                if fn.polytope.kind == "edge" and fn.polytope.vertices == edge:
                    np.testing.assert_allclose(vals[:, m] @ t,
                                               bern[:, fn.ordinal], atol=1e-13)

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_nedelec1_tet_lowest_unit_trace(self, p):
        # the lowest-order function of each edge block has unit trace on
        # its own edge and zero on the others
        sp = SpaceDescriptor("nedelec1", p, 3)
        fns = build_basis(sp)
        from mmfem.simplex import TET_EDGES, TET_VERTICES
        ts = np.linspace(0.1, 0.9, 4)
        for edge in TET_EDGES:
            lo, hi = edge
            pts = TET_VERTICES[lo] + ts[:, None] * (TET_VERTICES[hi]
                                                    - TET_VERTICES[lo])
            t = TET_VERTICES[hi] - TET_VERTICES[lo]
            vals = eval_vector_shapes(sp, pts).values
            for m, fn in enumerate(fns):
                if fn.kind == "lowest":
                    trace = vals[:, m] @ t
                    expected = 1.0 if fn.polytope.vertices == edge else 0.0
                    np.testing.assert_allclose(trace, expected, atol=1e-13)


class TestGram:
    @pytest.mark.parametrize("family", ["nedelec1", "nedelec2"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_nonsingular(self, family, dim, p):
        sp = SpaceDescriptor(family, p, dim)
        rule = rule_for(dim, min(2 * p + 4, 20))
        vs = eval_vector_shapes(sp, rule.simplex_points)
        G = np.einsum("q,qad,qbd->ab", rule.weights, vs.values, vs.values)
        d = np.sqrt(np.diag(G))
        ev = np.linalg.eigvalsh(G / np.outer(d, d))
        assert ev[0] > 1e-12


@pytest.mark.parametrize("family,p,dim", [
    *[("nedelec1", p, dim) for dim in (2, 3) for p in range(0, 4)],
    *[("nedelec2", p, dim) for dim in (2, 3) for p in range(1, 4)],
])
def test_exact_on_closed_simplex(family, p, dim):
    # vertices, edges and faces against values and central-difference
    # curls at two interior points on the ray to the centroid,
    # extrapolated to the boundary (Richardson)
    verts = TRI_VERTICES if dim == 2 else TET_VERTICES
    t = np.array([[0.25], [0.5], [0.75]])
    pts = [verts] + [verts[a] + t * (verts[b] - verts[a])
                     for a, b in (TRI_EDGES if dim == 2 else TET_EDGES)]
    if dim == 3:
        pts += [verts[list(f)].mean(axis=0, keepdims=True) for f in TET_FACES]
    pts = np.vstack(pts)
    inner = [pts + s * (verts.mean(axis=0) - pts) for s in (3e-4, 6e-4)]
    sp = SpaceDescriptor(family, p, dim)
    vs = eval_vector_shapes(sp, pts)
    values = [eval_vector_shapes(sp, x).values for x in inner]
    curls = [_curl_fd(sp, x, 3e-6) for x in inner]
    scale = max(1.0, np.abs(vs.curls).max())
    assert np.abs(vs.values - (2 * values[0] - values[1])).max() < 1e-5 * scale
    assert np.abs(vs.curls - (2 * curls[0] - curls[1])).max() < 1e-5 * scale


def _closed_simplex_points(dim, rng):
    """Interior points, then the vertices, three points on each edge and
    (3D) two on each face of the reference simplex."""
    verts = TRI_VERTICES if dim == 2 else TET_VERTICES
    t = np.array([[0.2], [0.5], [0.9]])
    pts = [interior_points(dim, 12, rng), verts]
    pts += [verts[a] + t * (verts[b] - verts[a])
            for a, b in (TRI_EDGES if dim == 2 else TET_EDGES)]
    if dim == 3:
        pts += [np.array([[1 / 3, 1 / 3, 1 / 3], [0.6, 0.3, 0.1]]) @ verts[list(f)]
                for f in TET_FACES]
    return np.vstack(pts)


@pytest.mark.parametrize("family,p,dim", [
    *[("nedelec1", p, dim) for dim in (2, 3) for p in range(0, 9)],
    *[("nedelec2", p, dim) for dim in (2, 3) for p in range(1, 9)],
])
def test_term_table_matches_dense_oracle(family, p, dim):
    # the flat term table against the dense coefficient matrix C^T P, on
    # the interior and on vertices, edges and faces of the closed simplex
    sp = SpaceDescriptor(family, p, dim)
    x = _closed_simplex_points(dim, np.random.default_rng(10 * p + dim))
    vs = eval_vector_shapes(sp, x)
    values, curls = dense_vector_shapes(sp, x)
    assert vs.values.shape == values.shape and vs.curls.shape == curls.shape
    assert np.abs(vs.values - values).max() <= 1e-15 * np.abs(values).max()
    assert np.abs(vs.curls - curls).max() <= 1e-15 * np.abs(curls).max()


@pytest.mark.parametrize("family", ["nedelec1", "nedelec2"])
@pytest.mark.parametrize("dim", [2, 3])
def test_term_table_has_one_to_three_terms_per_function(family, dim):
    for p in range(0 if family == "nedelec1" else 1, 11):
        sp = SpaceDescriptor(family, p, dim)
        _, coeff, *_, first = _terms(sp)
        counts = np.diff(np.append(first, len(coeff)))
        assert len(counts) == len(build_basis(sp))
        assert counts.min() >= 1 and counts.max() <= 3, (p, counts.max())
