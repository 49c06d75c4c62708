import ast
import pathlib

import numpy as np
import pytest

import mmfem
from mmfem.simplex import (TET_EDGES, TET_FACES, TET_VERTICES, TRI_EDGES,
                           TRI_VERTICES, MultiIndex2, MultiIndex3, bezier_eval,
                           classify, collapsed_safe, duffy_forward,
                           traversal_order)
from oracles import n_basis


def interior_points(dim, n, rng, margin=0.02, shrink=0.9):
    lam = rng.dirichlet(np.ones(dim + 1), size=n)
    return lam[:, :dim] * shrink + margin


class TestDuffy:
    def test_forward_2d(self):
        pt = duffy_forward(np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(pt, [[0.5, 0.25]])

    def test_forward_3d_origin(self):
        pt = duffy_forward(np.zeros((1, 3)))
        np.testing.assert_allclose(pt, [[0.0, 0.0, 0.0]])

    def test_inverse_2d(self):
        cp = collapsed_safe(np.array([[0.25, 0.375]]), 2)
        np.testing.assert_allclose(cp, [[0.25, 0.5]])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3):
            pts = interior_points(dim, 50, rng)
            back = duffy_forward(collapsed_safe(pts, dim))
            np.testing.assert_allclose(back, pts, atol=1e-14)

    def test_square_maps_onto_triangle(self):
        rng = np.random.default_rng(1)
        cp = rng.uniform(0, 1, size=(100, 2))
        pts = duffy_forward(cp)
        assert np.all(pts >= 0) and np.all(pts.sum(axis=1) <= 1 + 1e-14)

    def test_singular_inverse(self):
        # on a collapse line the coordinate that a vanishing denominator
        # divides is filled by 0, and the forward map still recovers the point
        pts = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0]])
        cp = collapsed_safe(pts, 3)
        np.testing.assert_allclose(cp, [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0],
                                         [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(duffy_forward(cp), pts, atol=1e-15)


def test_collapsed_coordinates_stay_private():
    # only the evaluator and the quadrature see collapsed coordinates: no
    # other module imports or reaches for the Duffy maps
    private = {"duffy_forward", "collapsed_safe"}
    leaks = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(mmfem.__file__).parent.glob("*.py"))
             if path.name not in ("simplex.py", "quadrature.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.ImportFrom)
                 and private & {alias.name for alias in node.names})
             or (isinstance(node, ast.Attribute) and node.attr in private)]
    assert not leaks, leaks


class TestClassification:
    def test_triangle_edge(self):
        assert classify(MultiIndex2(4, 0, 2)).name == "e12"

    def test_tet_cell(self):
        assert classify(MultiIndex3(4, 1, 1, 1)).name == "c1234"

    def test_tet_slanted_edge(self):
        assert classify(MultiIndex3(3, 1, 0, 2)).name == "e24"

    def test_vertices(self):
        assert classify(MultiIndex2(3, 0, 0)).name == "v1"
        assert classify(MultiIndex2(3, 0, 3)).name == "v2"
        assert classify(MultiIndex2(3, 3, 0)).name == "v3"
        assert classify(MultiIndex3(2, 0, 0, 2)).name == "v2"
        assert classify(MultiIndex3(2, 0, 2, 0)).name == "v3"
        assert classify(MultiIndex3(2, 2, 0, 0)).name == "v4"

    @pytest.mark.parametrize("p,dim", [(3, 2), (5, 2), (3, 3), (5, 3)])
    def test_partition_counts(self, p, dim):
        counts = {}
        for mi in traversal_order(p, dim):
            poly = classify(mi)
            counts[poly.name] = counts.get(poly.name, 0) + 1
        n_vert = dim + 1
        for v in range(n_vert):
            assert counts[f"v{v + 1}"] == 1
        edge_names = [k for k in counts if k.startswith("e")]
        assert all(counts[k] == p - 1 for k in edge_names)
        assert len(edge_names) == (3 if dim == 2 else 6)
        if dim == 3:
            face_names = [k for k in counts if k.startswith("f")]
            assert len(face_names) == 4
            assert all(counts[k] == (p - 1) * (p - 2) // 2 for k in face_names)
        assert sum(counts.values()) == n_basis(p, dim)


class TestTraversal:
    def test_order_2d(self):
        order = [(mi.i, mi.j) for mi in traversal_order(2, 2)]
        assert order == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]

    def test_order_3d(self):
        order = [(mi.i, mi.j, mi.k) for mi in traversal_order(1, 3)]
        assert order == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_degree_zero(self):
        assert [(mi.i, mi.j) for mi in traversal_order(0, 2)] == [(0, 0)]

    @pytest.mark.parametrize("p", range(1, 7))
    def test_counts(self, p):
        assert len(traversal_order(p, 2)) == (p + 1) * (p + 2) // 2
        assert len(traversal_order(p, 3)) == (p + 1) * (p + 2) * (p + 3) // 6


def closed_form_tri(p, i, j, pts):
    from math import comb
    xi, eta = pts[:, 0], pts[:, 1]
    return (comb(p, i) * comb(p - i, j)
            * (1 - xi - eta) ** (p - i - j) * eta ** j * xi ** i)


def closed_form_tet(p, i, j, k, pts):
    from math import comb
    xi, eta, zeta = pts[:, 0], pts[:, 1], pts[:, 2]
    return (comb(p, i) * comb(p - i, j) * comb(p - i - j, k)
            * (1 - xi - eta - zeta) ** (p - i - j - k)
            * zeta ** k * eta ** j * xi ** i)


class TestBezierTriangle:
    def test_vertex_value(self):
        sh = bezier_eval(1, 2, np.array([[1e-9, 1e-9]]))
        assert abs(sh.values[0, 0] - 1.0) < 1e-8

    def test_quarter_point_value(self):
        # b_{11}^2 = 2 eta xi = 0.125 at (0.25, 0.25)
        sh = bezier_eval(2, 2, np.array([[0.25, 0.25]]))
        cols = [(mi.i, mi.j) for mi in traversal_order(2, 2)]
        assert abs(sh.values[0, cols.index((1, 1))] - 0.125) < 1e-14

    def test_gradient_of_eta(self):
        # b_{01}^1 = eta has reference gradient (0, 1)
        sh = bezier_eval(1, 2, np.array([[0.2, 0.3]]))
        cols = [(mi.i, mi.j) for mi in traversal_order(1, 2)]
        np.testing.assert_allclose(sh.grads[0, cols.index((0, 1))], [0.0, 1.0],
                                   atol=1e-14)

    @pytest.mark.parametrize("p", [1, 3, 5, 8])
    def test_matches_closed_form(self, p):
        rng = np.random.default_rng(p)
        pts = interior_points(2, 40, rng)
        sh = bezier_eval(p, 2, pts)
        for col, mi in enumerate(traversal_order(p, 2)):
            np.testing.assert_allclose(sh.values[:, col],
                                       closed_form_tri(p, mi.i, mi.j, pts),
                                       atol=1e-12)


class TestBezierTet:
    def test_interior_value(self):
        # b_{111}^3 = 6 zeta eta xi = 0.09375 at (1/4,1/4,1/4)
        sh = bezier_eval(3, 3, np.array([[0.25, 0.25, 0.25]]))
        cols = [(mi.i, mi.j, mi.k) for mi in traversal_order(3, 3)]
        assert abs(sh.values[0, cols.index((1, 1, 1))] - 0.09375) < 1e-14

    def test_vertex_gradient(self):
        # lambda_1 = 1 - xi - eta - zeta: gradient (-1, -1, -1)
        sh = bezier_eval(1, 3, np.array([[0.01, 0.01, 0.01]]))
        np.testing.assert_allclose(sh.grads[0, 0], [-1, -1, -1], atol=1e-12)
        assert abs(sh.values[0, 0] - 0.97) < 1e-12

    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_matches_closed_form(self, p):
        rng = np.random.default_rng(p)
        pts = interior_points(3, 30, rng)
        sh = bezier_eval(p, 3, pts)
        for col, mi in enumerate(traversal_order(p, 3)):
            np.testing.assert_allclose(
                sh.values[:, col], closed_form_tet(p, mi.i, mi.j, mi.k, pts),
                atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_partition_of_unity(dim, p):
    rng = np.random.default_rng(dim * 10 + p)
    pts = interior_points(dim, 100, rng)
    sh = bezier_eval(p, dim, pts)
    np.testing.assert_allclose(sh.values.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(sh.grads.sum(axis=1), 0.0, atol=1e-11)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [1, 2, 5])
def test_gradients_match_finite_differences(dim, p):
    # away from the collapse lines (alpha, beta <= 0.9)
    rng = np.random.default_rng(p + dim)
    pts = interior_points(dim, 20, rng, margin=0.05, shrink=0.7)
    h = 1e-6
    sh = bezier_eval(p, dim, pts)
    for d in range(dim):
        step = np.zeros(dim)
        step[d] = h
        vp = bezier_eval(p, dim, pts + step).values
        vm = bezier_eval(p, dim, pts - step).values
        fd = (vp - vm) / (2 * h)
        scale = np.maximum(np.abs(sh.grads[:, :, d]), 1.0)
        assert (np.abs(sh.grads[:, :, d] - fd) / scale).max() < 1e-5


@pytest.mark.parametrize("dim", [2, 3])
def test_values_safe_on_boundary(dim):
    # exact on faces and edges
    p = 3
    if dim == 2:
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.7], [0.0, 0.4]])
    else:
        pts = np.array([[1.0, 0.0, 0.0], [0.3, 0.7, 0.0], [0.2, 0.3, 0.5],
                        [0.0, 0.0, 0.0]])
    vals = bezier_eval(p, dim, pts).values
    close = closed_form_tri if dim == 2 else closed_form_tet
    for col, mi in enumerate(traversal_order(p, dim)):
        idx = (mi.i, mi.j) if dim == 2 else (mi.i, mi.j, mi.k)
        np.testing.assert_allclose(vals[:, col], close(p, *idx, pts), atol=1e-13)


def closed_simplex_points(dim):
    """The vertices, three points on every edge and, in 3D, three on every
    face of the reference simplex: all collapse lines and points."""
    verts = TRI_VERTICES if dim == 2 else TET_VERTICES
    t = np.array([[0.25], [0.5], [0.75]])
    pts = [verts] + [verts[a] + t * (verts[b] - verts[a])
                     for a, b in (TRI_EDGES if dim == 2 else TET_EDGES)]
    if dim == 3:
        s = np.array([[0.2, 0.3], [0.6, 0.1], [0.25, 0.5]])
        pts += [verts[a] + s[:, :1] * (verts[b] - verts[a])
                + s[:, 1:] * (verts[c] - verts[a]) for a, b, c in TET_FACES]
    return np.vstack(pts)


def closed_form_gradient(p, idx, pts):
    """Reference gradient (n, dim) of the closed form: each barycentric
    factor differentiated in turn."""
    from math import comb
    dim = pts.shape[1]
    lam = np.hstack([1.0 - pts.sum(axis=1, keepdims=True), pts[:, ::-1]])
    exps = (p - sum(idx),) + tuple(idx[::-1])
    coef = comb(p, idx[0]) * comb(p - idx[0], idx[1])
    if dim == 3:
        coef *= comb(p - idx[0] - idx[1], idx[2])
    dlam = np.vstack([-np.ones(dim), np.eye(dim)[::-1]])
    grad = np.zeros_like(pts)
    for v, e in enumerate(exps):
        if e:
            rest = np.prod([lam[:, w] ** exps[w] for w in range(dim + 1) if w != v],
                           axis=0)
            grad += (coef * e * lam[:, v] ** (e - 1) * rest)[:, None] * dlam[v]
    return grad


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", range(1, 7))
def test_exact_on_closed_simplex(dim, p):
    # vertices, edges and faces, where the Duffy chain rule is singular
    pts = closed_simplex_points(dim)
    sh = bezier_eval(p, dim, pts)
    close = closed_form_tri if dim == 2 else closed_form_tet
    for col, mi in enumerate(traversal_order(p, dim)):
        idx = (mi.i, mi.j) if dim == 2 else (mi.i, mi.j, mi.k)
        np.testing.assert_allclose(sh.values[:, col], close(p, *idx, pts), atol=1e-13)
        want = closed_form_gradient(p, idx, pts)
        np.testing.assert_allclose(sh.grads[:, col], want,
                                   atol=1e-12 * max(1.0, np.abs(want).max()))
