from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import mmfem.mesh
from mmfem.assembly import (_default_degree, _h1_ref, _hcurl_ref, _phys_grads,
                            assemble_antiplane, assemble_cauchy3d, assemble_full3d,
                            l2_error_h1, l2_error_hcurl, rot_l2_norm)
from mmfem.dofmap import FieldLayout, build_dofmap
from mmfem.errors import SpaceMismatch
from mmfem.materials import MaterialParams
from mmfem.mesh import build, generate_box, generate_disk
from mmfem.nedelec import SpaceDescriptor, eval_vector_shapes
from oracles import assemble_full, assemble_yyt, constrain, embed, matrix_at, symmetric


# ---------------------------------------------------------------------------
# per-cell reference implementations (test oracles)

def _push(mat, ref):
    """A matrix applied to reference vectors (nq, nb, dim)."""
    return np.einsum("ed,qnd->qne", mat, ref)


def _cell_coeffs(layout, x, c):
    """Local coefficients (n_comps, n_local) of cell c."""
    return x[layout.cell_dofs([c])[0]]


def _cell_dofs(layout, c):
    """Global dofs of cell c, components outermost."""
    return layout.cell_dofs([c]).ravel()


def _pack_sym(e):
    s2 = np.sqrt(2.0)
    return np.stack([e[..., 0, 0], e[..., 1, 1], e[..., 2, 2],
                     s2 * 0.5 * (e[..., 0, 1] + e[..., 1, 0]),
                     s2 * 0.5 * (e[..., 0, 2] + e[..., 2, 0]),
                     s2 * 0.5 * (e[..., 1, 2] + e[..., 2, 1])], axis=-1)


def _pack_skw(e):
    s2 = np.sqrt(2.0)
    return np.stack([s2 * 0.5 * (e[..., 0, 1] - e[..., 1, 0]),
                     s2 * 0.5 * (e[..., 0, 2] - e[..., 2, 0]),
                     s2 * 0.5 * (e[..., 1, 2] - e[..., 2, 1])], axis=-1)


def _gram(feat, w):
    """sum_q w_q F_q F_q^T of per-dof feature columns (nq, ndof, nfeat)."""
    return np.einsum("q,qak,qbk->ab", w, feat, feat)


def reference_system(mesh, form, u_space, p_space=None, params=None,
                     lam=None, mu=None, f=None, m=None, split_curl=False):
    """Dense (K_base, K_curl, rhs) from one cell at a time, with the
    energy written out as per-dof strain features; K_curl has unit
    coefficient."""
    if form == "cauchy3d":
        qd = 2 * u_space.degree
    else:
        qd = _default_degree(u_space, p_space)
    rule, uvals, ugrads = _h1_ref(u_space.degree, mesh.dim, qd)
    dm_u = build_dofmap(mesh, u_space)
    nc_u = 1 if form == "antiplane" else 3
    nu = dm_u.n_dofs
    n = nc_u * nu
    uf = FieldLayout("u", u_space, dm_u, nc_u, 0)
    if p_space is not None:
        _, pvals, pcurls = _hcurl_ref(p_space, qd)
        dm_p = build_dofmap(mesh, p_space)
        pf = FieldLayout("p", p_space, dm_p, nc_u, n)
        n += nc_u * dm_p.n_dofs
    K = np.zeros((n, n))
    Kc = np.zeros((n, n))
    rhs = np.zeros(n)
    for c in range(mesh.n_cells):
        det = mesh.dets[c]
        w = rule.weights * abs(det)
        xq = mesh.map_points(c, rule.simplex_points)
        gu = _push(mesh.inv_ts[c], ugrads)
        du = dm_u.cell_dofs[c]
        nq, nbu = gu.shape[:2]
        if form == "antiplane":
            pv = _push(mesh.inv_ts[c], pvals)
            rot = pcurls / det
            nbp = pv.shape[1]
            feat = np.zeros((nq, nbu + nbp, 4))
            feat[:, :nbu, :2] = np.sqrt(params.mu_e) * gu
            feat[:, nbu:, :2] = -np.sqrt(params.mu_e) * pv
            feat[:, nbu:, 2:] = np.sqrt(params.mu_micro) * pv
            gd = np.concatenate([du, nu + dm_p.cell_dofs[c]])
            K[np.ix_(gd, gd)] += _gram(feat, w)
            curl = np.zeros((nq, nbu + nbp, 1))
            curl[:, nbu:, 0] = rot
            Kc[np.ix_(gd, gd)] += _gram(curl, w)
            if f is not None:
                rhs[du] += uvals.T @ (w * f(xq))
            if m is not None:
                rhs[gd[nbu:]] += np.einsum("q,qae,qe->a", w, pv, m(xq))
            continue
        E = np.zeros((nq, 3 * nbu, 3, 3))
        for r in range(3):
            E[:, r * nbu:(r + 1) * nbu, r, :] = gu
        gd = _cell_dofs(uf, c)
        if form == "cauchy3d":
            feat = np.concatenate(
                [np.sqrt(lam) * np.einsum("qnii->qn", E)[..., None],
                 np.sqrt(2.0 * mu) * _pack_sym(E)], axis=-1)
            K[np.ix_(gd, gd)] += _gram(feat, w)
        else:
            pv = _push(mesh.inv_ts[c], pvals)
            pc = _push(mesh.jacs[c] / det, pcurls)
            nbp = pv.shape[1]
            ndof = 3 * (nbu + nbp)
            E = np.concatenate([E, np.zeros((nq, 3 * nbp, 3, 3))], axis=1)
            P = np.zeros((nq, ndof, 3, 3))
            C = np.zeros((nq, ndof, 3, 3))
            for r in range(3):
                sl = slice(3 * nbu + r * nbp, 3 * nbu + (r + 1) * nbp)
                E[:, sl, r, :] = -pv
                P[:, sl, r, :] = pv
                C[:, sl, r, :] = pc
            pr = params
            feat = np.concatenate(
                [np.sqrt(pr.lam_e) * np.einsum("qnii->qn", E)[..., None],
                 np.sqrt(2.0 * pr.mu_e) * _pack_sym(E),
                 np.sqrt(2.0 * pr.mu_c) * _pack_skw(E),
                 np.sqrt(pr.lam_micro) * np.einsum("qnii->qn", P)[..., None],
                 np.sqrt(2.0 * pr.mu_micro) * _pack_sym(P)], axis=-1)
            gd = np.concatenate([gd, _cell_dofs(pf, c)])
            K[np.ix_(gd, gd)] += _gram(feat, w)
            Kc[np.ix_(gd, gd)] += _gram(C.reshape(nq, ndof, 9), w)
            if m is not None:
                mv = m(xq)
                for r in range(3):
                    rhs[gd[3 * nbu + r * nbp:3 * nbu + (r + 1) * nbp]] += \
                        np.einsum("q,qae,qe->a", w, pv, mv[:, r])
        if f is not None:
            fv = f(xq)
            for r in range(3):
                rhs[uf.dofs(r, du)] += uvals.T @ (w * fv[:, r])
    return K, Kc, rhs


def compute_energy(mesh, params, system, x, quad_degree=None):
    """Quadratic energy 1/2 a(x, x) evaluated by elementwise quadrature."""
    uf, pf = system.fields["u"], system.fields.get("p")
    qd = quad_degree or _default_degree(uf.space, pf.space if pf else None)
    rule, _, ugrads = _h1_ref(uf.space.degree, mesh.dim, qd)
    if pf is not None:
        _, pvals, pcurls = _hcurl_ref(pf.space, qd)

    total = 0.0
    for c in range(mesh.n_cells):
        det = mesh.dets[c]
        w = rule.weights * abs(det)
        gu = _push(mesh.inv_ts[c], ugrads)
        cu = _cell_coeffs(uf, x, c)
        if mesh.dim == 2:
            grad_u = np.einsum("qad,a->qd", gu, cu[0])
            pvp = _push(mesh.inv_ts[c], pvals)
            cp = _cell_coeffs(pf, x, c)
            pval = np.einsum("qad,a->qd", pvp, cp[0])
            rot = (pcurls / det) @ cp[0]
            diff = grad_u - pval
            integrand = (params.mu_e * np.einsum("qd,qd->q", diff, diff)
                         + params.mu_micro * np.einsum("qd,qd->q", pval, pval)
                         + params.curl_coeff * rot ** 2)
        else:
            Du = np.einsum("qad,ra->qrd", gu, cu)
            if pf is not None:
                pvp = _push(mesh.inv_ts[c], pvals)
                pcp = _push(mesh.jacs[c] / det, pcurls)
                cp = _cell_coeffs(pf, x, c)
                P = np.einsum("qad,ra->qrd", pvp, cp)
                CurlP = np.einsum("qad,ra->qrd", pcp, cp)
            else:
                P = np.zeros_like(Du)
                CurlP = np.zeros_like(Du)
            E = Du - P
            symE = 0.5 * (E + E.transpose(0, 2, 1))
            skwE = E - symE
            symP = 0.5 * (P + P.transpose(0, 2, 1))
            trE = np.einsum("qrr->q", E)
            trP = np.einsum("qrr->q", P)
            integrand = (params.lam_e * trE ** 2
                         + 2.0 * params.mu_e * np.einsum("qij,qij->q", symE, symE)
                         + 2.0 * params.mu_c * np.einsum("qij,qij->q", skwE, skwE)
                         + params.lam_micro * trP ** 2
                         + 2.0 * params.mu_micro * np.einsum("qij,qij->q", symP, symP)
                         + params.curl_coeff * np.einsum("qij,qij->q", CurlP, CurlP))
        total += 0.5 * float(w @ integrand)
    return total


def reference_l2(mesh, layout, x, func, kind, quad_degree):
    """Per-cell L2 error (kind "h1" / "hcurl") or rot norm (kind "rot")."""
    if kind == "h1":
        rule, vals, _ = _h1_ref(layout.space.degree, mesh.dim, quad_degree)
    else:
        rule, vals, curls = _hcurl_ref(layout.space, quad_degree)
    total = 0.0
    for c in range(mesh.n_cells):
        w = rule.weights * abs(mesh.dets[c])
        cu = _cell_coeffs(layout, x, c)
        if kind == "rot":
            total += float(w @ ((curls / mesh.dets[c]) @ cu[0]) ** 2)
            continue
        exact = np.asarray(func(mesh.map_points(c, rule.simplex_points)))
        if kind == "h1":
            diff = np.einsum("qa,ra->qr", vals, cu) - exact.reshape(len(w), -1)
        else:
            pv = _push(mesh.inv_ts[c], vals)
            diff = (np.einsum("qad,ra->qrd", pv, cu)
                    - exact.reshape(len(w), -1, mesh.dim))
        total += float(w @ (diff ** 2).reshape(len(w), -1).sum(axis=1))
    return np.sqrt(total)


def unit_params(lc=1.0, mu_c=0.0):
    return MaterialParams(lam_e=1.0, mu_e=1.0, lam_micro=1.0, mu_micro=1.0,
                          mu_c=mu_c, lc=lc, mu_macro=1.0, lam_macro=1.0)


@pytest.fixture(scope="module")
def disk():
    return generate_disk(10.0, n_rings=2)


@pytest.fixture(scope="module")
def cube():
    return generate_box(((-1, 1), (-1, 1), (-1, 1)), 1)


class TestAntiplane:
    def test_matrix_symmetric(self, disk):
        sys_ = assemble_antiplane(disk, unit_params(), SpaceDescriptor("h1", 2, 2),
                                  SpaceDescriptor("nedelec2", 1, 2))
        # one triangle is stored; the whole matrix is symmetric by construction
        assert sp.triu(sys_.matrix, 1).nnz == 0

    def test_space_mismatch(self, disk):
        with pytest.raises(SpaceMismatch):
            assemble_antiplane(disk, unit_params(),
                               SpaceDescriptor("nedelec1", 1, 2),
                               SpaceDescriptor("nedelec1", 1, 2))

    def test_zero_data_zero_solution(self, disk):
        from mmfem.solver import solve
        from oracles import constrain, embed

        sys_ = assemble_antiplane(disk, unit_params(), SpaceDescriptor("h1", 2, 2),
                                  SpaceDescriptor("nedelec1", 1, 2))
        zero = lambda x: np.zeros(len(np.atleast_2d(x)))
        gzero = lambda x: np.zeros((len(np.atleast_2d(x)), 2))
        facets = disk.tagged_facets("boundary")
        sol = solve(constrain(sys_, embed(sys_, (facets, zero, gzero))))
        assert np.abs(sol.x).max() < 1e-12

    def test_lc_zero_algebraic_limit(self, disk):
        # linear Dirichlet data, zero loads: p = mu_e/(mu_e+mu_micro) grad u
        from mmfem.benchmarks import solve_antiplane

        params = unit_params(lc=0.0)
        ufunc = lambda x: np.atleast_2d(x)[:, 0]
        gradfunc = lambda x: np.tile([1.0, 0.0], (len(np.atleast_2d(x)), 1))
        sol = solve_antiplane(disk, params, 1, "nedelec2", ufunc=ufunc,
                              gradfunc=gradfunc, f=None, m=None)
        pf = sol.system.fields["p"]
        target = lambda x: np.tile([0.5, 0.0], (len(np.atleast_2d(x)), 1))
        assert l2_error_hcurl(disk, pf, sol.x, target) < 1e-9


class TestTangentialContinuity:
    @pytest.mark.parametrize("family", ["nedelec1", "nedelec2"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_2d_edge_jump(self, family, p):
        mesh = build([[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 1, 2], [1, 3, 2]])
        sp = SpaceDescriptor(family, p, 2)
        dm = build_dofmap(mesh, sp)
        rng = np.random.default_rng(p)
        x = rng.standard_normal(dm.n_dofs)
        counts = np.bincount(mesh.cell_edges.ravel(), minlength=mesh.n_edges)
        e = int(np.flatnonzero(counts == 2)[0])
        va, vb = mesh.edges[e]
        t = mesh.vertices[vb] - mesh.vertices[va]
        pts = mesh.vertices[va] + np.linspace(0.05, 0.95, 9)[:, None] * t
        traces = []
        for c in range(mesh.n_cells):
            ref = np.linalg.solve(mesh.jacs[c], (pts - mesh.origins[c]).T).T
            shp = eval_vector_shapes(sp, ref).values
            phys = np.einsum("ed,qnd->qne", mesh.inv_ts[c], shp)
            traces.append(np.einsum("qne,n->qe", phys, x[dm.cell_dofs[c]]) @ t)
        assert np.abs(traces[0] - traces[1]).max() <= 1e-11

    @pytest.mark.parametrize("family", ["nedelec1", "nedelec2"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_3d_face_and_edge_jump(self, family, p):
        verts = [[0, 0, 0], [1, 0.1, 0], [0.2, 1, 0], [0.3, 0.3, 1],
                 [0.4, 0.2, -0.8]]
        mesh = build(verts, [[0, 1, 2, 3], [0, 1, 2, 4]])
        sp = SpaceDescriptor(family, p, 3)
        dm = build_dofmap(mesh, sp)
        rng = np.random.default_rng(p + 10)
        x = rng.standard_normal(dm.n_dofs)
        fverts = (0, 1, 2)
        xa, xb, xc = (mesh.vertices[v] for v in fverts)
        t1, t2 = xb - xa, xc - xa
        bary = rng.dirichlet(np.ones(3), size=10)
        pts = bary @ np.stack([xa, xb, xc])
        # include points on the shared edges as well
        for lo, hi in ((0, 1), (0, 2), (1, 2)):
            s = np.linspace(0.1, 0.9, 3)[:, None]
            pts = np.vstack([pts, mesh.vertices[fverts[lo]]
                             + s * (mesh.vertices[fverts[hi]]
                                    - mesh.vertices[fverts[lo]])])
        traces = []
        for c in range(mesh.n_cells):
            ref = np.linalg.solve(mesh.jacs[c], (pts - mesh.origins[c]).T).T
            shp = eval_vector_shapes(sp, ref).values
            phys = np.einsum("ed,qnd->qne", mesh.inv_ts[c], shp)
            f = np.einsum("qne,n->qe", phys, x[dm.cell_dofs[c]])
            traces.append(np.stack([f @ t1, f @ t2], axis=1))
        assert np.abs(traces[0] - traces[1]).max() <= 1e-11


class TestFull3D:
    def test_element_matrix_symmetric_psd(self, cube):
        params = MaterialParams(lam_e=2.5, mu_e=1.25, lam_micro=10.0,
                                mu_micro=5.0, mu_c=1.0, lc=1.0)
        sys_ = assemble_full3d(cube, params, SpaceDescriptor("h1", 1, 3),
                               SpaceDescriptor("nedelec1", 0, 3))
        K = symmetric(sys_.matrix).toarray()
        ev = np.linalg.eigvalsh(K)
        assert ev[0] > -1e-10 * ev[-1]

    def test_gradient_field_has_zero_curl_energy(self, cube):
        # P rows = gradients of quadratics: curl term contributes nothing
        params = MaterialParams(lam_e=0.0, mu_e=1.0, lam_micro=0.0,
                                mu_micro=1.0, mu_c=0.0, lc=5.0,
                                mu_macro=1.0, lam_macro=0.0)
        u_space = SpaceDescriptor("h1", 2, 3)
        p_space = SpaceDescriptor("nedelec1", 1, 3)
        sys_ = assemble_full3d(cube, params, u_space, p_space, split_curl=True)
        # build P-row coefficients representing grad(x^2 + y z) etc. by
        # solving the exact-sequence interpolation on each row
        from mmfem.dofmap import build_dofmap

        def gradfunc(x):
            x = np.atleast_2d(x)
            g = np.zeros((len(x), 3, 3))
            g[:, 0, :] = np.stack([2 * x[:, 0], x[:, 2], x[:, 1]], axis=1)
            g[:, 1, :] = np.stack([x[:, 1], x[:, 0], np.zeros(len(x))], axis=1)
            g[:, 2, :] = np.stack([np.zeros(len(x)), 2 * x[:, 1], x[:, 2] * 0], axis=1)
            return g

        # interpolate the gradient field row-wise via the boundary machinery
        # on all faces of a one-cell... instead simply check the assembled
        # curl matrix annihilates discrete gradient fields
        dm_u = sys_.fields["u"].dofmap
        dm_p = sys_.fields["p"].dofmap
        rng = np.random.default_rng(0)
        v = rng.standard_normal(build_dofmap(cube, SpaceDescriptor("h1", 2, 3)).n_dofs)
        # gradient of a scalar H1 field lives in the Nedelec space; build its
        # coefficients by least squares on the curl matrix kernel property
        rule, _, ugrads = _h1_ref(2, 3, 6)
        _, pvals, _ = _hcurl_ref(SpaceDescriptor("nedelec1", 1, 3), 6)
        x = np.zeros(sys_.n_dofs)
        for c in range(cube.n_cells):
            gu = _phys_grads(cube.inv_ts[c], ugrads)
            pv = _phys_grads(cube.inv_ts[c], pvals)
            target = np.einsum("qad,a->qd", gu, v[dm_u.cell_dofs[c]])
            A = pv.transpose(0, 2, 1).reshape(-1, pv.shape[1])
            sol, *_ = np.linalg.lstsq(A, target.reshape(-1), rcond=None)
            x[sys_.fields["p"].dofs(0, dm_p.cell_dofs[c])] = sol
        curl_energy = float(x @ (symmetric(sys_.c_matrix) @ x))
        assert abs(curl_energy) <= 1e-12 * (1.0 + float(x @ x))

    def test_energy_two_paths(self, cube):
        params = MaterialParams(lam_e=2.5, mu_e=1.25, lam_micro=10.0,
                                mu_micro=5.0, mu_c=1.0, lc=0.7)
        u_space = SpaceDescriptor("h1", 2, 3)
        p_space = SpaceDescriptor("nedelec2", 1, 3)
        sys_ = assemble_full3d(cube, params, u_space, p_space)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(sys_.n_dofs)
        matrix_energy = 0.5 * float(x @ (symmetric(sys_.matrix) @ x))
        quad_energy = compute_energy(cube, params, sys_, x)
        assert abs(matrix_energy - quad_energy) <= 1e-10 * max(1.0, abs(matrix_energy))
        # quadratic scaling
        assert abs(compute_energy(cube, params, sys_, 2 * x)
                   - 4 * quad_energy) <= 1e-9 * max(1.0, abs(quad_energy))

    def test_energy_zero_solution(self, cube):
        params = unit_params()
        sys_ = assemble_full3d(cube, params, SpaceDescriptor("h1", 1, 3),
                               SpaceDescriptor("nedelec1", 0, 3))
        assert compute_energy(cube, params, sys_, np.zeros(sys_.n_dofs)) == 0.0


class TestCauchy:
    def test_rigid_translation_zero_energy(self, cube):
        sys_ = assemble_cauchy3d(cube, SpaceDescriptor("h1", 2, 3))
        uf = sys_.fields["u"]
        x = np.zeros(sys_.n_dofs)
        for r, v in enumerate((0.3, -0.2, 1.0)):
            x[uf.dofs(r, np.arange(uf.dofmap.n_dofs))] = v
        for M in (sys_.matrix, sys_.c_matrix):
            assert abs(x @ (symmetric(M) @ x)) < 1e-12

    def test_symmetric(self, cube):
        sys_ = assemble_cauchy3d(cube, SpaceDescriptor("h1", 2, 3))
        for M in (sys_.matrix, sys_.c_matrix):
            assert sp.triu(M, 1).nnz == 0

    def test_no_free_dofs(self, cube):
        # degree 1 on one hex: every dof is on the boundary, so the free
        # blocks are 0 x 0 and the energy is 1/2 x_c^T K x_c of the whole
        # matrix, from the lifts and constants of the element matrices
        from mmfem.solver import solve_family
        G = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0], [0.5, 0.0, 1.0]])
        facets = np.concatenate(list(cube.boundary_tags.values()))
        data = (facets, lambda x: np.atleast_2d(x) @ G.T,
                lambda x: np.broadcast_to(G, (len(np.atleast_2d(x)), 3, 3)))
        space = SpaceDescriptor("h1", 1, 3)
        system = assemble_cauchy3d(cube, space, dirichlet=data)
        assert system.matrix.shape == system.c_matrix.shape == (0, 0)
        assert not system.free.any() and system.lift.shape == (2, 0)
        full = assemble_full(assemble_cauchy3d, cube, space)
        coeffs = [0.5, 2.0]
        for c, sol in zip(coeffs, solve_family(system, coeffs)):
            assert np.array_equal(sol.x, system.x_con) and sol.residual == 0.0
            x = system.x_con
            energy = 0.5 * x @ ((full.matrix + c * full.c_matrix) @ x)
            assert energy > 0.0
            assert abs(sol.energy - energy) <= 1e-12 * energy


def test_space_mismatch_guards(disk, cube):
    h1_2, h1_3 = SpaceDescriptor("h1", 1, 2), SpaceDescriptor("h1", 1, 3)
    ned_2, ned_3 = SpaceDescriptor("nedelec1", 1, 2), SpaceDescriptor("nedelec1", 1, 3)
    for form, args, match in [
            (assemble_antiplane, (cube, unit_params(), h1_2, ned_2), "two-dim"),
            (assemble_full3d, (disk, unit_params(), h1_3, ned_3), "three-dim"),
            (assemble_full3d, (cube, unit_params(), ned_3, ned_3), "H1 u-space"),
            (assemble_full3d, (cube, unit_params(), h1_3, h1_3), "H1 u-space"),
            (assemble_cauchy3d, (disk, h1_3), "3D H1"),
            (assemble_cauchy3d, (cube, ned_3), "3D H1")]:
        with pytest.raises(SpaceMismatch, match=match):
            form(*args)


class TestL2Error:
    def test_reproduction(self, disk):
        # a polynomial inside the space evaluates to zero error
        u_space = SpaceDescriptor("h1", 2, 2)
        dm = build_dofmap(disk, u_space)
        layout = FieldLayout("u", u_space, dm, 1, 0)
        # interpolate x^2/50 via boundary machinery is overkill; use lstsq fit
        rule, uvals, _ = _h1_ref(2, 2, 6)
        rows, targets = [], []
        x = np.zeros(dm.n_dofs)
        func = lambda pts: np.atleast_2d(pts)[:, 0] ** 2 / 50.0
        big_a = np.zeros((0, dm.n_dofs))
        for c in range(disk.n_cells):
            xq = disk.map_points(c, rule.simplex_points)
            A = np.zeros((len(xq), dm.n_dofs))
            A[:, dm.cell_dofs[c]] = uvals
            rows.append(A)
            targets.append(func(xq))
        A = np.vstack(rows)
        b = np.concatenate(targets)
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert l2_error_h1(disk, layout, x, func) <= 1e-10

    def test_constant_field_error(self):
        mesh = generate_box(((0, 1), (0, 1)), 2)
        u_space = SpaceDescriptor("h1", 1, 2)
        dm = build_dofmap(mesh, u_space)
        layout = FieldLayout("u", u_space, dm, 1, 0)
        c = 0.7
        err = l2_error_h1(mesh, layout, np.zeros(dm.n_dofs),
                          lambda pts: np.full(len(np.atleast_2d(pts)), c))
        assert abs(err - c) < 1e-12  # |c| * sqrt(area), area = 1


# ---------------------------------------------------------------------------
# batched assembler against the per-cell reference

def _perturbed(mesh, scale, seed):
    rng = np.random.default_rng(seed)
    return build(mesh.vertices + scale * rng.uniform(-1.0, 1.0,
                                                     mesh.vertices.shape),
                 mesh.cells)


def _assert_close(actual, expected, tol=1e-12):
    actual = actual.toarray() if hasattr(actual, "toarray") else actual
    scale = max(np.abs(expected).max(), 1e-300)
    assert np.abs(actual - expected).max() <= tol * scale


def _f2(x):
    return np.sin(x[:, 0]) + x[:, 1] ** 2


def _m2(x):
    return np.stack([np.cos(x[:, 1]), x[:, 0] * x[:, 1]], axis=1)


def _f3(x):
    return np.stack([x[:, 0] * x[:, 1], np.sin(x[:, 2]), 1.0 + x[:, 0]], axis=1)


def _M3(x):
    rows = np.stack([x[:, 0], x[:, 1] ** 2, np.cos(x[:, 2])], axis=1)
    return rows[:, :, None] * np.array([1.0, -0.5, 2.0]) + np.eye(3) * x[:, :1, None]


def _spaces(family, p, dim):
    return SpaceDescriptor("h1", p + 1, dim), SpaceDescriptor(family, p, dim)


MICRO = MaterialParams(lam_e=0.8, mu_e=1.3, lam_micro=2.0, mu_micro=0.9,
                       mu_c=0.4, lc=0.6)


@pytest.fixture(scope="module")
def wavy_disk():
    return _perturbed(generate_disk(1.0, n_rings=3), 0.02, 1)


@pytest.fixture(scope="module")
def wavy_box():
    return _perturbed(generate_box(((0, 1), (0, 1), (0, 1)), 2), 0.05, 2)


class TestBatchedAgainstReference:
    @pytest.mark.parametrize("family,p", [("nedelec1", 1), ("nedelec2", 2)])
    def test_antiplane(self, wavy_disk, family, p):
        u_space, p_space = _spaces(family, p, 2)
        sys_ = assemble_antiplane(wavy_disk, MICRO, u_space, p_space, f=_f2, m=_m2)
        K, Kc, rhs = reference_system(wavy_disk, "antiplane", u_space, p_space,
                                      params=MICRO, f=_f2, m=_m2)
        _assert_close(symmetric(sys_.matrix), K + MICRO.curl_coeff * Kc)
        _assert_close(sys_.rhs, rhs)

    @pytest.mark.parametrize("family,p", [("nedelec1", 1), ("nedelec2", 1)])
    def test_full3d(self, wavy_box, family, p):
        u_space, p_space = _spaces(family, p, 3)
        sys_ = assemble_full3d(wavy_box, MICRO, u_space, p_space, f=_f3, M=_M3)
        K, Kc, rhs = reference_system(wavy_box, "full3d", u_space, p_space,
                                      params=MICRO, f=_f3, m=_M3)
        _assert_close(symmetric(sys_.matrix), K + MICRO.curl_coeff * Kc)
        _assert_close(sys_.rhs, rhs)

    def test_split_curl_and_matrix_at(self, wavy_box):
        u_space, p_space = _spaces("nedelec1", 1, 3)
        sys_ = assemble_full3d(wavy_box, MICRO, u_space, p_space, split_curl=True)
        K, Kc, _ = reference_system(wavy_box, "full3d", u_space, p_space,
                                    params=MICRO)
        _assert_close(symmetric(sys_.matrix), K)
        _assert_close(symmetric(sys_.c_matrix), Kc)
        assert np.array_equal(sys_.matrix.indptr, sys_.c_matrix.indptr)
        assert np.array_equal(sys_.matrix.indices, sys_.c_matrix.indices)
        _assert_close(symmetric(matrix_at(sys_, 2.5)), K + 2.5 * Kc)

    def test_cauchy3d(self, wavy_box):
        u_space = SpaceDescriptor("h1", 3, 3)
        sys_ = assemble_cauchy3d(wavy_box, u_space, f=_f3)
        K, _, rhs = reference_system(wavy_box, "cauchy3d", u_space, lam=1.7,
                                     mu=0.8, f=_f3)
        assert np.array_equal(sys_.matrix.indptr, sys_.c_matrix.indptr)
        assert np.array_equal(sys_.matrix.indices, sys_.c_matrix.indices)
        _assert_close(symmetric(0.8 * sys_.matrix + 1.7 * sys_.c_matrix), K)
        _assert_close(sys_.rhs, rhs)

    def test_l2_routines_2d(self, wavy_disk):
        sys_ = assemble_antiplane(wavy_disk, MICRO, SpaceDescriptor("h1", 3, 2),
                                  SpaceDescriptor("nedelec2", 2, 2))
        uf, pf = sys_.fields["u"], sys_.fields["p"]
        x = np.random.default_rng(4).standard_normal(sys_.n_dofs)
        got = (l2_error_h1(wavy_disk, uf, x, _f2),
               l2_error_hcurl(wavy_disk, pf, x, _m2), rot_l2_norm(wavy_disk, pf, x))
        want = (reference_l2(wavy_disk, uf, x, _f2, "h1", 8),
                reference_l2(wavy_disk, pf, x, _m2, "hcurl", 8),
                reference_l2(wavy_disk, pf, x, None, "rot", 6))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_l2_routines_3d(self, wavy_box):
        sys_ = assemble_full3d(wavy_box, MICRO, SpaceDescriptor("h1", 2, 3),
                               SpaceDescriptor("nedelec1", 1, 3))
        uf, pf = sys_.fields["u"], sys_.fields["p"]
        x = np.random.default_rng(5).standard_normal(sys_.n_dofs)
        got = (l2_error_h1(wavy_box, uf, x, _f3), l2_error_hcurl(wavy_box, pf, x, _M3))
        want = (reference_l2(wavy_box, uf, x, _f3, "h1", 6),
                reference_l2(wavy_box, pf, x, _M3, "hcurl", 6))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_chunk_size_does_not_matter(self, wavy_box, wavy_disk, monkeypatch):
        u_space, p_space = _spaces("nedelec2", 1, 3)
        whole = assemble_full3d(wavy_box, MICRO, u_space, p_space, f=_f3, M=_M3)
        x = np.random.default_rng(6).standard_normal(whole.n_dofs)
        err = l2_error_hcurl(wavy_box, whole.fields["p"], x, _M3)
        # a constrained k = 1 system: its positions are computed per chunk
        constrained_2d = lambda: assemble_antiplane(
            wavy_disk, MICRO, *_spaces("nedelec2", 2, 2), f=_f2, m=_m2,
            dirichlet=(wavy_disk.boundary_facets, _f2, _grad_f2))
        whole_con = constrained_2d()
        sys2 = assemble_antiplane(wavy_disk, MICRO, SpaceDescriptor("h1", 3, 2),
                                  SpaceDescriptor("nedelec2", 2, 2))
        uf, pf = sys2.fields["u"], sys2.fields["p"]
        x2 = np.random.default_rng(7).standard_normal(sys2.n_dofs)
        errs_2d = lambda: (l2_error_h1(wavy_disk, uf, x2, _f2),
                           l2_error_hcurl(wavy_disk, pf, x2, _m2),
                           rot_l2_norm(wavy_disk, pf, x2))
        whole_2d = errs_2d()
        monkeypatch.setattr(mmfem.mesh, "_CHUNK_NNZ", 5000)
        chunked = assemble_full3d(wavy_box, MICRO, u_space, p_space, f=_f3, M=_M3)
        _assert_close(chunked.matrix, whole.matrix.toarray(), tol=1e-14)
        _assert_close(chunked.rhs, whole.rhs, tol=1e-14)
        chunked_err = l2_error_hcurl(wavy_box, chunked.fields["p"], x, _M3)
        assert abs(chunked_err - err) <= 1e-14 * err
        monkeypatch.setattr(mmfem.mesh, "_CHUNK_NNZ", 500)
        np.testing.assert_allclose(errs_2d(), whole_2d, rtol=1e-14)
        chunked_con = constrained_2d()
        assert 0 < np.count_nonzero(whole_con.free) < whole_con.n_dofs
        _assert_close(chunked_con.matrix, whole_con.matrix.toarray(), tol=1e-14)
        for attr in ("rhs", "lift", "con_energy"):
            _assert_close(getattr(chunked_con, attr), getattr(whole_con, attr), tol=1e-14)

    def test_pattern_is_every_cell_coupling(self, wavy_box):
        # all couplings through a cell, in k x k blocks, sorted, even where
        # the sum over cells vanishes (zero Lame constants)
        params = MaterialParams(lam_e=0.0, mu_e=1.0, lam_micro=0.0,
                                mu_micro=1.0, mu_c=0.0, lc=1.0)
        sys_ = assemble_full3d(wavy_box, params, SpaceDescriptor("h1", 2, 3),
                               SpaceDescriptor("nedelec1", 1, 3))
        expected = np.zeros((sys_.n_dofs, sys_.n_dofs), dtype=bool)
        for c in range(wavy_box.n_cells):
            gd = np.concatenate([_cell_dofs(sys_.fields[name], c)
                                 for name in ("u", "p")])
            expected[np.ix_(gd, gd)] = True
        expected = np.tril(expected)
        K = sys_.matrix
        assert K.has_sorted_indices
        stored = np.zeros_like(expected)
        stored[np.repeat(np.arange(K.shape[0]), np.diff(K.indptr)), K.indices] = True
        assert K.nnz == np.count_nonzero(expected)
        assert np.array_equal(stored, expected)

    def test_node_major_pattern_is_scalar_pattern_in_blocks(self, wavy_box):
        # global dof = k (stacked scalar dof) + component: the pattern,
        # built from the runs of the polytopes, is the scalar pattern with
        # every entry a k x k block (the reference here), the k dofs of a
        # scalar dof are adjacent in one group, and the Dirichlet keys are
        # the layout's dofs
        from mmfem.dirichlet import h1_dirichlet, hcurl_dirichlet
        u_space, p_space = _spaces("nedelec1", 1, 3)
        sys_ = assemble_full3d(wavy_box, MICRO, u_space, p_space)
        layouts = [sys_.fields["u"], sys_.fields["p"]]
        start = np.cumsum([0] + [fl.dofmap.n_dofs for fl in layouts])
        scalar = np.concatenate([fl.dofmap.cell_dofs + s
                                 for fl, s in zip(layouts, start)], axis=1)
        nc, nloc = scalar.shape
        incidence = sp.csr_matrix((np.ones(scalar.size), scalar.ravel(),
                                   np.arange(0, scalar.size + 1, nloc)),
                                  shape=(nc, start[-1]))
        blocks = sp.tril(sp.kron(incidence.T @ incidence, np.ones((3, 3))), format="csr")
        blocks.sort_indices()
        K = sys_.matrix
        assert np.array_equal(K.indptr, blocks.indptr)
        assert np.array_equal(K.indices, blocks.indices)
        for fl, s in zip(layouts, start):
            cells = fl.dofmap.cell_dofs + s
            assert np.array_equal(fl.cell_dofs(),
                                  3 * cells[:, None, :] + np.arange(3)[:, None])
        group = sys_.group.reshape(-1, 3)
        assert np.all(group == group[:, :1])

        def row0(func):
            return lambda x: func(x)[:, 0]

        for fl, embed, funcs in [(layouts[0], h1_dirichlet, (_f3, _M3)),
                                 (layouts[1], hcurl_dirichlet, (_M3,))]:
            one = FieldLayout("f", fl.space, fl.dofmap, 1, 0)
            scalar_keys, _ = embed(wavy_box, one, wavy_box.boundary_facets,
                                   *map(row0, funcs))
            keys, _ = embed(wavy_box, fl, wavy_box.boundary_facets, *funcs)
            assert len(keys) == 3 * len(scalar_keys)
            assert set(keys.tolist()) == set(fl.dofs(np.arange(3)[:, None],
                                                     scalar_keys).ravel().tolist())


class TestReferenceTensorKernels:
    def test_every_matrix_exactly_symmetric(self, wavy_disk, wavy_box):
        # the Cholesky and the solver's products read the stored lower
        # triangle as a symmetric matrix, so each matrix is the triangle
        # of the exactly symmetric matrix the element matrices give
        # (bitwise: test_triangle_contract)
        u2, p2 = _spaces("nedelec2", 2, 2)
        u3, p3 = _spaces("nedelec1", 1, 3)
        systems = [assemble_antiplane(wavy_disk, MICRO, u2, p2),
                   assemble_full3d(wavy_box, MICRO, u3, p3),
                   assemble_full3d(wavy_box, MICRO, u3, p3, split_curl=True),
                   assemble_cauchy3d(wavy_box, SpaceDescriptor("h1", 3, 3))]
        mats = [K for s in systems for K in (s.matrix, s.c_matrix) if K is not None]
        assert len(mats) == 6
        for K in mats:
            assert sp.triu(K, 1).nnz == 0

    def test_full3d_negative_lam_e(self, wavy_box):
        # the form is linear in the moduli, so a strongly elliptic set with
        # lam_e < 0 (2 mu_e + 3 lam_e > 0) assembles like any other
        u_space, p_space = _spaces("nedelec1", 1, 3)

        def params(lam_e):
            return MaterialParams(lam_e=lam_e, mu_e=1.3, lam_micro=2.0,
                                  mu_micro=0.9, mu_c=0.4, lc=0.6)

        mats = {}
        for lam_e in (0.0, 1.0):
            mats[lam_e] = assemble_full3d(wavy_box, params(lam_e), u_space,
                                          p_space).matrix
            K, Kc, _ = reference_system(wavy_box, "full3d", u_space, p_space,
                                        params=params(lam_e))
            _assert_close(symmetric(mats[lam_e]), K + params(lam_e).curl_coeff * Kc)
        got = assemble_full3d(wavy_box, params(-0.13), u_space, p_space).matrix
        _assert_close(got, (1.13 * mats[0.0] - 0.13 * mats[1.0]).toarray())


def _grad_f2(x):
    return np.stack([np.cos(x[:, 0]), 2.0 * x[:, 1]], axis=1)


def _form_call(form, wavy_disk, wavy_box):
    """(assemble call taking ``dirichlet``, its Dirichlet datum)."""
    u3, p3 = _spaces("nedelec1", 1, 3)
    box = (wavy_box.boundary_facets, _f3, _M3)
    return {
        "antiplane": (lambda **kw: assemble_antiplane(
            wavy_disk, MICRO, *_spaces("nedelec2", 2, 2), f=_f2, m=_m2, **kw),
            (wavy_disk.boundary_facets, _f2, _grad_f2)),
        "full3d": (lambda **kw: assemble_full3d(wavy_box, MICRO, u3, p3, f=_f3,
                                                M=_M3, **kw), box),
        "full3d split_curl": (lambda **kw: assemble_full3d(
            wavy_box, MICRO, u3, p3, f=_f3, M=_M3, split_curl=True, **kw), box),
        "cauchy": (lambda **kw: assemble_cauchy3d(
            wavy_box, SpaceDescriptor("h1", 3, 3), f=_f3, **kw), box),
    }[form]


@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("form", ["antiplane", "full3d", "full3d split_curl",
                                  "cauchy"])
def test_triangle_contract(form, constrained, wavy_disk, wavy_box):
    # every stored matrix is the lower triangle of the free block, rows
    # sorted with the diagonal last; T + T^T - diag(T) is bitwise the
    # block of the whole matrix assembled on all dofs, and the solver's
    # triangle product applies it to a few eps of |K| |x|
    from mmfem.solver import _product
    call, data = _form_call(form, wavy_disk, wavy_box)
    system = call(dirichlet=data if constrained else None)
    full = assemble_full(call)
    free = system.free
    assert 0 < np.count_nonzero(free) < len(free) if constrained else free.all()
    pairs = [(system.matrix, full.matrix), (system.c_matrix, full.c_matrix)]
    assert (system.c_matrix is None) == (form in ("antiplane", "full3d"))
    x = np.random.default_rng(11).standard_normal(np.count_nonzero(free))
    for T, M in (pair for pair in pairs if pair[1] is not None):
        n = T.shape[0]
        rows = np.repeat(np.arange(n), np.diff(T.indptr))
        assert np.all(T.indices <= rows)
        assert np.all(np.diff(T.indices)[np.diff(rows) == 0] > 0)
        assert np.array_equal(T.indices[T.indptr[1:] - 1], np.arange(n))
        K, ref = symmetric(T), M[free][:, free]
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(K, attr), getattr(ref, attr)), attr
        err = np.abs(_product(T)(x) - ref @ x)
        # (at most 3.9 eps measured on these systems)
        assert np.all(err <= 8 * np.finfo(float).eps * (abs(ref) @ np.abs(x)))


@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("form", ["antiplane", "full3d", "full3d split_curl",
                                  "cauchy"])
def test_halves_agree_with_y_plus_y_transposed(form, constrained, wavy_disk, wavy_box):
    # the stored halves, one GEMM of x2 on the symmetrized table, against
    # whole element matrices Y + Y^T of the reference tensors: matrices,
    # lifts, constants and loads agree to a few ulps of their scale (at
    # most 1.3, 3.7, 0.5 and 2.8 eps measured)
    call, data = _form_call(form, wavy_disk, wavy_box)
    system = call(dirichlet=data if constrained else None)
    whole = assemble_yyt(call)
    mats = [M for M in (whole.matrix, whole.c_matrix) if M is not None]
    ref = replace(whole, matrix=sp.tril(mats[0], format="csr"),
                  c_matrix=sp.tril(mats[1], format="csr") if len(mats) == 2 else None)
    if constrained:
        ref = constrain(ref, embed(whole, data, coupled=form != "cauchy"))
    eps, x_abs = np.finfo(float).eps, np.abs(ref.x_con)
    got = [system.matrix, system.c_matrix]
    for i, (T, M, W) in enumerate(zip(got, [ref.matrix, ref.c_matrix], mats)):
        assert np.array_equal(T.indptr, M.indptr)
        assert abs(T - M).max() <= 4 * eps * abs(M).max()
        scale = (abs(W) @ x_abs)[ref.free].max(initial=0.0)
        assert np.abs(system.lift[i] - ref.lift[i]).max(initial=0.0) <= 8 * eps * scale
        energy_scale = x_abs @ (abs(W) @ x_abs)
        assert abs(system.con_energy[i] - ref.con_energy[i]) <= 4 * eps * energy_scale
    load_scale = np.abs(ref.rhs - ref.lift[0]).max() + (abs(mats[0]) @ x_abs).max()
    assert np.abs(system.rhs - ref.rhs).max() <= 8 * eps * load_scale
    assert len(mats) == len(system.lift) == 2 - (form in ("antiplane", "full3d"))


def _assembly_within_memory_bound(mesh, cells, monkeypatch):
    """The traced peak of a two-matrix assembly in chunks of ``cells``
    cells is at most what the system keeps, the per-cell arrays of the
    ``Pattern`` (``offsets``, 4 bytes per lower pair of a cell's
    polytopes; ``scalar_dofs``, int64, and ``free_dofs``, int32, 12 bytes
    per local scalar dof; ``cut``, one bool), M x_c of both matrices at
    the constrained dofs (the embedding's ``ax``, 16 bytes per
    constrained dof, of which the kept lifts hold only the free part) and
    one chunk's temporaries: the stored halves of both matrices and their
    positions (4 bytes per entry of one matrix's half), together
    _CHUNK_NNZ doubles, never two chunks' at once and no element tensor;
    under Dirichlet data on the whole boundary too, where the lifts add
    the table [G; G^T] (16 n_terms nb^2 bytes) and no chunk-sized
    temporaries.  What is left, ``small``, does not grow with the cells."""
    import tracemalloc
    space = SpaceDescriptor("h1", 4, 3)
    nb, n_terms = 35, 9     # degree-4 polynomials on a tetrahedron; Du
    n_poly = 15             # 4 vertices, 6 edges, 4 faces and the cell
    half = 3 * 3 * nb * (nb - 1) // 2 + 6 * nb      # entries of one matrix
    chunk = (2 * half + half // 2) * cells
    monkeypatch.setattr(mmfem.mesh, "_CHUNK_NNZ", chunk)
    for data in (None, (mesh.boundary_facets, _f3, _M3)):
        assemble_cauchy3d(mesh, space, dirichlet=data)   # cached tables
        tracemalloc.start()
        try:
            sys_ = assemble_cauchy3d(mesh, space, dirichlet=data)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_cell = mesh.n_cells * (4 * n_poly * (n_poly + 1) // 2 + 12 * nb + 1)
        m_xc = 16 * np.count_nonzero(~sys_.free)
        lift_table = 0 if data is None else 16 * n_terms * nb ** 2
        small = 256 * 1024      # coefficients, Python objects
        assert peak <= kept + per_cell + m_xc + 8 * chunk + lift_table + small
        assert kept >= 8 * (sys_.matrix.nnz + sys_.c_matrix.nnz)
    assert 0 < np.count_nonzero(sys_.free) < sys_.n_dofs


def test_assembly_memory_bound(wavy_box, monkeypatch):
    # in four chunks
    _assembly_within_memory_bound(wavy_box, wavy_box.n_cells // 4, monkeypatch)


def test_assembly_memory_bound_sees_a_per_cell_table(monkeypatch):
    # on 162 and 384 cells in chunks of 12, a per-cell table of 4 bytes per
    # scalar pair of a cell (2.5 KB a cell: 0.41 and 0.97 MB) would not fit
    # in the slack of the bound
    for n in (3, 4):
        _assembly_within_memory_bound(generate_box(((0, 1), (0, 1), (0, 1)), n), 12,
                                      monkeypatch)


def test_constraints_splitting_a_block_raise(wavy_box, monkeypatch):
    # the free pattern is the scalar pattern in k x k blocks, so the
    # constraints fix all components of a scalar dof or none
    from mmfem import dirichlet
    from mmfem.errors import InvalidParam
    monkeypatch.setattr(dirichlet, "h1_dirichlet", lambda mesh, layout, *datum: (
        np.array([layout.dofs(1, 0)]), np.array([0.5])))
    with pytest.raises(InvalidParam, match="components"):
        assemble_cauchy3d(wavy_box, SpaceDescriptor("h1", 1, 3),
                          dirichlet=(wavy_box.boundary_facets, _f3, _M3))


def test_constraints_fixing_part_of_a_polytope_raise(wavy_box, monkeypatch):
    # the free dofs are whole runs of polytopes, so the constraints fix
    # all dofs of a polytope or none: here all components of one of the
    # two interior dofs of a degree-3 edge
    from mmfem import dirichlet
    from mmfem.errors import InvalidParam

    def one_edge_dof(mesh, layout, *datum):
        dm = layout.dofmap
        assert dm.per_edge == 2
        return layout.dofs(np.arange(3), dm.edge_base), np.zeros(3)

    monkeypatch.setattr(dirichlet, "h1_dirichlet", one_edge_dof)
    with pytest.raises(InvalidParam, match="polytope"):
        assemble_cauchy3d(wavy_box, SpaceDescriptor("h1", 3, 3),
                          dirichlet=(wavy_box.boundary_facets, _f3, _M3))
