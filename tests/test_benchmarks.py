import numpy as np
import pytest

from mmfem.benchmarks import (BenchConfig, anti_exact_grad_u, anti_exact_p,
                              anti_exact_u, anti_load_f, anti_load_m,
                              bending_grad_u, bending_p11, bending_u,
                              cauchy_bound_energy, run_lc_sweep, sweep_grad_u,
                              sweep_mesh, sweep_params, sweep_u)
from mmfem.benchmarks import antiplane_params
from mmfem.errors import InvalidParam
from mmfem.materials import macro_from


def _override(tmp_path, data, default):
    import json
    pth = tmp_path / "params.json"
    pth.write_text(json.dumps(data))
    return BenchConfig("lc-sweep", params_path=str(pth)).material_override(default)


def test_override_recomputes_macro_moduli(tmp_path):
    params = _override(tmp_path, {"mu_e": 3.0}, sweep_params(1.0))
    assert params.mu_e == 3.0
    assert abs(params.mu_macro - 1.875) < 1e-12   # 3 * 5 / (3 + 5)
    mu_macro, lam_macro = macro_from(3.0, params.lam_e, 5.0, 10.0)
    assert abs(params.lam_macro - lam_macro) < 1e-12


def test_override_keeps_explicit_macro_moduli(tmp_path):
    # antiplane's "all constants one" set stays expressible
    params = _override(tmp_path, {"mu_e": 1.0, "mu_macro": 1.0,
                                  "lam_macro": 1.0}, antiplane_params())
    assert (params.mu_macro, params.lam_macro) == (1.0, 1.0)
    params = _override(tmp_path, {"lc": 2.0}, antiplane_params())
    assert (params.mu_macro, params.lam_macro) == (1.0, 1.0)


def test_config_validation():
    with pytest.raises(InvalidParam):
        BenchConfig("nonsense")
    with pytest.raises(InvalidParam):
        BenchConfig("antiplane", family="lagrange")
    with pytest.raises(InvalidParam):
        BenchConfig("antiplane", p=0, family="nedelec2")
    with pytest.raises(InvalidParam, match="refine must be 0"):
        BenchConfig("lc-sweep", refine=1, mesh_path="mesh.json")


class TestAntiplaneData:
    def test_exact_p_is_half_relation(self):
        # p = (m + mu_e grad u)/(mu_e + mu_micro) with unit constants
        x = np.array([[1.0, 2.0], [-3.0, 0.5]])
        expected = (anti_load_m(x) + anti_exact_grad_u(x)) / 2.0
        np.testing.assert_allclose(anti_exact_p(x), expected)

    def test_force_consistency(self):
        # f = -div(grad u - p) with p = (m + grad u)/2: finite differences
        h = 1e-5
        x0 = np.array([1.3, -0.7])

        def flux(pt):
            pt = pt[None, :]
            return (anti_exact_grad_u(pt) - anti_exact_p(pt))[0]

        div = 0.0
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            div += (flux(x0 + e)[d] - flux(x0 - e)[d]) / (2 * h)
        assert abs(-div - anti_load_f(x0[None, :])[0]) < 1e-8

    def test_tangential_data_vanishes_on_circle(self):
        # on the exact circle both grad u and m are radial
        theta = np.linspace(0, 2 * np.pi, 30, endpoint=False)
        pts = 10.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        t = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
        g = anti_exact_grad_u(pts)
        m = anti_load_m(pts)
        assert np.abs(np.sum(g * t, axis=1)).max() < 1e-12
        assert np.abs(np.sum(m * t, axis=1)).max() < 1e-12


class TestBendingData:
    def test_displacement_value(self):
        u = bending_u(np.array([[1.0, 0.0, 0.0]]), translated=False)[0]
        np.testing.assert_allclose(u, [0.0, 0.0, 0.035], atol=1e-15)

    def test_profile_odd_and_zero_at_center(self):
        assert bending_p11(0.0) == 0.0
        zs = np.linspace(-0.5, 0.5, 11)
        np.testing.assert_allclose(bending_p11(zs), -bending_p11(-zs),
                                   atol=1e-15)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, (5, 3))
        h = 1e-6
        g = bending_grad_u(pts)
        for d in range(3):
            e = np.zeros(3)
            e[d] = h
            fd = (bending_u(pts + e) - bending_u(pts - e)) / (2 * h)
            np.testing.assert_allclose(g[:, :, d], fd, atol=1e-8)

    def test_traction_free_top_bottom(self):
        # the exact fields satisfy the natural condition on z = +-1/2:
        # Curl P x n involves g'(z) - 1, which vanishes there
        h = 1e-7
        for z in (-0.5, 0.5):
            gp = (bending_p11(z + h) - bending_p11(z - h)) / (2 * h)
            from mmfem.benchmarks import KAPPA
            assert abs(gp + KAPPA) < 1e-5  # dP11/dz = -kappa g'(z), g'= 1


class TestSweepData:
    def test_dirichlet_data_continuous_on_edges(self):
        # all three face formulas vanish on the cube edges
        for x in (-1.0, 1.0):
            for y in (-1.0, 1.0):
                pts = np.array([[x, y, 0.3], [x, 0.2, y], [0.1, x, y]])
                assert np.abs(sweep_u(pts)).max() < 1e-14
        pts = np.array([[1.0, 1.0, 0.3]])
        u = sweep_u(pts)
        assert abs(u[0, 0]) < 1e-14  # (1-y^2) factor kills component 0

    def test_face_funcs_match_global(self):
        # on the faces normal to axis i every component but i of sweep_u is
        # exactly zero, so the six face data are one datum; sweep_grad_u is
        # its gradient
        rng = np.random.default_rng(1)
        for axis in range(3):
            for side in (-1.0, 1.0):
                pts = rng.uniform(-1, 1, (10, 3))
                pts[:, axis] = side
                assert np.all(sweep_u(pts)[:, np.arange(3) != axis] == 0.0)
        pts = rng.uniform(-1, 1, (10, 3))
        h = 1e-6
        g = sweep_grad_u(pts)
        for d in range(3):
            e = np.zeros(3)
            e[d] = h
            fd = (sweep_u(pts + e) - sweep_u(pts - e)) / (2 * h)
            np.testing.assert_allclose(g[:, :, d], fd, atol=1e-8)

    @pytest.mark.parametrize("family,degree", [("h1", 3), ("nedelec1", 2), ("h1", 6)])
    def test_one_datum_is_the_six_face_data(self, family, degree):
        # u at H1 p = 3, P at N-I p = 2 and the degree-6 Cauchy u: the
        # union of the six single-face embeddings, each with the sweep
        # callbacks masked to its face's component, is exactly the
        # embedding of the one datum on the whole boundary
        from mmfem.dirichlet import h1_dirichlet, hcurl_dirichlet
        from mmfem.dofmap import FieldLayout, build_dofmap
        from mmfem.nedelec import SpaceDescriptor
        mesh = sweep_mesh(0)
        space = SpaceDescriptor(family, degree, 3)
        layout = FieldLayout("f", space, build_dofmap(mesh, space), 3, 0)

        def embed(facets, u, grad):
            if family == "h1":
                return h1_dirichlet(mesh, layout, facets, u, grad)
            return hcurl_dirichlet(mesh, layout, facets, grad)

        union = {}
        for tag in ("x-", "x+", "y-", "y+", "z-", "z+"):
            keep = np.arange(3) == "xyz".index(tag[0])
            dofs, values = embed(
                mesh.tagged_facets(tag),
                lambda x, keep=keep: np.where(keep, sweep_u(x), 0.0),
                lambda x, keep=keep: np.where(keep[:, None], sweep_grad_u(x), 0.0))
            for dof, value in zip(dofs.tolist(), values.tolist()):
                assert union.setdefault(dof, value) == value    # shared entities
        dofs, values = embed(mesh.boundary_facets, sweep_u, sweep_grad_u)
        assert sorted(union) == sorted(dofs.tolist())
        assert [union[d] for d in dofs.tolist()] == values.tolist()

    def test_meso_parameters(self):
        mp = sweep_params(1.0)
        assert abs(mp.mu_e - 1.25) < 1e-12
        assert abs(mp.lam_e - 2.5) < 1e-12

    def test_cauchy_bounds_scale_by_five(self):
        # C_micro = 5 C_macro and the minimizer is invariant: energies scale
        mesh = sweep_mesh(0)
        (lower,), _ = cauchy_bound_energy(mesh, [(2.0, 1.0)], 2)
        (upper,), _ = cauchy_bound_energy(mesh, [(10.0, 5.0)], 2)
        assert abs(upper - 5.0 * lower) < 1e-9 * upper

    @pytest.mark.parametrize("lam,mu", [(2.0, -1.0), (2.0, 0.0), (-2.0, 1.0),
                                        (-3.0, 1.0)])
    def test_cauchy_bounds_reject_non_elliptic_moduli(self, lam, mu):
        # mu > 0 and lam + 2 mu > 0, or the "energy" may be negative or 0
        with pytest.raises(InvalidParam):
            cauchy_bound_energy(sweep_mesh(0), [(2.0, 1.0), (lam, mu)], 2)

    def test_cauchy_bounds_one_family_solve(self, monkeypatch):
        import mmfem.benchmarks as benchmarks
        from mmfem import cholesky, dirichlet
        calls = {}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((benchmarks, "assemble_cauchy3d"),
                             (dirichlet, "h1_dirichlet"),
                             (cholesky, "analyse"), (cholesky, "factor")):
            counted(module, name)
        cfg = BenchConfig("lc-sweep", p=1, refine=0, family="nedelec1",
                          lc_values=(0.01, 1.0, 100.0), bound_degree=2)
        res = run_lc_sweep(cfg)
        # the sweep chain takes one embedding, one analysis and
        # n_factorizations factors; both bounds together take one of each
        assert calls == {"assemble_cauchy3d": 1, "h1_dirichlet": 2,
                         "analyse": 2, "factor": res["n_factorizations"] + 1}

    def test_small_sweep_monotone(self):
        cfg = BenchConfig("lc-sweep", p=1, refine=0, family="nedelec1",
                          lc_values=(0.01, 1.0, 100.0), bound_degree=2)
        res = run_lc_sweep(cfg)
        assert res["monotone"]
        assert res["i_micro"] > res["i_macro"] > 0
        assert all(r <= 1e-10 for r in res["residuals"])
