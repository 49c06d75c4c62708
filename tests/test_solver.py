import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mmfem.assembly import (SparseSystem, assemble_antiplane, assemble_cauchy3d,
                            assemble_full3d)
from mmfem.dofmap import FieldLayout, build_dofmap
from mmfem.errors import NotPositiveDefinite, PointOutsideMesh
from mmfem.materials import MaterialParams
from mmfem.mesh import generate_box, generate_disk
from mmfem.nedelec import SpaceDescriptor
from mmfem.solver import FieldSolution, sample_line, solve
from oracles import (constrain, embed, eval_field, factor_solve, locate_cell,
                     matrix_at, scipy_pcg, symmetric)


def _toy_system(K, b):
    mesh = generate_box(((0, 1), (0, 1)), 1)
    dm = build_dofmap(mesh, SpaceDescriptor("h1", 1, 2))
    fields = {"u": FieldLayout("u", SpaceDescriptor("h1", 1, 2), dm, 1, 0)}
    return SparseSystem(matrix=sp.tril(K, format="csr"),
                        rhs=np.asarray(b, dtype=float), fields=fields, mesh=mesh)


def test_identity_solve():
    sys_ = _toy_system(np.eye(4), [1.0, 0.0, 0.0, 0.0])
    sol = solve(sys_)
    np.testing.assert_allclose(sol.x, [1, 0, 0, 0], atol=1e-14)
    assert sol.residual <= 1e-10


def test_hand_solved_2x2():
    K = np.array([[2.0, 1.0, 0, 0], [1.0, 2.0, 0, 0],
                  [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    sys_ = _toy_system(K, [1.0, 1.0, 0, 0])
    sol = solve(sys_)
    np.testing.assert_allclose(sol.x[:2], [1 / 3, 1 / 3], atol=1e-14)
    assert sol.spd


def test_not_positive_definite_detected():
    K = np.diag([1.0, -1.0, 1.0, 1.0])
    sys_ = _toy_system(K, [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(NotPositiveDefinite):
        solve(sys_, require_spd=True)


def test_constraints_respected():
    K = np.diag([1.0, 2.0, 3.0, 4.0])
    sys_ = constrain(_toy_system(K, [0.0, 0.0, 0.0, 0.0]), ([0, 3], [5.0, -1.0]))
    sol = solve(sys_)
    assert sol.x[0] == 5.0 and sol.x[3] == -1.0
    np.testing.assert_allclose(sol.x[1:3], 0.0)


@pytest.fixture(scope="module")
def antiplane_system():
    """The n_rings = 2 antiplane problem of ``solve_antiplane`` (k = 1,
    N-I) assembled under its Dirichlet data."""
    from mmfem.benchmarks import (anti_exact_grad_u, anti_exact_u, anti_load_f,
                                  anti_load_m, antiplane_params)
    mesh = generate_disk(10.0, n_rings=2)
    anti = (mesh.tagged_facets("boundary"), anti_exact_u, anti_exact_grad_u)
    return assemble_antiplane(mesh, antiplane_params(), SpaceDescriptor("h1", 2, 2),
                              SpaceDescriptor("nedelec1", 1, 2), f=anti_load_f,
                              m=anti_load_m, dirichlet=anti)


@pytest.fixture(scope="module")
def antiplane_solution(antiplane_system):
    return solve(antiplane_system)


def test_manufactured_polynomial_recovery():
    # quadratic u~ with matching loads is recovered to machine precision
    from mmfem.benchmarks import antiplane_params
    mesh = generate_disk(10.0, n_rings=2)
    params = antiplane_params(lc=1.0)

    def u(x):
        x = np.atleast_2d(x)
        return 0.01 * (x[:, 0] ** 2 - x[:, 1] ** 2)

    def grad(x):
        x = np.atleast_2d(x)
        return 0.02 * np.stack([x[:, 0], -x[:, 1]], axis=1)

    # with p = grad u/2 and div grad u = 0: f = -div(grad u - p) = 0,
    # m = -mu_e (grad u - p) + mu_micro p = 0 (curl-free p)
    def m(x):
        return np.zeros((len(np.atleast_2d(x)), 2))

    from mmfem.benchmarks import solve_antiplane
    sol = solve_antiplane(mesh, params, 1, "nedelec2", ufunc=u, gradfunc=grad,
                          f=None, m=None)
    from mmfem.assembly import l2_error_h1
    uf = sol.system.fields["u"]
    assert l2_error_h1(mesh, uf, sol.x, u) < 1e-10


def test_residual_contract(antiplane_solution):
    assert antiplane_solution.residual <= 1e-10


def test_eval_at_vertex_matches_dof(antiplane_solution):
    sol = antiplane_solution
    mesh = sol.mesh
    uf = sol.system.fields["u"]
    for v in (0, 5, 17):
        u, _ = eval_field(sol, mesh.vertices[v])
        assert abs(u - sol.x[uf.dofmap.vertex_dof(v)]) < 1e-8


def test_constant_field_everywhere():
    from mmfem.benchmarks import antiplane_params, solve_antiplane
    mesh = generate_disk(10.0, n_rings=1)
    params = antiplane_params(lc=0.0)
    c = 2.5
    ufunc = lambda x: np.full(len(np.atleast_2d(x)), c)
    gradfunc = lambda x: np.zeros((len(np.atleast_2d(x)), 2))
    sol = solve_antiplane(mesh, params, 1, "nedelec1", ufunc=ufunc,
                          gradfunc=gradfunc, f=None, m=None)
    for pt in ((0.0, 0.0), (3.3, 1.2), (-5.0, 4.0)):
        u, P = eval_field(sol, pt)
        assert abs(u - c) < 1e-10
        assert np.abs(P).max() < 1e-10


def test_h1_continuity_across_edges(antiplane_solution):
    sol = antiplane_solution
    mesh = sol.mesh
    counts = np.bincount(mesh.cell_edges.ravel(), minlength=mesh.n_edges)
    interior = np.flatnonzero(counts == 2)[:5]
    for e in interior:
        va, vb = mesh.edges[e]
        mid = 0.5 * (mesh.vertices[va] + mesh.vertices[vb])
        cells = np.flatnonzero((mesh.cell_edges == e).any(axis=1))
        vals = []
        for c in cells:
            ref = np.linalg.solve(mesh.jacs[c], mid - mesh.origins[c])
            from mmfem.simplex import bezier_eval
            uf = sol.system.fields["u"]
            v = bezier_eval(uf.space.degree, 2, ref[None, :]).values[0]
            vals.append(float(sol.x[uf.dofmap.cell_dofs[c]] @ v))
        assert abs(vals[0] - vals[1]) <= 1e-10


def test_point_outside_mesh():
    from mmfem.benchmarks import antiplane_params, solve_antiplane
    mesh = generate_disk(10.0, n_rings=1)
    sol = solve_antiplane(mesh, antiplane_params(lc=0.0), 0, "nedelec1",
                          f=None, m=None)
    with pytest.raises(PointOutsideMesh):
        eval_field(sol, (11.0, 0.0))


def test_locate_cell_tie_lowest_id():
    mesh = generate_box(((0, 1), (0, 1)), 1)
    # the diagonal midpoint belongs to both triangles; lowest id wins
    c, _ = locate_cell(mesh, np.array([0.5, 0.5]))
    assert c == 0


def test_sample_line(antiplane_solution):
    pts = np.stack([np.linspace(-5, 5, 11), np.zeros(11)], axis=1)
    us, Ps = sample_line(antiplane_solution, pts)
    assert us.shape == (11,) and Ps.shape == (11, 2)
    assert np.all(np.isfinite(us)) and np.all(np.isfinite(Ps))


def test_row_pivoted_factorization_not_certified_spd():
    # positive U pivots, but SuperLU swapped rows: the matrix is indefinite
    from mmfem.solver import _splu_spd
    lu, spd = _splu_spd(sp.tril([[0.0, 1.0], [1.0, 0.0]], format="csr"))
    assert np.all(lu.U.diagonal() > 0.0)
    assert not spd
    K = np.array([[0.0, 1.0, 0, 0], [1.0, 0.0, 0, 0],
                  [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    sys_ = _toy_system(K, [1.0, 2.0, 0.0, 0.0])
    with pytest.raises(NotPositiveDefinite):
        solve(sys_, require_spd=True)
    sol = solve(sys_)
    assert not sol.spd
    np.testing.assert_allclose(sol.x[:2], [2.0, 1.0], atol=1e-14)


def test_singular_system_raises_without_cg(monkeypatch):
    import mmfem.solver as solver
    from mmfem.errors import FactorizationFailed, MMFemError

    def no_cg(*args, **kwargs):
        raise AssertionError("CG called")

    monkeypatch.setattr(solver, "_pcg", no_cg)
    K = np.array([[1.0, 1.0, 0, 0], [1.0, 1.0, 0, 0],
                  [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    sys_ = constrain(_toy_system(K, [1.0, 0.0, 0.0, 0.0]), ([3], [0.0]))
    with pytest.raises(FactorizationFailed, match="3 free dofs") as exc:
        solve(sys_)
    assert isinstance(exc.value, MMFemError)


def test_family_of_one_matrix():
    # a system without c_matrix is its own K(c) for every c: the walk takes
    # the one lift and constant of its matrix, and solve is its walk at c = 0
    from dataclasses import replace
    from mmfem.errors import InvalidParam
    from mmfem.solver import solve_family
    K = np.array([[4.0, 1.0, 0, 1.0], [1.0, 3.0, 1.0, 0],
                  [0, 1.0, 2.0, 0.5], [1.0, 0, 0.5, 3.0]])
    bare = _toy_system(K, [1.0, -2.0, 0.5, 0.0])
    system = constrain(bare, ([0, 3], [5.0, -1.0]))
    sols = solve_family(system, [2.0, 0.0])
    ref = solve(system)
    assert ref.system.matrix is None and ref.info["path"] == "direct"
    for sol in [ref] + sols:
        assert np.array_equal(sol.x, ref.x)
        energy = 0.5 * sol.x @ (symmetric(bare.matrix) @ sol.x)
        assert abs(sol.energy - energy) <= 1e-12 * abs(energy)
    with pytest.raises(InvalidParam, match="expected 1 lift rows"):
        solve(replace(system, lift=np.zeros((2, 2))))


def test_walk_checks_its_input():
    # the walk takes canonical lower triangles and a c_matrix on the pattern
    # of matrix; a c_matrix of the same nnz on another pattern would combine
    # data arrays of two patterns into a wrong K(c) whose residual still passes
    from dataclasses import replace
    from mmfem.errors import InvalidParam
    from mmfem.solver import solve_family
    K = np.array([[4.0, 1.0, 0, 0], [1.0, 3.0, 0, 0],
                  [0, 0, 2.0, 0], [0, 0, 0, 1.0]])
    C = np.array([[1.0, 0, 1.0, 0], [0, 1.0, 0, 0],
                  [1.0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    bare = _toy_system(K, [1.0, 1.0, 1.0, 1.0])
    other = sp.tril(C, format="csr")
    assert other.nnz == bare.matrix.nnz
    system = SparseSystem(matrix=bare.matrix, c_matrix=other, rhs=bare.rhs,
                          fields=bare.fields, mesh=bare.mesh)
    with pytest.raises(InvalidParam, match="c_matrix"):
        solve_family(system, [1.0])
    T = bare.matrix
    unsorted = sp.csr_matrix((T.data[[0, 2, 1, 3, 4]], T.indices[[0, 2, 1, 3, 4]],
                              T.indptr), shape=T.shape)
    for M, match in [(sp.csr_matrix(K), "above the diagonal"),
                     (sp.csc_matrix(T), "canonical CSR"),
                     (unsorted, "canonical CSR"), (K, "canonical CSR")]:
        with pytest.raises(InvalidParam, match=match):
            solve(replace(bare, matrix=M))
    # the same pattern in other arrays is accepted
    same = replace(system, c_matrix=sp.csr_matrix(
        (np.ones(T.nnz), T.indices.copy(), T.indptr.copy()), shape=T.shape))
    sol = solve_family(same, [1.0])[0]
    np.testing.assert_allclose(symmetric(matrix_at(same, 1.0)) @ sol.x, bare.rhs,
                               atol=1e-12)


def test_walk_fails_closed_on_nan():
    # a non-finite coefficient is refused at the walk's entry, and a NaN
    # residual fails the residual certificate
    from mmfem.errors import InvalidParam, NonConvergence
    from mmfem.solver import solve_family
    K = np.array([[4.0, 1.0], [1.0, 3.0]])
    for c in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParam, match=f"coefficient {c} is not finite"):
            solve_family(_toy_system(K, [1.0, 1.0]), [0.0, c])
    with pytest.raises(NonConvergence, match="nan"):
        solve(_toy_system(K, [np.nan, 1.0]))


def test_sample_line_without_p_field():
    from mmfem.benchmarks import cauchy_system, sweep_mesh
    from mmfem.solver import solve_family
    sol = solve_family(cauchy_system(sweep_mesh(0), 1), [1.0])[0]
    pts = np.stack([np.linspace(-1, 1, 5)] * 3, axis=1)
    us, Ps = sample_line(sol, pts)
    assert Ps is None and us.shape == (5, 3)
    for pt, u in zip(pts, us):
        assert np.array_equal(eval_field(sol, pt)[0], u)


def test_direct_solve_records_path():
    sol = solve(_toy_system(np.diag([1.0, 2.0, 3.0, 4.0]), [1.0] * 4))
    assert sol.info["path"] == "direct" and sol.info["iterations"] == 0
    assert sol.info["residual"] == sol.residual <= 1e-10
    assert sol.info["lu_fill"] >= 4


def _random_solution(system, seed=0):
    x = np.random.default_rng(seed).standard_normal(system.n_dofs)
    return FieldSolution(system=system, x=x, residual=0.0, spd=True)


def test_sample_line_batched_equals_per_point(antiplane_solution):
    from mmfem.assembly import assemble_full3d
    from mmfem.benchmarks import sweep_params
    mesh3 = generate_box(((-1, 1), (-1, 1), (-1, 1)), 2)
    sys3 = assemble_full3d(mesh3, sweep_params(1.0), SpaceDescriptor("h1", 2, 3),
                           SpaceDescriptor("nedelec1", 1, 3))
    # both lines run through vertices, edges and faces of the meshes
    t = np.linspace(-1.0, 1.0, 41)
    cases = ((antiplane_solution, np.stack([5.0 * t, np.zeros_like(t)], axis=1)),
             (_random_solution(sys3), np.stack([t, t, 0.5 * t], axis=1)))
    for sol, pts in cases:
        us, Ps = sample_line(sol, pts)
        for i, pt in enumerate(pts):
            u, P = eval_field(sol, pt)
            assert np.array_equal(us[i], u) and np.array_equal(Ps[i], P)
    assert us.shape == (41, 3) and Ps.shape == (41, 3, 3)


# ---------------------------------------------------------------------------
# family solve K(c) = A + c C along the lc sweep

@pytest.fixture(scope="module")
def sweep_system_small():
    from mmfem.benchmarks import sweep_mesh, sweep_params, sweep_system
    return sweep_system(sweep_mesh(0), sweep_params(1.0), 1, "nedelec1")


@pytest.fixture(scope="module")
def sweep_full_small():
    """``sweep_system_small`` assembled without its Dirichlet data, and the
    constraints of that data."""
    from mmfem.benchmarks import sweep_grad_u, sweep_mesh, sweep_params, sweep_u
    mesh = sweep_mesh(0)
    full = assemble_full3d(mesh, sweep_params(1.0), SpaceDescriptor("h1", 2, 3),
                           SpaceDescriptor("nedelec1", 1, 3), split_curl=True)
    return full, embed(full, (mesh.boundary_facets, sweep_u, sweep_grad_u))


def _direct_at(full, cons, c):
    return solve(constrain(SparseSystem(matrix=matrix_at(full, c), rhs=full.rhs,
                                        fields=full.fields, mesh=full.mesh),
                           cons))


def _true_residual(full, cons, c, x):
    K = symmetric(matrix_at(full, c))
    free = np.ones(full.n_dofs, dtype=bool)
    free[cons[0]] = False
    x_con = np.where(free, 0.0, x)
    return (np.linalg.norm((K @ x - full.rhs)[free])
            / np.linalg.norm((full.rhs - K @ x_con)[free]))


def _check_against_direct(full_small, coeffs, sols):
    full, cons = full_small
    for c, sol in zip(coeffs, sols):
        ref = _direct_at(full, cons, c)
        K = symmetric(matrix_at(full, c))
        energy, ref_energy = sol.x @ (K @ sol.x), ref.x @ (K @ ref.x)
        assert abs(energy - ref_energy) <= 1e-10 * abs(ref_energy)
        assert sol.residual <= 1e-10
        assert _true_residual(full, cons, c, sol.x) <= 1e-10


def test_family_matches_direct_solves(sweep_system_small, sweep_full_small):
    from mmfem.benchmarks import default_lc_grid
    from mmfem.solver import PCG_BUDGET, solve_family
    coeffs = [lc ** 2 for lc in default_lc_grid()]
    sols = solve_family(sweep_system_small, coeffs)
    _check_against_direct(sweep_full_small, coeffs, sols)
    paths = [s.info["path"] for s in sols]
    its = [s.info["iterations"] for s in sols]
    assert paths[0] == "direct" and paths.count("pcg") >= 10
    assert all(s.spd for s in sols)
    # a CG that used more than half the budget is followed by a factor
    assert any(its[k] > PCG_BUDGET // 2 for k in range(len(its) - 1))
    for k in range(len(its) - 1):
        if its[k] > PCG_BUDGET // 2:
            assert paths[k + 1] == "direct"


def test_family_unsorted_with_duplicate(sweep_system_small, sweep_full_small):
    from mmfem.solver import solve_family
    coeffs = [1.0, 1e-8, 1e4, 1.0]
    sols = solve_family(sweep_system_small, coeffs)
    _check_against_direct(sweep_full_small, coeffs, sols)
    # ascending walk: the smallest value is the anchor, the repeat of a
    # solved value starts at its solution
    assert sols[1].info["path"] == "direct"
    info = dict(sols[3].info)
    del info["stages"]      # wall times
    # CG's one norm test is of b - K x0, the residual check's K x0 - b
    assert info == {"path": "pcg", "iterations": 0,
                    "residual": sols[3].residual,
                    "cg_history": [sols[3].residual], "cg_stop": "converged",
                    "cg_projected": None}
    np.testing.assert_array_equal(sols[3].x, sols[0].x)


def test_family_refactors_on_jump(sweep_system_small, sweep_full_small,
                                  monkeypatch):
    import mmfem.solver as solver
    factor = solver._splu_spd
    calls = []

    def counted(K, *args):
        calls.append(K.shape[0])
        return factor(K, *args)

    monkeypatch.setattr(solver, "_splu_spd", counted)
    coeffs = [1e-8, 1e6]     # lc = 1e-4 -> 1e3: CG from the anchor fails
    sols = solver.solve_family(sweep_system_small, coeffs)
    assert len(calls) == 2
    assert [s.info["path"] for s in sols] == ["direct", "direct"]
    _check_against_direct(sweep_full_small, coeffs, sols)


def test_pcg_matches_scipy_cg(sweep_system_small):
    # the in-repo loop is SciPy's cg update for update: on an attempt that
    # converges, the same x, bitwise, and the same iteration count
    from mmfem import cholesky, solver
    system = sweep_system_small
    F = cholesky.factor(matrix_at(system, 1e-2))
    x0 = F.solve(system.rhs + 1e-2 * system.lift[1])
    c = 0.1778
    Kx, rhs = solver._product(matrix_at(system, c)), system.rhs + c * system.lift[1]
    x, history, stop, projected = solver._pcg(Kx, rhs, F.solve, x0)
    assert stop == "converged" and projected is None and len(history) > 11
    x_ref, iterations, info = scipy_pcg(Kx, rhs, F.solve, x0,
                                        solver.RESIDUAL_TOL / 10.0,
                                        solver.PCG_BUDGET)
    assert info == 0 and iterations == len(history) - 1
    assert np.array_equal(x, x_ref)
    assert history[-1] < solver.RESIDUAL_TOL / 10.0 <= min(history[:-1])


def _projections(history, tol):
    """The walk's projected CG counts at j = 5, 6, ... of a history."""
    import math
    return [j + j * math.log(tol / history[j]) / math.log(history[j] / history[0])
            for j in range(5, len(history))]


@pytest.mark.parametrize("coeffs, budget", [([1e-8, 1e6], 30),
                                            ([1e-2, 0.2], 25)])
def test_family_gives_up_projected_attempt(sweep_system_small, monkeypatch,
                                           coeffs, budget):
    # CG from the anchor contracts too slowly: the attempt stops at the
    # first j >= 5 whose projected count exceeds the budget (at j = 5 for
    # the jump to lc = 1e3; later where a smaller budget is crossed only
    # after j = 5), and the walk factors there
    import mmfem.solver as solver
    monkeypatch.setattr(solver, "PCG_BUDGET", budget)
    runs = [solver.solve_family(sweep_system_small, coeffs) for _ in range(2)]
    sols = runs[0]
    assert [s.info["path"] for s in sols] == ["direct", "direct"]
    assert sols[0].info["cg_history"] is None
    info = sols[1].info
    history, stop = info["cg_history"], len(info["cg_history"]) - 1
    tol = solver.RESIDUAL_TOL / 10.0
    projected = _projections(history, tol)
    assert info["cg_stop"] == "projected" and min(history) > tol
    assert all(p <= budget for p in projected[:-1]) and projected[-1] > budget
    assert info["cg_projected"] == pytest.approx(projected[-1], rel=1e-12)
    assert stop == (5 if budget == 30 else 7)
    # as an all-direct walk, and repeatable
    for c, sol in zip(coeffs, sols):
        ref = solver.solve_family(sweep_system_small, [c])[0]
        assert abs(sol.energy - ref.energy) <= 1e-12 * abs(ref.energy)
    for a, b in zip(*runs):
        assert np.array_equal(a.x, b.x) and a.energy == b.energy
        assert ({k: v for k, v in a.info.items() if k != "stages"}
                == {k: v for k, v in b.info.items() if k != "stages"})


@pytest.mark.parametrize("moduli", [[(-1.0, 1.0), (2.0, 1.0)],
                                    [(1.0, 1.0), (7.0, 2.0)]])
def test_family_cauchy_moduli_match_direct(moduli):
    # mu S + lam D = mu K(lam / mu): a negative anchor c = -1 and a PCG step
    from mmfem.benchmarks import cauchy_system, sweep_grad_u, sweep_mesh, sweep_u
    from mmfem.solver import solve_family
    mesh = sweep_mesh(0)
    system = cauchy_system(mesh, 2)
    full = assemble_cauchy3d(mesh, SpaceDescriptor("h1", 2, 3))
    cons = embed(full, (mesh.boundary_facets, sweep_u, sweep_grad_u), coupled=False)
    sols = solve_family(system, [lam / mu for lam, mu in moduli])
    assert [s.info["path"] for s in sols] == ["direct", "pcg"]
    assert all(s.spd for s in sols)
    for (lam, mu), sol in zip(moduli, sols):
        K = mu * full.matrix + lam * full.c_matrix
        ref = solve(constrain(SparseSystem(matrix=K, rhs=full.rhs,
                                           fields=full.fields, mesh=mesh), cons))
        ref_energy = 0.5 * ref.x @ (symmetric(K) @ ref.x)
        assert abs(mu * sol.energy - ref_energy) <= 1e-12 * ref_energy


# ---------------------------------------------------------------------------
# supernodal Cholesky (mmfem.cholesky) against dense solves

def _block_spd(widths, density=0.3, seed=0):
    """Random SPD matrix whose columns come in blocks of the given widths
    with identical patterns: a random node graph, each node a dense
    block, made strictly diagonally dominant."""
    rng = np.random.default_rng(seed)
    nn = len(widths)
    G = sp.random(nn, nn, density=density, random_state=seed, format="csr")
    G = ((G + G.T + sp.eye(nn)) != 0).astype(float)
    node = np.repeat(np.arange(nn), widths)
    E = sp.csr_matrix((np.ones(len(node)), (np.arange(len(node)), node)))
    P = (E @ G @ E.T).tocoo()
    M = sp.coo_matrix((rng.uniform(-1.0, 1.0, P.nnz), (P.row, P.col)),
                      shape=P.shape)
    A = (M + M.T).tocsr()
    A = A + sp.diags(abs(A).sum(axis=1).A1 + 1.0)
    return sp.csc_matrix(A)


def _check_against_dense(K, seed=1):
    from mmfem import cholesky
    b = np.random.default_rng(seed).standard_normal(K.shape[0])
    F = cholesky.factor(sp.tril(K, format="csr"))
    x = F.solve(b)
    ref = np.linalg.solve(K.toarray(), b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    return F


@pytest.mark.parametrize("widths", [[1] * 40, [3] * 30,
                                    [66, 3, 1, 66, 3, 1, 3, 3, 66, 1, 3, 1]])
def test_cholesky_supervariable_blocks(widths):
    from mmfem import cholesky
    K = _block_spd(widths)
    label = cholesky._supervariables(K.indptr, K.indices, K.shape[0])
    # the columns of one block are never split across supervariables
    node = np.repeat(np.arange(len(widths)), widths)
    for j in range(len(widths)):
        assert len(np.unique(label[node == j])) == 1
    F = _check_against_dense(K)
    assert F.supernodes <= len(widths)


def test_cholesky_labels_need_one_row_set():
    # columns 0 and 1 have two entries each but different row sets: a
    # label joining them is refused, not factored into a wrong result
    from mmfem import cholesky
    from mmfem.errors import FactorizationFailed
    K = sp.csc_matrix(np.array([[4.0, 0, -1], [0, 4, -1], [-1, -1, 4]]))
    with pytest.raises(FactorizationFailed, match="row sets"):
        cholesky.analyse(sp.tril(K, format="csr"), label=np.array([0, 0, 1]))
    # columns 0 and 2 (one label, not contiguous) have equal counts and
    # meet the same labels, but neither holds the other's row: their
    # diagonal block is not full
    A = np.eye(4) * 4.0
    for i, j in ((1, 0), (3, 2), (1, 2), (3, 0)):
        A[i, j] = A[j, i] = -1.0
    with pytest.raises(FactorizationFailed, match="different row sets"):
        cholesky.analyse(sp.tril(A, format="csr"), label=np.array([0, 1, 0, 1]))


def test_cholesky_analysis_checks():
    # each check of the analysis raises on the pattern it guards against
    from mmfem import cholesky
    from mmfem.errors import FactorizationFailed
    # columns 0 and 1 share a label but not their row counts
    K = sp.csr_matrix(np.array([[4.0, 0, 0], [0, 4, 0], [-1, -1, 4]]))
    with pytest.raises(FactorizationFailed, match="different row counts"):
        cholesky.analyse(sp.tril(K, format="csr"), label=np.array([0, 0, 0]))
    # columns 1 and 3 (two fields, not contiguous) have equal counts and
    # each holds the other, but 1 meets 2 and 3 meets 0: the symbolic
    # factor of the labelled quotient graph lacks one of those entries
    A = np.eye(4) * 4.0
    for i, j in ((1, 3), (2, 1), (3, 0)):
        A[i, j] = A[j, i] = -1.0
    with pytest.raises(FactorizationFailed, match="misses an entry"):
        cholesky.analyse(sp.tril(A, format="csr"), label=np.array([0, 1, 2, 1]))
    # SuperLU's quotient factor must not pivot
    real = spla.splu

    class Pivoted:
        def __init__(self, *args, **kwargs):
            self.lu = real(*args, **kwargs)
            self.perm_c, self.perm_r = self.lu.perm_c, self.lu.perm_c[::-1]
    K = sp.tril(_block_spd([3] * 4, density=0.5, seed=1), format="csr")
    try:
        spla.splu = Pivoted
        with pytest.raises(FactorizationFailed, match="pivoted off the diagonal"):
            cholesky.analyse(K)
    finally:
        spla.splu = real


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("labels", [False, True])
def test_cholesky_dst_scatters_the_permuted_matrix(seed, labels):
    # scattering K.data by dst fills each panel with its rows of P K P^T
    # (the pivot block's lower triangle): random block patterns with their
    # columns shuffled, so a label's columns are not contiguous, analysed
    # with the block labels or with exact row sets
    from mmfem import cholesky
    rng = np.random.default_rng(seed)
    widths = rng.integers(1, 7, 25)
    shuffle = rng.permutation(widths.sum())
    K = _block_spd(widths, density=0.15, seed=seed)[shuffle][:, shuffle]
    T = sp.tril(K, format="csr")
    T.data = np.arange(1.0, T.nnz + 1)
    label = np.repeat(np.arange(len(widths)), widths)[shuffle] if labels else None
    sym = cholesky.analyse(T, label=label)
    values = np.zeros(sym.size)
    values[sym.dst] = T.data
    assert np.count_nonzero(values) == T.nnz
    M = (T + sp.tril(T, -1).T).toarray()[np.ix_(sym.perm, sym.perm)]
    for g in sym.groups:
        panels = values[g.offset:g.offset + len(g.rows) * g.n * g.k]
        for P, rows in zip(panels.reshape(-1, g.n, g.k), g.rows):
            want = M[np.ix_(rows, rows[:g.k])]
            want[:g.k] = np.tril(want[:g.k])
            assert np.array_equal(P, want)


def test_solve_that_cannot_fit_fails_typed(monkeypatch):
    # the walk compares the analysis' stated bytes with the memory probe
    # before it allocates the factor; the factor's own MemoryError becomes
    # the same typed error
    from mmfem import cholesky
    from mmfem.errors import InsufficientMemory
    K = 4.0 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
    monkeypatch.setattr(cholesky, "available_memory", lambda: 1000)
    monkeypatch.setattr(cholesky, "factor", lambda *args: pytest.fail("factored"))
    with pytest.raises(InsufficientMemory, match=(
            r"factor of 4 free dofs and 7 stored entries needs \d+ bytes "
            r"\(factor_bytes \d+\); 1000 bytes are available")):
        solve(_toy_system(K, np.ones(4)))
    monkeypatch.undo()

    def out_of_memory(P, k):
        raise MemoryError

    monkeypatch.setattr(cholesky, "_front", out_of_memory)
    with pytest.raises(InsufficientMemory) as info:
        cholesky.factor(sp.tril(K, format="csr"))
    assert isinstance(info.value, MemoryError)


def _large_fronts():
    return _block_spd([30] * 20 + [3] * 10, density=0.2, seed=9)


def test_cholesky_large_fronts():
    # single fronts (LAPACK path) with update rows past the flat
    # extend-add limit, and both extend-add paths
    from mmfem import cholesky
    K = _large_fronts()
    groups = cholesky.analyse(sp.tril(K, format="csr")).groups
    assert any(len(g.rows) == 1 and g.n - g.k > cholesky._FLAT_ROWS
               for g in groups)
    assert any(g.blocks for g in groups)
    # a small child with rows in its parent's pivot columns and in its
    # parent's update matrix: flat moves now and a flat copy that waits
    assert any(r[0] < groups[q].k <= r[-1] for g in groups
               if g.flat is not None for r, q in zip(*g.flat[:2]))
    # a large child with rows in its parent's pivot columns and in its
    # parent's update matrix: a trailing block waits for the parent
    assert any(0 < t < len(runs) and groups[q].n > groups[q].k
               for g in groups for q, _, _, runs, t in g.blocks)
    _check_against_dense(K)


def test_cholesky_large_fronts_alone():
    # two copies of the large-front matrix have equal large fronts at
    # one height, which one batch would hold: each is a group of its own
    # (the LAPACK path), and small fronts are still batched
    from mmfem import cholesky
    K = sp.block_diag([_large_fronts()] * 2, format="csc")
    groups = cholesky.analyse(sp.tril(K, format="csr")).groups
    large = [g for g in groups if g.n - g.k > cholesky._FLAT_ROWS]
    assert len(large) >= 2 and all(len(g.rows) == 1 for g in large)
    assert any(len(g.rows) > 1 for g in groups)
    # a staircase of more than one trailing run waits for a parent
    assert any(len(runs) - t > 1 and groups[q].n > groups[q].k
               for g in groups for q, _, _, runs, t in g.blocks)
    _check_against_dense(K)


def test_cholesky_solve_blocks():
    # an (n, r) block is solved column by column: each column is bitwise
    # the solve of that column alone
    from mmfem import cholesky
    K = _large_fronts()
    F = cholesky.factor(sp.tril(K, format="csr"))
    B = np.random.default_rng(3).standard_normal((K.shape[0], 3))
    X = F.solve(B)
    assert X.shape == B.shape
    ref = np.linalg.solve(K.toarray(), B)
    for j in range(3):
        assert np.array_equal(X[:, j], F.solve(B[:, j]))
        assert (np.linalg.norm(X[:, j] - ref[:, j])
                <= 1e-12 * np.linalg.norm(ref[:, j]))
    assert F.solve(B[:, :1]).shape == (K.shape[0], 1)
    assert F.solve(B[:, :0]).shape == (K.shape[0], 0)


def test_cholesky_solve_plan():
    # the plan holds views of the factor and the analysis, no copies, and
    # solves bitwise as the views derived group by group, on single
    # supernodes (dtrsv in place) and batches
    from mmfem import cholesky
    K = sp.block_diag([_large_fronts()] * 2, format="csc")
    F = cholesky.factor(sp.tril(K, format="csr"))
    kinds = {type(cols) for cols, *_ in F.plan}
    assert kinds == {slice, np.ndarray}
    for (cols, L11, L21, rows), g in zip(F.plan, F.symbolic.groups):
        assert np.shares_memory(L11, F.values)
        assert L21 is None or np.shares_memory(L21, F.values)
        assert rows is None or np.shares_memory(rows, g.rows)
    b = np.random.default_rng(4).standard_normal(K.shape[0])
    values = F.values.copy()
    assert np.array_equal(F.solve(b), factor_solve(F, b))
    assert np.array_equal(F.values, values)


def test_cholesky_flat_pieces_with_different_t(monkeypatch):
    # a piece of small children whose numbers t of rows in their
    # parent's pivot columns differ: a mask picks each child's part, and
    # the factor is bitwise the one of one child per piece
    from mmfem import cholesky
    K = _block_spd([1] * 60, density=0.05, seed=0)
    groups = cholesky.analyse(sp.tril(K, format="csr")).groups
    gk = np.array([g.k for g in groups])
    spreads = []
    for g in groups:
        if g.flat is not None:
            m, (rel, pgroup) = g.n - g.k, g.flat[:2]
            t = np.sum(rel < gk[pgroup][:, None], axis=1)
            spreads += [np.ptp(t[c0:c1]) for c0, c1
                        in cholesky._pieces(pgroup, m * (m + 1) // 2)]
    assert max(spreads) > 0
    F = _check_against_dense(K)
    monkeypatch.setattr(cholesky, "_PIECE", 1)
    assert np.array_equal(cholesky.factor(sp.tril(K, format="csr")).values,
                          F.values)


def test_cholesky_memory_bound_and_in_place():
    # the traced peak of a factorization of a stored triangle stays
    # within the stated bound (a copy of a panel by a LAPACK or BLAS
    # wrapper would exceed it), and K's data is only read
    import tracemalloc
    from mmfem import cholesky
    K = sp.tril(_large_fronts(), format="csr")
    data = K.data.copy()
    sym = cholesky.analyse(K)
    assert 0 < sym.update_peak and sym.factor_bytes == 8 * (
        sym.size + sym.update_peak)
    tracemalloc.start()
    try:
        F = cholesky.factor(K, sym)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sym.factor_bytes
    assert np.array_equal(K.data, data)
    b = np.ones(K.shape[0])
    assert (np.linalg.norm(_large_fronts() @ F.solve(b) - b)
            <= 1e-12 * np.linalg.norm(b))


def _analysis_peak(K, **kwargs):
    """(traced peak of ``analyse``, its Symbolic)."""
    import tracemalloc
    from mmfem import cholesky
    cholesky.analyse(K, **kwargs)
    tracemalloc.start()
    try:
        sym = cholesky.analyse(K, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sym


def test_cholesky_analysis_memory_bound(antiplane_system):
    # the analysis of a stored triangle peaks below what it keeps, a
    # fixed term and 24 bytes per stored entry (analyse's docstring), and
    # it keeps one factor position per stored entry; the triangles are
    # the test matrix with large fronts, the antiplane_system problem
    # assembled without its Dirichlet data (193 dofs) and its free block
    # (145 dofs)
    from mmfem import cholesky
    from mmfem.benchmarks import anti_load_f, anti_load_m, antiplane_params
    system = assemble_antiplane(generate_disk(10.0, n_rings=2), antiplane_params(),
                                SpaceDescriptor("h1", 2, 2),
                                SpaceDescriptor("nedelec1", 1, 2),
                                f=anti_load_f, m=anti_load_m)
    free = antiplane_system
    assert free.matrix.shape == (145, 145) and system.matrix.shape == (193, 193)
    for K, kwargs in [(sp.tril(_large_fronts(), format="csr"), {}),
                      (system.matrix, {"label": system.group}),
                      (free.matrix, {"label": free.group})]:
        peak, sym = _analysis_peak(K, **kwargs)
        assert peak <= sym.nbytes + cholesky._FIXED_BYTES + 24 * K.nnz
        assert len(sym.dst) == K.nnz


def test_single_front_breakdown_falls_back_to_lu():
    # one dense indefinite block is one front, factored in place until
    # dpotrf breaks down; the LU fallback reads the untouched matrix
    from mmfem import cholesky
    rng = np.random.default_rng(11)
    Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    K = Q @ np.diag([3.0, 2.0, 1.0, -1.0, 2.5, 4.0]) @ Q.T
    K = 0.5 * (K + K.T)
    groups = cholesky.analyse(sp.tril(K, format="csr")).groups
    assert len(groups) == 1 and len(groups[0].rows) == 1
    b = np.arange(1.0, 7.0)
    sol = solve(_toy_system(K, b))
    assert not sol.spd and sol.info["factor"] == "lu"
    assert sol.info["factor_bytes"] is None
    assert sol.info["analysis_bytes"] is None
    ref = np.linalg.solve(K, b)
    assert np.linalg.norm(sol.x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_cholesky_diagonal_and_one_by_one():
    from mmfem import cholesky
    K = sp.csc_matrix(np.diag(np.arange(1.0, 8.0)))
    F = _check_against_dense(K)
    assert F.nnz == 7
    F = cholesky.factor(sp.csr_matrix([[4.0]]))
    np.testing.assert_allclose(F.solve(np.array([2.0])), [0.5])


def test_cholesky_disconnected_components():
    K = sp.block_diag([_block_spd([3] * 12, seed=2), _block_spd([1, 66, 3],
                       seed=3), _block_spd([3] * 8, seed=4)], format="csc")
    _check_against_dense(K)


def test_cholesky_leaves_only_tree():
    # dense diagonal blocks: every supernode is a leaf and a root
    rng = np.random.default_rng(5)
    blocks = []
    for w in (3, 1, 5, 3, 3):
        B = rng.standard_normal((w, w))
        blocks.append(B @ B.T + w * np.eye(w))
    F = _check_against_dense(sp.block_diag(blocks, format="csc"))
    assert F.supernodes == 5


def test_cholesky_supervariables_exact():
    from mmfem import cholesky
    K = _block_spd([3, 1, 3, 1, 3, 66, 1, 1, 3], density=0.4, seed=6)
    n = K.shape[0]
    exact = {}
    for j in range(n):
        exact.setdefault(K.indices[K.indptr[j]:K.indptr[j + 1]].tobytes(), j)
    reps = [exact[K.indices[K.indptr[j]:K.indptr[j + 1]].tobytes()]
            for j in range(n)]
    label = cholesky._supervariables(K.indptr, K.indices, n)
    for i in range(n):
        for j in range(n):
            assert (label[i] == label[j]) == (reps[i] == reps[j])
    _check_against_dense(K)


def test_non_spd_goes_to_lu():
    from mmfem.solver import _splu_spd
    K = np.array([[2.0, 1.0, 0, 0], [1.0, -3.0, 1.0, 0],
                  [0, 1.0, 2.0, 0], [0, 0, 0, 1.0]])
    lu, spd = _splu_spd(sp.tril(K, format="csr"))
    assert not spd and hasattr(lu, "perm_r")
    sys_ = _toy_system(K, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(NotPositiveDefinite):
        solve(sys_, require_spd=True)
    sol = solve(sys_)
    assert not sol.spd and sol.info["factor"] == "lu"
    assert sol.info["supernodes"] is None
    np.testing.assert_allclose(sol.x, np.linalg.solve(K, [1.0, 2.0, 3.0, 4.0]),
                               atol=1e-14)


def test_cholesky_repeatable_bitwise():
    from mmfem import cholesky
    K = sp.tril(_block_spd([3, 66, 1, 3, 3, 1] * 3, seed=7), format="csr")
    b = np.random.default_rng(8).standard_normal(K.shape[0])
    x1 = cholesky.factor(K).solve(b)
    x2 = cholesky.factor(K).solve(b)
    assert np.array_equal(x1, x2)


def test_direct_solve_records_factor(antiplane_solution):
    info = antiplane_solution.info
    assert antiplane_solution.spd and info["factor"] == "cholesky"
    assert info["supernodes"] > 0 and info["lu_fill"] > 0
    assert info["factor_bytes"] > 8 * info["lu_fill"]
    # the entry positions (4 bytes per stored entry) and the schedule,
    # much less than the factor
    assert 0 < info["analysis_bytes"] < info["factor_bytes"] // 2


def test_direct_solve_records_matrix_bytes(antiplane_system, antiplane_solution):
    # the data and index arrays of the stored triangle, beside the
    # factor and analysis bytes: no K(c) array beside a single matrix
    K = antiplane_system.matrix
    assert antiplane_system.c_matrix is None
    assert antiplane_solution.info["matrix_bytes"] == (
        K.data.nbytes + K.indices.nbytes + K.indptr.nbytes)
    assert sp.triu(K, 1).nnz == 0


def test_family_analyses_pattern_once(sweep_system_small, sweep_full_small,
                                     monkeypatch):
    from mmfem import cholesky
    from mmfem.solver import solve_family
    analyse = cholesky.analyse
    calls = []

    def counted(K, **kwargs):
        calls.append(K.shape[0])
        return analyse(K, **kwargs)

    monkeypatch.setattr(cholesky, "analyse", counted)
    # 1 -> 1e6 takes more than half the CG budget: 1e7 is factored again
    coeffs = [1e-8, 1.0, 1e6, 1e7]
    sols = solve_family(sweep_system_small, coeffs)
    paths = [s.info["path"] for s in sols]
    assert paths.count("direct") == 3 and len(calls) == 1
    _check_against_direct(sweep_full_small, coeffs, sols)
    for c, sol in zip(coeffs, sols):
        K = symmetric(matrix_at(sweep_full_small[0], c))
        energy = 0.5 * sol.x @ (K @ sol.x)
        assert abs(sol.energy - energy) <= 1e-12 * energy


def test_family_holds_no_full_matrices(sweep_system_small):
    # the assembled system holds only its free blocks, and the solutions
    # keep it without matrices
    from mmfem.solver import solve_family
    system = sweep_system_small
    n_free = int(np.count_nonzero(system.free))
    assert 0 < n_free < system.n_dofs
    for M in (system.matrix, system.c_matrix):
        assert M.shape == (n_free, n_free)
    sols = solve_family(system, [1.0, 2.0])
    for sol in sols:
        kept = sol.system
        assert kept.matrix is None and kept.c_matrix is None
        assert kept.group is None
        assert kept.n_dofs == len(sol.x) == system.n_dofs


# ---------------------------------------------------------------------------
# the free blocks assembled under Dirichlet data (supervariables from the
# assembled pattern) against the explicit K[free][:, free] slice of the
# form assembled without it

@pytest.fixture(scope="module")
def gate_systems():
    """(system, full, constraints) of each gate system: assembled under its
    Dirichlet data and without it, and the constraints of that data."""
    from mmfem.benchmarks import (anti_exact_grad_u, anti_exact_u, anti_load_f,
                                  anti_load_m, antiplane_params, cauchy_system,
                                  sweep_grad_u, sweep_mesh, sweep_params,
                                  sweep_system, sweep_u)
    disk, cube = generate_disk(10.0, n_rings=2), sweep_mesh(0)
    sweep = (cube.boundary_facets, sweep_u, sweep_grad_u)
    anti = (disk.tagged_facets("boundary"), anti_exact_u, anti_exact_grad_u)
    systems = {}
    for fam in ("nedelec1", "nedelec2"):
        args = (disk, antiplane_params(), SpaceDescriptor("h1", 2, 2),
                SpaceDescriptor(fam, 1, 2))
        full = assemble_antiplane(*args, f=anti_load_f, m=anti_load_m)
        systems[f"antiplane {fam}"] = (
            assemble_antiplane(*args, f=anti_load_f, m=anti_load_m, dirichlet=anti),
            full, embed(full, anti))
        full = assemble_full3d(cube, sweep_params(1.0), SpaceDescriptor("h1", 2, 3),
                               SpaceDescriptor(fam, 1, 3), split_curl=True)
        systems[f"sweep {fam}"] = (sweep_system(cube, sweep_params(1.0), 1, fam),
                                   full, embed(full, sweep))
    full = assemble_cauchy3d(cube, SpaceDescriptor("h1", 3, 3))
    systems["cauchy 3"] = (cauchy_system(cube, 3), full,
                           embed(full, sweep, coupled=False))
    return systems


def test_pattern_path_matches_explicit_slice(gate_systems):
    from dataclasses import replace
    from mmfem import cholesky
    from mmfem.solver import solve_family
    for name, (system, full, cons) in gate_systems.items():
        ref = constrain(full, cons)
        assert np.array_equal(system.free, ref.free), name
        assert np.array_equal(system.x_con, ref.x_con), name
        for M, B in [(ref.matrix, system.matrix), (ref.c_matrix, system.c_matrix)]:
            assert (M is None) == (B is None), name
            for attr in ("indptr", "indices", "data") if M is not None else ():
                assert np.array_equal(getattr(B, attr), getattr(M, attr)), name
        # the lifts and constants sum the element terms in another order
        # than the CSR products
        for got, want in [(system.rhs, ref.rhs), (system.lift, ref.lift),
                          (system.con_energy, ref.con_energy)]:
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name
        # K(1), its rhs, lift and constant
        K = matrix_at(system, 1.0)
        at_1 = replace(system, matrix=K, c_matrix=None, rhs=system.rhs + (
            0.0 if system.c_matrix is None else system.lift[1]),
            lift=system.lift.sum(axis=0, keepdims=True),
            con_energy=system.con_energy.sum(keepdims=True))
        ref = constrain(SparseSystem(matrix=matrix_at(full, 1.0), rhs=full.rhs,
                                     fields=full.fields, mesh=full.mesh), cons)
        F = cholesky.factor(K, cholesky.analyse(K, label=system.group))
        # one partition (test_pattern_supervariables_are_exact): one
        # analysis, bitwise one factor
        F_ref = cholesky.factor(ref.matrix)
        assert np.array_equal(F.values, F_ref.values), name
        x_ref = F_ref.solve(ref.rhs)
        sol = solve(at_1)
        free = system.free
        assert (np.linalg.norm(sol.x[free] - x_ref)
                <= 1e-12 * np.linalg.norm(x_ref)), name
        assert np.array_equal(sol.x[~free], ref.x_con[~free]), name
        assert sol.residual <= 1e-10
        # the walk at c = 1 gives the single solve's solution; both
        # energies are those of the form assembled without Dirichlet data
        fam = solve_family(system, [1.0])[0]
        assert np.array_equal(fam.x, sol.x), name
        K_full = symmetric(matrix_at(full, 1.0))
        energy = 0.5 * sol.x @ (K_full @ sol.x)
        for s in (sol, fam):
            assert abs(s.energy - energy) <= 1e-12 * abs(energy), name


def test_pattern_supervariables_are_exact(gate_systems):
    # dofs are grouped by the cells of their polytope: mesh entities,
    # each one run of dofs, merged where they share their cells (a
    # boundary face and the interior of its only cell, an edge and a face
    # in the same two cells), which is the exact row-set partition of
    # K_ff here
    from mmfem import cholesky
    for name, (system, _, _) in gate_systems.items():
        Kff = symmetric(system.matrix)
        exact = cholesky._supervariables(Kff.indptr, Kff.indices, Kff.shape[0])
        pairs = set(zip(system.group.tolist(), exact.tolist()))
        assert len({g for g, _ in pairs}) == len(pairs), name   # no merge
        assert len({e for _, e in pairs}) == len(pairs), name   # no split


def test_solutions_record_stages(antiplane_solution, sweep_system_small):
    from mmfem.solver import solve_family
    sols = [antiplane_solution] + solve_family(sweep_system_small,
                                               [1e-8, 1e-6, 1e6])
    assert {"direct", "pcg"} <= {s.info["path"] for s in sols}
    for sol in sols:
        stages = sol.info["stages"]
        assert set(stages) == {"assembly", "dirichlet", "analysis", "factor",
                               "solve"}
        assert all(v >= 0.0 for v in stages.values())
    # an assembled system's time goes on its solve, a family's on its
    # first solution
    for key in ("assembly", "dirichlet"):
        assert sols[0].info["stages"][key] > 0.0
        assert sum(s.info["stages"][key] > 0.0 for s in sols[1:]) == 1
