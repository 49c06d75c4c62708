"""The three benchmark problems and their drivers.

* antiplane: manufactured compatible-microdistortion solution on a disk
  of radius 10, all material constants one, convergence ladder.
* bending: cylindrical bending of the plate [-10,10]^2 x [-1/2,1/2]
  against the closed-form hyperbolic microdistortion profile.
* lc-sweep: energy of the cube [-1,1]^3 under full Dirichlet data as a
  function of the characteristic length, with Cauchy bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (assemble_antiplane, assemble_cauchy3d, assemble_full3d,
                       l2_error_h1, l2_error_hcurl, rot_l2_norm)
from .errors import InvalidParam
from .materials import MaterialParams
from .mesh import _json_object, generate_box, generate_disk, io_read
from .nedelec import SpaceDescriptor
from .solver import sample_line, solve, solve_family


@dataclass
class BenchConfig:
    benchmark: str                  # "antiplane" | "bending" | "lc-sweep"
    p: int = 1                      # Nedelec degree; u-space runs at p+1
    refine: int = 0
    family: str = "nedelec1"
    lc_values: tuple = None
    mesh_path: str = None
    params_path: str = None         # JSON file overriding material parameters
    bound_degree: int = 6

    def __post_init__(self):
        if self.benchmark not in ("antiplane", "bending", "lc-sweep"):
            raise InvalidParam(f"unknown benchmark {self.benchmark!r}")
        if self.family not in ("nedelec1", "nedelec2"):
            raise InvalidParam(f"unknown family {self.family!r}")
        if self.p < (0 if self.family == "nedelec1" else 1):
            raise InvalidParam("polynomial order too low for family")
        if self.refine < 0:
            raise InvalidParam(f"refine must be >= 0, got {self.refine}")
        negative = [lc for lc in self.lc_values or () if lc < 0]
        if negative:
            raise InvalidParam(f"lc values must be >= 0, got {negative[0]}")
        if self.mesh_path is not None and self.refine > 0:
            raise InvalidParam("a mesh file is used as given: refine must be 0, "
                               f"got {self.refine}")

    def material_override(self, default: MaterialParams) -> MaterialParams:
        """Parameters from the JSON config, falling back to the default.

        A file that changes a meso or micro modulus but sets neither macro
        modulus gets the macro moduli of the new set (``macro_from``);
        macro moduli the file sets are kept as given.
        """
        if self.params_path is None:
            return default
        data = _json_object(self.params_path)
        fields = {k: getattr(default, k) for k in
                  ("lam_e", "mu_e", "lam_micro", "mu_micro", "mu_c", "lc",
                   "mu_macro", "lam_macro")}
        unknown = set(data) - set(fields)
        if unknown:
            raise InvalidParam(f"unknown material keys {sorted(unknown)}")
        for key, value in data.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InvalidParam(f"material key {key!r} must be a number, "
                                   f"got {value!r}")
        fields.update(data)
        if (set(data) & {"lam_e", "mu_e", "lam_micro", "mu_micro"}
                and not set(data) & {"mu_macro", "lam_macro"}):
            fields["mu_macro"] = fields["lam_macro"] = None
        return MaterialParams(**fields)


# ---------------------------------------------------------------------------
# antiplane benchmark data (disk radius 10, all material constants one)

def anti_exact_u(x):
    x = np.atleast_2d(x)
    return np.sin((x[:, 0] ** 2 + x[:, 1] ** 2) / 5.0)


def anti_exact_grad_u(x):
    x = np.atleast_2d(x)
    c = np.cos((x[:, 0] ** 2 + x[:, 1] ** 2) / 5.0)
    return 0.4 * c[:, None] * x


def anti_load_f(x):
    x = np.atleast_2d(x)
    r2 = x[:, 0] ** 2 + x[:, 1] ** 2
    return (2.0 * r2 * np.sin(r2 / 5.0) - 10.0 * np.cos(r2 / 5.0) - 5.0) / 25.0


def anti_load_m(x):
    return -np.atleast_2d(x) / 5.0


def anti_exact_p(x, mu_e=1.0, mu_micro=1.0):
    return (anti_load_m(x) + mu_e * anti_exact_grad_u(x)) / (mu_e + mu_micro)


def antiplane_params(lc=1.0):
    return MaterialParams(lam_e=1.0, mu_e=1.0, lam_micro=1.0, mu_micro=1.0,
                          mu_c=0.0, lc=lc, mu_macro=1.0, lam_macro=1.0)


def solve_antiplane(mesh, params, p, family, ufunc=anti_exact_u,
                    gradfunc=anti_exact_grad_u, f=anti_load_f, m=anti_load_m,
                    tag="boundary"):
    """Assemble and solve one antiplane configuration."""
    u_space = SpaceDescriptor("h1", p + 1, 2)
    p_space = SpaceDescriptor(family, p, 2)
    return solve(assemble_antiplane(
        mesh, params, u_space, p_space, f=f, m=m,
        dirichlet=(mesh.tagged_facets(tag), ufunc, gradfunc)))


def run_antiplane(cfg: BenchConfig):
    """Convergence ladder for the compatible-microdistortion example."""
    levels = cfg.refine + 1
    base_rings = 4
    params = cfg.material_override(antiplane_params())

    def one(level):
        rings = base_rings * 2 ** level
        mesh = (io_read(cfg.mesh_path) if cfg.mesh_path
                else generate_disk(10.0, n_rings=rings))
        sol = solve_antiplane(mesh, params, cfg.p, cfg.family)
        uf, pf = sol.system.fields["u"], sol.system.fields["p"]
        err_u = l2_error_h1(mesh, uf, sol.x, anti_exact_u)
        err_p = l2_error_hcurl(mesh, pf, sol.x, anti_exact_p)
        rot = rot_l2_norm(mesh, pf, sol.x)
        return {"level": level, "p": cfg.p, "family": cfg.family,
                "n_cells": mesh.n_cells, "dofs": sol.system.n_dofs,
                "h": 10.0 / rings, "err_u": err_u, "err_p": err_p,
                "rot_norm": rot, "residual": sol.residual}, sol.info["stages"]

    rows, stages = zip(*[one(lv) for lv in range(levels)])
    # the solver stages of each level stay out of the rows (the CSV table)
    result = {"rows": list(rows), "stages": list(stages)}
    if levels >= 2:
        result["slope_u"] = fit_slope([r["h"] for r in rows],
                                      [r["err_u"] for r in rows])
        result["slope_p"] = fit_slope([r["h"] for r in rows],
                                      [r["err_p"] for r in rows])
    return result


def fit_slope(hs, errs, last=3):
    """Least-squares slope of log(err) against log(h), last points only."""
    hs = np.asarray(hs, dtype=float)[-last:]
    errs = np.asarray(errs, dtype=float)[-last:]
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


# ---------------------------------------------------------------------------
# cylindrical bending

KAPPA = 14.0 / 200.0
_B_ARG = np.sqrt(82.0)
_B_COEF = 20.0 * np.sqrt(82.0) / np.cosh(np.sqrt(41.0 / 2.0))


def bending_params():
    return MaterialParams(lam_e=0.0, mu_e=0.5, lam_micro=0.0, mu_micro=20.0,
                          mu_c=0.0, lc=1.0, mu_macro=0.5, lam_macro=0.0)


def bending_u(x, translated=True):
    x = np.atleast_2d(x)
    u = np.stack([-KAPPA * x[:, 0] * x[:, 2],
                  np.zeros(len(x)),
                  KAPPA * x[:, 0] ** 2 / 2.0], axis=1)
    if translated:
        u[:, 2] -= 3.5
    return u


def bending_grad_u(x):
    x = np.atleast_2d(x)
    n = len(x)
    g = np.zeros((n, 3, 3))
    g[:, 0, 0] = -KAPPA * x[:, 2]
    g[:, 0, 2] = -KAPPA * x[:, 0]
    g[:, 2, 0] = KAPPA * x[:, 0]
    return g


def bending_p11(z):
    z = np.asarray(z, dtype=float)
    return -KAPPA * (41.0 * z + _B_COEF * np.sinh(_B_ARG * z)) / 1681.0


def bending_P(x):
    x = np.atleast_2d(x)
    n = len(x)
    P = np.zeros((n, 3, 3))
    P[:, 0, 0] = bending_p11(x[:, 2])
    P[:, 0, 2] = -KAPPA * x[:, 0]
    P[:, 2, 0] = KAPPA * x[:, 0]
    return P


# graded through-thickness grid: coarse enough that the element families
# separate the way the reference profile study shows
BENDING_ZGRID = (-0.5, -0.17, 0.13, 0.40, 0.5)


def bending_mesh(refine=0):
    z = np.asarray(BENDING_ZGRID)
    for _ in range(refine):
        z = np.sort(np.concatenate([z, 0.5 * (z[:-1] + z[1:])]))
    n_xy = 4 * (refine + 1)
    return generate_box(((-10.0, 10.0), (-10.0, 10.0), (-0.5, 0.5)),
                        (n_xy, n_xy, z))


def solve_bending(mesh, p, family, params=None):
    params = params or bending_params()
    u_space = SpaceDescriptor("h1", p + 1, 3)
    p_space = SpaceDescriptor(family, p, 3)
    facets = np.concatenate([mesh.tagged_facets("x-"), mesh.tagged_facets("x+")])
    system = assemble_full3d(mesh, params, u_space, p_space,
                             dirichlet=(facets, bending_u, bending_grad_u))
    return solve(system, require_spd=True)


def run_bending(cfg: BenchConfig):
    """Centerline P_11 profile plus L2 errors for one order/family."""
    mesh = io_read(cfg.mesh_path) if cfg.mesh_path else bending_mesh(cfg.refine)
    sol = solve_bending(mesh, cfg.p, cfg.family,
                        params=cfg.material_override(bending_params()))
    zs = np.linspace(-0.5, 0.5, 101)
    pts = np.stack([np.zeros_like(zs), np.zeros_like(zs), zs], axis=1)
    _, Ps = sample_line(sol, pts)
    p11 = Ps[:, 0, 0]
    exact = bending_p11(zs)
    amplitude = exact.max() - exact.min()
    uf, pf = sol.system.fields["u"], sol.system.fields["p"]
    err_u = l2_error_h1(mesh, uf, sol.x, bending_u)
    err_p = l2_error_hcurl(mesh, pf, sol.x, bending_P)
    sign_flips = int(np.sum(np.diff(np.sign(np.diff(p11))) != 0))
    return {"z": zs, "p11": p11, "p11_exact": exact,
            "max_dev": float(np.abs(p11 - exact).max()),
            "amplitude": float(amplitude),
            "rel_dev": float(np.abs(p11 - exact).max() / amplitude),
            "err_u": err_u, "err_p": err_p, "dofs": sol.system.n_dofs,
            "n_cells": mesh.n_cells, "spd": sol.spd,
            "residual": sol.residual, "oscillations": sign_flips,
            "stages": sol.info["stages"], "p": cfg.p, "family": cfg.family}


# ---------------------------------------------------------------------------
# bounded stiffness (characteristic length sweep)

def sweep_params(lc):
    return MaterialParams.from_macro_micro(lam_macro=2.0, mu_macro=1.0,
                                           lam_micro=10.0, mu_micro=5.0,
                                           mu_c=1.0, lc=lc)


def sweep_u(x):
    """Dirichlet displacement of the cube benchmark: on the faces normal
    to axis i only component i is nonzero, and all vanish on the cube
    edges, so the whole boundary takes it as one datum."""
    x = np.atleast_2d(x)
    u = np.zeros((len(x), 3))
    u[:, 0] = (1.0 - x[:, 1] ** 2) * np.sin(np.pi * (1.0 - x[:, 2] ** 2)) / 10.0
    u[:, 1] = (1.0 - x[:, 0] ** 2) * np.sin(np.pi * (1.0 - x[:, 2] ** 2)) / 10.0
    u[:, 2] = (1.0 - x[:, 1] ** 2) * np.sin(np.pi * (1.0 - x[:, 0] ** 2)) / 10.0
    return u


def sweep_grad_u(x):
    """Gradient of ``sweep_u``: (n, 3, 3), row i the gradient of u_i."""
    x = np.atleast_2d(x)
    g = np.zeros((len(x), 3, 3))
    s = np.sin(np.pi * (1 - x[:, 2] ** 2))
    c = np.cos(np.pi * (1 - x[:, 2] ** 2))
    g[:, 0, 1] = -2 * x[:, 1] * s / 10.0
    g[:, 0, 2] = (1 - x[:, 1] ** 2) * c * (-2 * np.pi * x[:, 2]) / 10.0
    g[:, 1, 0] = -2 * x[:, 0] * s / 10.0
    g[:, 1, 2] = (1 - x[:, 0] ** 2) * c * (-2 * np.pi * x[:, 2]) / 10.0
    s = np.sin(np.pi * (1 - x[:, 0] ** 2))
    c = np.cos(np.pi * (1 - x[:, 0] ** 2))
    g[:, 2, 0] = (1 - x[:, 1] ** 2) * c * (-2 * np.pi * x[:, 0]) / 10.0
    g[:, 2, 1] = -2 * x[:, 1] * s / 10.0
    return g


def sweep_mesh(refine=0):
    return generate_box(((-1.0, 1.0),) * 3, 2 * 2 ** refine)


def default_lc_grid():
    return tuple(np.logspace(-4.0, 3.0, 16))


def cauchy_system(mesh, degree):
    """``assemble_cauchy3d`` under the sweep Dirichlet data."""
    return assemble_cauchy3d(mesh, SpaceDescriptor("h1", degree, 3),
                             dirichlet=(mesh.boundary_facets, sweep_u, sweep_grad_u))


def _stage_sums(infos):
    """The solver ``stages`` of a solve family, summed over its solutions."""
    return {key: sum(info["stages"][key] for info in infos)
            for key in infos[0]["stages"]}


def cauchy_bound_energy(mesh, moduli, degree):
    """Cauchy energies under the sweep Dirichlet data, one per strongly
    elliptic (lam, mu) of ``moduli``: mu S + lam D = mu K(lam / mu), so
    all are one family solve (one assembly, embedding and analysis).
    Returns the energies and the family's ``stages`` summed."""
    for lam, mu in moduli:
        if not (mu > 0.0 and lam + 2.0 * mu > 0.0):
            raise InvalidParam(f"Cauchy moduli lam={lam}, mu={mu}: need "
                               "mu > 0 and lam + 2 mu > 0")
    sols = solve_family(cauchy_system(mesh, degree),
                        [lam / mu for lam, mu in moduli])
    return ([mu * s.energy for s, (_, mu) in zip(sols, moduli)],
            _stage_sums([s.info for s in sols]))


def sweep_system(mesh, params, p, family):
    """The constrained sweep system with its curl-curl part split off:
    K(lc) = matrix + mu_macro lc^2 c_matrix."""
    u_space = SpaceDescriptor("h1", p + 1, 3)
    p_space = SpaceDescriptor(family, p, 3)
    return assemble_full3d(mesh, params, u_space, p_space, split_curl=True,
                           dirichlet=(mesh.boundary_facets, sweep_u, sweep_grad_u))


def run_lc_sweep(cfg: BenchConfig):
    """Energy table I(lc) plus internally computed Cauchy bounds: the
    lc values are one family solve, the two bounds another."""
    mesh = io_read(cfg.mesh_path) if cfg.mesh_path else sweep_mesh(cfg.refine)
    lcs = tuple(cfg.lc_values) if cfg.lc_values else default_lc_grid()
    base_params = cfg.material_override(sweep_params(1.0))
    sols = solve_family(sweep_system(mesh, base_params, cfg.p, cfg.family),
                        [base_params.mu_macro * lc ** 2 for lc in lcs])
    energies, infos = [s.energy for s in sols], [s.info for s in sols]

    (lower, upper), bound_stages = cauchy_bound_energy(
        mesh, [(base_params.lam_macro, base_params.mu_macro),
               (base_params.lam_micro, base_params.mu_micro)],
        cfg.bound_degree)
    return {"lc": list(lcs), "energy": energies,
            "residuals": [info["residual"] for info in infos],
            "solver_path": [info["path"] for info in infos],
            "iterations": [info["iterations"] for info in infos],
            "n_factorizations": sum(info["path"] == "direct" for info in infos),
            "factor": [info.get("factor") for info in infos],
            "supernodes": [info.get("supernodes") for info in infos],
            **{key: [info.get(key) for info in infos]
               for key in ("lu_fill", "factor_bytes", "analysis_bytes",
                           "matrix_bytes")},
            "i_macro": lower, "i_micro": upper,
            "stages": {"sweep": _stage_sums(infos), "bound": bound_stages},
            "monotone": bool(np.all(np.diff(
                [e for _, e in sorted(zip(lcs, energies))]) >= -1e-12)),
            "dofs": sols[0].system.n_dofs, "n_cells": mesh.n_cells,
            "p": cfg.p, "family": cfg.family}
