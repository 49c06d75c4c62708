"""The benchmark's three workloads: seeded inputs and result checks.

Each workload is one call of a ``mmfem.benchmarks`` driver on a mesh file
that the benchmark writes.  The seed relabels the generator's vertices and
cells (seed 0 keeps the generator's numbering); the program sees only the
JSON mesh file.  Relabelling should not change the answer; it moves the
fill of the sparse factorization, so it changes the cost of a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

RESIDUAL_TOL = 1e-10

# Cauchy bound energies of the paper's lc sweep (tests/test_acceptance.py).
PAPER_I_MACRO = 0.16946198431835743
PAPER_I_MICRO = 0.8473099215917871

# err_u of antiplane-fine for seeds 0-9.  It depends on the numbering
# (seed 0, the generator's, sits 2e-3 above the random numberings; see
# README.md), so other seeds are only held to a band around seed 0.
ANTIPLANE_ERR_U = {
    0: 0.003998077408976935,
    1: 0.0039923116677821205,
    2: 0.0039899245871743115,
    3: 0.003992226456646492,
    4: 0.003992104157687152,
    5: 0.003993339921456963,
    6: 0.003991309256642019,
    7: 0.0039908054354559006,
    8: 0.003990500834270017,
    9: 0.003990722726871169,
}
ANTIPLANE_ERR_RTOL = 1e-6
ANTIPLANE_ERR_BAND = 5e-3

# Bound on the P11 profile deviation of bending-p2, as in acceptance
# criterion 7.
BENDING_REL_DEV = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str          # attribute of mmfem.benchmarks
    config: dict         # BenchConfig fields besides mesh_path
    mesh: Callable       # mmfem.benchmarks -> the generator's mesh
    check: Callable      # (result, seed) -> (failures, solution_error, counters)


def write_seeded_mesh(mesh, seed: int, path) -> None:
    """Write ``mesh`` in the documented JSON format, vertices and cells
    relabelled by a permutation drawn from ``seed`` (0: unchanged)."""
    from mmfem.mesh import build, io_write

    nv, nc = len(mesh.vertices), len(mesh.cells)
    if seed == 0:
        vperm, cperm = np.arange(nv), np.arange(nc)
    else:
        rng = np.random.default_rng(seed)
        vperm, cperm = rng.permutation(nv), rng.permutation(nc)
    vertices = np.empty_like(mesh.vertices)
    vertices[vperm] = mesh.vertices
    tags = {label: [vperm[mesh.facet_vertices(f)] for f in facets]
            for label, facets in mesh.boundary_tags.items()}
    io_write(build(vertices, vperm[mesh.cells][cperm], tags=tags), path)


def _residual_failures(residuals):
    worst = max(residuals)
    if not worst <= RESIDUAL_TOL:
        return [f"residual {worst:.3e} > {RESIDUAL_TOL}"]
    return []


def _check_antiplane(result, seed):
    row = result["rows"][0]
    failures = _residual_failures([row["residual"]])
    err = row["err_u"]
    ref, rtol = ANTIPLANE_ERR_U.get(seed), ANTIPLANE_ERR_RTOL
    if ref is None:
        ref, rtol = ANTIPLANE_ERR_U[0], ANTIPLANE_ERR_BAND
    if not abs(err / ref - 1.0) <= rtol:
        failures.append(f"err_u {err!r} not within {rtol:g} of {ref!r}")
    return failures, err, {}


def _check_bending(result, seed):
    failures = _residual_failures([result["residual"]])
    if not result["spd"]:
        failures.append("system not certified SPD")
    # rel_dev depends on the numbering, so it is a check, not a metric
    if not result["rel_dev"] <= BENDING_REL_DEV:
        failures.append(f"P11 profile rel_dev {result['rel_dev']:.4f} "
                        f"> {BENDING_REL_DEV}")
    return failures, result["err_p"], {}


def _check_lc_sweep(result, seed):
    failures = _residual_failures(result["residuals"])
    order = np.argsort(result["lc"])
    energy = np.asarray(result["energy"])[order]
    i_macro, i_micro = result["i_macro"], result["i_micro"]
    if not np.all(np.diff(energy) >= -1e-12 * energy.max()):
        failures.append("energy not monotone in lc")
    if not energy.min() >= 0.99 * i_macro:
        failures.append(f"min energy {energy.min():.6f} < 0.99 i_macro")
    dev = max(abs(i_macro / PAPER_I_MACRO - 1.0),
              abs(i_micro / PAPER_I_MICRO - 1.0))
    if not dev <= 0.02:
        failures.append(f"Cauchy bounds {dev:.2%} from the paper constants")
    # The upper bound does not hold on this coarse mesh (locking); the
    # ratio is recorded, not checked.  Criterion 8 checks it at refine 1.
    return failures, dev, {"upper_bound_ratio": float(energy[-1] / i_micro)}


def _plate_mesh(b):
    """The bending plate and graded thickness grid of ``bending_mesh(0)``
    on a 3 x 3 in-plane grid instead of 4 x 4: half the cost, so that a
    run holds several operations."""
    return b.generate_box(((-10.0, 10.0), (-10.0, 10.0), (-0.5, 0.5)),
                          (3, 3, np.asarray(b.BENDING_ZGRID)))


WORKLOADS = {w.name: w for w in (
    Workload("antiplane-fine", "run_antiplane",
             {"benchmark": "antiplane", "p": 2, "family": "nedelec2"},
             lambda b: b.generate_disk(10.0, n_rings=32), _check_antiplane),
    Workload("bending-p2", "run_bending",
             {"benchmark": "bending", "p": 2, "family": "nedelec1"},
             _plate_mesh, _check_bending),
    Workload("lc-sweep-16", "run_lc_sweep",
             {"benchmark": "lc-sweep", "p": 2, "family": "nedelec1"},
             lambda b: b.sweep_mesh(0), _check_lc_sweep),
)}
