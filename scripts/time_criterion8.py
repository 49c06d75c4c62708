"""Time acceptance criterion 8's lc sweep once, outside the benchmark.

The configuration is that of ``tests/test_acceptance.py``: p = 3 N-I on
the refine-1 cube, the six lc values 1e-4 ... 1e3 and degree-6 Cauchy
bounds, run as one ``run_lc_sweep`` call with the BLAS threads of the
environment (set ``OPENBLAS_NUM_THREADS=1`` for one thread).  It prints
one JSON line: the wall seconds of the call, the solver ``stages`` of the
sweep and bound chains (each summed over its solutions), the number of
factorizations, the stored entries (``lu_fill``), supernodes and bytes
of each sweep factorization (``factor_bytes``, ``analysis_bytes`` and
``matrix_bytes``: the factor with its update storage, the analysis, and
the chain's matrices), the process's peak RSS (``ru_maxrss``, MB), and
per chain ("sweep", then "bound") one entry per value in input order:
its path and CG iterations, and where CG ran and did not converge, why
it stopped (``cg_stop``), at which iteration and, for an attempt given
up, its projected count.

    PYTHONPATH=src python scripts/time_criterion8.py

About 25 s and 1.3 GB of memory on a 2-core machine at its default
two BLAS threads (the sweep's four factorizations about 10.5 s).
"""

import json
import resource
import time

from mmfem import benchmarks
from mmfem.benchmarks import BenchConfig, run_lc_sweep

LC_VALUES = (1e-4, 1e-2, 1e-1, 1.0, 10.0, 1e3)


def _value(info):
    """Path, CG iterations and a failed CG attempt of one solution."""
    out = {"path": info["path"], "iterations": info["iterations"]}
    if info["cg_stop"] not in (None, "converged"):
        out.update(cg_stop=info["cg_stop"],
                   cg_stopped_at=len(info["cg_history"]) - 1)
        if info["cg_projected"] is not None:
            out["cg_projected"] = round(info["cg_projected"], 1)
    return out


def main():
    cfg = BenchConfig("lc-sweep", p=3, refine=1, family="nedelec1",
                      lc_values=LC_VALUES, bound_degree=6)
    chains = []
    solve_family = benchmarks.solve_family

    def recorded(*args):
        # the driver's two family solves, sweep then bound
        sols = solve_family(*args)
        chains.append([_value(s.info) for s in sols])
        return sols

    benchmarks.solve_family = recorded
    t0 = time.perf_counter()
    result = run_lc_sweep(cfg)
    wall = time.perf_counter() - t0
    print(json.dumps({
        "wall_s": round(wall, 3),
        "stages": {chain: {k: round(v, 3) for k, v in stages.items()}
                   for chain, stages in result["stages"].items()},
        "n_factorizations": result["n_factorizations"],
        **{key: [n for n in result[key] if n is not None]
           for key in ("lu_fill", "supernodes", "factor_bytes",
                       "analysis_bytes", "matrix_bytes")},
        "ru_maxrss_mb": round(resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "values": dict(zip(("sweep", "bound"), chains))}))


if __name__ == "__main__":
    main()
