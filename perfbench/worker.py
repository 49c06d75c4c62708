"""One benchmark operation in a fresh process: one driver call, checked.

    python3 perfbench/worker.py WORKLOAD SEED MESH_JSON OUT_JSON [SPANS_JSON]

run.py starts it with the source tree on PYTHONPATH and the thread
settings pinned.  With SPANS_JSON the layers are traced and the spans
written there.  OUT_JSON receives the timings, the checks and counters;
setup_s is the import of the driver modules, which every fresh process
pays before its first driver call.
A driver that raises MMFemError yields a failed operation, not a crash.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv):
    workload_name, seed, mesh_path, out_path = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None

    t0 = time.perf_counter()
    from mmfem import benchmarks
    setup = time.perf_counter() - t0
    from mmfem.errors import MMFemError
    from spans import ROOT_SPAN, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    tracer = absent = None
    if spans_path:
        tracer = Tracer()
        absent = tracer.install()
    cfg = benchmarks.BenchConfig(mesh_path=mesh_path, **workload.config)
    driver = getattr(benchmarks, workload.driver)

    failures, solution_error, counters = [], None, {}
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    root = tracer.open(ROOT_SPAN) if tracer else None
    try:
        result = driver(cfg)
    except MMFemError as exc:
        result = None
        failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        if root is not None:
            tracer.close(root)
    wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0

    if result is not None:
        failures, solution_error, counters = workload.check(result, int(seed))
    if tracer:
        tracer.dump(spans_path, absent)
    record = {
        "ok": not failures, "failures": failures,
        "setup_s": setup, "time_to_solution_s": wall, "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solution_error": solution_error, "counters": counters,
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
