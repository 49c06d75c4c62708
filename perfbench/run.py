"""mmfem benchmark: one seeded workload, closed loop, checked results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Each operation is one call of a
``mmfem.benchmarks`` driver in a fresh single-threaded process
(worker.py), pinned to one CPU beside a host-speed sampler; the next
starts only after the previous one ends, and only if it is expected to
end within ``--seconds`` (at least one operation).  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` alternates untraced and
traced operations and reports the per-layer metrics.  The last line of
standard output is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# single-threaded baseline; a fixed hash seed fixes the workers' allocation
# order, which steadies peak RSS
PINNED_ENV = {"MM_FEM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
os.environ.update(PINNED_ENV)   # before numpy loads, for mesh generation

sys.path.insert(0, str(SRC))
from spans import ROOT_SPAN, layer_totals  # noqa: E402
from workloads import WORKLOADS, write_seeded_mesh  # noqa: E402

# every run must end within 180 s of its start: no operation starts after
# LAST_START_S and none runs past OP_DEADLINE_S
LAST_START_S = 100.0
OP_DEADLINE_S = 170.0

END_TO_END = {"time_to_solution_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "solution_error": "1"}

# Host speed.  On a shared host the CPU a worker runs on slows down and
# speeds up by tens of percent over minutes, with the load other tenants
# put on the core under it.  A sampler pinned to the worker's CPU times a
# fixed Python loop, in CPU time so that the worker's share of the CPU
# does not count, every 0.1 s while the operation runs; the end-to-end
# times are reported in seconds at the speed at which that loop takes
# REF_LOOP_S, i.e. scaled by REF_LOOP_S / (median loop time).  A sampler on
# the other CPU does not track the operation (see README.md).
CPU = max(os.sched_getaffinity(0))
REF_LOOP_S = 1.5e-3
SAMPLER = """
import time
def loop():
    t = time.thread_time()
    s = 0
    for i in range(20000):
        s += i * i
    return time.thread_time() - t
while True:
    print(loop(), flush=True)
    time.sleep(0.1)
"""
SPEED_SCALED = ("time_to_solution_s", "cpu_s", "setup_s")

# per-layer metric -> (span names, field of layer_totals)
PER_LAYER = {
    "mesh.io_read_s": (("mesh.io_read",), "self_s"),
    "mesh.n_cells": (("mesh.io_read",), "n_cells"),
    "dofmap.build_s": (("dofmap.build",), "self_s"),
    "dofmap.calls": (("dofmap.build",), "calls"),
    "simplex.bezier_eval.assembly_s": (("simplex.bezier_eval.assembly",), "self_s"),
    "simplex.bezier_eval.assembly_calls": (("simplex.bezier_eval.assembly",), "calls"),
    "simplex.bezier_eval.dirichlet_s": (("simplex.bezier_eval.dirichlet",), "self_s"),
    "simplex.bezier_eval.dirichlet_calls": (("simplex.bezier_eval.dirichlet",), "calls"),
    "nedelec.eval_vector_shapes.assembly_s":
        (("nedelec.eval_vector_shapes.assembly",), "self_s"),
    "nedelec.eval_vector_shapes.assembly_calls":
        (("nedelec.eval_vector_shapes.assembly",), "calls"),
    "nedelec.eval_vector_shapes.dirichlet_s":
        (("nedelec.eval_vector_shapes.dirichlet",), "self_s"),
    "nedelec.eval_vector_shapes.dirichlet_calls":
        (("nedelec.eval_vector_shapes.dirichlet",), "calls"),
    "assembly.assemble_s": (("assembly.assemble",), "self_s"),
    "assembly.nnz": (("assembly.assemble",), "nnz"),
    "assembly.n_dofs": (("assembly.assemble",), "n_dofs"),
    "assembly.matrix_at_s": (("assembly.matrix_at",), "self_s"),
    "dirichlet.h1_s": (("dirichlet.h1",), "self_s"),
    "dirichlet.hcurl_s": (("dirichlet.hcurl",), "self_s"),
    "dirichlet.n_constrained": (("dirichlet.h1", "dirichlet.hcurl"), "n_constrained"),
    "solver.splu_s": (("solver.splu",), "self_s"),
    "solver.splu_calls": (("solver.splu",), "calls"),
    "solver.lu_fill": (("solver.splu",), "lu_fill"),
    "solver.n_free": (("solver.splu",), "n_free"),
    "solver.solve_s": (("solver.solve",), "self_s"),
    "solver.cg_s": (("solver.cg",), "self_s"),
    "solver.cg_calls": (("solver.cg",), "calls"),
    "post.l2_error_s": (("post.l2_error",), "self_s"),
    "post.sample_line_s": (("post.sample_line",), "self_s"),
    "benchmarks.cauchy_bound_s": (("benchmarks.cauchy_bound",), "self_s"),
    "benchmarks.self_s": ((ROOT_SPAN,), "self_s"),
}
# per-layer metric -> counter of the workload's check (0 where it has none)
CHECK_COUNTERS = {"check.upper_bound_ratio": "upper_bound_ratio"}
# derived from whole operations rather than from one layer's spans
TRACE_ONLY = ("trace.driver_s", "trace.overhead_s", *CHECK_COUNTERS)


def unit(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    return "1" if name in CHECK_COUNTERS else "count"


def git_sha():
    """HEAD of the source tree, or "unknown" where it is no git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(seed):
    return {"git_sha": git_sha(), "nproc": os.cpu_count(), "cpu": CPU,
            "seed": seed,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "pinned_env": PINNED_ENV}


def child_env():
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def _pin():
    os.sched_setaffinity(0, {CPU})


def run_op(workload, seed, mesh_path, tmp, index, timeout, spans_path=None):
    """One driver call in a fresh worker, pinned with the speed sampler to
    one CPU; failures come back as records.  ``speed`` is the factor that
    takes the worker's times to the reference speed."""
    out_path = tmp / f"op{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload.name, str(seed),
           str(mesh_path), str(out_path)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    sampler = subprocess.Popen([sys.executable, "-c", SAMPLER], cwd=ROOT,
                               stdout=subprocess.PIPE, text=True,
                               preexec_fn=_pin)
    loops = []
    try:
        # the worker starts once the sampler has, so that the sampler's own
        # start-up does not share the CPU with the worker's set-up
        loops.append(sampler.stdout.readline())
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, preexec_fn=_pin,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "failures": [f"timed out after {timeout:.0f} s"]}
    finally:
        sampler.terminate()
        loops += sampler.communicate(timeout=30)[0].split()
    if proc.returncode != 0 or not out_path.is_file():
        sys.stderr.write(proc.stderr[-4000:])
        return {"ok": False,
                "failures": [f"worker exited with code {proc.returncode}"]}
    rec = json.loads(out_path.read_text())
    rec["speed"] = REF_LOOP_S / statistics.median(float(t) for t in loops)
    return rec


def scaled(rec, name):
    """End-to-end metric ``name`` of one operation, at the reference speed."""
    return rec[name] * rec["speed"] if name in SPEED_SCALED else rec[name]


def layer_metrics(spans_path, traced):
    """Per-layer metrics of one traced operation, but trace.overhead_s,
    which compares the run's traced and untraced operations."""
    data = json.loads(Path(spans_path).read_text())
    totals = layer_totals(data["spans"])
    metrics = {}
    for name, (span_names, field) in PER_LAYER.items():
        metrics[name] = sum(totals.get(s, {}).get(field, 0) for s in span_names)
    root = next(s for s in data["spans"] if s["parent"] is None)
    metrics["trace.driver_s"] = root["end"] - root["start"]
    for name, counter in CHECK_COUNTERS.items():
        metrics[name] = traced["counters"].get(counter, 0.0)
    absent = sorted(name for name, (span_names, _) in PER_LAYER.items()
                    if all(s in data["absent"] for s in span_names))
    return metrics, absent


def measure(workload, seed, seconds, trace, tmp):
    """Closed loop of operations; returns (attempted, failed, metrics, absent)."""
    from mmfem import benchmarks
    run_start = time.perf_counter()
    mesh_path = tmp / "mesh.json"
    write_seeded_mesh(workload.mesh(benchmarks), seed, mesh_path)

    start = time.perf_counter()
    ok, layers, absent, attempted, failed = [], [], [], 0, 0

    def op(spans_path=None):
        nonlocal attempted, failed
        attempted += 1
        rec = run_op(workload, seed, mesh_path, tmp, attempted,
                     OP_DEADLINE_S - (time.perf_counter() - run_start),
                     spans_path)
        status = "ok" if rec["ok"] else "FAILED " + "; ".join(rec["failures"])
        kind = "traced" if spans_path else "plain"
        print(f"op {attempted} ({kind}): {status}"
              + (f", {rec['time_to_solution_s']:.4f} s wall, host speed "
                 f"{rec['speed']:.3f}" if rec["ok"] else ""))
        if not rec["ok"]:
            failed += 1
        return rec

    # an operation starts only if one more cycle, as long as the median
    # cycle so far, ends within --seconds, so that a run keeps its length
    # however slow the host
    cycles = []
    while attempted == 0 or (
            time.perf_counter() - start + statistics.median(cycles) <= seconds
            and time.perf_counter() - run_start < LAST_START_S):
        cycle_start = time.perf_counter()
        plain = op()
        if plain["ok"]:
            ok.append(plain)
        if trace:
            spans_path = WORK / f"spans-{workload.name}-seed{seed}.json"
            traced = op(spans_path)
            if traced["ok"]:
                m, absent = layer_metrics(spans_path, traced)
                layers.append((m, scaled(traced, "time_to_solution_s")))
        cycles.append(time.perf_counter() - cycle_start)

    if trace:
        metrics = {}
        if layers and ok:
            # the traced operation of median driver time, whole, so that
            # its self times add up to its trace.driver_s
            layers.sort(key=lambda entry: entry[0]["trace.driver_s"])
            metrics = layers[(len(layers) - 1) // 2][0]
            metrics["trace.overhead_s"] = (
                statistics.median(t for _, t in layers)
                - statistics.median(scaled(r, "time_to_solution_s")
                                    for r in ok))
    else:
        metrics = {n: statistics.median(scaled(r, n) for r in ok)
                   for n in END_TO_END} if ok else {}
    return attempted, failed, metrics, absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mmfem" / "benchmarks.py").is_file():
        print(f"perfbench: no mmfem source tree at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    print(f"perfbench: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(environment(args.seed)))

    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        attempted, failed, metrics, absent = measure(
            workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for name, value in metrics.items():
        mark = "  (absent)" if name in absent else ""
        print(f"  {name:44s} {value:>16.6g} {unit(name)}{mark}")
    print(f"attempted={attempted} failed={failed}")
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": v, "unit": unit(n)}
                          for n, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
