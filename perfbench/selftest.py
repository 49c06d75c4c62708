"""Self-test of the benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]

Checks that
* BENCHMARK.json names the workloads and metrics run.py reports, with
  the same units;
* run.py fails, printing no result, in a directory that holds only the
  benchmark and no source tree;
* two traced operations with the same seed (1) give identical exact counters
  and solution_error, and their per-layer self times add up to the
  traced driver wall time.
Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, write_seeded_mesh


def check_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for key, names in (("end_to_end", list(run.END_TO_END)),
                       ("per_layer", list(run.PER_LAYER) + list(run.TRACE_ONLY))):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        reported = {n: run.unit(n) for n in names}
        if listed != reported:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(reported.items()))}")
    return problems


def check_fails_without_source():
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload",
             "lc-sweep-16", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py did not fail without a source tree"]
    return []


def check_repeatable(workload):
    seed = 1
    problems = []
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        tmp = Path(tmp)
        mesh_path = tmp / "mesh.json"
        from mmfem import benchmarks
        write_seeded_mesh(workload.mesh(benchmarks), seed, mesh_path)
        results = []
        for i in range(2):
            spans_path = tmp / f"spans{i}.json"
            rec = run.run_op(workload, seed, mesh_path, tmp, i,
                             run.OP_DEADLINE_S, spans_path)
            if not rec["ok"]:
                return [f"{workload.name}: operation failed: {rec['failures']}"]
            metrics, absent = run.layer_metrics(spans_path, rec)
            if absent:
                problems.append(f"{workload.name}: absent layers {absent}")
            covered = sum(v for k, v in metrics.items()
                          if k in run.PER_LAYER and k.endswith("_s"))
            if abs(covered - metrics["trace.driver_s"]) > 1e-6 * metrics["trace.driver_s"]:
                problems.append(f"{workload.name}: self times add up to "
                                f"{covered} s, driver took {metrics['trace.driver_s']} s")
            results.append((rec["solution_error"], metrics))
    (err0, m0), (err1, m1) = results
    if err0 != err1:
        problems.append(f"{workload.name}: solution_error {err0!r} != {err1!r}")
    for name in run.PER_LAYER:
        if run.unit(name) == "count" and m0[name] != m1[name]:
            problems.append(f"{workload.name}: {name} {m0[name]} != {m1[name]}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    run.WORK.mkdir(exist_ok=True)
    problems = check_names() + check_fails_without_source()
    for name in args.workloads or sorted(WORKLOADS):
        problems += check_repeatable(WORKLOADS[name])
    for problem in problems:
        print("FAIL:", problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
