"""Time ``cholesky.analyse`` on the benchmark's systems, step by step.

The systems are the stored patterns (and supervariable labels) that the
solver analyses: ``antiplane-fine`` at seeds 0-3 and ``bending-p2`` at
seed 0 (the meshes of ``perfbench/workloads.py``), ``lc-sweep-16``'s
sweep and degree-6 Cauchy systems, acceptance criterion 8's sweep and
Cauchy systems (p = 3 N-I on the refine-1 cube), and a few random
block-patterned triangles analysed without labels.  With ``--cache DIR``
each system is read from ``DIR/<name>.npz`` where present and written
there otherwise, so two checkouts time the very same patterns.

For each system it runs ``analyse`` once warm, then ``--repeat`` timed
runs, with every helper of ``mmfem.cholesky`` that the checkout has
wrapped from outside (inclusive seconds, the median over the runs).  It
prints one JSON line per system: its size, the medians, the traced peak
of one more run above the arrays it keeps, and a SHA-256 digest of the
``Symbolic`` (perm, dst with its dtype, size, nnz, supernodes,
update_peak, and every group's offset, k, n, rows, flat and blocks), so
that the analyses of two checkouts are compared by comparing digests.
There is no timing gate.

    PYTHONPATH=src python scripts/time_analysis.py --cache /tmp/systems
    PYTHONPATH=src python scripts/time_analysis.py --only antiplane-fine-s0

About 25 s for the first run on a 2-core machine, most of it building
criterion 8's systems (its sweep system has 13.6 M stored entries;
``--skip-large`` leaves its two systems out).
"""

import argparse
import hashlib
import json
import os
import sys
import time
import tracemalloc

import numpy as np
import scipy.sparse as sp

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from mmfem import benchmarks as b, cholesky  # noqa: E402
from mmfem.assembly import assemble_antiplane, assemble_full3d  # noqa: E402
from mmfem.dofmap import SpaceDescriptor  # noqa: E402
from mmfem.mesh import io_read  # noqa: E402
from perfbench.workloads import WORKLOADS, write_seeded_mesh  # noqa: E402

# helpers of either checkout (the older one also has ``_etree``)
HELPERS = ("_supervariables", "_quotient_factor", "_postorder", "_etree",
           "_supernodes", "_amalgamate", "_runs", "_update_peak")
LARGE = ("criterion8-sweep", "criterion8-cauchy")


def _workload_mesh(name, seed, tmp):
    path = os.path.join(tmp, f"{name}-{seed}.json")
    write_seeded_mesh(WORKLOADS[name].mesh(b), seed, path)
    return io_read(path)


def _antiplane(seed, tmp):
    mesh = _workload_mesh("antiplane-fine", seed, tmp)
    return assemble_antiplane(
        mesh, b.antiplane_params(), SpaceDescriptor("h1", 3, 2),
        SpaceDescriptor("nedelec2", 2, 2), f=b.anti_load_f, m=b.anti_load_m,
        dirichlet=(mesh.tagged_facets("boundary"), b.anti_exact_u,
                   b.anti_exact_grad_u))


def _bending(tmp):
    mesh = _workload_mesh("bending-p2", 0, tmp)
    facets = np.concatenate([mesh.tagged_facets("x-"), mesh.tagged_facets("x+")])
    return assemble_full3d(mesh, b.bending_params(), SpaceDescriptor("h1", 3, 3),
                           SpaceDescriptor("nedelec1", 2, 3),
                           dirichlet=(facets, b.bending_u, b.bending_grad_u))


def _block_pattern(widths, density, seed):
    """Lower triangle (canonical CSR) of a random node graph whose nodes
    are dense blocks of the given widths."""
    G = sp.random(len(widths), len(widths), density=density, random_state=seed,
                  format="csr")
    G = ((G + G.T + sp.eye(len(widths))) != 0).astype(float)
    node = np.repeat(np.arange(len(widths)), widths)
    E = sp.csr_matrix((np.ones(len(node)), (np.arange(len(node)), node)))
    return sp.tril(E @ G @ E.T, format="csr")


def _builders(tmp):
    """name -> function returning (triangle, label or None)."""
    def system(make):
        def build():
            s = make()
            return s.matrix, s.group
        return build

    out = {f"antiplane-fine-s{seed}": system(lambda seed=seed: _antiplane(seed, tmp))
           for seed in range(4)}
    out["bending-p2"] = system(lambda: _bending(tmp))
    for name, refine, p in (("lc-sweep-16", 0, 2), ("criterion8", 1, 3)):
        mesh = lambda refine=refine: b.sweep_mesh(refine)  # noqa: E731
        out[f"{name}-sweep"] = system(lambda mesh=mesh, p=p: b.sweep_system(
            mesh(), b.sweep_params(1.0), p, "nedelec1"))
        out[f"{name}-cauchy"] = system(lambda mesh=mesh: b.cauchy_system(mesh(), 6))
    for i, (widths, density) in enumerate((([1] * 60, 0.05), ([3] * 30, 0.3),
                                           ([30] * 20 + [3] * 10, 0.2),
                                           ([66, 3, 1, 66, 3, 1, 3, 3, 66, 1], 0.3))):
        out[f"bare-{i}"] = lambda w=widths, d=density, s=i: (_block_pattern(w, d, s), None)
    return out


def _load(name, build, cache):
    """(pattern as a CSR matrix with boolean data, label or None)."""
    path = os.path.join(cache, f"{name}.npz") if cache else None
    if path and os.path.exists(path):
        z = np.load(path)
        indptr, indices, n = z["indptr"], z["indices"], int(z["n"])
        label = z["label"] if "label" in z.files else None
    else:
        K, label = build()
        indptr, indices, n = K.indptr, K.indices, K.shape[0]
        del K
        if path:
            extra = {} if label is None else {"label": label}
            np.savez(path, indptr=indptr, indices=indices, n=n, **extra)
    K = sp.csr_matrix((np.ones(len(indices), dtype=bool), indices, indptr),
                      shape=(n, n))
    return K, label


def _digest(sym):
    h = hashlib.sha256()

    def add(a):
        if a is None:
            h.update(b"None")
        elif isinstance(a, np.ndarray):
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        else:
            h.update(repr(a).encode())

    for a in (sym.perm, sym.dst, sym.size, sym.nnz, sym.supernodes,
              sym.update_peak, len(sym.groups)):
        add(a)
    for g in sym.groups:
        for a in (g.offset, g.k, g.n, g.rows, g.flat is None, g.blocks):
            add(a)
        for a in g.flat or ():
            add(a)
    return h.hexdigest()


def _wrap_helpers(spent):
    for name in HELPERS:
        fn = getattr(cholesky, name, None)
        if fn is None:
            continue

        def timed(*args, _fn=fn, _name=name, **kwargs):
            t = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                spent[_name] = spent.get(_name, 0.0) + time.perf_counter() - t
        setattr(cholesky, name, timed)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--cache", help="directory of the systems' .npz files")
    ap.add_argument("--repeat", type=int, default=4)
    ap.add_argument("--only", action="append", help="system name (repeatable)")
    ap.add_argument("--skip-large", action="store_true",
                    help="leave criterion 8's systems out")
    args = ap.parse_args()
    if args.cache:
        os.makedirs(args.cache, exist_ok=True)
    tmp = args.cache or os.environ.get("TMPDIR", "/tmp")
    spent = {}
    _wrap_helpers(spent)
    for name, build in _builders(tmp).items():
        if (args.only and name not in args.only) or (args.skip_large and name in LARGE):
            continue
        K, label = _load(name, build, args.cache)
        sym = cholesky.analyse(K, label=label)
        runs = []
        for _ in range(args.repeat):
            spent.clear()
            t = time.perf_counter()
            cholesky.analyse(K, label=label)
            runs.append({"analyse": time.perf_counter() - t, **spent})
        tracemalloc.start()
        try:
            kept = cholesky.analyse(K, label=label)
            peak = tracemalloc.get_traced_memory()[1] - kept.nbytes
        finally:
            tracemalloc.stop()
        del kept
        print(json.dumps({
            "system": name, "n": K.shape[0], "nnz": int(K.nnz),
            "labels": label is not None, "digest": _digest(sym),
            "supernodes": sym.supernodes,
            "ms": {key: round(1e3 * float(np.median([r.get(key, 0.0) for r in runs])), 2)
                   for key in runs[0]},
            "peak_above_kept_mb": round(peak / 2 ** 20, 2)}), flush=True)
        del K, label, sym


if __name__ == "__main__":
    main()
