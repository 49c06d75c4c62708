"""Spans recorded from outside the program, around the calls into each layer.

The traced worker replaces the functions named in ``TARGETS`` by wrappers
that record a span (name, start, end, parent) and a few counters taken
from the arguments or the result.  Spans stay in memory and are written
out when the worker ends; ``layer_totals`` then derives self times.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import json
import time


def _n_cells(attrs, args, mesh):
    attrs["n_cells"] = int(mesh.n_cells)


def _system(attrs, args, system):
    attrs["nnz"] = int(system.matrix.nnz)
    attrs["n_dofs"] = int(system.n_dofs)


def _constraints(attrs, args, cons):
    attrs["n_constrained"] = len(cons)


def _factor(attrs, args, lu):
    attrs["n_free"] = int(args[0].shape[0])
    attrs["lu_fill"] = int(lu.nnz)


# (module, attribute pattern, span name, counter observer).  Functions are
# wrapped where the caller looks them up: the drivers call layers through
# names imported into mmfem.benchmarks, the assembler and the Dirichlet
# embedding import the basis evaluators by name, and the solver looks up
# splu and cg on scipy.sparse.linalg at call time.
TARGETS = (
    ("mmfem.benchmarks", "io_read", "mesh.io_read", _n_cells),
    ("mmfem.benchmarks", "assemble_*", "assembly.assemble", _system),
    ("mmfem.benchmarks", "h1_dirichlet", "dirichlet.h1", _constraints),
    ("mmfem.benchmarks", "hcurl_dirichlet", "dirichlet.hcurl", _constraints),
    ("mmfem.benchmarks", "solve", "solver.solve", None),
    ("mmfem.benchmarks", "sample_line", "post.sample_line", None),
    ("mmfem.benchmarks", "l2_error_*", "post.l2_error", None),
    ("mmfem.benchmarks", "rot_l2_norm", "post.l2_error", None),
    ("mmfem.benchmarks", "cauchy_bound_energy", "benchmarks.cauchy_bound", None),
    ("mmfem.assembly", "build_dofmap", "dofmap.build", None),
    ("mmfem.assembly", "SparseSystem.matrix_at", "assembly.matrix_at", None),
    ("mmfem.assembly", "bezier_eval", "simplex.bezier_eval.assembly", None),
    ("mmfem.dirichlet", "bezier_eval", "simplex.bezier_eval.dirichlet", None),
    ("mmfem.assembly", "eval_vector_shapes",
     "nedelec.eval_vector_shapes.assembly", None),
    ("mmfem.dirichlet", "eval_vector_shapes",
     "nedelec.eval_vector_shapes.dirichlet", None),
    ("scipy.sparse.linalg", "splu", "solver.splu", _factor),
    ("scipy.sparse.linalg", "cg", "solver.cg", None),
)

ROOT_SPAN = "driver"


class Tracer:
    """In-memory span recorder with one parent stack, rooted at the first
    span opened (the driver call).  Tracing assumes MM_FEM_THREADS=1, so
    that no spans overlap."""

    def __init__(self):
        self.spans = []      # dicts: name, start, end, parent, attrs
        self._stack = []     # indices of the open spans

    def open(self, name):
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "attrs": {}}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(span["attrs"], args, result)
            finally:
                self.close(span)
            return result
        return traced

    def install(self):
        """Wrap every target that exists; return the span names of which
        no target was found."""
        found = {}
        for module_name, pattern, span_name, observe in TARGETS:
            found.setdefault(span_name, False)
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_path, _, attr_pattern = pattern.rpartition(".")
            if owner_path:
                owner = getattr(owner, owner_path, None)
                if owner is None:
                    continue
            for attr in fnmatch.filter(list(vars(owner)), attr_pattern):
                fn = getattr(owner, attr)
                if callable(fn):
                    setattr(owner, attr, self.wrap(fn, span_name, observe))
                    found[span_name] = True
        return sorted(name for name, ok in found.items() if not ok)

    def dump(self, path, absent):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": absent}, fh)


def layer_totals(spans):
    """Per span name: summed self time, call count and summed counters.

    A span's self time is its duration minus that of its children, so the
    self times of all spans add up to the root span's duration.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    totals = {}
    for i, span in enumerate(spans):
        t = totals.setdefault(span["name"], {"self_s": 0.0, "calls": 0})
        t["self_s"] += span["end"] - span["start"] - child[i]
        t["calls"] += 1
        for key, value in span["attrs"].items():
            t[key] = t.get(key, 0) + value
    return totals
