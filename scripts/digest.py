"""Digests of the program's numbering, systems and results, to compare two
checkouts bitwise.

Prints one line ``name sha256`` per item, the hash taken over an array's
dtype, shape and bytes (other values over their repr):

* ``dofmap.local_entities`` of every space with p <= 8 (H1, N-I, N-II in
  2D and 3D) and ``nedelec._terms`` of every H(curl) one;
* ``cell_dofs`` of every field on the seed-0 mesh of each benchmark
  workload (``perfbench/workloads.py``);
* the systems those workloads assemble (``matrix``, ``c_matrix``,
  ``rhs``, ``lift``, ``group``);
* the workload drivers' results, without ``stages`` and byte counts.

There is no timing and no gate: run it once per checkout and ``diff``
the outputs, an empty diff being "bitwise the same".

    PYTHONPATH=src python scripts/digest.py > digest.txt

The three drivers run once each, a few seconds in all.
"""

import hashlib
import pathlib
import sys
import tempfile

import numpy as np
import scipy.sparse as sp

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

from mmfem import benchmarks as b                                   # noqa: E402
from mmfem.assembly import assemble_antiplane, assemble_full3d      # noqa: E402
from mmfem.dofmap import local_entities                             # noqa: E402
from mmfem.mesh import io_read                                      # noqa: E402
from mmfem.nedelec import SpaceDescriptor, _terms                   # noqa: E402
from workloads import WORKLOADS, write_seeded_mesh                  # noqa: E402

MIN_DEGREE = {"h1": 1, "nedelec1": 0, "nedelec2": 1}


def _sha(value):
    arr = np.asarray(value) if not isinstance(value, (str, type(None))) else None
    if arr is not None and arr.dtype.kind in "biufc":
        arr = np.ascontiguousarray(arr)
        data = f"{arr.dtype.str} {arr.shape} ".encode() + arr.tobytes()
    else:
        data = repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def emit(name, value):
    """Print the digest of ``value``, recursing into dicts, lists of
    dicts and sparse matrices."""
    if isinstance(value, dict):
        for key in sorted(value):
            emit(f"{name}.{key}", value[key])
    elif isinstance(value, (list, tuple)) and any(isinstance(v, dict) for v in value):
        for n, v in enumerate(value):
            emit(f"{name}[{n}]", v)
    elif sp.issparse(value):
        csr = value.tocsr()
        for part in ("data", "indices", "indptr"):
            emit(f"{name}.{part}", getattr(csr, part))
    else:
        print(name, _sha(value))


def spaces():
    for dim in (2, 3):
        for family, lo in MIN_DEGREE.items():
            for p in range(lo, 9):
                yield SpaceDescriptor(family, p, dim)


def systems(name, cfg, mesh):
    """The systems the driver of workload ``name`` assembles on ``mesh``."""
    p, family = cfg.p, cfg.family
    if name == "antiplane-fine":
        yield "system", assemble_antiplane(
            mesh, cfg.material_override(b.antiplane_params()),
            SpaceDescriptor("h1", p + 1, 2), SpaceDescriptor(family, p, 2),
            f=b.anti_load_f, m=b.anti_load_m,
            dirichlet=(mesh.tagged_facets("boundary"), b.anti_exact_u,
                       b.anti_exact_grad_u))
    elif name == "bending-p2":
        facets = np.concatenate([mesh.tagged_facets("x-"), mesh.tagged_facets("x+")])
        yield "system", assemble_full3d(
            mesh, cfg.material_override(b.bending_params()),
            SpaceDescriptor("h1", p + 1, 3), SpaceDescriptor(family, p, 3),
            dirichlet=(facets, b.bending_u, b.bending_grad_u))
    else:
        yield "sweep", b.sweep_system(mesh, cfg.material_override(b.sweep_params(1.0)),
                                      p, family)
        yield "bound", b.cauchy_system(mesh, cfg.bound_degree)


def without_bytes(result):
    if isinstance(result, dict):
        return {k: without_bytes(v) for k, v in result.items()
                if k != "stages" and not k.endswith("_bytes")}
    if isinstance(result, (list, tuple)) and any(isinstance(v, dict) for v in result):
        return [without_bytes(v) for v in result]
    return result


def main():
    for space in spaces():
        tag = f"{space.family}.p{space.degree}.d{space.dim}"
        emit(f"local_entities.{tag}", np.array(local_entities(space)))
        if space.family != "h1":
            for n, part in enumerate(_terms(space)):
                emit(f"terms.{tag}[{n}]", part)
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            path = pathlib.Path(tmp) / f"{name}.json"
            write_seeded_mesh(workload.mesh(b), 0, path)
            cfg = b.BenchConfig(mesh_path=str(path), **workload.config)
            mesh = io_read(path)
            for label, system in systems(name, cfg, mesh):
                for field, layout in system.fields.items():
                    emit(f"{name}.{label}.cell_dofs.{field}", layout.dofmap.cell_dofs)
                for part in ("matrix", "c_matrix", "rhs", "lift", "group"):
                    emit(f"{name}.{label}.{part}", getattr(system, part))
            emit(f"{name}.result", without_bytes(getattr(b, workload.driver)(cfg)))


if __name__ == "__main__":
    main()
