"""The failure contract: every raise in the library is a typed MMFemError."""

import ast
import pathlib
import re

import numpy as np
import pytest
import scipy.sparse as sp

import mmfem
from mmfem.assembly import SparseSystem
from mmfem.dofmap import FieldLayout, build_dofmap
from mmfem.errors import MMFemError, NonConvergence
from mmfem.mesh import generate_box
from mmfem.nedelec import SpaceDescriptor
from mmfem.solver import RESIDUAL_TOL, solve

SRC = pathlib.Path(mmfem.__file__).parent


def _error_classes():
    tree = ast.parse((SRC / "errors.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def _raised_names(path):
    """(line, name) of each raise in ``path``; name None for a raise that
    is neither bare nor ``raise Name(...)``/``raise Name``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        yield node.lineno, exc.id if isinstance(exc, ast.Name) else None


def test_every_raise_is_a_library_error():
    known = _error_classes()
    assert "MMFemError" in known
    untyped = [f"{path.name}:{line} raises {name}"
               for path in sorted(SRC.glob("*.py"))
               for line, name in _raised_names(path) if name not in known]
    assert not untyped, untyped


def test_error_classes_derive_from_base():
    import mmfem.errors as errors
    for name in _error_classes():
        assert issubclass(getattr(errors, name), MMFemError), name


def test_ill_conditioned_spd_system_raises_non_convergence():
    # cond(K) = 1e12: the residual floor eps ||K|| ||x|| / ||b|| lies far
    # above the tolerance, so no solve in working precision reaches it
    mesh = generate_box(((0, 1), (0, 1)), 1)
    space = SpaceDescriptor("h1", 1, 2)
    fields = {"u": FieldLayout("u", space, build_dofmap(mesh, space), 1, 0)}
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    K = q @ np.diag(np.logspace(0.0, -12.0, 4)) @ q.T
    K = 0.5 * (K + K.T)
    assert np.linalg.eigvalsh(K).min() > 0.0
    system = SparseSystem(matrix=sp.tril(K, format="csr"), rhs=np.ones(4),
                          fields=fields, mesh=mesh)
    with pytest.raises(NonConvergence, match="4 free dofs") as exc:
        solve(system)
    residual = re.search(r"relative residual (\S+) > ", str(exc.value))
    assert residual and float(residual.group(1)) > RESIDUAL_TOL
