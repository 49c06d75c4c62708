"""hp-FEM library for the relaxed micromorphic model.

Bernstein-Bezier H1 bases and polytopal-template Nedelec H(curl) bases
on simplicial meshes, with dual-number forward differentiation, plus a
benchmark CLI (`bench`).
"""

from .dual import Dual, seed, constant
from .bernstein import BernsteinEval, eval_all
from .simplex import (MultiIndex2, MultiIndex3, Polytope, bezier_eval,
                      classify, traversal_order)
from .quadrature import QuadratureRule, rule_for
from .materials import MaterialParams
from .mesh import Mesh, generate_box, generate_disk, io_read, io_write

__all__ = [
    "Dual", "seed", "constant",
    "BernsteinEval", "eval_all",
    "MultiIndex2", "MultiIndex3", "Polytope", "bezier_eval", "classify",
    "traversal_order",
    "QuadratureRule", "rule_for",
    "MaterialParams",
    "Mesh", "generate_box", "generate_disk", "io_read", "io_write",
]
