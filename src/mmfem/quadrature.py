"""Interior-point quadrature on the reference triangle and tetrahedron.

Rules hold their points in reference simplex coordinates, which is what
the basis evaluators take.  Low degrees use tabulated symmetric rules
with strictly interior points and positive weights; beyond the tables a
tensorized Gauss-Legendre rule on the collapsed square/cube is mapped
onto the simplex, with the collapse Jacobian (1-alpha in 2D,
(1-alpha)²(1-beta) in 3D) folded into the weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnsupportedDegree
from .simplex import duffy_forward

MAX_DEGREE = 20


@dataclass(frozen=True)
class QuadratureRule:
    dim: int
    degree: int
    weights: np.ndarray         # (n,), sum = 1/2 (tri) or 1/6 (tet)
    simplex_points: np.ndarray  # (n, dim) reference simplex coordinates


def _orbit3(a):
    """Symmetric 3-orbit of barycentric (a, a, 1-2a) on the triangle."""
    c = 1.0 - 2.0 * a
    return [(a, a), (c, a), (a, c)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(a, b), (b, a), (a, c), (c, a), (b, c), (c, b)]


def _tri_table(degree):
    """Tabulated symmetric triangle rules (simplex coords, weights sum 1/2)."""
    if degree <= 1:
        return [(1.0 / 3.0, 1.0 / 3.0)], [0.5]
    if degree == 2:
        return _orbit3(1.0 / 6.0), [1.0 / 6.0] * 3
    if degree <= 4:
        pts = _orbit3(0.445948490915965) + _orbit3(0.091576213509771)
        w = [0.111690794839005] * 3 + [0.054975871827661] * 3
        return pts, w
    if degree == 5:
        s15 = np.sqrt(15.0)
        pts = ([(1.0 / 3.0, 1.0 / 3.0)]
               + _orbit3((6.0 + s15) / 21.0) + _orbit3((6.0 - s15) / 21.0))
        w = ([9.0 / 80.0]
             + [(155.0 + s15) / 2400.0] * 3 + [(155.0 - s15) / 2400.0] * 3)
        return pts, w
    if degree == 6:
        pts = (_orbit3(0.063089014491502) + _orbit3(0.249286745170910)
               + _orbit6(0.053145049844817, 0.310352451033784))
        w = ([0.025422453185104] * 3 + [0.058393137863190] * 3
             + [0.041425537809187] * 6)
        return pts, w
    return None


def _tet_table(degree):
    """Tabulated symmetric tetrahedron rules (simplex coords, weights sum 1/6)."""
    if degree <= 1:
        return [(0.25, 0.25, 0.25)], [1.0 / 6.0]
    if degree == 2:
        a = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
        b = (5.0 - np.sqrt(5.0)) / 20.0
        pts = [(a, b, b), (b, a, b), (b, b, a), (b, b, b)]
        return pts, [1.0 / 24.0] * 4
    return None


def _gauss01(n):
    """Gauss-Legendre nodes/weights shifted to (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _tensor_rule(dim, degree):
    if dim == 2:
        na = -(-(degree + 2) // 2)  # the (1-alpha) Jacobian raises the alpha degree
        nb = -(-(degree + 1) // 2)
        xa, wa = _gauss01(na)
        xb, wb = _gauss01(nb)
        A, B = np.meshgrid(xa, xb, indexing="ij")
        WA, WB = np.meshgrid(wa, wb, indexing="ij")
        pts = np.stack([A.ravel(), B.ravel()], axis=1)
        w = (WA * WB * (1.0 - A)).ravel()
        return pts, w
    na = -(-(degree + 3) // 2)
    nb = -(-(degree + 2) // 2)
    nc = -(-(degree + 1) // 2)
    xa, wa = _gauss01(na)
    xb, wb = _gauss01(nb)
    xc, wc = _gauss01(nc)
    A, B, C = np.meshgrid(xa, xb, xc, indexing="ij")
    WA, WB, WC = np.meshgrid(wa, wb, wc, indexing="ij")
    pts = np.stack([A.ravel(), B.ravel(), C.ravel()], axis=1)
    w = (WA * WB * WC * (1.0 - A) ** 2 * (1.0 - B)).ravel()
    return pts, w


@lru_cache(maxsize=None)
def rule_for(dim: int, degree: int) -> QuadratureRule:
    """Rule exact for total degree <= ``degree`` on the reference simplex."""
    if dim not in (2, 3):
        raise UnsupportedDegree(f"dim must be 2 or 3, got {dim}")
    if not 1 <= degree <= MAX_DEGREE:
        raise UnsupportedDegree(f"degree {degree} outside 1..{MAX_DEGREE}")

    table = _tri_table(degree) if dim == 2 else _tet_table(degree)
    if table is not None:
        simplex_pts = np.asarray(table[0], dtype=float)
        weights = np.asarray(table[1], dtype=float)
        if not np.all(weights > 0.0):
            raise UnsupportedDegree("tabulated rule with non-positive weight rejected")
    else:
        points, weights = _tensor_rule(dim, degree)
        simplex_pts = duffy_forward(points)
    return QuadratureRule(dim, degree, weights, simplex_pts)
