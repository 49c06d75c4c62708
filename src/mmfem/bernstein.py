"""Univariate Bernstein basis on the unit interval.

``eval_all`` runs the multiplicative recursion seeded at ``(1-xi)**p``
with dual-number arithmetic, so values and first derivatives of all
``p+1`` base functions come out of a single sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import seed
from .errors import DomainError

# Below this distance from xi = 1 the recursion (which divides by 1 - xi)
# is bypassed in favour of the exact limit values.
EPS_CLAMP = 1e-12


@dataclass
class BernsteinEval:
    """All degree-``p`` base functions at one or more points.

    ``values``/``derivs`` have shape ``(p+1,)`` for scalar input and
    ``(n, p+1)`` for an array of n points.
    """

    p: int
    values: np.ndarray
    derivs: np.ndarray


def eval_all(p: int, xi) -> BernsteinEval:
    """Evaluate b_0^p .. b_p^p and their derivatives at ``xi`` in [0, 1]."""
    if p < 0:
        raise DomainError(f"degree must be >= 0, got {p}")
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    scalar_in = np.isscalar(xi) or np.asarray(xi).ndim == 0
    if not np.all((xi_arr >= 0.0) & (xi_arr <= 1.0)):
        raise DomainError("xi outside [0, 1]")

    n = xi_arr.shape[0]
    values = np.empty((n, p + 1))
    derivs = np.empty((n, p + 1))

    clamped = xi_arr > 1.0 - EPS_CLAMP
    safe = np.where(clamped, 0.5, xi_arr)

    x = seed(safe)
    one_minus = 1.0 - x
    b = one_minus ** p
    values[:, 0] = b.val
    derivs[:, 0] = b.der
    if p > 0:
        ratio = x / one_minus
        for i in range(p):
            # correct binomial ratio b_{i+1}^p / b_i^p
            b = b * (((p - i) / (i + 1.0)) * ratio)
            values[:, i + 1] = b.val
            derivs[:, i + 1] = b.der

    if np.any(clamped):
        values[clamped] = 0.0
        values[clamped, p] = 1.0
        derivs[clamped] = 0.0
        if p >= 1:
            derivs[clamped, p] = p
            derivs[clamped, p - 1] = -p

    if scalar_in:
        return BernsteinEval(p, values[0], derivs[0])
    return BernsteinEval(p, values, derivs)
