from math import factorial

import numpy as np
import pytest

from mmfem.errors import UnsupportedDegree
from mmfem.quadrature import rule_for


def exact_monomial(dim, exps):
    """Analytic simplex integral of xi^a eta^b (zeta^c)."""
    num = 1
    for e in exps:
        num *= factorial(e)
    return num / factorial(sum(exps) + dim)


def integrate(rule, exps):
    pts = rule.simplex_points
    vals = np.ones(len(pts))
    for d, e in enumerate(exps):
        vals = vals * pts[:, d] ** e
    return float(rule.weights @ vals)


def test_constant_integrals():
    assert abs(integrate(rule_for(2, 1), (0, 0)) - 0.5) < 1e-15
    assert abs(integrate(rule_for(3, 1), (0, 0, 0)) - 1.0 / 6.0) < 1e-15


def test_bilinear_integral():
    # integral of xi*eta over the triangle = 1/24
    assert abs(integrate(rule_for(2, 2), (1, 1)) - 1.0 / 24.0) < 1e-15


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", list(range(1, 21)))
def test_monomial_exactness(dim, degree):
    rule = rule_for(dim, degree)
    for total in range(degree + 1):
        for a in range(total + 1):
            rest = total - a
            if dim == 2:
                exps_list = [(a, rest)]
            else:
                exps_list = [(a, b, rest - b) for b in range(rest + 1)]
            for exps in exps_list:
                exact = exact_monomial(dim, exps)
                got = integrate(rule, exps)
                assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact)), \
                    (dim, degree, exps, got, exact)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [1, 2, 5, 8, 13, 20])
def test_random_polynomial_exactness(dim, degree):
    rng = np.random.default_rng(degree * dim)
    rule = rule_for(dim, degree)
    exps_all = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)] \
        if dim == 2 else \
        [(a, b, c) for a in range(degree + 1) for b in range(degree + 1 - a)
         for c in range(degree + 1 - a - b)]
    coeffs = rng.uniform(-1, 1, len(exps_all))
    got = sum(c * integrate(rule, e) for c, e in zip(coeffs, exps_all))
    exact = sum(c * exact_monomial(dim, e) for c, e in zip(coeffs, exps_all))
    assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", list(range(1, 21)))
def test_weights_positive_points_interior(dim, degree):
    rule = rule_for(dim, degree)
    assert np.all(rule.weights > 0)
    measure = 0.5 if dim == 2 else 1.0 / 6.0
    assert abs(rule.weights.sum() - measure) < 1e-13
    pts = rule.simplex_points
    assert np.all(pts > 0)
    assert np.all(pts.sum(axis=1) < 1.0)


def test_unsupported_degree():
    with pytest.raises(UnsupportedDegree):
        rule_for(2, 0)
    with pytest.raises(UnsupportedDegree):
        rule_for(3, 21)
    with pytest.raises(UnsupportedDegree):
        rule_for(4, 2)
