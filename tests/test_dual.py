import numpy as np
import pytest

from mmfem.dual import Dual, constant, seed
from mmfem.errors import DivisionByZeroDual


def test_arithmetic_rules():
    a = Dual(2.0, 3.0)
    b = Dual(4.0, 5.0)
    assert (a + b) == Dual(6.0, 8.0)
    assert (a - b) == Dual(-2.0, -2.0)
    # product rule: (xy)' = x y' + x' y
    assert (a * b) == Dual(8.0, 22.0)
    q = a / b
    assert q.val == 0.5
    assert q.der == 3.0 / 4.0 - 2.0 * 5.0 / 16.0


def test_constant_division():
    q = Dual(1.0, 0.0) / Dual(2.0, 0.0)
    assert (q.val, q.der) == (0.5, 0.0)


def test_additive_identity():
    assert Dual(1.0, 1.0) + Dual(0.0, 0.0) == Dual(1.0, 1.0)


def test_seed_square():
    d = seed(3.0)
    y = d * d
    assert (y.val, y.der) == (9.0, 6.0)


def test_seed_product_rule_polynomial():
    # p(x) = x (1 - x) at 0: value 0, derivative 1
    x = seed(0.0)
    y = x * (1.0 - x)
    assert (y.val, y.der) == (0.0, 1.0)


def test_constant_has_zero_derivative():
    c = constant(7.5)
    assert (c.val, c.der) == (7.5, 0.0)
    y = seed(0.3) * 0.0 + c
    assert y.der == 0.0


def test_division_by_zero_value():
    with pytest.raises(DivisionByZeroDual):
        Dual(1.0, 1.0) / Dual(0.0, 1.0)
    with pytest.raises(DivisionByZeroDual):
        1.0 / Dual(0.0, 1.0)


def test_integer_powers():
    x = seed(2.0)
    y = x ** 4
    assert (y.val, y.der) == (16.0, 32.0)
    with pytest.raises(ValueError):
        x ** 0.5
    with pytest.raises(ValueError):
        x ** (-1)


def test_array_components():
    x = seed(np.array([0.25, 0.5]))
    y = (1.0 - x) * x
    np.testing.assert_allclose(y.val, [0.1875, 0.25])
    np.testing.assert_allclose(y.der, [0.5, 0.0])


def _poly_eval(coeffs, x):
    out = x * 0.0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def test_derivative_matches_central_differences():
    # random polynomials of degree <= 10 at 100 points in (0,1)
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(10):
        deg = rng.integers(1, 11)
        coeffs = rng.uniform(-2.0, 2.0, size=deg + 1)
        xs = rng.uniform(0.01, 0.99, size=100)
        for x in xs[:10]:
            d = _poly_eval(coeffs, seed(x))
            fd = (_poly_eval(coeffs, x + h) - _poly_eval(coeffs, x - h)) / (2 * h)
            assert abs(d.der - fd) <= 1e-6 * (1.0 + abs(fd))


def test_algebraic_identities_bitwise():
    # rewriting products/quotients must agree exactly, not just closely,
    # except where floating point reassociates
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = Dual(*rng.uniform(0.5, 2.0, 2))
        b = Dual(*rng.uniform(0.5, 2.0, 2))
        c = Dual(*rng.uniform(0.5, 2.0, 2))
        # associative only to rounding: positive terms, two (value) and
        # four (derivative) roundings a side
        left, right, eps = (a * b) * c, a * (b * c), np.finfo(float).eps
        assert abs(left.val - right.val) <= 2 * eps * right.val
        assert abs(left.der - right.der) <= 4 * eps * right.der
        assert a * b == b * a
        assert a + b == b + a
        assert (a - b) + b == Dual(a.val - b.val + b.val, a.der - b.der + b.der)
        q = a / b
        assert q == Dual(a.val / b.val,
                         a.der / b.val - a.val * b.der / (b.val * b.val))
