from math import comb

import numpy as np
import pytest

from mmfem.bernstein import eval_all
from oracles import eval_single
from mmfem.errors import DomainError


def closed_form(p, i, xi):
    return comb(p, i) * xi ** i * (1.0 - xi) ** (p - i)


def test_vertex_values():
    be = eval_all(2, 0.0)
    np.testing.assert_allclose(be.values, [1.0, 0.0, 0.0])


def test_midpoint_degree_two():
    be = eval_all(2, 0.5)
    np.testing.assert_allclose(be.values, [0.25, 0.5, 0.25], atol=1e-15)


def test_limit_at_one():
    be = eval_all(4, 1.0)
    np.testing.assert_allclose(be.values, [0, 0, 0, 0, 1])
    np.testing.assert_allclose(be.derivs, [0, 0, 0, -4, 4])


@pytest.mark.parametrize("p", range(13))
def test_recursion_matches_closed_form(p):
    rng = np.random.default_rng(p)
    xs = rng.uniform(0.0, 1.0, 200)
    be = eval_all(p, xs)
    for i in range(p + 1):
        np.testing.assert_allclose(be.values[:, i], closed_form(p, i, xs),
                                   atol=1e-12)


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_partition_of_unity_and_bounds(p):
    rng = np.random.default_rng(42)
    xs = rng.uniform(0.0, 1.0, 100)
    be = eval_all(p, xs)
    np.testing.assert_allclose(be.values.sum(axis=1), 1.0, atol=1e-13)
    assert np.all(be.values >= -1e-15)
    assert np.all(be.values <= 1.0 + 1e-15)
    assert np.abs(be.derivs.sum(axis=1)).max() <= 1e-11 * p


def test_symmetry():
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 1.0, 50)
    for p in (2, 5, 9):
        a = eval_all(p, xs).values
        b = eval_all(p, 1.0 - xs).values
        np.testing.assert_allclose(a, b[:, ::-1], atol=1e-13)


def test_collocation_matrix_nonsingular():
    # linear independence at p+1 distinct interior points
    for p in (1, 3, 6, 10):
        xs = np.linspace(0.08, 0.92, p + 1)
        mat = eval_all(p, xs).values
        assert np.linalg.matrix_rank(mat) == p + 1


def test_eval_single_values_and_derivatives():
    d = eval_single(1, 0, 0.3)
    assert abs(d.val - 0.7) < 1e-15
    assert abs(d.der + 1.0) < 1e-15
    d = eval_single(3, 3, 1.0)
    assert (d.val, d.der) == (1.0, 3.0)
    d = eval_single(0, 0, 0.77)
    assert (d.val, d.der) == (1.0, 0.0)


def test_eval_single_index_error():
    with pytest.raises(IndexError):
        eval_single(2, 3, 0.5)


def test_domain_error():
    with pytest.raises(DomainError):
        eval_all(2, -0.01)
    with pytest.raises(DomainError):
        eval_all(2, 1.01)
    with pytest.raises(DomainError):
        eval_all(2, [0.5, np.nan])


def test_derivatives_match_closed_form_derivative():
    rng = np.random.default_rng(8)
    xs = rng.uniform(0.02, 0.98, 60)
    h = 1e-7
    for p in (1, 4, 7):
        be = eval_all(p, xs)
        for i in range(p + 1):
            fd = (closed_form(p, i, xs + h) - closed_form(p, i, xs - h)) / (2 * h)
            np.testing.assert_allclose(be.derivs[:, i], fd, atol=1e-5)
