import numpy as np
import pytest

from mmfem.errors import InvalidParam, SingularLimit
from mmfem.materials import MaterialParams, macro_from, meso_from
from oracles import apply_isotropic, apply_tensors


def test_symmetric_harmonic_mean():
    mu_macro, _ = macro_from(1.0, 0.0, 1.0, 0.0)
    assert abs(mu_macro - 0.5) < 1e-15


def test_reference_parameter_set():
    # meso parameters of the cube benchmark
    mu_macro, lam_macro = macro_from(1.25, 2.5, 5.0, 10.0)
    assert abs(mu_macro - 1.0) < 1e-12
    assert abs(lam_macro - 2.0) < 1e-12
    mu_e, lam_e = meso_from(1.0, 2.0, 5.0, 10.0)
    assert abs(mu_e - 1.25) < 1e-12
    assert abs(lam_e - 2.5) < 1e-12


def test_round_trip_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        mu_e, mu_micro = rng.uniform(0.2, 5.0, 2)
        lam_e, lam_micro = rng.uniform(0.0, 5.0, 2)
        mu_macro, lam_macro = macro_from(mu_e, lam_e, mu_micro, lam_micro)
        back = meso_from(mu_macro, lam_macro, mu_micro, lam_micro)
        assert abs(back[0] - mu_e) < 1e-12 * max(1, mu_e)
        assert abs(back[1] - lam_e) < 1e-10 * max(1, abs(lam_e))


def test_singular_inversion():
    with pytest.raises(SingularLimit):
        meso_from(1.0, 0.0, 1.0, 0.0)


def test_derived_macro_in_constructor():
    mp = MaterialParams(lam_e=2.5, mu_e=1.25, lam_micro=10.0, mu_micro=5.0,
                        mu_c=1.0, lc=1.0)
    assert abs(mp.mu_macro - 1.0) < 1e-12
    assert abs(mp.lam_macro - 2.0) < 1e-12
    assert abs(mp.curl_coeff - 1.0) < 1e-15


def test_from_macro_micro():
    mp = MaterialParams.from_macro_micro(2.0, 1.0, 10.0, 5.0, mu_c=1.0, lc=2.0)
    assert abs(mp.mu_e - 1.25) < 1e-12
    assert abs(mp.curl_coeff - 4.0) < 1e-14


def test_literal_independent_inputs():
    # benchmark sets that bypass the harmonic relation are stored as given
    mp = MaterialParams(lam_e=0.0, mu_e=0.5, lam_micro=0.0, mu_micro=20.0,
                        mu_c=0.0, lc=1.0, mu_macro=0.5, lam_macro=0.0)
    assert mp.mu_macro == 0.5


def test_validation():
    with pytest.raises(InvalidParam):
        MaterialParams(lam_e=0.0, mu_e=-1.0, lam_micro=0.0, mu_micro=1.0,
                       mu_c=0.0, lc=0.0)
    with pytest.raises(InvalidParam):
        MaterialParams(lam_e=0.0, mu_e=1.0, lam_micro=0.0, mu_micro=1.0,
                       mu_c=-0.1, lc=0.0)


@pytest.mark.parametrize("name,value,message", [
    ("mu_e", np.nan, "mu_e must be finite, got nan"),
    ("mu_micro", np.nan, "mu_micro must be finite, got nan"),
    ("mu_c", np.nan, "mu_c must be finite, got nan"),
    ("lc", np.nan, "lc must be finite, got nan"),
    ("lam_e", np.inf, "lam_e must be finite, got inf"),
    ("mu_micro", 0.0, "mu_micro must be positive, got 0.0"),
    ("lc", -1.0, "lc must be non-negative, got -1.0"),
])
def test_validation_names_the_value(name, value, message):
    # every check fails closed: NaN raises like any other bad value
    fields = dict(lam_e=0.0, mu_e=1.0, lam_micro=0.0, mu_micro=1.0,
                  mu_c=0.0, lc=0.0)
    fields[name] = value
    with pytest.raises(InvalidParam, match=message):
        MaterialParams(**fields)


def test_macro_from_rejects_nan():
    with pytest.raises(SingularLimit, match="got nan"):
        macro_from(np.nan, 0.0, 1.0, 0.0)


class TestTensorActions:
    def test_identity(self):
        out = apply_isotropic(0.0, 1.0, np.eye(3))
        np.testing.assert_allclose(out, 2.0 * np.eye(3))

    def test_traceless_drops_lambda(self):
        s = np.diag([1.0, -1.0, 0.0])
        np.testing.assert_allclose(apply_isotropic(7.0, 1.0, s),
                                   apply_isotropic(0.0, 1.0, s))

    def test_quadratic_form_oracle(self):
        rng = np.random.default_rng(4)
        lam, mu = 1.3, 0.7
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            s = 0.5 * (a + a.T)
            form = float(np.tensordot(s, apply_isotropic(lam, mu, s)))
            oracle = lam * np.trace(s) ** 2 + 2 * mu * np.tensordot(s, s)
            assert abs(form - oracle) < 1e-12 * max(1.0, abs(oracle))

    def test_positive_definiteness(self):
        mp = MaterialParams(lam_e=2.5, mu_e=1.25, lam_micro=10.0, mu_micro=5.0,
                            mu_c=1.0, lc=1.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            s = 0.5 * (a + a.T)
            if np.tensordot(s, s) < 1e-12:
                continue
            assert np.tensordot(s, apply_isotropic(mp.lam_e, mp.mu_e, s)) > 0
            assert np.tensordot(s, apply_isotropic(mp.lam_micro, mp.mu_micro, s)) > 0

    def test_apply_tensors_pair(self):
        mp = MaterialParams(lam_e=1.0, mu_e=2.0, lam_micro=1.0, mu_micro=1.0,
                            mu_c=3.0, lc=0.0)
        sym = np.eye(3)
        skw = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        stress_e, stress_c = apply_tensors(mp, sym, skw)
        np.testing.assert_allclose(stress_e, 3.0 * np.eye(3) + 4.0 * np.eye(3))
        np.testing.assert_allclose(stress_c, 6.0 * skw)
