"""Isotropic parameter sets for the relaxed micromorphic model.

The meso (elastic), micro and macro scales are linked by a harmonic-mean
relation in the shear modulus and in the bulk-type combination 2*mu +
3*lambda.  Parameters constructed from macro+micro data satisfy those
relations; directly constructed sets are stored as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParam, SingularLimit


def macro_from(mu_e, lam_e, mu_micro, lam_micro):
    """(mu_macro, lam_macro) from meso and micro parameters."""
    if not mu_e + mu_micro > 0.0:
        raise SingularLimit(f"mu_e + mu_micro must be positive, got "
                            f"{mu_e + mu_micro}")
    mu_macro = mu_e * mu_micro / (mu_e + mu_micro)
    he = 2.0 * mu_e + 3.0 * lam_e
    hm = 2.0 * mu_micro + 3.0 * lam_micro
    if he + hm == 0.0:
        raise SingularLimit("bulk-type moduli sum vanishes")
    h_macro = he * hm / (he + hm)
    lam_macro = (h_macro - 2.0 * mu_macro) / 3.0
    return mu_macro, lam_macro


def meso_from(mu_macro, lam_macro, mu_micro, lam_micro):
    """(mu_e, lam_e) inverting the macro relation."""
    if mu_micro == mu_macro:
        raise SingularLimit("mu_micro = mu_macro has no finite meso inverse")
    mu_e = mu_macro * mu_micro / (mu_micro - mu_macro)
    h_macro = 2.0 * mu_macro + 3.0 * lam_macro
    h_micro = 2.0 * mu_micro + 3.0 * lam_micro
    if h_micro == h_macro:
        raise SingularLimit("bulk-type macro and micro moduli coincide")
    h_e = h_macro * h_micro / (h_micro - h_macro)
    lam_e = (h_e - 2.0 * mu_e) / 3.0
    return mu_e, lam_e


@dataclass(frozen=True)
class MaterialParams:
    """Parameter set; all quantities dimensionless."""

    lam_e: float
    mu_e: float
    lam_micro: float
    mu_micro: float
    mu_c: float
    lc: float
    mu_macro: float = None
    lam_macro: float = None

    def __post_init__(self):
        for name in ("lam_e", "lam_micro", "mu_e", "mu_micro", "mu_c", "lc"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParam(f"{name} must be finite, got {value}")
            if name in ("mu_e", "mu_micro") and not value > 0.0:
                raise InvalidParam(f"{name} must be positive, got {value}")
            if name in ("mu_c", "lc") and not value >= 0.0:
                raise InvalidParam(f"{name} must be non-negative, got {value}")
        if self.mu_macro is None or self.lam_macro is None:
            mu_macro, lam_macro = macro_from(self.mu_e, self.lam_e,
                                             self.mu_micro, self.lam_micro)
            object.__setattr__(self, "mu_macro", mu_macro)
            object.__setattr__(self, "lam_macro", lam_macro)

    @classmethod
    def from_macro_micro(cls, lam_macro, mu_macro, lam_micro, mu_micro,
                         mu_c=0.0, lc=0.0):
        mu_e, lam_e = meso_from(mu_macro, lam_macro, mu_micro, lam_micro)
        return cls(lam_e=lam_e, mu_e=mu_e, lam_micro=lam_micro,
                   mu_micro=mu_micro, mu_c=mu_c, lc=lc,
                   mu_macro=mu_macro, lam_macro=lam_macro)

    @property
    def curl_coeff(self):
        """Coefficient of the curvature term, mu_macro * lc**2."""
        return self.mu_macro * self.lc ** 2

