"""First-order dual numbers for forward automatic differentiation.

A dual number ``x + x'·eps`` pairs a value with the derivative of the
computation that produced it; the nilpotency rule ``eps² = 0`` is baked
into the product.  Components may be floats or numpy arrays of a common
shape, in which case every rule applies elementwise.  Only the four
algebraic operations and integer powers are provided: the intended use
is polynomial recursions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivisionByZeroDual, DomainError

_NUMBERS = (int, float, np.integer, np.floating, np.ndarray)


def _check_divisor(val):
    if np.any(np.asarray(val) == 0.0):
        raise DivisionByZeroDual("division by dual number with zero value part")


@dataclass(frozen=True)
class Dual:
    """Value/derivative pair closed under +, -, *, / and integer powers."""

    val: object
    der: object

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.der + other.der)
        if isinstance(other, _NUMBERS):
            return Dual(self.val + other, self.der)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.der - other.der)
        if isinstance(other, _NUMBERS):
            return Dual(self.val - other, self.der)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBERS):
            return Dual(other - self.val, -self.der)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Dual):
            # product rule: (xy)' = x y' + x' y
            return Dual(self.val * other.val,
                        self.val * other.der + self.der * other.val)
        if isinstance(other, _NUMBERS):
            return Dual(self.val * other, self.der * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            _check_divisor(other.val)
            return Dual(self.val / other.val,
                        self.der / other.val
                        - self.val * other.der / (other.val * other.val))
        if isinstance(other, _NUMBERS):
            _check_divisor(other)
            return Dual(self.val / other, self.der / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBERS):
            _check_divisor(self.val)
            return Dual(other / self.val,
                        -other * self.der / (self.val * self.val))
        return NotImplemented

    def __neg__(self):
        return Dual(-self.val, -self.der)

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise DomainError("only non-negative integer powers are defined")
        if isinstance(self.val, np.ndarray):
            out = Dual(np.ones_like(self.val), np.zeros_like(self.val))
        else:
            out = Dual(1.0, 0.0)
        for _ in range(int(n)):
            out = out * self
        return out


def seed(x) -> Dual:
    """Make ``x`` the active differentiation variable: returns (x, 1)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return Dual(float(x), 1.0)
    return Dual(x, np.ones_like(x))


def constant(c) -> Dual:
    """Lift a constant into the dual algebra: returns (c, 0)."""
    c = np.asarray(c, dtype=float)
    if c.ndim == 0:
        return Dual(float(c), 0.0)
    return Dual(c, np.zeros_like(c))
