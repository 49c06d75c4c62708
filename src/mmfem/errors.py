"""Exception hierarchy shared across the library."""


class MMFemError(Exception):
    """Base class for all library errors."""


class DivisionByZeroDual(MMFemError, ZeroDivisionError):
    """Division by a dual number whose value part is exactly zero."""


class DomainError(MMFemError, ValueError):
    """Evaluation point outside the admissible parameter domain."""


class DegenerateCell(MMFemError, ValueError):
    """Cell with (numerically) zero volume."""


class BadIndex(MMFemError, IndexError):
    """Index outside its range: a nonexistent vertex, entity or basis function."""


class InvalidParam(MMFemError, ValueError):
    """Invalid generator or configuration parameter."""


class ParseError(MMFemError, ValueError):
    """Malformed mesh file; message carries line/field context."""


class UnsupportedDegree(MMFemError, ValueError):
    """Quadrature degree outside the supported range."""


class SingularLimit(MMFemError, ValueError):
    """Material parameter relation with vanishing denominator."""


class SpaceMismatch(MMFemError, ValueError):
    """Incompatible field space / mesh combination."""


class SingularEdge(MMFemError, ValueError):
    """Boundary edge of zero length."""


class DegenerateFace(MMFemError, ValueError):
    """Boundary face of zero area."""


class NotPositiveDefinite(MMFemError, RuntimeError):
    """The free block of a system is not symmetric positive definite."""


class FactorizationFailed(MMFemError, RuntimeError):
    """The free block of a system could not be factored (a singular matrix)."""


class NonConvergence(MMFemError, RuntimeError):
    """Solve missed the residual tolerance."""


class PointOutsideMesh(MMFemError, ValueError):
    """Field evaluation requested outside the meshed domain."""
