"""Domain error hierarchy.

Every error carries a stable ``code`` string, its class name, so the CLI
can emit machine-readable ``{"error": code, "detail": ...}`` objects.
"""

from __future__ import annotations


class PalinfracError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__


class NotCoprime(PalinfracError):
    """Two integers or polynomials share a nontrivial common factor."""


class OutOfRange(PalinfracError):
    """An argument lies outside the range where the operation is defined or accurate."""


class DivisionByZeroPolynomial(PalinfracError):
    """Division by, or the monic form of, the zero polynomial."""


class DegreeMismatch(PalinfracError):
    """A J-fraction pair is not monic with deg P = deg Q + 1."""


class NotInterlacing(PalinfracError):
    """The zeros of P and Q do not strictly interlace: no J-fraction."""


class SizeTooSmall(PalinfracError):
    """The matrix has too few sites for the operation."""


class ToleranceTooLoose(PalinfracError):
    """The tolerance cannot separate the eigenvalues."""


class NotAnEigenvalue(PalinfracError):
    """A value is too far from every eigenvalue to give an eigenvector."""


class NotPersymmetric(PalinfracError):
    """The chain is not mirror symmetric."""


class IncommensurableSpectrum(PalinfracError):
    """The eigenvalue gaps have no rational ratios at the requested accuracy."""


class NoOddScaling(PalinfracError):
    """The gaps are commensurable, but no time makes every phase an odd multiple of pi."""


class DegenerateSpectrum(PalinfracError):
    """Eigenvalues coincide or lie too close together."""


class DegreeError(PalinfracError):
    """A P-fraction pair is zero, improper (deg Q >= deg P) or not monic."""


class InternalCheckFailed(PalinfracError):
    """A cross-checked identity failed: indicates a bug, not bad input."""
