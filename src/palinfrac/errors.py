"""Domain error hierarchy.

Every error carries a stable ``code`` string so the CLI can emit
machine-readable ``{"error": code, "detail": ...}`` objects.
"""

from __future__ import annotations


class PalinfracError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"


class NotCoprime(PalinfracError):
    code = "NotCoprime"


class OutOfRange(PalinfracError):
    code = "OutOfRange"


class DivisionByZeroPolynomial(PalinfracError):
    code = "DivisionByZeroPolynomial"


class DegreeMismatch(PalinfracError):
    code = "DegreeMismatch"


class NotInterlacing(PalinfracError):
    code = "NotInterlacing"


class SizeTooSmall(PalinfracError):
    code = "SizeTooSmall"


class ToleranceTooLoose(PalinfracError):
    code = "ToleranceTooLoose"


class NotAnEigenvalue(PalinfracError):
    code = "NotAnEigenvalue"


class NotPersymmetric(PalinfracError):
    code = "NotPersymmetric"


class IncommensurableSpectrum(PalinfracError):
    code = "IncommensurableSpectrum"


class NoOddScaling(PalinfracError):
    code = "NoOddScaling"


class DegenerateSpectrum(PalinfracError):
    code = "DegenerateSpectrum"


class DegreeError(PalinfracError):
    code = "DegreeError"


class InternalCheckFailed(PalinfracError):
    """A cross-checked identity failed: indicates a bug, not bad input."""

    code = "InternalCheckFailed"
