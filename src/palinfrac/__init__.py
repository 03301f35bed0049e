"""Exact palindromic continued fractions and perfect state transfer.

Layers, from exact to numeric:

* :mod:`palinfrac.numeric_cf` - continued fractions of rationals,
  convergents, and the Serret palindrome criterion.
* :mod:`palinfrac.polynomial` - dense polynomials over exact rationals,
  Chebyshev families, the Pell-Abel identity.
* :mod:`palinfrac.jfraction` - J-fraction expansion of rational functions,
  interlacing detection, the palindromicity criterion.
* :mod:`palinfrac.pfraction` - general polynomial continued fractions and
  the polynomial-ring palindrome criterion.
* :mod:`palinfrac.jacobi` - symmetric tridiagonal matrices, Sturm
  multisection eigensolving, persymmetry.
* :mod:`palinfrac.pst` - perfect state transfer verification, unitary
  evolution, inverse (persymmetric) design.

The exact layers never touch numpy.  The float layers (:mod:`jacobi`,
:mod:`pst`, and numpy with them) load on first use: importing the package
or one of its exact modules does not import them.  The names
``JacobiMatrix``, ``Spectrum``, ``AmplitudeTrace`` and ``PstCertificate``,
and the attributes ``jacobi`` and ``pst``, resolve on first access.
"""

import importlib

from .errors import PalinfracError
from .jfraction import JFraction
from .numeric_cf import NumericCF
from .pfraction import PFraction
from .polynomial import BigRational, Polynomial

__version__ = "0.1.0"

__all__ = [
    "AmplitudeTrace",
    "BigRational",
    "JFraction",
    "JacobiMatrix",
    "NumericCF",
    "PFraction",
    "PalinfracError",
    "Polynomial",
    "PstCertificate",
    "Spectrum",
    "__version__",
]

_FLOAT_NAMES = {  # name -> the float-layer module that defines it
    "AmplitudeTrace": "pst",
    "JacobiMatrix": "jacobi",
    "PstCertificate": "pst",
    "Spectrum": "jacobi",
    "jacobi": "jacobi",
    "pst": "pst",
}


def __getattr__(name: str):
    """Resolve a float-layer name, importing its module (PEP 562)."""
    try:
        module_name = _FLOAT_NAMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{module_name}", __name__)
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_FLOAT_NAMES))
