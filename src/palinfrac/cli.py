"""Command-line front end: structured JSON (or CSV) out, files and args in.

Polynomials are read from JSON files holding an array of "num/den"
coefficient strings, lowest degree first.  Jacobi matrices are
{"diag": [...], "offdiag": [...]}, spectra {"eigenvalues": [...]}.
Domain errors exit with status 1 and a machine-readable
{"error": code, "detail": ...} object on stderr; usage errors exit 2.

The environment variable PALINFRAC_TOL overrides the default numeric
tolerance 1e-12 used by the spectral commands.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys

import click

from . import jacobi as jacobi_mod
from . import jfraction as jfraction_mod
from . import numeric_cf as ncf_mod
from . import pfraction as pfraction_mod
from . import polynomial as polynomial_mod
from . import pst as pst_mod
from .errors import PalinfracError
from .polynomial import Polynomial


def _checked_tol(value, source: str) -> float:
    try:
        tol = float(value)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise click.UsageError(f"{source} {value!r} is not a positive finite tolerance")
    return tol


def _default_tol() -> float:
    return _checked_tol(os.environ.get("PALINFRAC_TOL", "1e-12"), "PALINFRAC_TOL")


def _emit(payload) -> None:
    click.echo(json.dumps(payload))


def _guard(fn):
    """Map domain errors to exit 1 with a JSON error object on stderr."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PalinfracError as err:
            click.echo(json.dumps({"error": err.code, "detail": str(err)}), err=True)
            sys.exit(1)

    return wrapper


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")


def _load_poly(path: str) -> Polynomial:
    data = _load_json(path)
    if not isinstance(data, list):
        raise click.UsageError(f"{path}: expected a JSON array of coefficient strings")
    try:
        return Polynomial.from_strings(data)
    except (ValueError, OverflowError, ZeroDivisionError, TypeError) as exc:  # Fraction(inf) overflows
        raise click.UsageError(f"{path}: bad coefficient: {exc}")


def _load_monic_pair(qfile: str, pfile: str) -> tuple[Polynomial, Polynomial]:
    """Read Q and P, normalizing each to monic; the library wants monic input."""
    q, p = _load_poly(qfile), _load_poly(pfile)
    if q.is_zero or p.is_zero:
        raise click.UsageError("polynomial inputs must be nonzero")
    return q.monic(), p.monic()


def _load_matrix(path: str) -> jacobi_mod.JacobiMatrix:
    data = _load_json(path)
    try:
        return jacobi_mod.JacobiMatrix.from_json_obj(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"{path}: bad Jacobi matrix: {exc}")


def _reduced_pair(q: int, p: int) -> tuple[int, int]:
    """The library insists on coprime input; reduction lives here."""
    g = math.gcd(q, p)
    return (q // g, p // g) if g > 1 else (q, p)


@click.group()
def main() -> None:
    """Exact continued fractions, Jacobi matrices, and state-transfer design."""


# -- numeric continued fractions ----------------------------------------------


@main.group()
def cf() -> None:
    """Continued fractions of rationals q/p."""


@cf.command("expand")
@click.argument("q", type=int)
@click.argument("p", type=int)
@click.option("--padded", is_flag=True, help="Rewrite the last term as (a-1) + 1/1.")
@_guard
def cf_expand(q: int, p: int, padded: bool) -> None:
    """Euclidean expansion of Q/P."""
    q, p = _reduced_pair(q, p)
    form = "padded" if padded else "canonical"
    cf_value = ncf_mod.expand_euclid(q, p, form)
    _emit(
        {
            "terms": list(cf_value.terms),
            "value": f"{q}/{p}",
            "form": form,
            "palindromic": cf_value.is_palindrome,
        }
    )


@cf.command("serret")
@click.argument("q", type=int)
@click.argument("p", type=int)
@_guard
def cf_serret(q: int, p: int) -> None:
    """Palindrome criterion: does P divide Q^2 + 1 or Q^2 - 1?"""
    q, p = _reduced_pair(q, p)
    decision = ncf_mod.is_palindromic_serret(q, p)
    witness = None
    if decision.sign is not None:
        witness = "q^2-1" if decision.sign == -1 else "q^2+1"
    _emit(
        {
            "palindromic": decision.palindromic,
            "witness": witness,
            "form": decision.form,
            "expansion": list(decision.expansion.terms) if decision.expansion else None,
        }
    )


# -- polynomials ---------------------------------------------------------------


@main.group()
def poly() -> None:
    """Exact polynomial families."""


@poly.command("cheb")
@click.argument("kind", type=click.Choice(["t", "u"]))
@click.argument("n", type=int)
@_guard
def poly_cheb(kind: str, n: int) -> None:
    """Chebyshev family of the given KIND up to degree N (one array each)."""
    if n < 0:
        raise click.UsageError("N must be nonnegative")
    build = polynomial_mod.chebyshev_t if kind == "t" else polynomial_mod.chebyshev_u
    _emit([build(k).to_strings() for k in range(n + 1)])


# -- J-fractions ----------------------------------------------------------------


@main.group()
def jfrac() -> None:
    """Jacobi continued fractions of rational functions Q/P."""


@jfrac.command("expand")
@click.argument("qfile", type=click.Path(exists=True, dir_okay=False))
@click.argument("pfile", type=click.Path(exists=True, dir_okay=False))
@_guard
def jfrac_expand(qfile: str, pfile: str) -> None:
    """Expand Q/P (monicized) into diagonal and coupling sequences."""
    q, p = _load_monic_pair(qfile, pfile)
    _emit(jfraction_mod.expand_jfraction(q, p).to_json_obj())


@jfrac.command("palindrome")
@click.argument("qfile", type=click.Path(exists=True, dir_okay=False))
@click.argument("pfile", type=click.Path(exists=True, dir_okay=False))
@_guard
def jfrac_palindrome(qfile: str, pfile: str) -> None:
    """Palindromicity of the J-fraction of Q/P, with divisibility witness."""
    q, p = _load_monic_pair(qfile, pfile)
    decision = jfraction_mod.is_palindromic_jfraction(q, p)
    payload = decision.jfraction.to_json_obj()
    payload.update(
        {
            "palindromic": decision.palindromic,
            "beta": polynomial_mod.format_rational(decision.beta),
            "cofactor": decision.cofactor.to_strings() if decision.cofactor else None,
        }
    )
    _emit(payload)


@jfrac.command("cheb")
@click.argument("n", type=int)
@_guard
def jfrac_cheb(n: int) -> None:
    """Closed-form J-fraction of the degree-N Chebyshev ratio."""
    if n < 1:
        raise click.UsageError("N must be positive")
    _emit(jfraction_mod.chebyshev_jfraction(n).to_json_obj())


# -- Jacobi matrices -------------------------------------------------------------


@main.group()
def jacobi() -> None:
    """Symmetric tridiagonal matrices."""


@jacobi.command("eig")
@click.argument("hfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=None, help="Bracket separation tolerance.")
@_guard
def jacobi_eig(hfile: str, tol: float | None) -> None:
    """Eigenvalues by Sturm bisection."""
    matrix = _load_matrix(hfile)
    tol = _default_tol() if tol is None else _checked_tol(tol, "--tol")
    spectrum = jacobi_mod.eigenvalues(matrix, tol)
    _emit({"eigenvalues": list(spectrum.eigenvalues), "tolerance": spectrum.tolerance})


# -- perfect state transfer -------------------------------------------------------


@main.group()
def pst() -> None:
    """Perfect state transfer verification, design, and simulation."""


@pst.command("verify")
@click.argument("hfile", type=click.Path(exists=True, dir_okay=False))
@_guard
def pst_verify(hfile: str) -> None:
    """Certificate (T, phi) for perfect transfer on the given chain."""
    matrix = _load_matrix(hfile)
    certificate = pst_mod.verify_pst(matrix, _default_tol())
    _emit(certificate.to_json_obj())


@pst.command("design")
@click.argument("specfile", type=click.Path(exists=True, dir_okay=False))
@_guard
def pst_design(specfile: str) -> None:
    """Persymmetric chain with the prescribed spectrum."""
    data = _load_json(specfile)
    try:
        values = data["eigenvalues"]
        tolerance = float(data["tolerance"]) if "tolerance" in data else _default_tol()
        spectrum = jacobi_mod.Spectrum(values, tolerance)
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"{specfile}: bad spectrum: {exc}")
    _emit(pst_mod.design_persymmetric(spectrum).to_json_obj())


@pst.command("simulate")
@click.argument("hfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--t0", type=float, default=0.0, show_default=True, help="First time sample.")
@click.option("--t1", type=float, required=True, help="Last time sample.")
@click.option("--steps", type=int, required=True, help="Number of samples (>= 1).")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="CSV output path.")
@_guard
def pst_simulate(hfile: str, t0: float, t1: float, steps: int, out: str | None) -> None:
    """Amplitudes of e^{itH} e_0 on an even time grid, as CSV."""
    if steps < 1:
        raise click.UsageError("--steps must be >= 1")
    matrix = _load_matrix(hfile)
    if steps == 1:
        times = [t0]
    else:
        step = (t1 - t0) / (steps - 1)
        times = [t0 + i * step for i in range(steps)]
    if not all(math.isfinite(t) for t in (t1, *times)):  # also catches an overflowing step
        raise click.UsageError("--t0, --t1 and the time grid between them must be finite")
    trace = pst_mod.evolve(matrix, times)
    if out is None:
        trace.to_csv(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            trace.to_csv(handle)


# -- P-fractions -------------------------------------------------------------------


@main.group()
def pfrac() -> None:
    """Polynomial continued fractions."""


@pfrac.command("expand")
@click.argument("qfile", type=click.Path(exists=True, dir_okay=False))
@click.argument("pfile", type=click.Path(exists=True, dir_okay=False))
@_guard
def pfrac_expand(qfile: str, pfile: str) -> None:
    """Partial quotients of Q/P under the minus-sign convention."""
    q, p = _load_poly(qfile), _load_poly(pfile)
    _emit(pfraction_mod.expand_pfraction(q, p).to_json_obj())


@pfrac.command("palindrome")
@click.argument("qfile", type=click.Path(exists=True, dir_okay=False))
@click.argument("pfile", type=click.Path(exists=True, dir_okay=False))
@_guard
def pfrac_palindrome(qfile: str, pfile: str) -> None:
    """Does P divide Q^2 - 1 (inputs monicized)?"""
    q, p = _load_monic_pair(qfile, pfile)
    decision = pfraction_mod.is_palindromic_pfraction(q, p)
    _emit(
        {
            "palindromic": decision.palindromic,
            "cofactor": decision.cofactor.to_strings() if decision.cofactor else None,
            "termwise_palindromic": decision.termwise_palindromic,
            "partial_quotients": decision.pfraction.to_json_obj()["partial_quotients"],
        }
    )


if __name__ == "__main__":
    main()
