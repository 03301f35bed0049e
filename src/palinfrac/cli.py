"""Command-line front end: structured JSON (or CSV) out, files and args in.

Polynomials are read from JSON files holding an array of "num/den"
coefficient strings, lowest degree first.  Jacobi matrices are
{"diag": [...], "offdiag": [...]}, spectra {"eigenvalues": [...]}.
Domain errors exit with status 1 and a machine-readable
{"error": code, "detail": ...} object on stderr; usage errors exit 2.

The environment variable PALINFRAC_TOL overrides the default numeric
tolerance 1e-12 of the spectral commands.  Like `--tol` it is relative
to the input, ||H||_inf of a chain or max |lambda| of a spectrum:
`jacobi eig` and `pst verify` hand it to the library as it is, and
`pst design` gives a spectrum file without a "tolerance" of its own the
separation PALINFRAC_TOL * max |lambda| (max |lambda| = 1 for the zero
spectrum), at least the smallest double and at most the largest.  A
file's own "tolerance" is that separation, absolute, as `jacobi eig`
prints it.

The float layers (and numpy with them) are imported inside the four
commands that need them, `jacobi eig` and `pst verify|design|simulate`,
so the exact commands start without loading numpy.
"""

from __future__ import annotations

import json
import math
import os
import sys

import click

from . import jfraction as jfraction_mod
from . import numeric_cf as ncf_mod
from . import pfraction as pfraction_mod
from . import polynomial as polynomial_mod
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


def _load(path: str, what: str, build):
    """build(data) for the JSON value in path; an unreadable file or a bad
    value, a number too large for a float or arrays nested past the
    interpreter's recursion limit too, is a usage error naming path."""
    try:
        with open(path, encoding="utf-8") as handle:
            return build(json.load(handle))
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")
    except (ValueError, TypeError, KeyError, OverflowError, ZeroDivisionError, RecursionError) as exc:  # bad JSON too
        raise click.UsageError(f"{path}: bad {what}: {exc}")


def _load_poly(path: str) -> Polynomial:
    def polynomial(data) -> Polynomial:
        if not isinstance(data, list):
            raise TypeError("expected a JSON array of coefficient strings")
        return Polynomial.from_strings(data)

    return _load(path, "coefficient", polynomial)


def _load_monic_pair(qfile: str, pfile: str) -> tuple[Polynomial, Polynomial]:
    """Read Q and P, normalizing each to monic; the library wants monic input."""
    q, p = _load_poly(qfile), _load_poly(pfile)
    if q.is_zero or p.is_zero:
        raise click.UsageError("polynomial inputs must be nonzero")
    return q.monic(), p.monic()


def _load_matrix(path: str):
    from .jacobi import JacobiMatrix

    return _load(path, "Jacobi matrix", JacobiMatrix.from_json_obj)


def _reduced_pair(q: int, p: int) -> tuple[int, int]:
    """The library insists on coprime input; reduction lives here."""
    g = math.gcd(q, p)
    return (q // g, p // g) if g > 1 else (q, p)


class _Main(click.Group):
    """The root group, one boundary around every command: a domain error
    exits 1 with a JSON error object on stderr, and Python's cap on int/str
    conversion (3.11+), which exact coefficients outgrow, is lifted while
    the command runs."""

    def invoke(self, ctx: click.Context):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            return super().invoke(ctx)
        except PalinfracError as err:
            click.echo(json.dumps({"error": err.code, "detail": str(err)}), err=True)
            sys.exit(1)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)


@click.group(cls=_Main)
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
def jfrac_expand(qfile: str, pfile: str) -> None:
    """Expand Q/P (monicized) into diagonal and coupling sequences."""
    q, p = _load_monic_pair(qfile, pfile)
    _emit(jfraction_mod.expand_jfraction(q, p).to_json_obj())


@jfrac.command("palindrome")
@click.argument("qfile", type=click.Path(exists=True, dir_okay=False))
@click.argument("pfile", type=click.Path(exists=True, dir_okay=False))
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
@click.option("--tol", type=float, default=None, help="Eigenvalue separation, relative to ||H||_inf.")
def jacobi_eig(hfile: str, tol: float | None) -> None:
    """Eigenvalues by Sturm multisection."""
    from .jacobi import eigenvalues

    matrix = _load_matrix(hfile)
    tol = _default_tol() if tol is None else _checked_tol(tol, "--tol")
    spectrum = eigenvalues(matrix, tol)
    _emit({"eigenvalues": list(spectrum.eigenvalues), "tolerance": spectrum.tolerance})


# -- perfect state transfer -------------------------------------------------------


@main.group()
def pst() -> None:
    """Perfect state transfer verification, design, and simulation."""


@pst.command("verify")
@click.argument("hfile", type=click.Path(exists=True, dir_okay=False))
def pst_verify(hfile: str) -> None:
    """Certificate (T, phi) for perfect transfer on the given chain."""
    from .pst import verify_pst

    matrix = _load_matrix(hfile)
    certificate = verify_pst(matrix, _default_tol())
    _emit(certificate.to_json_obj())


@pst.command("design")
@click.argument("specfile", type=click.Path(exists=True, dir_okay=False))
def pst_design(specfile: str) -> None:
    """Persymmetric chain with the prescribed spectrum."""
    from .jacobi import Spectrum
    from .pst import design_persymmetric

    def spectrum(data) -> Spectrum:  # a file's tolerance is absolute; PALINFRAC_TOL is relative
        if "tolerance" in data:
            return Spectrum(data["eigenvalues"], float(data["tolerance"]))
        scale = max((abs(float(v)) for v in data["eigenvalues"]), default=0.0) or 1.0
        # the product may overflow, and only a finite tolerance makes a Spectrum
        return Spectrum(data["eigenvalues"], min(max(_default_tol() * scale, math.ulp(0.0)), sys.float_info.max))

    _emit(design_persymmetric(_load(specfile, "spectrum", spectrum)).to_json_obj())


@pst.command("simulate")
@click.argument("hfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--t0", type=float, default=0.0, show_default=True, help="First time sample.")
@click.option("--t1", type=float, required=True, help="Last time sample.")
@click.option("--steps", type=int, required=True, help="Number of samples (>= 1).")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="CSV output path.")
def pst_simulate(hfile: str, t0: float, t1: float, steps: int, out: str | None) -> None:
    """Amplitudes of e^{itH} e_0 on an even time grid, as CSV."""
    from .pst import evolve

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
    trace = evolve(matrix, times)
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
def pfrac_expand(qfile: str, pfile: str) -> None:
    """Partial quotients of Q/P under the minus-sign convention."""
    q, p = _load_poly(qfile), _load_poly(pfile)
    _emit(pfraction_mod.expand_pfraction(q, p).to_json_obj())


@pfrac.command("palindrome")
@click.argument("qfile", type=click.Path(exists=True, dir_okay=False))
@click.argument("pfile", type=click.Path(exists=True, dir_okay=False))
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
