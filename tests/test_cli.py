import contextlib
import json
import math
import random
import sys

import pytest
from click.testing import CliRunner

from genutil import krawtchouk, rand_fraction, wilkinson
from palinfrac.cli import main
from palinfrac.errors import PalinfracError
from palinfrac.jfraction import JFraction
from palinfrac.jacobi import JacobiMatrix, eigenvalues
from palinfrac.pfraction import PFraction, expand_pfraction, pfraction_to_rational
from palinfrac.polynomial import Polynomial


@pytest.fixture
def runner():
    try:  # click < 8.2 mixes stderr into the output unless told not to
        return CliRunner(mix_stderr=False)
    except TypeError:  # click 8.2 dropped the option and keeps stderr apart
        return CliRunner()


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    b = math.sqrt(0.5)
    return {
        "q_cheb": write("q_cheb.json", ["-1/2", "0/1", "1/1"]),
        "p_cheb": write("p_cheb.json", ["0/1", "-1/1", "0/1", "1/1"]),
        "q_bad": write("q_bad.json", ["2/1", "3/1", "1/1"]),
        "p_bad": write("p_bad.json", ["-6/1", "11/1", "-6/1", "1/1"]),
        "q_pal": write("q_pal.json", ["2/1", "1/1", "3/1", "1/1"]),
        "p_pal": write("p_pal.json", ["3/1", "4/1", "10/1", "6/1", "1/1"]),
        "chain": write("chain.json", {"diag": [0.0, 0.0, 0.0], "offdiag": [b, b]}),
        "skew": write("skew.json", {"diag": [0.0, 1.0, 2.0], "offdiag": [1.0, 1.0]}),
        "spectrum": write("spectrum.json", {"eigenvalues": [-1.0, 0.0, 1.0]}),
        "degenerate": write("degenerate.json", {"eigenvalues": [0.0, 0.0, 1.0]}),
        "broken": write("broken.json", {"diag": [0.0]}),
    }


def out_json(result):
    return json.loads(result.output)


class TestCf:
    def test_expand(self, runner):
        result = runner.invoke(main, ["cf", "expand", "3", "4"])
        assert result.exit_code == 0
        assert out_json(result) == {
            "terms": [1, 3],
            "value": "3/4",
            "form": "canonical",
            "palindromic": False,
        }

    def test_expand_padded(self, runner):
        result = runner.invoke(main, ["cf", "expand", "3", "4", "--padded"])
        assert out_json(result)["terms"] == [1, 2, 1]

    def test_expand_reduces_common_factor(self, runner):
        result = runner.invoke(main, ["cf", "expand", "6", "8"])
        payload = out_json(result)
        assert payload["terms"] == [1, 3]
        assert payload["value"] == "3/4"

    def test_serret(self, runner):
        result = runner.invoke(main, ["cf", "serret", "3", "4"])
        payload = out_json(result)
        assert payload["palindromic"] is True
        assert payload["witness"] == "q^2-1"
        assert payload["expansion"] == [1, 2, 1]

    def test_serret_negative_is_not_an_error(self, runner):
        result = runner.invoke(main, ["cf", "serret", "2", "7"])
        assert result.exit_code == 0
        assert out_json(result)["palindromic"] is False

    def test_domain_error_exit_code(self, runner):
        result = runner.invoke(main, ["cf", "expand", "4", "4"])
        assert result.exit_code == 1
        error = json.loads(result.stderr)
        assert error["error"] == "OutOfRange"

    def test_usage_error_exit_code(self, runner):
        result = runner.invoke(main, ["cf", "expand", "x", "y"])
        assert result.exit_code == 2


def test_error_codes_are_class_names():
    subclasses = PalinfracError.__subclasses__()
    assert all(cls.code == cls.__name__ for cls in subclasses)
    assert PalinfracError.code == "Error"
    # the codes the CLI emits as {"error": code, ...}
    assert sorted(cls.code for cls in subclasses) == [
        "DegenerateSpectrum", "DegreeError", "DegreeMismatch", "DivisionByZeroPolynomial",
        "IncommensurableSpectrum", "InternalCheckFailed", "NoOddScaling", "NotAnEigenvalue",
        "NotCoprime", "NotInterlacing", "NotPersymmetric", "OutOfRange", "SizeTooSmall",
        "ToleranceTooLoose",
    ]


class TestPoly:
    def test_cheb_family_trivial(self, runner):
        result = runner.invoke(main, ["poly", "cheb", "t", "0"])
        assert out_json(result) == [["1/1"]]

    def test_cheb_family(self, runner):
        result = runner.invoke(main, ["poly", "cheb", "u", "2"])
        assert out_json(result) == [["1/1"], ["0/1", "2/1"], ["-1/1", "0/1", "4/1"]]


class TestJfrac:
    def test_expand(self, runner, files):
        result = runner.invoke(main, ["jfrac", "expand", files["q_cheb"], files["p_cheb"]])
        payload = out_json(result)
        assert JFraction.from_json_obj(payload).b2 == (0.5, 0.5)

    def test_expand_not_interlacing(self, runner, files):
        result = runner.invoke(main, ["jfrac", "expand", files["q_bad"], files["p_bad"]])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "NotInterlacing"

    def test_palindrome(self, runner, files):
        result = runner.invoke(
            main, ["jfrac", "palindrome", files["q_cheb"], files["p_cheb"]]
        )
        payload = out_json(result)
        assert payload["palindromic"] is True
        assert payload["beta"] == "1/4"
        assert Polynomial.from_strings(payload["cofactor"]) == Polynomial((0, 1))

    def test_cheb(self, runner):
        result = runner.invoke(main, ["jfrac", "cheb", "3"])
        assert out_json(result) == {
            "a": ["0/1", "0/1", "0/1", "0/1"],
            "b2": ["1/2", "1/4", "1/2"],
        }


class TestJacobi:
    def test_eig(self, runner, files):
        result = runner.invoke(main, ["jacobi", "eig", files["chain"]])
        payload = out_json(result)
        assert payload["eigenvalues"] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)

    def test_eig_env_tolerance(self, runner, files):
        result = runner.invoke(
            main, ["jacobi", "eig", files["chain"]], env={"PALINFRAC_TOL": "10"}
        )
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "ToleranceTooLoose"

    @pytest.mark.parametrize("value", ["abc", "nan", "-1", "0", "inf"])
    def test_bad_env_tolerance_is_usage_error(self, runner, files, value):
        for command in (["jacobi", "eig"], ["pst", "verify"]):
            result = runner.invoke(main, [*command, files["chain"]], env={"PALINFRAC_TOL": value})
            assert result.exit_code == 2
            assert "PALINFRAC_TOL" in result.stderr

    def test_env_tolerance_unused_when_spectrum_file_has_one(self, runner, tmp_path):
        spectrum = tmp_path / "spectrum.json"
        spectrum.write_text('{"eigenvalues": [-1.0, 0.0, 1.0], "tolerance": 1e-9}')
        result = runner.invoke(main, ["pst", "design", str(spectrum)], env={"PALINFRAC_TOL": "abc"})
        assert result.exit_code == 0

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
    def test_bad_tol_option_is_usage_error(self, runner, files, value):
        result = runner.invoke(main, ["jacobi", "eig", files["chain"], "--tol", value])
        assert result.exit_code == 2
        assert "--tol" in result.stderr

    def test_bad_matrix_file_is_usage_error(self, runner, files):
        result = runner.invoke(main, ["jacobi", "eig", files["broken"]])
        assert result.exit_code == 2

    def test_nan_literal_is_usage_error(self, runner, tmp_path):
        # json.load accepts NaN; the constructors must not
        matrix = tmp_path / "nan_matrix.json"
        matrix.write_text('{"diag": [0.0, NaN], "offdiag": [1.0]}')
        spectrum = tmp_path / "nan_spectrum.json"
        spectrum.write_text('{"eigenvalues": [0.0, NaN]}')
        result = runner.invoke(main, ["jacobi", "eig", str(matrix)])
        assert result.exit_code == 2
        assert "bad Jacobi matrix" in result.stderr
        result = runner.invoke(main, ["pst", "design", str(spectrum)])
        assert result.exit_code == 2
        assert "bad spectrum" in result.stderr

    @pytest.mark.parametrize(
        "command",
        [["jacobi", "eig"], ["pst", "verify"], ["pst", "simulate", "--t1", "1", "--steps", "2"], ["pst", "design"]],
    )
    def test_integer_too_large_for_a_float_is_usage_error(self, runner, tmp_path, command):
        # json.load reads it as an int, and float() of it raised OverflowError
        big = "1" + "0" * 400
        path = tmp_path / "big.json"
        if command[1] == "design":
            path.write_text(f'{{"eigenvalues": [-1, {big}]}}')
        else:
            path.write_text(f'{{"diag": [{big}, 0], "offdiag": [1]}}')
        result = runner.invoke(main, [*command, str(path)])
        assert result.exit_code == 2
        assert f"{path}: bad " in result.stderr

    @pytest.mark.parametrize("command, what", [(["jacobi", "eig"], "Jacobi matrix"), (["pfrac", "expand"], "coefficient")])
    def test_json_nested_past_the_recursion_limit_is_usage_error(self, runner, tmp_path, command, what):
        # json.load raised RecursionError, which escaped as a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        files = [str(path)] * (2 if command[0] == "pfrac" else 1)
        result = runner.invoke(main, [*command, *files])
        assert result.exit_code == 2
        assert f"{path}: bad {what}: maximum recursion depth exceeded" in result.stderr

    def test_eigenvalue_past_the_largest_double_is_a_domain_error(self, runner, tmp_path):
        # the lowest eigenvalue is -2e308
        path = tmp_path / "past.json"
        path.write_text('{"diag": [-1e308, -1e308], "offdiag": [1e308]}')
        result = runner.invoke(main, ["jacobi", "eig", str(path)])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "OutOfRange"


class TestPst:
    def test_verify(self, runner, files):
        result = runner.invoke(main, ["pst", "verify", files["chain"]])
        payload = out_json(result)
        assert payload["T"] == pytest.approx(math.pi, abs=1e-10)
        assert payload["phi"] == pytest.approx(math.pi, abs=1e-10)
        assert payload["eigenvalues"] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)

    def test_verify_not_persymmetric(self, runner, files):
        result = runner.invoke(main, ["pst", "verify", files["skew"]])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "NotPersymmetric"

    def test_design(self, runner, files):
        result = runner.invoke(main, ["pst", "design", files["spectrum"]])
        matrix = JacobiMatrix.from_json_obj(out_json(result))
        assert matrix.offdiag == pytest.approx(
            (math.sqrt(0.5), math.sqrt(0.5)), abs=1e-10
        )

    def test_design_degenerate_spectrum(self, runner, files):
        result = runner.invoke(main, ["pst", "design", files["degenerate"]])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "DegenerateSpectrum"

    def test_design_collapsed_measure(self, runner, tmp_path):
        spectrum = tmp_path / "collapse.json"
        spectrum.write_text(json.dumps({"eigenvalues": [-2.0, -1e-13, 0.0, 1e-13, 2.0], "tolerance": 1e-16}))
        result = runner.invoke(main, ["pst", "design", str(spectrum)])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "DegenerateSpectrum"

    def test_chain_in_small_units(self, runner, tmp_path):
        # the 5-site Krawtchouk chain times 1e-13: T = pi * 1e13, fidelity 1 there
        chain = tmp_path / "k5.json"
        offdiag = [1e-13 * math.sqrt((k + 1) * (4 - k)) / 2 for k in range(4)]
        chain.write_text(json.dumps({"diag": [0.0] * 5, "offdiag": offdiag}))
        payload = out_json(runner.invoke(main, ["pst", "verify", str(chain)]))
        assert payload["T"] == pytest.approx(math.pi * 1e13, rel=1e-12)
        result = runner.invoke(main, ["pst", "simulate", str(chain), "--t1", "31415926535897.93", "--steps", "2"])
        assert result.exit_code == 0
        assert float(result.output.split()[-1].split(",")[-1]) == pytest.approx(1.0, abs=1e-12)

    def test_design_in_small_units(self, runner, tmp_path):
        spectrum = tmp_path / "small.json"
        spectrum.write_text(json.dumps({"eigenvalues": [-2e-14, -1e-14, 0, 1e-14, 2e-14], "tolerance": 1e-27}))
        matrix = JacobiMatrix.from_json_obj(out_json(runner.invoke(main, ["pst", "design", str(spectrum)])))
        assert matrix.offdiag == pytest.approx([1e-14 * math.sqrt((k + 1) * (4 - k)) / 2 for k in range(4)], rel=1e-12)

    def test_simulate_stdout(self, runner, files):
        result = runner.invoke(
            main,
            ["pst", "simulate", files["chain"], "--t1", str(math.pi), "--steps", "5"],
        )
        lines = result.output.strip().splitlines()
        assert lines[0] == "t,re_0,im_0,re_1,im_1,re_2,im_2,fidelity"
        assert len(lines) == 6
        for line in lines[1:]:
            cells = [float(c) for c in line.split(",")]
            norm_sq = sum(cells[i] ** 2 + cells[i + 1] ** 2 for i in (1, 3, 5))
            assert abs(norm_sq - 1.0) <= 1e-10
        assert float(lines[-1].split(",")[-1]) == pytest.approx(1.0, abs=1e-10)

    def test_simulate_out_file(self, runner, files, tmp_path):
        target = tmp_path / "trace.csv"
        result = runner.invoke(
            main,
            [
                "pst",
                "simulate",
                files["chain"],
                "--t0",
                "0",
                "--t1",
                "1",
                "--steps",
                "2",
                "--out",
                str(target),
            ],
        )
        assert result.exit_code == 0
        assert target.read_text().startswith("t,re_0,im_0")

    def test_simulate_close_eigenvalue_pairs(self, runner, tmp_path):
        # Wilkinson W15 is mirrored, so its close pairs (one symmetric and one
        # antisymmetric vector each) come out orthogonal: a unitary trace
        matrix = tmp_path / "w15.json"
        matrix.write_text(json.dumps(wilkinson(15).to_json_obj()))
        result = runner.invoke(main, ["pst", "simulate", str(matrix), "--t1", "1", "--steps", "2"])
        assert result.exit_code == 0
        header, *rows = result.output.strip().splitlines()
        assert header.startswith("t,re_0,im_0") and len(rows) == 2
        for row in rows:
            parts = [float(cell) for cell in row.split(",")[1:-1]]
            assert abs(math.hypot(*parts) - 1.0) <= 1e-10

    def test_simulate_close_pairs_of_two_kinds(self, runner, tmp_path):
        # W21's top pair lies 7.5e-14 apart, one vector of each kind
        matrix = tmp_path / "w21.json"
        matrix.write_text(json.dumps(wilkinson(21).to_json_obj()))
        result = runner.invoke(main, ["pst", "simulate", str(matrix), "--t1", "10", "--steps", "3"])
        assert result.exit_code == 0
        assert len(result.output.strip().splitlines()) == 4

    def test_simulate_below_the_normal_doubles(self, runner, tmp_path):
        # the 5-site Krawtchouk chain times 2^-1060: its eigenvalues, rounded
        # to the subnormals, failed the residual check (NotAnEigenvalue); in
        # the scaled units of the chain they are resolved and it evolves
        chain = tmp_path / "k5tiny.json"
        offdiag = [math.ldexp(math.sqrt((k + 1) * (4 - k)) / 2, -1060) for k in range(4)]
        chain.write_text(json.dumps({"diag": [0.0] * 5, "offdiag": offdiag}))
        result = runner.invoke(main, ["pst", "simulate", str(chain), "--t1", "1", "--steps", "2"])
        assert result.exit_code == 0
        header, *rows = result.output.strip().splitlines()
        assert header.startswith("t,re_0,im_0") and len(rows) == 2
        for row in rows:  # at these times the phases are below 2^-1000: the excitation stays on site 0
            assert float(row.split(",")[1]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t1", ["1e300", "1e308"])
    def test_simulate_time_beyond_phase_resolution(self, runner, tmp_path, t1):
        matrix = tmp_path / "two.json"
        matrix.write_text(json.dumps(JacobiMatrix((0.0, 0.0), (2.0,)).to_json_obj()))
        result = runner.invoke(main, ["pst", "simulate", str(matrix), "--t1", t1, "--steps", "2"])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "OutOfRange"

    @pytest.mark.parametrize(
        "times",
        [["--t1", "inf"], ["--t0", "nan", "--t1", "1"], ["--t0", "-inf", "--t1", "1"], ["--t0", "-1e308", "--t1", "1e308"]],
    )
    def test_simulate_non_finite_time_is_usage_error(self, runner, files, times):
        result = runner.invoke(main, ["pst", "simulate", files["chain"], *times, "--steps", "2"])
        assert result.exit_code == 2
        assert "finite" in result.stderr


def krawtchouk5(k: int) -> dict:
    """The 5-site Krawtchouk chain times 2^k (exact), spectrum 2^k (-2..2)."""
    return {name: [math.ldexp(v, k) for v in values] for name, values in krawtchouk(5).to_json_obj().items()}


class TestRelativeTolerance:
    """Every tolerance the CLI hands on is relative to its input: ||H||_inf
    of a chain, max |lambda| of a spectrum without its own "tolerance"."""

    @staticmethod
    def run(runner, tmp_path, command, payload, env=None):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        result = runner.invoke(main, [*command, str(path)], env=env)
        assert result.exit_code == 0, result.stderr
        return out_json(result)

    @pytest.mark.parametrize("k", [-1000, -60, -43, 0, 60, 1000])
    def test_power_of_two_equivariance(self, runner, tmp_path, k):
        # jacobi eig took 1e-12 as an absolute separation, as did pst design for
        # a spectrum file without a "tolerance": both failed for k <= -43
        def scaled(values, k):
            return [math.ldexp(v, k) for v in values]

        def results(k):
            eig = self.run(runner, tmp_path, ["jacobi", "eig"], krawtchouk5(k))
            cert = self.run(runner, tmp_path, ["pst", "verify"], krawtchouk5(k))
            design = self.run(runner, tmp_path, ["pst", "design"], {"eigenvalues": scaled(range(-2, 3), k)})
            return eig, cert, design

        (eig, cert, design), (eig_k, cert_k, design_k) = results(0), results(k)
        assert eig_k["eigenvalues"] == scaled(eig["eigenvalues"], k)
        assert eig_k["tolerance"] == pytest.approx(math.ldexp(eig["tolerance"], k), rel=1e-9)  # subnormal at -1000
        assert (cert_k["T"], cert_k["phi"]) == (math.ldexp(cert["T"], -k), cert["phi"])
        assert cert_k["eigenvalues"] == eig_k["eigenvalues"]
        assert design_k == {name: scaled(values, k) for name, values in design.items()}

    def test_default_separation_is_relative_to_the_chain(self, runner, tmp_path):
        h = JacobiMatrix.from_json_obj(krawtchouk5(0))
        assert self.run(runner, tmp_path, ["jacobi", "eig"], krawtchouk5(0))["tolerance"] == eigenvalues(h).tolerance
        assert eigenvalues(h).tolerance == pytest.approx(1e-12 * math.sqrt(6), rel=1e-15)  # 1e-12 ||H||_inf
        for env, option in (({"PALINFRAC_TOL": "1e-6"}, []), ({}, ["--tol", "1e-6"])):
            payload = self.run(runner, tmp_path, ["jacobi", "eig", *option], krawtchouk5(0), env)
            assert payload["tolerance"] == eigenvalues(h, 1e-6).tolerance

    def test_design_separation_is_relative_to_the_spectrum(self, runner, tmp_path):
        # gaps 1e-14: PALINFRAC_TOL 0.6 asks 0.6e-14, 1.0 asks 1e-14
        path = tmp_path / "spectrum.json"
        path.write_text(json.dumps({"eigenvalues": [-1e-14, 0.0, 1e-14]}))
        assert runner.invoke(main, ["pst", "design", str(path)], env={"PALINFRAC_TOL": "0.6"}).exit_code == 0
        result = runner.invoke(main, ["pst", "design", str(path)], env={"PALINFRAC_TOL": "1"})
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "DegenerateSpectrum"

    @pytest.mark.parametrize("env, tolerance", [({"PALINFRAC_TOL": "1e10"}, {}), ({}, {"tolerance": 1.7e308})])
    def test_design_separation_past_the_largest_double(self, runner, tmp_path, env, tolerance):
        # 1e10 * 1e300 overflowed, and Spectrum rejected the infinite separation
        # as a usage error (exit 2); capped at the largest double it is the
        # domain error of a file that asks 1.7e308 itself
        path = tmp_path / "spectrum.json"
        path.write_text(json.dumps({"eigenvalues": [-1e300, 0.0, 1e300], **tolerance}))
        result = runner.invoke(main, ["pst", "design", str(path)], env=env)
        assert result.exit_code == 1, result.stderr
        assert json.loads(result.stderr)["error"] == "DegenerateSpectrum"

    def test_verify_ratio_test_is_relative_to_the_chain(self, runner, tmp_path):
        # gaps 1 and 999999, both odd: T = pi.  The ratio 999999.0000000002 was
        # asked to within 1e-12 absolute, below the error its eigenvalues carry
        chain = self.run(runner, tmp_path, ["pst", "design"], {"eigenvalues": [-500000, -499999, 500000]})
        assert self.run(runner, tmp_path, ["pst", "verify"], chain)["T"] == pytest.approx(math.pi, rel=1e-12)


class TestPfrac:
    def test_expand(self, runner, files):
        result = runner.invoke(main, ["pfrac", "expand", files["q_bad"], files["p_bad"]])
        payload = out_json(result)
        assert payload["partial_quotients"][0] == ["-9/1", "1/1"]
        assert payload["partial_quotients"][1] == ["-2/27", "-1/36"]
        assert payload["partial_quotients"][2] == ["54/5", "162/5"]

    def test_palindrome_true(self, runner, files):
        result = runner.invoke(
            main, ["pfrac", "palindrome", files["q_pal"], files["p_pal"]]
        )
        payload = out_json(result)
        assert payload["palindromic"] is True
        assert Polynomial.from_strings(payload["cofactor"]) == Polynomial((1, 0, 1))

    def test_palindrome_false(self, runner, files):
        result = runner.invoke(
            main, ["pfrac", "palindrome", files["q_bad"], files["p_bad"]]
        )
        payload = out_json(result)
        assert payload["palindromic"] is False
        assert payload["cofactor"] is None


def _int_digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@contextlib.contextmanager
def _no_int_digit_limit():
    limit = _int_digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_pfrac_expand_past_the_int_str_digit_limit(runner, tmp_path):
    # the quotients of a degree-24 pair carry integers of more than 4300
    # digits, Python's default cap on int/str conversion (3.11+)
    rng = random.Random(0)
    p = Polynomial([rand_fraction(rng) for _ in range(24)] + [1])
    q = Polynomial([rand_fraction(rng) for _ in range(23)] + [1])

    def expand(name, num, den):
        paths = [tmp_path / f"{name}_q.json", tmp_path / f"{name}_p.json"]
        for path, coeffs in zip(paths, (num, den)):
            path.write_text(json.dumps(coeffs))
        limit = _int_digit_limit()
        result = runner.invoke(main, ["pfrac", "expand", *map(str, paths)])
        assert result.exit_code == 0, result.output
        assert _int_digit_limit() == limit  # restored after the command
        return out_json(result)

    quotients = expand("pair", q.to_strings(), p.to_strings())["partial_quotients"]
    big = max((c for quotient in quotients for c in quotient), key=len)
    assert max(len(part) for part in big.split("/")) > 4300
    # the CLI reads such a coefficient back: (x + big) / x^2
    again = expand("big", [big, "1/1"], ["0/1", "0/1", "1/1"])
    with _no_int_digit_limit():
        assert pfraction_to_rational(PFraction.from_json_obj({"partial_quotients": quotients})) == (q, p)
        big_q = Polynomial.from_strings([big, "1/1"])
        assert PFraction.from_json_obj(again) == expand_pfraction(big_q, Polynomial((0, 0, 1)))


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_coefficient_is_usage_error(runner, files, tmp_path, literal):
    # json.load accepts these literals; Fraction(inf) raises OverflowError, Fraction(nan) ValueError
    q = tmp_path / "q_inf.json"
    q.write_text(f'["1/1", {literal}]')
    for command in (["pfrac", "expand"], ["jfrac", "expand"]):
        result = runner.invoke(main, [*command, str(q), files["p_bad"]])
        assert result.exit_code == 2
        assert "bad coefficient" in result.stderr
