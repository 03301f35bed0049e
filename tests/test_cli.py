import json
import math

import pytest
from click.testing import CliRunner

from genutil import wilkinson
from palinfrac.cli import main
from palinfrac.jfraction import JFraction
from palinfrac.jacobi import JacobiMatrix
from palinfrac.polynomial import Polynomial


@pytest.fixture
def runner():
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
        # Wilkinson W15: a unitary trace or a domain error, never a traceback
        matrix = tmp_path / "w15.json"
        matrix.write_text(json.dumps(wilkinson(15).to_json_obj()))
        result = runner.invoke(main, ["pst", "simulate", str(matrix), "--t1", "1", "--steps", "2"])
        if result.exit_code == 0:
            assert result.output.startswith("t,re_0,im_0")
        else:
            assert result.exit_code == 1
            assert json.loads(result.stderr)["error"] == "InternalCheckFailed"

    @pytest.mark.parametrize(
        "times",
        [["--t1", "inf"], ["--t0", "nan", "--t1", "1"], ["--t0", "-inf", "--t1", "1"], ["--t0", "-1e308", "--t1", "1e308"]],
    )
    def test_simulate_non_finite_time_is_usage_error(self, runner, files, times):
        result = runner.invoke(main, ["pst", "simulate", files["chain"], *times, "--steps", "2"])
        assert result.exit_code == 2
        assert "finite" in result.stderr


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


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_coefficient_is_usage_error(runner, files, tmp_path, literal):
    # json.load accepts these literals; Fraction(inf) raises OverflowError, Fraction(nan) ValueError
    q = tmp_path / "q_inf.json"
    q.write_text(f'["1/1", {literal}]')
    for command in (["pfrac", "expand"], ["jfrac", "expand"]):
        result = runner.invoke(main, [*command, str(q), files["p_bad"]])
        assert result.exit_code == 2
        assert "bad coefficient" in result.stderr
