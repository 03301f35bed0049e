"""The float layers (jacobi, pst, numpy) load on first use.

Each test runs in a fresh interpreter, since this one has numpy loaded.
Setting sys.modules["numpy"] = None makes any import of numpy raise
ImportError, so a command that succeeds under it never touched numpy.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import palinfrac

SRC = str(Path(palinfrac.__file__).resolve().parent.parent)


def assert_runs(code: str, cwd=None, no_numpy: bool = False) -> str:
    """Run code in a fresh interpreter that imports palinfrac from this tree; its stdout."""
    code = textwrap.dedent(code)
    if no_numpy:
        code = 'import sys\nsys.modules["numpy"] = None\n' + code
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        cwd=cwd,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("module", ["palinfrac", "palinfrac.cli"])
def test_import_leaves_numpy_out(module):
    assert_runs(f"import sys, {module}\nassert 'numpy' not in sys.modules, sorted(sys.modules)")


@pytest.mark.parametrize(
    "args",
    [
        ["cf", "serret", "3", "4"],
        ["poly", "cheb", "t", "5"],
        ["jfrac", "cheb", "3"],
        ["pfrac", "expand", "q.json", "p.json"],
    ],
)
def test_exact_commands_run_without_numpy(args, tmp_path):
    (tmp_path / "q.json").write_text(json.dumps(["-1/2", "0/1", "1/1"]))
    (tmp_path / "p.json").write_text(json.dumps(["0/1", "-1/1", "0/1", "1/1"]))
    code = f"from palinfrac.cli import main\nmain({args!r}, standalone_mode=False)"
    out = assert_runs(code, tmp_path, no_numpy=True)
    assert json.loads(out)


def test_float_command_needs_numpy(tmp_path):
    (tmp_path / "h.json").write_text(json.dumps({"diag": [0, 0], "offdiag": [1]}))
    assert_runs(
        """
        from palinfrac.cli import main
        try:
            main(["jacobi", "eig", "h.json"], standalone_mode=False)
        except ImportError:
            raise SystemExit(0)
        raise SystemExit("jacobi eig ran without numpy")
        """,
        tmp_path,
        no_numpy=True,
    )


def test_lazy_names_resolve_to_the_float_layers():
    assert_runs(
        """
        import sys
        import palinfrac
        assert "numpy" not in sys.modules
        assert palinfrac.pst.PstCertificate is palinfrac.PstCertificate  # the module resolves too
        assert palinfrac.AmplitudeTrace is palinfrac.pst.AmplitudeTrace
        assert palinfrac.Spectrum is palinfrac.jacobi.Spectrum
        assert palinfrac.JacobiMatrix is palinfrac.jacobi.JacobiMatrix
        assert "numpy" in sys.modules
        """
    )


def test_star_import_gives_every_public_name():
    assert_runs(
        """
        import palinfrac
        namespace = {}
        exec("from palinfrac import *", namespace)
        assert set(palinfrac.__all__) <= set(namespace), sorted(namespace)
        assert namespace["PstCertificate"] is palinfrac.pst.PstCertificate
        """
    )


def test_lazy_names_are_listed_before_use():
    assert_runs(
        """
        import sys
        import palinfrac
        names = dir(palinfrac)
        lazy = {"AmplitudeTrace", "JacobiMatrix", "PstCertificate", "Spectrum", "jacobi", "pst"}
        assert lazy <= set(names), names
        assert "numpy" not in sys.modules
        """
    )


def test_unknown_name_is_an_attribute_error():
    assert_runs(
        """
        import palinfrac
        try:
            palinfrac.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise SystemExit("no AttributeError")
        """
    )
