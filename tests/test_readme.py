"""The README's "Library quick tour" runs and its comments state its values;
its module map names only public, importable names."""

import ast
import importlib
import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_quick_tour_values_match_their_comments():
    namespace: dict = {}
    checked = 0
    for line in _quick_tour():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        if not code:
            continue
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(expression, namespace)
        # the stated value is the comment's leading tuple or number
        stated = ast.literal_eval(re.match(r"\([^)]*\)|[^\s,]+", comment).group())
        if comment.endswith("to rounding"):
            assert value == pytest.approx(stated, abs=1e-12)
        else:
            assert value == stated
        checked += 1
    assert checked == 5
    # comments on the two assignments
    assert namespace["chain"].offdiag == pytest.approx((1 / math.sqrt(2),) * 2, abs=1e-15)
    cert = namespace["cert"]
    assert (cert.T, cert.phi) == pytest.approx((math.pi, math.pi), abs=1e-12)


def test_module_map_names_are_public_and_importable():
    section = README.read_text(encoding="utf-8").split("## Module map", 1)[1].split("\n## ", 1)[0]
    rows = [re.findall(r"`([^`]+)`", line) for line in section.splitlines() if line.startswith("| `")]
    assert len(rows) == 6
    for module_name, *names in rows:
        module = importlib.import_module(module_name)
        for name in names:
            assert name in module.__all__, f"{module_name}.{name} is not in __all__"
            assert hasattr(module, name), f"{module_name}.{name} does not exist"
