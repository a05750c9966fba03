"""No floating point anywhere in the package or in the tests' references.

Every module under src/splitstat, tests/oracles.py (a reference is
only useful if it is exact) and the scripts under demos (they print the
library's exact values) is parsed with ast and may hold no float or
complex literal, no float(...) or complex(...) call, and no import from
math other than its integer functions.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "splitstat"
DEMOS = TESTS.parent / "demos"
INTEGER_MATH = {"factorial", "lcm", "gcd", "comb", "isqrt"}


def float_uses(source: str) -> list[str]:
    """Each float literal, float/complex call and non-integer math import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{where}: literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex")
        ):
            found.append(f"{where}: call to {node.func.id}")
        elif isinstance(node, ast.Import):
            found += [
                f"{where}: import {a.name}" for a in node.names if a.name.split(".")[0] == "math"
            ]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"{where}: math.{a.name}" for a in node.names if a.name not in INTEGER_MATH
            ]
    return found


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + [TESTS / "oracles.py"] + sorted(DEMOS.glob("*.py")),
    ids=lambda p: p.name,
)
def test_module_uses_no_floating_point(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_each_kind_of_float_use():
    assert float_uses("from math import lcm, isqrt\nx = 10**3\n") == []
    for bad in (
        "x = 0.5",
        "x = 1e3",
        "x = 2j",
        "y = float(3)",
        "y = complex(1, 2)",
        "import math",
        "import math as m",
        "from math import sqrt",
        "from math import gcd, log",
    ):
        assert len(float_uses(bad)) == 1, bad
