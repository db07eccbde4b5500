"""The library computes exactly: no source file under ``src/obsrep`` can reach a float.

The check reads each module's syntax tree, so it covers code that no test
runs.  It refuses float literals, the name ``float``, true division (``/`` and
``/=``, which turn two ints into a float) and every ``math`` function but the
integer ones.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "obsrep").glob("*.py"))
INTEGER_MATH = {"gcd", "lcm", "prod", "isqrt", "comb"}


def float_hazards(tree):
    """(line, what) for each construct of ``tree`` that can make a float."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "the name float"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "the / operator"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names
                      if a.name not in INTEGER_MATH]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            found.append((node.lineno, f"math.{node.attr}"))
    return found


def test_sources_have_no_float_hazard():
    assert len(SOURCES) > 10
    found = {p.name: float_hazards(ast.parse(p.read_text(), str(p))) for p in SOURCES}
    assert {name: hazards for name, hazards in found.items() if hazards} == {}


def test_each_hazard_is_caught():
    source = "\n".join([
        "x = 0.5",
        "y = float(3)",
        "z = 1 / 2",
        "z /= 2",
        "from math import sqrt, gcd",
        "import math",
        "w = math.log(2) + math.isqrt(5)",
        "v = 7 // 2",
    ])
    assert sorted(line for line, _ in float_hazards(ast.parse(source))) == [1, 2, 3, 4, 5, 7]
