"""The library computes exactly: no source file under ``src/obsrep`` can reach a float.

The check reads each module's syntax tree, so it covers code that no test
runs.  It refuses float literals, the name ``float``, true division (``/`` and
``/=``, which turn two ints into a float) and every ``math`` function but the
integer ones.  It also refuses comparators: every order the package sorts or
bisects by is an exact integer key, so ``cmp_to_key`` and the reference
comparator ``direction_cmp``, which lives in ``tests/oracles.py``, stay out.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "obsrep").glob("*.py"))
INTEGER_MATH = {"gcd", "lcm", "prod", "isqrt", "comb"}
COMPARATORS = {"cmp_to_key", "direction_cmp"}


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


def comparator_hazards(tree):
    """(line, name) for each use, import, definition or name string of a comparator."""
    found = []
    for node in ast.walk(tree):
        name = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, (ast.alias, ast.FunctionDef))
            else node.value if isinstance(node, ast.Constant)
            else None
        )
        if isinstance(name, str) and name.rsplit(".", 1)[-1] in COMPARATORS:
            found.append((node.lineno, name))
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


def test_sources_order_by_integer_keys_only():
    found = {p.name: comparator_hazards(ast.parse(p.read_text(), str(p))) for p in SOURCES}
    assert {name: hazards for name, hazards in found.items() if hazards} == {}


def test_each_comparator_is_caught():
    source = "\n".join([
        "from functools import cmp_to_key",
        "import functools",
        "k = functools.cmp_to_key(f)",
        "def direction_cmp(a, b): return 0",
        "from .geom import direction_cmp as by_angle",
        "g = getattr(functools, 'cmp_to_key')",
        "ring.sort(key=keys.__getitem__)",
        "doc = 'direction_cmp lives in tests/oracles.py'",
        "ring.sort(key=cmp_to_key(by_angle))",
    ])
    assert sorted(line for line, _ in comparator_hazards(ast.parse(source))) == [1, 3, 4, 5, 6, 9]
