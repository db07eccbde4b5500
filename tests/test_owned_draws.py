"""Every seeded draw in ``src/obsrep`` comes from ``getrandbits``.

Bounded draws go through ``sampling._below`` and shuffles through
``sampling._shuffle``; ``gnp_half`` flips coins and ``random_graph_experiment``
takes sub-seeds with ``getrandbits`` directly.  The check reads each module's
syntax tree and refuses every call of a ``random.Random`` method that maps
bits to values by CPython's own rules, and every import of one from
``random``.  ``tests/`` and ``perfbench/`` may use them.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "obsrep").glob("*.py"))
UNOWNED = {"randint", "randrange", "shuffle", "choice", "choices", "sample", "random", "uniform"}


def unowned_draws(tree):
    """(line, name) for each call or import of an unowned draw in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in UNOWNED):
            found.append((node.lineno, node.func.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            found += [(node.lineno, a.name) for a in node.names if a.name in UNOWNED]
    return found


def test_sources_draw_through_getrandbits_only():
    assert len(SOURCES) > 10
    found = {p.name: unowned_draws(ast.parse(p.read_text(), str(p))) for p in SOURCES}
    assert {name: draws for name, draws in found.items() if draws} == {}


def test_each_unowned_draw_is_caught():
    source = "\n".join([
        "x = rng.randint(1, 6)",
        "y = random.Random(seed).randrange(10)",
        "random.Random(seed).shuffle(items)",
        "from random import choice, getrandbits",
        "z = rng.getrandbits(8) + _below(rng.getrandbits, 5)",
        "w = rng.sample(items, 2) + [rng.choice(items)] + rng.choices(items, k=2)",
        "v = rng.random() + rng.uniform(0, 1)",
        "p.add_argument('--order', choices=('lex', 'random'))",
    ])
    assert sorted(line for line, _ in unowned_draws(ast.parse(source))) == [1, 2, 3, 4, 6, 6, 6, 7, 7]
