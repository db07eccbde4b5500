"""Fuzzed inputs keep the CLI's exit-code contract.

Fuzzed documents go to the drawing subcommands ``faces``, ``incidence`` and
``cover`` and to the scene subcommands ``visibility``, ``validate``,
``encode``, ``ordertype``, ``signature`` and ``partition-check``: malformed
JSON and bytes, huge coordinates, collinear or repeated points, obstacles,
and graphs whose ``n`` does not match the points.  Short words go to
``decode``, and fuzzed bytes and text go to ``decode --table`` as the
pattern table.  The search subcommands ``obs-search``, ``chain``,
``random-exp`` and ``derive-table`` get small graphs (``n`` at most 6),
1 or 2 placements, and budgets of 1 to 3 scenes, since their cost grows
with each of those.  ``bounds`` gets decimal numbers of up to 30 digits, zero, negative
numbers and junk text for ``--h`` and ``--s``, and ``P/Q`` fractions with
parts up to 10^12, decimals and junk for ``--c``, passed as ``--c=TEXT`` or
as ``--c TEXT``.  Every run exits 0, 1 or 2;
a failing run prints exactly one ``error:`` or ``contradiction:`` line, or,
when argparse refuses an option, its usage and one ``obsrep ...: error:``
line; no run leaks a traceback.
"""

import contextlib
import io
import json
from datetime import timedelta

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from obsrep.cli import main

# Small coordinates make collinear and repeated points common; wide ones
# make general position common; huge ones stress the exact arithmetic.
COORDINATE = st.one_of(
    st.integers(-3, 3), st.integers(-10**6, 10**6), st.integers(-(2**300), 2**300)
)
POINT = st.lists(COORDINATE, min_size=2, max_size=2)
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# A triangle whose coordinates have 2,201 digits each: JSON takes them, but its
# doubled area has about 4,400, more than str() writes.
HUGE_TRIANGLE = json.dumps(
    {
        "points": [[0, 0], [10**2200, 1], [1, 10**2200]],
        "graph": {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]},
    }
).encode()
FUZZ = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def drawing_documents(draw):
    """The bytes of a file handed to a drawing subcommand."""
    kind = draw(st.sampled_from(["drawing", "drawing", "drawing", "json", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "json":
        return json.dumps(draw(JUNK)).encode()
    points = draw(st.lists(st.one_of(POINT, POINT, POINT, JUNK), max_size=6))
    n = draw(st.one_of(st.just(len(points)), st.integers(-1, 7), JUNK))
    edges = st.lists(st.integers(0, 7), min_size=2, max_size=2)
    doc = {"points": points, "graph": {"n": n, "edges": draw(st.lists(edges, max_size=10))}}
    if draw(st.integers(0, 4)) == 0:
        doc["obstacles"] = draw(st.lists(st.lists(POINT, max_size=5), max_size=2))
    if draw(st.integers(0, 9)) == 0:
        doc[draw(st.sampled_from(["points", "graph", "obstacles", "extra"]))] = draw(JUNK)
    return json.dumps(doc).encode()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    refused = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse refused an option
            rc, refused = e.code, True
    assert rc in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if refused:
        assert (rc, out.getvalue()) == (1, "")
        assert [line for line in lines if "error: " in line] == lines[-1:], lines
        assert lines[-1].startswith("obsrep "), lines
    elif rc != 0:
        assert len(lines) == 1, lines
        assert lines[0].startswith(("error: ", "contradiction: ")), lines
    text = out.getvalue() + err.getvalue()
    for leak in ("Traceback", "RecursionError", "MemoryError"):
        assert leak not in text
    return rc


@FUZZ
@given(sub=st.sampled_from(["faces", "incidence", "cover"]), raw=drawing_documents())
@example(sub="faces", raw=b"[" * 100_000)
@example(sub="cover", raw=b'{"points": [[' + b"9" * 5000 + b", 0]]}")
@example(sub="incidence", raw=b'{"points": [[0, 0], [1, 1], [2, 2]], "graph": {"n": 3}}')
@example(sub="faces", raw=HUGE_TRIANGLE)
def test_drawing_subcommands_keep_the_exit_code_contract(sub, raw, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    _run([sub, str(path)])


@FUZZ
@given(
    sub=st.sampled_from(
        ["visibility", "validate", "encode", "ordertype", "signature", "partition-check"]
    ),
    raw=drawing_documents(),
)
@example(sub="validate", raw=b'{"points": [[0, 0], [0, 1]], "graph": {"n": 2, "edges": []}}')
def test_scene_subcommands_keep_the_exit_code_contract(sub, raw, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    _run([sub, str(path)])


@FUZZ
@given(
    word=st.one_of(
        st.text(alphabet="0123456789+- ", max_size=12),
        st.sampled_from(["1+1+", "1-1-", "1+1-3+3-", "2+1-2-3+1+3-", ""]),
        st.text(max_size=8),
    ).filter(lambda word: not word.startswith("-"))  # argparse would read an option
)
def test_decode_keeps_the_exit_code_contract(word):
    _run(["decode", word])


TABLE_LINE = st.one_of(
    st.builds(
        "pattern {} {}".format,
        st.sampled_from(["q-p+p-q+", "q-p+q+p-", "p+q+p-q-", "x", ""]),
        st.sampled_from(["visible", "blocked", "seen"]),
    ),
    st.text(max_size=12),
)


@FUZZ
@given(
    raw=st.one_of(
        st.binary(max_size=40),
        st.text(max_size=40).map(str.encode),
        st.lists(TABLE_LINE, max_size=5).map(lambda lines: "\n".join(lines).encode()),
    )
)
@example(raw=b"\x80")
def test_decode_table_keeps_the_exit_code_contract(raw, tmp_path):
    path = tmp_path / "table.txt"
    path.write_bytes(raw)
    _run(["decode", "2+1-2-3+1+3-", "--table", str(path)])


# A graph document's ``n`` stays at most 6: the search subcommands place n
# points per placement and solve a cover per placement.  Top-level junk
# carries no "n", so it cannot name a larger graph.
GRAPH_N = st.one_of(
    st.integers(-1, 6), st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3)
)
SEED = st.integers(0, 2**64 - 1)
PLACEMENTS = st.integers(1, 2)


@st.composite
def graph_documents(draw):
    """The bytes of a file handed to ``obs-search`` or ``chain``."""
    kind = draw(st.sampled_from(["graph", "graph", "graph", "scene", "json", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "json":
        junk = draw(JUNK.filter(lambda v: not isinstance(v, dict) or "n" not in v))
        return json.dumps(junk).encode()
    if kind == "scene":
        # a scene document with no "graph" field names no graph to search
        return json.dumps({"points": draw(st.lists(POINT, max_size=6))}).encode()
    n = draw(st.integers(2, 6)) if draw(st.integers(0, 4)) else draw(GRAPH_N)
    edges = []
    if type(n) is int and n >= 2:
        # mostly edges a valid graph can have, so most searches run
        pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
        edges = draw(st.lists(pair, max_size=10))
    if not edges or draw(st.integers(0, 4)) == 0:
        edges += draw(st.lists(st.lists(st.integers(0, 7), min_size=2, max_size=2), max_size=3))
    return json.dumps({"n": n, "edges": edges}).encode()


def _search_options(seed, placements):
    return ["--seed", str(seed), "--placements", str(placements)]


@FUZZ
@given(
    sub=st.sampled_from(["obs-search", "chain"]),
    raw=graph_documents(),
    seed=SEED,
    placements=PLACEMENTS,
    order=st.sampled_from(["lex", "random"]),
)
@example(sub="obs-search", raw=b'{"n": 6, "edges": [[1, 2]]}', seed=0, placements=1,
         order="lex")
@example(sub="chain", raw=b'{"points": [[0, 0]]}', seed=0, placements=1, order="random")
def test_graph_subcommands_keep_the_exit_code_contract(
    sub, raw, seed, placements, order, tmp_path
):
    path = tmp_path / "graph.json"
    path.write_bytes(raw)
    argv = [sub, str(path)] + _search_options(seed, placements)
    if sub == "chain":
        argv += ["--order", order]
    _run(argv)


@FUZZ
@given(
    n=st.integers(1, 6),
    trials=st.integers(1, 2),
    seed=SEED,
    placements=PLACEMENTS,
    exhaustive=st.booleans(),
)
@example(n=6, trials=1, seed=0, placements=1, exhaustive=True)
def test_random_exp_keeps_the_exit_code_contract(n, trials, seed, placements, exhaustive):
    argv = ["random-exp", "--n", str(n), "--trials", str(trials)]
    # walking every graph costs 2^C(n,2) searches, so n = 5 is left out
    exhaustive = exhaustive and n != 5
    if exhaustive:
        argv.append("--exhaustive")
    rc = _run(argv + _search_options(seed, placements))
    if exhaustive and n == 6:
        assert rc == 1


@FUZZ
@given(budget=st.integers(1, 3), seed=SEED)
def test_derive_table_keeps_the_exit_code_contract(budget, seed):
    _run(["derive-table", "--seed", str(seed), "--budget", str(budget)])


COUNT = st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=30),
    st.just("0"),
    st.integers(-(10**30), -1).map(str),
    st.text(max_size=8),
)
CONSTANT = st.one_of(
    st.builds("{}/{}".format, st.integers(0, 10**12), st.integers(0, 10**12)),
    st.integers(1, 10**12).map(str),
    st.sampled_from(["0", "-1/2", "1/0", "0.5", "1e5", "2.5e-3", "1e99999"]),
    st.text(max_size=8),
)


@settings(FUZZ, deadline=timedelta(seconds=2))
@given(
    mode=st.sampled_from(["h", "s"]), count=COUNT, c=st.none() | CONSTANT, split=st.booleans()
)
@example(mode="h", count="2687", c=None, split=False)
@example(mode="h", count="9" * 5000, c=None, split=False)
@example(mode="s", count="3", c="1e5", split=False)
@example(mode="s", count="3", c="1000", split=False)
@example(mode="s", count="3", c="-1/2", split=True)
@example(mode="s", count="3", c="1e-4300", split=False)
def test_bounds_keeps_the_exit_code_contract(mode, count, c, split):
    # "--h=TEXT" hands TEXT over as the value even when it starts with "-";
    # "--c TEXT" does so when TEXT starts with "-" and a digit
    argv = ["bounds", f"--{mode}={count}"]
    if c is not None:
        argv += ["--c", c] if split else [f"--c={c}"]
    rc = _run(argv)
    assert rc in (0, 1)
    if mode == "h" and count in ("2687", "9" * 5000) or c in ("-1/2", "1e-4300"):
        assert rc == 1
