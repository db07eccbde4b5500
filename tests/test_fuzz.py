"""Fuzzed inputs keep the CLI's exit-code contract.

Fuzzed documents go to the drawing subcommands ``faces``, ``incidence`` and
``cover`` and to the scene subcommands ``visibility``, ``validate``,
``encode``, ``ordertype``, ``signature`` and ``partition-check``: malformed
JSON and bytes, huge coordinates, collinear or repeated points, obstacles,
and graphs whose ``n`` does not match the points.  Short words go to
``decode``, and fuzzed bytes and text go to ``decode --table`` as the
pattern table.  Every run exits 0, 1 or 2; a failing run prints exactly one
``error:`` or ``contradiction:`` line, except that ``validate`` lists the
wrong pairs when a valid scene does not represent its graph; no run leaks a
traceback.
``bounds``, ``obs-search``, ``chain``, ``random-exp`` and ``derive-table``
are left out, because a large numeric argument or graph alone makes them
run for seconds.
"""

import contextlib
import io
import json
import re

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


# ``validate`` answers "no" to a valid scene that does not represent its
# graph with exit 1, ``scene ok`` on stdout and one line per wrong pair.
MISMATCH = re.compile(
    r"pair \d+-\d+ is (in the graph but blocked in the scene"
    r"|visible in the scene but not in the graph)"
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    lines = err.getvalue().splitlines()
    mismatch = (
        argv[0] == "validate"
        and rc == 1
        and out.getvalue() == "scene ok\n"
        and lines
        and all(MISMATCH.fullmatch(line) for line in lines)
    )
    if rc != 0 and not mismatch:
        assert len(lines) == 1, lines
        assert lines[0].startswith(("error: ", "contradiction: ")), lines
    text = out.getvalue() + err.getvalue()
    for leak in ("Traceback", "RecursionError", "MemoryError"):
        assert leak not in text


@FUZZ
@given(sub=st.sampled_from(["faces", "incidence", "cover"]), raw=drawing_documents())
@example(sub="faces", raw=b"[" * 100_000)
@example(sub="cover", raw=b'{"points": [[' + b"9" * 5000 + b", 0]]}")
@example(sub="incidence", raw=b'{"points": [[0, 0], [1, 1], [2, 2]], "graph": {"n": 3}}')
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
