import argparse
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import obsrep
import obsrep.geom
from obsrep.arrangement import build_arrangement
from obsrep.cli import build_parser, main
from obsrep.sceneio import load_scene
from obsrep.tangent import builtin_pattern_table

from test_golden import G12

HEXAGON = {
    "points": [[-2, 0], [4, 6], [6, -5]],
    "obstacles": [[[0, 0], [2, -2], [5, -2], [7, 0], [5, 2], [2, 2]]],
}
SQUARE_DRAWING = {
    "points": [[0, 0], [10, 0], [10, 10], [0, 10]],
    "graph": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]},
}
C4_GRAPH = {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


# --- scene subcommands ---


def test_visibility_output(tmp_path, capsys):
    scene = write(tmp_path, "hex.json", HEXAGON)
    rc, out, err = run(capsys, ["visibility", scene])
    assert rc == 0 and err == ""
    assert out == "points 3\nobstacles 1\nedge 1 2\nedge 1 3\nblocked 2 3 by 1\n"


def test_validate_matching_graph(tmp_path, capsys):
    doc = dict(HEXAGON, graph={"n": 3, "edges": [[1, 2], [1, 3]]})
    rc, out, err = run(capsys, ["validate", write(tmp_path, "s.json", doc)])
    assert (rc, out, err) == (0, "scene ok\ngraph matches\n", "")


def test_validate_scene_only(tmp_path, capsys):
    rc, out, err = run(capsys, ["validate", write(tmp_path, "s.json", HEXAGON)])
    assert (rc, out, err) == (0, "scene ok\n", "")


def test_validate_mismatch(tmp_path, capsys):
    doc = dict(HEXAGON, graph={"n": 3, "edges": [[2, 3]]})
    rc, out, err = run(capsys, ["validate", write(tmp_path, "s.json", doc)])
    assert rc == 1
    assert out == "scene ok\n"
    # a "no" verdict is one error line that names every wrong pair
    assert err.splitlines() == [
        "error: scene does not represent its graph: "
        "pair 2-3 is in the graph but blocked in the scene; "
        "pair 1-2 is visible in the scene but not in the graph; "
        "pair 1-3 is visible in the scene but not in the graph"
    ]


def test_validate_invalid_scene(tmp_path, capsys):
    doc = {"points": [[-2, 0], [3, 0]], "obstacles": HEXAGON["obstacles"]}
    rc, out, err = run(capsys, ["validate", write(tmp_path, "bad.json", doc)])
    assert rc == 1 and out == ""
    assert err.startswith("error: invalid scene:")
    assert "points[1] is inside obstacles[0]" in err


def test_validate_reports_a_long_line_once(tmp_path, capsys):
    # 300 points on one line are one diagnostic, not C(300, 3) triples
    doc = {"points": [[x, 2 * x + 1] for x in range(300)]}
    rc, out, err = run(capsys, ["validate", write(tmp_path, "line.json", doc)])
    names = ", ".join(f"points[{i}]" for i in range(300))
    assert (rc, out, err) == (1, "", f"error: invalid scene: collinear points: {names}\n")


def test_encode_hexagon(tmp_path, capsys):
    rc, out, err = run(capsys, ["encode", write(tmp_path, "hex.json", HEXAGON)])
    assert (rc, out, err) == (0, "2+1-2-3+1+3-\n", "")


def test_encode_missing_obstacle_index(tmp_path, capsys):
    scene = write(tmp_path, "hex.json", HEXAGON)
    rc, out, err = run(capsys, ["encode", scene, "--obstacle", "2"])
    assert rc == 1 and "no obstacle 2" in err


def test_ordertype_output(tmp_path, capsys):
    rc, out, err = run(capsys, ["ordertype", write(tmp_path, "hex.json", HEXAGON)])
    assert (rc, out) == (0, "points 3\ntriple 1 2 3 -\n")


def test_signature_output(tmp_path, capsys):
    rc, out, err = run(capsys, ["signature", write(tmp_path, "hex.json", HEXAGON)])
    assert rc == 0
    lines = out.splitlines()
    assert lines[:5] == [
        "points 3",
        "total 9",
        "obstacle 1 corners 4..9",
        "triples 84",
        "zeros 1",
    ]
    assert "triple 1 4 7 0" in lines[5:]
    assert len(lines) == 5 + 84


# --- decode and table derivation ---


def test_decode_builtin_table(capsys):
    # leading zeros are read, however many, and do not count against int()'s limit
    for word in ("2+1-2-3+1+3-", "0" * 5000 + "2+01-2-3+1+003-"):
        rc, out, err = run(capsys, ["decode", word])
        assert (rc, out, err) == (0, "n 3\nedge 1 2\nedge 1 3\n", "")


def test_decode_with_table_file(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text(builtin_pattern_table().serialize())
    rc, out, err = run(capsys, ["decode", "2+1-2-3+1+3-", "--table", str(table)])
    assert (rc, out) == (0, "n 3\nedge 1 2\nedge 1 3\n")


def test_decode_unknown_pattern(capsys):
    rc, out, err = run(capsys, ["decode", "2-2+1-1+"])
    assert rc == 1 and "never observed" in err


def test_decode_garbage(capsys):
    rc, out, err = run(capsys, ["decode", "zzz"])
    assert rc == 1 and "error:" in err
    # labels are ASCII digits only: Arabic-Indic and fullwidth ones are refused,
    # and so, without echoing it, is a label longer than int() reads (4,300 digits)
    for word in ("\u0661+\u0661-", "\uff11+\uff11-", "9" * 5000 + "+"):
        rc, out, err = run(capsys, ["decode", word])
        assert (rc, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and len(err) < 80
    # an unparsable word is named by position and a short excerpt, not echoed whole
    long_words = (("1+" + "x" * 5000, "character 3: 'x"), ("x" * 5000 + "1+", "character 1: 'x"))
    for word, where in long_words:
        rc, out, err = run(capsys, ["decode", word])
        assert (rc, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and len(err) < 80
        assert where in err


def test_decode_rejects_a_word_without_both_signs(capsys):
    for word in ("1+1+", "1-1-"):
        rc, out, err = run(capsys, ["decode", word])
        assert (rc, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ")


def test_contradictory_table_exits_two(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("pattern q-p+p-q+ blocked\npattern q-p+p-q+ visible\n")
    rc, out, err = run(capsys, ["decode", "2+1-2-3+1+3-", "--table", str(table)])
    assert rc == 2
    assert err.startswith("contradiction:")


def test_derive_table_reproduces_builtin(capsys):
    rc, out, err = run(capsys, ["derive-table", "--seed", "4242", "--budget", "120"])
    assert rc == 0
    assert out == builtin_pattern_table().serialize()


# --- drawing subcommands ---


def test_faces_output(tmp_path, capsys):
    rc, out, err = run(capsys, ["faces", write(tmp_path, "d.json", SQUARE_DRAWING)])
    assert rc == 0
    lines = out.splitlines()
    assert lines[:5] == ["nodes 4", "pieces 4", "faces 2", "components 1", "euler 2"]
    assert lines[5].startswith("face 1 bounded sides 4 area2 200 representative ")
    assert lines[6] == "face 2 unbounded sides 4 representative -1 -1"


def test_faces_on_huge_coordinates(tmp_path, capsys):
    big = 2**260
    doc = {
        "points": [[0, 0], [big, 1], [3, big]],
        "graph": {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]},
    }
    path = write(tmp_path, "t.json", doc)
    rc, out, err = run(capsys, ["faces", path])
    assert (rc, err) == (0, "")
    (line,) = [l for l in out.splitlines() if " bounded " in l]
    rx, ry = line.split()[-2:]
    fs = build_arrangement(*load_scene(path))
    assert fs.locate((Fraction(rx), Fraction(ry))) == int(line.split()[1]) - 1


def test_incidence_output(tmp_path, capsys):
    rc, out, err = run(capsys, ["incidence", write(tmp_path, "d.json", SQUARE_DRAWING)])
    assert rc == 0
    assert out == "faces 2\nnonedges 2\nnonedge 1 3 faces 1\nnonedge 2 4 faces 1\n"


def test_cover_output(tmp_path, capsys):
    rc, out, err = run(capsys, ["cover", write(tmp_path, "d.json", SQUARE_DRAWING)])
    assert (rc, out) == (0, "nonedges 2\nminimum 1\nfaces 1\n")


def test_cover_of_complete_drawing_needs_nothing(tmp_path, capsys):
    doc = {
        "points": [[0, 0], [10, 1], [4, 8]],
        "graph": {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]},
    }
    rc, out, err = run(capsys, ["cover", write(tmp_path, "k3.json", doc)])
    assert (rc, out) == (0, "nonedges 0\nminimum 0\nfaces\n")


def test_drawing_subcommands_refuse_obstacles(tmp_path, capsys):
    doc = dict(HEXAGON, graph={"n": 3, "edges": [[1, 2], [1, 3]]})
    path = write(tmp_path, "s.json", doc)
    for sub in ("faces", "incidence", "cover"):
        rc, out, err = run(capsys, [sub, path])
        assert rc == 1 and "remove the obstacles" in err


def test_drawing_subcommands_need_a_graph(tmp_path, capsys):
    doc = {"points": [[0, 0], [10, 0], [4, 7]]}
    rc, out, err = run(capsys, ["faces", write(tmp_path, "p.json", doc)])
    assert rc == 1 and 'needs a "graph" field' in err


@pytest.mark.parametrize(
    "sub",
    [
        "visibility", "validate", "encode", "ordertype", "signature", "partition-check",
        "faces", "incidence", "cover",
    ],
)
def test_scene_subcommands_check_general_position_once(sub, tmp_path, capsys, monkeypatch):
    original = obsrep.geom.is_general_position
    calls = []

    def counted(points):
        calls.append(points)
        return original(points)

    for name, module in list(sys.modules.items()):
        if name == "obsrep" or name.startswith("obsrep."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    doc = SQUARE_DRAWING if sub in ("faces", "incidence", "cover") else HEXAGON
    rc, out, err = run(capsys, [sub, write(tmp_path, "d.json", doc)])
    assert rc == 0
    assert len(calls) == 1


@pytest.mark.parametrize("sub", ["faces", "incidence", "cover", "obs-search"])
def test_areas_are_computed_only_where_printed(sub, tmp_path, capsys, monkeypatch):
    import obsrep.arrangement as arrangement

    original, calls = arrangement._area2, []

    def counted(nodes, cycle):
        calls.append(cycle)
        return original(nodes, cycle)

    monkeypatch.setattr(arrangement, "_area2", counted)
    if sub == "obs-search":
        argv = [sub, write(tmp_path, "g.json", G12["graph"]), "--seed", "1"]
    else:
        argv = [sub, write(tmp_path, "d.json", G12)]
    rc, out, err = run(capsys, argv)
    assert rc == 0
    bounded = out.count(" bounded ")
    assert len(calls) == bounded and (bounded > 0) == (sub == "faces")


@pytest.mark.parametrize("sub", ["cover", "obs-search"])
def test_running_out_of_memory_is_one_error_line(sub, tmp_path, capsys, monkeypatch):
    def exhausted(n_elements, sets):
        raise MemoryError

    monkeypatch.setattr(obsrep.search, "solve_cover", exhausted)
    if sub == "obs-search":
        argv = [sub, write(tmp_path, "g.json", C4_GRAPH), "--seed", "7"]
    else:
        argv = [sub, write(tmp_path, "d.json", SQUARE_DRAWING)]
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (1, "", "error: out of memory\n")


# --- search subcommands ---


def test_obs_search_output(tmp_path, capsys):
    graph = write(tmp_path, "c4.json", C4_GRAPH)
    rc, out, err = run(capsys, ["obs-search", graph, "--seed", "7"])
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "n 4"
    assert lines[1] == "edges 4"
    assert lines[2] == "upper-bound 1"
    assert lines[3] == "certified yes"
    assert [l.split()[0] for l in lines[4:8]] == ["point"] * 4
    assert lines[8].startswith("faces")
    assert lines[9] == "replay ok"


def test_obs_search_reports_a_witness_that_fails_to_replay(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("obsrep.cli.replay_witness", lambda graph, result: False)
    rc, out, err = run(capsys, ["obs-search", write(tmp_path, "c4.json", C4_GRAPH), "--seed", "7"])
    assert rc == 2
    assert err == "contradiction: witness failed to replay\n"
    assert "replay ok" not in out.splitlines() and out.startswith("n 4\n")


def test_obs_search_accepts_scene_documents(tmp_path, capsys):
    doc = dict(HEXAGON, graph={"n": 3, "edges": [[1, 2], [1, 3]]})
    rc, out, err = run(capsys, ["obs-search", write(tmp_path, "s.json", doc), "--seed", "3"])
    assert rc == 0
    assert "upper-bound 1" in out


def test_chain_output(tmp_path, capsys):
    graph = write(tmp_path, "c4.json", C4_GRAPH)
    rc, out, err = run(capsys, ["chain", graph, "--seed", "5"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n 4"
    assert lines[1] == "steps 3"
    assert lines[2] == "step 0 full bound 0 certified yes"
    assert lines[3] == "step 1 delete 1-3 bound 1 certified yes"
    assert lines[4] == "step 2 delete 2-4 bound 1 certified yes"
    assert lines[5] == "first 0 step 0"
    assert lines[6] == "first 1 step 1"


def test_partition_check_default_group_size(tmp_path, capsys):
    rc, out, err = run(capsys, ["partition-check", write(tmp_path, "hex.json", HEXAGON)])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n 3"
    assert lines[1] == "k 7"  # floor(5*log2(3))
    assert lines[2] == "full-groups 0"


def test_partition_check_explicit_group_size(tmp_path, capsys):
    scene = write(tmp_path, "hex.json", HEXAGON)
    rc, out, err = run(capsys, ["partition-check", scene, "--k", "1"])
    assert rc == 0
    assert out == (
        "n 3\nk 1\nfull-groups 3\nflagged 3\nobstacles 1\n"
        "identity holds\nhypothesis holds\nconclusion holds\n"
        "group 1 vertices 1 flagged\ngroup 2 vertices 2 flagged\ngroup 3 vertices 3 flagged\n"
    )


def test_random_exp_exhaustive(capsys):
    rc, out, err = run(capsys, ["random-exp", "--n", "3", "--seed", "1", "--exhaustive"])
    assert rc == 0
    assert out == (
        "n 3\nmode exhaustive\nexamined 8\ncertified 8\nunresolved 0\nfraction 1\n"
    )


def test_random_exp_sampled_is_reproducible(capsys):
    argv = ["random-exp", "--n", "4", "--seed", "11", "--trials", "3", "--placements", "8"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.startswith("n 4\nmode sampled\nexamined 3\n")


def test_bounds_h_mode(capsys):
    rc, out, err = run(capsys, ["bounds", "--h", "1"])
    assert (rc, out, err) == (0, "24\n", "")


def test_bounds_s_mode(capsys):
    rc, out, err = run(capsys, ["bounds", "--s", "3", "--c", "1/2"])
    assert (rc, out) == (0, "threshold 6 (for the supplied constant c = 1/2)\n")
    rc, out, err = run(capsys, ["bounds", "--s", "3"])
    assert (rc, out) == (0, "threshold 11 (for the supplied constant c = 1)\n")


def test_bounds_s_mode_refuses_fewer_than_three_sides(capsys):
    rc, out, err = run(capsys, ["bounds", "--s", "2"])
    assert (rc, out, err) == (1, "", "error: total side count s must be an int >= 3, not 2\n")


def test_bounds_h_mode_refuses_the_constant(capsys):
    # c belongs to the side-count bound; with --h it is an input error
    rc, out, err = run(capsys, ["bounds", "--h", "3", "--c", "-1"])
    assert (rc, out) == (1, "")
    assert err == "error: the constant c applies only to side-count (s) queries\n"


def test_negative_constant_reaches_the_positivity_check(capsys):
    # argparse took "-1/2" after "--c" for an option and refused the argv
    for c in ("-1/2", "-.5", "-1e3"):
        for argv in (["bounds", "--s", "3", "--c", c], ["bounds", "--s", "3", f"--c={c}"]):
            rc, out, err = run(capsys, argv)
            assert (rc, out, err) == (1, "", "error: the constant c must be positive\n"), argv


def test_overlong_numbers_are_refused_without_echo(capsys):
    # int() refuses more than 4,300 digits, and argparse used to echo them all
    for argv in (
        ["bounds", "--h", "9" * 5000],
        ["bounds", "--s", "3", "--c", "9" * 5000],
        ["derive-table", "--seed", "1" * 4301],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        want = f"obsrep {argv[0]}: error: argument {argv[-2]}: more than 4300 characters\n"
        assert (out, err) == ("", want)
    rc, out, err = run(capsys, ["bounds", "--h", "9" * 4300])
    assert (rc, out) == (1, "")
    assert err == "error: no threshold below n = 200000; the query constant is out of scale\n"


def test_numbers_take_ascii_digits_only(capsys):
    # int() and Fraction() also read fullwidth and Arabic-Indic digits and
    # underscores; the CLI refuses them as it does in decode
    for argv in (
        ["bounds", "--s", "\uff13", "--c", "\uff11/\u0662"],
        ["bounds", "--s", "3", "--c", "\uff11/\u0662"],
        ["bounds", "--h", "\u0661\u0662"],
        ["bounds", "--h", "1_0"],
        ["bounds", "--h", " 12"],
        ["bounds", "--s", "3", "--c", "1_0"],
        ["derive-table", "--seed", "\u0665", "--budget", "1"],
        ["derive-table", "--seed", "5", "--budget", "\u0661"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error: ") == 1 and err.splitlines()[-1].startswith("obsrep "), argv


def test_constant_takes_decimals_and_exponents(capsys):
    for text, want in (("0.5", "1/2"), (".5", "1/2"), ("5e-1", "1/2"), ("1.5E1", "15")):
        rc, out, err = run(capsys, ["bounds", "--s", "3", "--c", text])
        assert rc == 0 and out.endswith(f"c = {want})\n"), (text, out)
    # an exponent of five digits would have Fraction() build a huge power of ten
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--s", "3", "--c", "1e99999"])
    assert exc.value.code == 1
    capsys.readouterr()


# --- exit statuses and determinism ---


def test_usage_errors_exit_one(capsys):
    for argv in (
        [],
        ["no-such-command"],
        ["bounds"],  # one of --h/--s is required
        ["bounds", "--h", "1", "--s", "3"],  # mutually exclusive
        ["obs-search", "g.json"],  # --seed is required
        ["derive-table", "--seed", "-1"],
        ["derive-table", "--seed", "18446744073709551616"],  # 2**64
        ["bounds", "--s", "3", "--c", "1/0"],
        # placements are drawn on the 100 * n * n grid; no option sets it
        ["obs-search", "g.json", "--seed", "1", "--grid", "400"],
        ["chain", "g.json", "--seed", "1", "--grid", "400"],
        ["random-exp", "--n", "3", "--seed", "1", "--grid", "400"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        capsys.readouterr()


def test_readme_table_names_every_option():
    # one row per subcommand, naming exactly the options its parser takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {
        cell.split()[0]: set(re.findall(r"--[a-z-]+", cell))
        for cell in re.findall(r"^\| `([a-z-]+[^`]*)` \|", readme, re.MULTILINE)
    }
    parser = build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {s for a in p._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
        for name, p in subparsers.choices.items()
    }
    assert rows == options


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()


def test_missing_file_exits_one(capsys):
    rc, out, err = run(capsys, ["visibility", "/no/such/file.json"])
    assert rc == 1 and err.startswith("error:")


def test_same_argv_same_bytes(tmp_path, capsys):
    graph = write(tmp_path, "c4.json", C4_GRAPH)
    argv = ["obs-search", graph, "--seed", "12", "--placements", "20"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # main builds its parser on the first call; no call's options, defaults
    # or errors may reach the next one
    import obsrep.cli as cli

    built, placements = [], []
    build, search = cli.build_parser, cli.obs_upper_bound
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(None) or build())
    monkeypatch.setattr(
        cli, "obs_upper_bound", lambda g, p, **kw: placements.append(p) or search(g, p, **kw)
    )
    assert run(capsys, ["bounds", "--h", "9"]) == (0, "340\n", "")
    out = "threshold 357 (for the supplied constant c = 35/2)\n"
    assert run(capsys, ["bounds", "--s", "60", "--c", "35/2"]) == (0, out, "")
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--h", "1", "--s", "3"])
    assert exc.value.code == 1
    assert "not allowed with argument" in capsys.readouterr().err
    out = "threshold 11 (for the supplied constant c = 1)\n"
    assert run(capsys, ["bounds", "--s", "3"]) == (0, out, "")
    graph = write(tmp_path, "c4.json", C4_GRAPH)
    for argv in (["--placements", "3"], [], ["--placements", "5"]):
        rc, out, err = run(capsys, ["obs-search", graph, "--seed", "7", *argv])
        assert (rc, err, out.splitlines()[-1]) == (0, "", "replay ok")
    assert placements == [3, 64, 5]
    assert len(built) == 1


def console_script_target(name):
    """Return ``(module, attr)`` of the ``[project.scripts]`` entry ``name``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as f:
        entry = tomllib.load(f)["project"]["scripts"][name]
    module, attr = entry.split(":")
    return module, attr


def test_module_and_console_entry_points(tmp_path):
    # Both children must import the obsrep under test, not an installed copy
    # or whatever a relative PYTHONPATH resolves to from the launch directory.
    source_root = str(Path(obsrep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (source_root, env.get("PYTHONPATH")) if p
    )
    child = dict(capture_output=True, text=True, env=env, cwd=tmp_path)

    module = subprocess.run(
        [sys.executable, "-m", "obsrep", "bounds", "--h", "1"], **child
    )
    assert module.returncode == 0 and module.stdout == "24\n"
    golden = Path(__file__).resolve().parent / "golden" / "bounds-h15.txt"
    module = subprocess.run([sys.executable, "-m", "obsrep", "bounds", "--h", "15"], **child)
    assert (module.returncode, module.stdout) == (0, golden.read_text())
    module = subprocess.run([sys.executable, "-m", "obsrep", "bounds"], **child)
    assert (module.returncode, module.stdout) == (1, "")
    assert module.stderr.count("\n") == 1 and "Traceback" not in module.stderr
    assert module.stderr.startswith("obsrep bounds: error: ") and "--h --s" in module.stderr

    # The console script that pip installs from [project.scripts] is this
    # wrapper; writing it here tests the declared target without an install.
    target_module, target_attr = console_script_target("obsrep")
    wrapper = tmp_path / "obsrep"
    wrapper.write_text(
        f"import sys\nfrom {target_module} import {target_attr}\n"
        f"sys.exit({target_attr}())\n"
    )
    script = subprocess.run(
        [sys.executable, str(wrapper), "decode", "2+1-2-3+1+3-"], **child
    )
    assert script.returncode == 0, script.stderr
    assert script.stdout == "n 3\nedge 1 2\nedge 1 3\n"
