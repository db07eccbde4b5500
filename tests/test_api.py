"""The public surface of ``obsrep``: a change to it has to be made here too."""

import ast
from pathlib import Path

import pytest

import obsrep

ROOT = Path(__file__).parents[1]

PUBLIC = [
    "BoundsQuery", "ChainRecord", "ChainStep", "ContradictionError", "CoverInstance",
    "ExperimentReport", "FaceSet", "GeometryError", "Graph", "GraphError", "ObsResult",
    "ObsrepError", "PartitionReport", "PatternTable", "Point", "Polygon",
    "RepresentationReport", "Scene", "SceneError", "SceneFormatError", "SceneSignature",
    "TangentSequence", "bounds_threshold", "build_arrangement",
    "builtin_pattern_table", "complete_graph", "convex_hull",
    "cycle_graph", "decode_visibility", "derive_pattern_table", "edge_deletion_chain",
    "encode_tangent", "face_nonedge_incidence", "is_general_position", "load_graph",
    "load_scene", "min_obstacles_for_placement", "obs_upper_bound", "orient",
    "partition_lemma_check", "random_graph_experiment",
    "replay_witness", "save_scene", "scene_signature",
    "solve_cover", "suggested_group_size", "validate_representation",
    "visibility_details",
]


def test_public_names_are_pinned():
    assert sorted(obsrep.__all__) == PUBLIC  # 48 names


def test_error_classes_are_pinned():
    # One class per contract the caller can act on; the CLI maps
    # ContradictionError to exit 2 and every other one to exit 1.
    def below(cls):
        return {sub for child in cls.__subclasses__() for sub in {child} | below(child)}

    assert {cls.__name__ for cls in below(obsrep.ObsrepError)} == {
        "ContradictionError", "GeometryError", "GraphError", "SceneError", "SceneFormatError",
    }


THREE_POINTS = obsrep.Scene([obsrep.Point(0, 0), obsrep.Point(4, 1), obsrep.Point(8, 5)])

# Each count argument: the call with the count, the least value it takes, and
# the name its message gives.
COUNTS = {
    "obs_upper_bound placements": (
        lambda v: obsrep.obs_upper_bound(obsrep.Graph(1), v, seed=0), 1, "placements"),
    "random_graph_experiment trials": (
        lambda v: obsrep.random_graph_experiment(3, v, 0, placements=1), 1, "trials"),
    "random_graph_experiment n": (
        lambda v: obsrep.random_graph_experiment(v, 1, 0, placements=1), 0, "n"),
    "suggested_group_size n": (obsrep.suggested_group_size, 1, "n"),
    "partition_lemma_check k": (
        lambda v: obsrep.partition_lemma_check(THREE_POINTS, v), 1, "group size k"),
    "derive_pattern_table sample_count": (
        lambda v: obsrep.derive_pattern_table(v, 0), 1, "sample_count"),
    "BoundsQuery h": (lambda v: obsrep.BoundsQuery(h=v), 1, "obstacle count h"),
    "BoundsQuery s": (lambda v: obsrep.BoundsQuery(s=v), 3, "total side count s"),
    "solve_cover n_elements": (lambda v: obsrep.solve_cover(v, {}), 0, "n_elements"),
}


@pytest.mark.parametrize("site", sorted(COUNTS))
def test_every_count_argument_is_a_plain_int_at_least_its_floor(site):
    call, least, what = COUNTS[site]
    for bad in (2.5, True, "3", least - 1):
        with pytest.raises(obsrep.ObsrepError) as err:
            call(bad)
        assert str(err.value) == f"{what} must be an int >= {least}, not {bad!r}", bad
    call(least)


def test_every_public_name_resolves():
    for name in obsrep.__all__:
        assert getattr(obsrep, name) is not None, name


def _uses(node, inside=frozenset()):
    """Names read, imported or taken as attributes under ``node``; a name used
    inside its own definition does not count."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    name = (
        node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        else node.attr if isinstance(node, ast.Attribute)
        else node.name if isinstance(node, ast.alias)
        else None
    )
    found = {name} - inside if name else set()
    for child in ast.iter_child_nodes(node):
        found |= _uses(child, inside)
    return found


def _public_definitions(path):
    """``module.name`` for each public top-level function and class of the
    module, and ``Class.name`` for each public method of a public class."""
    found = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return found


MODULES = [p for p in (ROOT / "src" / "obsrep").glob("*.py") if p.name != "__init__.py"]


def _used_outside_tests():
    """Every name used in the library's modules or the demos."""
    files = MODULES + list((ROOT / "demos").glob("*.py"))
    return set().union(*(_uses(ast.parse(p.read_text(), str(p))) for p in files))


def test_public_names_have_a_caller_outside_tests():
    # A public function, class or method earns its place by a use in the
    # library or the demos; one only tests call belongs in tests/.  save_scene
    # waits for the witness scenes that obs-search and failed replays are to
    # write; perfbench/spans.py still counts calls of pair_pattern and
    # FaceSet.locate by name.  Methods of private classes, such as the CLI's
    # argparse overrides, are not checked.
    used = _used_outside_tests()
    unused = [d for p in MODULES for d in _public_definitions(p) if d.split(".")[1] not in used]
    assert sorted(unused) == ["FaceSet.locate", "sceneio.save_scene", "tangent.pair_pattern"]


def test_private_helpers_have_a_caller_outside_tests():
    # The same rule, with no exception, for each private top-level function
    # and class: a helper that only tests call belongs in tests/.
    used = _used_outside_tests()
    unused = [
        f"{p.stem}.{node.name}" for p in MODULES for node in ast.parse(p.read_text(), str(p)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        and node.name not in used
    ]
    assert unused == []


def test_library_lines_are_at_most_100_characters():
    long = [
        f"{p.name}:{number}"
        for p in sorted((ROOT / "src" / "obsrep").glob("*.py"))
        for number, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long == []
