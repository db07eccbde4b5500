"""The public surface of ``obsrep``: a change to it has to be made here too."""

import ast
from pathlib import Path

import obsrep

ROOT = Path(__file__).parents[1]

PUBLIC = [
    "BoundsQuery", "ChainRecord", "ChainStep", "ContradictionError", "CoverError",
    "CoverInstance", "ExperimentReport", "FaceSet", "GeneralPositionError",
    "GeometryError", "Graph", "GraphError", "ObsResult", "ObsrepError",
    "PartitionReport", "PatternTable", "Point", "Polygon", "RepresentationReport",
    "Scene", "SceneError", "SceneFormatError", "SceneSignature", "SearchError",
    "TangentSequence", "UnknownPatternError", "bounds_threshold", "build_arrangement",
    "builtin_pattern_table", "chirotope", "complete_graph", "convex_hull",
    "cycle_graph", "decode_visibility", "derive_pattern_table", "edge_deletion_chain",
    "encode_tangent", "face_nonedge_incidence", "is_general_position", "load_graph",
    "load_scene", "min_obstacles_for_placement", "obs_upper_bound", "orient",
    "partition_lemma_check", "random_graph_experiment",
    "replay_witness", "save_scene", "scene_signature",
    "solve_cover", "suggested_group_size", "validate_representation",
    "visibility_details", "visibility_graph",
]


def test_public_names_are_pinned():
    assert sorted(obsrep.__all__) == PUBLIC  # 54 names


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


def test_public_names_have_a_caller_outside_tests():
    # A public function, class or method earns its place by a use in the
    # library or the demos; one only tests call belongs in tests/.  save_scene
    # waits for the witness scenes that obs-search and failed replays are to
    # write; perfbench/spans.py still counts calls of pair_pattern and
    # FaceSet.locate by name.  Methods of private classes, such as the CLI's
    # argparse overrides, are not checked.
    modules = [p for p in (ROOT / "src" / "obsrep").glob("*.py") if p.name != "__init__.py"]
    files = modules + list((ROOT / "demos").glob("*.py"))
    used = set().union(*(_uses(ast.parse(p.read_text(), str(p))) for p in files))
    unused = [d for p in modules for d in _public_definitions(p) if d.split(".")[1] not in used]
    assert sorted(unused) == ["FaceSet.locate", "sceneio.save_scene", "tangent.pair_pattern"]
