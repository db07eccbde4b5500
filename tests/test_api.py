"""The public surface of ``obsrep``: a change to it has to be made here too."""

import obsrep

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
    "pair_pattern", "partition_lemma_check", "random_graph_experiment",
    "replay_witness", "require_valid_scene", "save_scene", "scene_signature",
    "solve_cover", "suggested_group_size", "validate_representation",
    "visibility_details", "visibility_graph",
]


def test_public_names_are_pinned():
    assert sorted(obsrep.__all__) == PUBLIC  # 56 names


def test_every_public_name_resolves():
    for name in obsrep.__all__:
        assert getattr(obsrep, name) is not None, name
