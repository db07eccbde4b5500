"""Obstacle representations of graphs: visibility, encodings, and search.

The package computes visibility graphs of points among polygonal obstacles,
encodes single-convex-obstacle scenes as rotating-tangent sequences (and
decodes them back), fingerprints scenes by the orientations of their point
triples, extracts the faces of straight-line drawings, and turns "how few
obstacles realize this graph?" into exact set cover over those faces —
together with the counting thresholds that show some graphs need many
obstacles.
"""

from .arrangement import (
    CoverInstance,
    FaceSet,
    build_arrangement,
    face_nonedge_incidence,
)
from .bounds import BoundsQuery, bounds_threshold
from .cover import solve_cover
from .errors import (
    ContradictionError,
    GeometryError,
    ObsrepError,
    SceneError,
    SceneFormatError,
)
from .geom import Point, Polygon, convex_hull, is_general_position, orient
from .graphs import Graph, GraphError, complete_graph, cycle_graph
from .ordertype import SceneSignature, chirotope, scene_signature
from .scene import Scene
from .sceneio import load_graph, load_scene, save_scene
from .search import (
    ChainRecord,
    ChainStep,
    ExperimentReport,
    ObsResult,
    PartitionReport,
    edge_deletion_chain,
    min_obstacles_for_placement,
    obs_upper_bound,
    partition_lemma_check,
    random_graph_experiment,
    replay_witness,
    suggested_group_size,
)
from .tangent import (
    PatternTable,
    TangentSequence,
    builtin_pattern_table,
    decode_visibility,
    derive_pattern_table,
    encode_tangent,
)
from .visibility import (
    RepresentationReport,
    validate_representation,
    visibility_details,
    visibility_graph,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsQuery",
    "ChainRecord",
    "ChainStep",
    "ContradictionError",
    "CoverInstance",
    "ExperimentReport",
    "FaceSet",
    "GeometryError",
    "Graph",
    "GraphError",
    "ObsResult",
    "ObsrepError",
    "PartitionReport",
    "PatternTable",
    "Point",
    "Polygon",
    "RepresentationReport",
    "Scene",
    "SceneError",
    "SceneFormatError",
    "SceneSignature",
    "TangentSequence",
    "bounds_threshold",
    "build_arrangement",
    "builtin_pattern_table",
    "chirotope",
    "complete_graph",
    "convex_hull",
    "cycle_graph",
    "decode_visibility",
    "derive_pattern_table",
    "edge_deletion_chain",
    "encode_tangent",
    "face_nonedge_incidence",
    "is_general_position",
    "load_graph",
    "load_scene",
    "min_obstacles_for_placement",
    "obs_upper_bound",
    "orient",
    "partition_lemma_check",
    "random_graph_experiment",
    "replay_witness",
    "save_scene",
    "scene_signature",
    "solve_cover",
    "suggested_group_size",
    "validate_representation",
    "visibility_details",
    "visibility_graph",
]
