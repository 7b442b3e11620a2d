"""Interpretable activity recognition from bounding-box tracks.

The pipeline: one table per track of the geometric relations between two
objects and a hand at every frame, declarative per-action phase models scored
frame by frame, greedy assignment of five ordered phases (approach start,
movement, manipulation, withdrawal, result), fixed-length embeddings around
the assigned phases, and a small random-forest classifier over those
embeddings.
"""

from .errors import AnnotationError, BoxactError, ConfigError, ContractError
from .relations import (
    DEFAULT_CONFIG,
    OVERLAP_NORMALISER,
    RelationConfig,
    relation_keys,
    relation_table,
)
from .phases import (
    ARCHETYPES,
    PHASES,
    ActionModel,
    PhaseAssignment,
    PhaseScoreMatrix,
    Term,
    assign_phases,
    assign_with_alternatives,
    best_assignment,
    builtin_model,
    builtin_models,
    load_action_model,
    save_action_model,
    score_frames,
    second_best_b,
    smooth,
)
from .tracks import (
    BoundingBox,
    FrameAnnotation,
    VideoTrack,
    load_annotation_file,
    parse_annotations,
    serialize_annotations,
    write_annotation_file,
)
from .synthetic import (
    NOISE_PRESETS,
    NoiseParams,
    SyntheticScript,
    generate_dataset,
    generate_synthetic,
    random_script,
    verify_archetype_geometry,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AnnotationError",
    "BoxactError",
    "ConfigError",
    "ContractError",
    "DEFAULT_CONFIG",
    "OVERLAP_NORMALISER",
    "RelationConfig",
    "relation_keys",
    "relation_table",
    "ARCHETYPES",
    "PHASES",
    "ActionModel",
    "PhaseAssignment",
    "PhaseScoreMatrix",
    "Term",
    "assign_phases",
    "assign_with_alternatives",
    "best_assignment",
    "builtin_model",
    "builtin_models",
    "load_action_model",
    "save_action_model",
    "score_frames",
    "second_best_b",
    "smooth",
    "BoundingBox",
    "FrameAnnotation",
    "VideoTrack",
    "load_annotation_file",
    "parse_annotations",
    "serialize_annotations",
    "write_annotation_file",
    "NOISE_PRESETS",
    "NoiseParams",
    "SyntheticScript",
    "generate_dataset",
    "generate_synthetic",
    "random_script",
    "verify_archetype_geometry",
]
