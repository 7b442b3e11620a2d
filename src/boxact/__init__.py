"""Interpretable activity recognition from bounding-box tracks.

The pipeline: one table per track of the geometric relations between two
objects and a hand at every frame, declarative per-action phase models scored
frame by frame, greedy assignment of five ordered phases (approach start,
movement, manipulation, withdrawal, result), fixed-length embeddings around
the assigned phases, and a small random-forest classifier over those
embeddings.
"""

from .errors import AnnotationError, BoxactError, ConfigError, ContractError

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AnnotationError",
    "BoxactError",
    "ConfigError",
    "ContractError",
]
