"""Embedding machinery: path boosting, vertical faithfulness, configuration
classifiers, the Ramsey toy search, and the subtree extraction pipeline."""

from .paths import PathMap, t_functional, submultiplicative_split, path_boost, BoostResult
from .vertical import VerticalReport, vertical_report
from .classify import (MidpointClass, ForkClass, ThreePathClass, Classified,
                       classify_midpoint, classify_fork, classify_3path,
                       classify_midpoints, classify_forks, classify_3paths,
                       b4_bound_check, b4_bound_checks)
from .ramsey import ramsey_search, ExhaustionReport, tkm_vertices
from .extract import extract_vertically_faithful, ExtractResult
from .search import (nested_b4_indices, nested_b4_rows, generate_faithful_b4,
                     distortion_gap_experiment)

__all__ = [
    "PathMap", "t_functional", "submultiplicative_split", "path_boost", "BoostResult",
    "VerticalReport", "vertical_report",
    "MidpointClass", "ForkClass", "ThreePathClass", "Classified",
    "classify_midpoint", "classify_fork", "classify_3path",
    "classify_midpoints", "classify_forks", "classify_3paths", "b4_bound_check",
    "b4_bound_checks",
    "ramsey_search", "ExhaustionReport", "tkm_vertices",
    "extract_vertically_faithful", "ExtractResult",
    "nested_b4_indices", "nested_b4_rows", "generate_faithful_b4",
    "distortion_gap_experiment",
]
