"""Perfect multiset codes in the discrete simplex under the half-L1 metric.

The package covers the full pipeline: the metric space itself (simplex),
code constructions and verification (codes), exhaustive classification
search by exact cover (search), and end-to-end simulation over a noisy
permutation channel (channel).
"""

from .channel import (
    ChannelConfig,
    ExperimentStats,
    decode_received,
    run_experiment,
    transmit,
)
from .codes import (
    Code,
    PerfectnessResult,
    code_from_dict,
    construct_binary_perfect,
    construct_ternary_perfect,
    count_binary_perfect,
    decode,
    dumps_code,
    is_perfect,
    load_code,
    min_distance,
    save_code,
)
from .errors import AmbiguousDecodeError, BudgetExceededError
from .search import (
    SearchProblem,
    SearchReport,
    SweepCell,
    SweepReport,
    canonicalize_code,
    enumerate_perfect_codes,
    predicted_perfect_count,
    verify_theorem_sweep,
)
from .simplex import (
    Point,
    SimplexSpace,
    ball,
    ball_size,
    distance,
    enumerate_space,
    format_point,
    make_point,
    neighbors,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousDecodeError",
    "BudgetExceededError",
    "ChannelConfig",
    "Code",
    "ExperimentStats",
    "PerfectnessResult",
    "Point",
    "SearchProblem",
    "SearchReport",
    "SimplexSpace",
    "SweepCell",
    "SweepReport",
    "ball",
    "ball_size",
    "canonicalize_code",
    "code_from_dict",
    "construct_binary_perfect",
    "construct_ternary_perfect",
    "count_binary_perfect",
    "decode",
    "decode_received",
    "distance",
    "dumps_code",
    "enumerate_perfect_codes",
    "enumerate_space",
    "format_point",
    "is_perfect",
    "load_code",
    "make_point",
    "min_distance",
    "neighbors",
    "predicted_perfect_count",
    "run_experiment",
    "save_code",
    "transmit",
    "verify_theorem_sweep",
]
