"""Mixed frame potential toolkit.

Evaluate the mixed frame potential of a pair of frame sequences, verify
its spectral identities and bounds, detect and decompose critical pairs,
and search the prescribed inner-product constraint set for critical and
dual pairs.
"""

from . import errors, fixtures, frames, linalg, optimizer, potential, structure
from .fixtures import FIXTURE_NAMES, fixture
from .frames import (
    ConstraintSpec,
    Field,
    FramePair,
    FrameSequence,
    constraint_residual,
    cross_gram,
    is_dual_pair,
    mixed_operator,
    random_pair,
    retract_to_constraint,
)
from .optimizer import OptimizerConfig, SearchResult, fp_gradient, merit, search
from .potential import bf_potential, bound_report, fp_direct, fp_swap, fp_trace, scaled_identity_check
from .structure import (
    check_a_generalized_dual,
    check_generalized_biorthogonal,
    classify,
    corollary_check,
    critical_report,
    decompose,
    proposition_applicability,
)

__version__ = "0.1.0"

__all__ = [
    "ConstraintSpec",
    "Field",
    "FramePair",
    "FrameSequence",
    "FIXTURE_NAMES",
    "OptimizerConfig",
    "SearchResult",
    "bf_potential",
    "bound_report",
    "check_a_generalized_dual",
    "check_generalized_biorthogonal",
    "classify",
    "constraint_residual",
    "corollary_check",
    "critical_report",
    "cross_gram",
    "decompose",
    "errors",
    "fixture",
    "fixtures",
    "fp_direct",
    "fp_gradient",
    "fp_swap",
    "fp_trace",
    "frames",
    "is_dual_pair",
    "linalg",
    "merit",
    "mixed_operator",
    "optimizer",
    "potential",
    "proposition_applicability",
    "random_pair",
    "retract_to_constraint",
    "scaled_identity_check",
    "search",
    "structure",
]
