"""Belief-function combination engine that scales to very large numbers of sources.

Dense mass functions over the power set of a frame, fast lattice
transforms between the equivalent representations, the classical
combination rules, grouped rules whose cost is linear in the source
count, seeded random generators, and an evidential K-nearest-neighbour
classifier.
"""

from .core import (
    FrameOfDiscernment,
    MassFunction,
    RepresentationVector,
    SimpleSupport,
    WeightVector,
    as_simple_support,
    canonical_decompose,
    consistency,
    discount,
    pignistic,
    recompose,
    transform,
)
from .errors import (
    ComplexityGuardError,
    DecompositionError,
    EncodingError,
    InvalidImageError,
    InvalidWeightVectorError,
    MassCombError,
    NotSeparableError,
    ParameterError,
    ParseError,
    TotalConflictError,
    UndefinedGammaError,
)
from .rules import (
    FusionResult,
    GroupSummary,
    RuleConfig,
    combine,
    combine_average,
    combine_cautious,
    combine_conjunctive,
    combine_dempster,
    combine_disjunctive,
    combine_dp,
    combine_lns,
    combine_lnsa,
    combine_pcr6,
)
from .genrand import GenSpec, generate
from .eknn import EknnConfig, LabeledDataset, classify, evaluate_loo, gamma_auto
from .experiments import ExperimentReport, run_experiment

__version__ = "0.1.0"

__all__ = [
    "FrameOfDiscernment",
    "MassFunction",
    "RepresentationVector",
    "SimpleSupport",
    "WeightVector",
    "as_simple_support",
    "canonical_decompose",
    "consistency",
    "discount",
    "pignistic",
    "recompose",
    "transform",
    "MassCombError",
    "EncodingError",
    "ParameterError",
    "TotalConflictError",
    "InvalidImageError",
    "DecompositionError",
    "InvalidWeightVectorError",
    "NotSeparableError",
    "ComplexityGuardError",
    "UndefinedGammaError",
    "ParseError",
    "RuleConfig",
    "FusionResult",
    "GroupSummary",
    "combine",
    "combine_conjunctive",
    "combine_dempster",
    "combine_disjunctive",
    "combine_dp",
    "combine_pcr6",
    "combine_cautious",
    "combine_average",
    "combine_lns",
    "combine_lnsa",
    "GenSpec",
    "generate",
    "LabeledDataset",
    "EknnConfig",
    "classify",
    "evaluate_loo",
    "gamma_auto",
    "ExperimentReport",
    "run_experiment",
]
