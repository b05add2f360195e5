"""Numerical verification of reverse operator-mean inequalities.

Hermitian matrix means, Kantorovich-type constants, positive unital linear
maps, and a registry of operator inequalities checked in the Loewner order
on randomly sampled instances satisfying each statement's spectral
hypothesis — with gap diagnostics, constant comparisons, and a randomized
tightness search.
"""

from .constants import (
    CaseParams,
    GeneralizedKantorovich,
    SandwichBounds,
    generalized_kantorovich,
    kantorovich,
    weights,
)
from .errors import OpineqError
from .linalg import (
    eigh,
    loewner_gap,
    matrix_power,
    op_norm,
    spectral_norm,
)
from .maps import MAP_KINDS, MapSpec, apply_map, random_map, validate_map
from .means import arithmetic_mean, bracket_term, geometric_mean
from .sampler import Instance, SplitMix64, derive_seed, sample_instance
from .suite import Report, SearchRecord, SuiteConfig, run_suite, tightness_search
from .verifier import (
    REGISTRY,
    InequalityCase,
    Verdict,
    bound_constant,
    check_block,
    check_case,
    compare_constants,
    get_entry,
    registry_ids,
    scalar_F_check,
    scalar_lemma_gap,
)

__version__ = "0.1.0"

__all__ = [
    "CaseParams",
    "GeneralizedKantorovich",
    "SandwichBounds",
    "bound_constant",
    "generalized_kantorovich",
    "kantorovich",
    "weights",
    "OpineqError",
    "eigh",
    "loewner_gap",
    "matrix_power",
    "op_norm",
    "spectral_norm",
    "MAP_KINDS",
    "MapSpec",
    "apply_map",
    "random_map",
    "validate_map",
    "arithmetic_mean",
    "bracket_term",
    "geometric_mean",
    "Instance",
    "SplitMix64",
    "derive_seed",
    "sample_instance",
    "Report",
    "SearchRecord",
    "SuiteConfig",
    "run_suite",
    "tightness_search",
    "REGISTRY",
    "InequalityCase",
    "Verdict",
    "check_block",
    "check_case",
    "compare_constants",
    "get_entry",
    "registry_ids",
    "scalar_F_check",
    "scalar_lemma_gap",
    "__version__",
]
