"""Local and nonlocal content of N-qubit GHZ correlations.

Quantum joint probabilities (dense and closed-form routes), a factorized
local model with certified decomposition weights, and Bell-inequality upper
bounds on the local content.
"""

from .qcore import (
    BlochDirection,
    GhzScenario,
    MeasurementContext,
    OutcomePattern,
    all_outcome_patterns,
    diagonal_prob,
    ghz_state,
    joint_prob_dense,
    joint_prob_ghz,
    projector,
    theta0,
)
from .epr2 import (
    DecompositionCertificate,
    LocalModel,
    certify,
    local_prob,
    lower_bound,
    nonlocal_prob,
    ratio_f,
    sampled_min_ratio,
)
from .bounds import (
    InequalityConstants,
    MabkReport,
    chen_upper,
    mabk_quantum_max,
    upper_from_inequality,
)

__all__ = [
    "BlochDirection",
    "DecompositionCertificate",
    "GhzScenario",
    "InequalityConstants",
    "LocalModel",
    "MabkReport",
    "MeasurementContext",
    "OutcomePattern",
    "all_outcome_patterns",
    "certify",
    "chen_upper",
    "diagonal_prob",
    "ghz_state",
    "joint_prob_dense",
    "joint_prob_ghz",
    "local_prob",
    "lower_bound",
    "mabk_quantum_max",
    "nonlocal_prob",
    "projector",
    "ratio_f",
    "sampled_min_ratio",
    "theta0",
    "upper_from_inequality",
]

__version__ = "0.1.0"
