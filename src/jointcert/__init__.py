"""Certification of non-classical joint measurements from behavior tensors.

The library evaluates causal-compatibility inequalities on the statistics of
n preparation devices feeding one joint measuring device, provides the exact
classical strategy class with enumeration and optimization over it, simulates
the entanglement-swapping quantum model that violates the two-setting
inequality, and analyzes the post-selected states that make the violation
attributable to the measurement itself.
"""
from .behavior import (
    BehaviorTensor,
    correlator_table,
    independence_residual,
    load_behavior,
    save_behavior,
    signalling_residuals,
    validate_behavior,
)
from .classical import (
    ClassicalStrategy,
    deterministic_count,
    enumerate_deterministic,
    load_strategy,
    optimize_classical,
    saturation_strategy,
    save_strategy,
    strategy_to_behavior,
    validate_strategy,
)
from .inequalities import (
    InequalityReport,
    chain_components,
    evaluate_chain,
    evaluate_mn,
    report_to_json,
)
from .postselect import (
    GapReport,
    WERNER_LHV_THRESHOLD,
    chsh_max,
    correlation_matrix,
    gap_report,
    induced_state,
    werner_visibility,
)
from .quantum import (
    BELL_LABELING,
    closed_form_behavior,
    noisy_bsm,
    party_observable,
    party_projector,
    quantum_behavior,
    validate_povm,
)
from .scenario import InvalidBehaviorError, ScenarioShape

__version__ = "0.1.0"

__all__ = [
    "BehaviorTensor",
    "InvalidBehaviorError",
    "ScenarioShape",
    "correlator_table",
    "independence_residual",
    "load_behavior",
    "save_behavior",
    "signalling_residuals",
    "validate_behavior",
    "ClassicalStrategy",
    "deterministic_count",
    "enumerate_deterministic",
    "load_strategy",
    "optimize_classical",
    "saturation_strategy",
    "save_strategy",
    "strategy_to_behavior",
    "validate_strategy",
    "InequalityReport",
    "chain_components",
    "evaluate_chain",
    "evaluate_mn",
    "report_to_json",
    "GapReport",
    "WERNER_LHV_THRESHOLD",
    "chsh_max",
    "correlation_matrix",
    "gap_report",
    "induced_state",
    "werner_visibility",
    "BELL_LABELING",
    "closed_form_behavior",
    "noisy_bsm",
    "party_observable",
    "party_projector",
    "quantum_behavior",
    "validate_povm",
    "__version__",
]
