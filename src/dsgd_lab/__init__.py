"""Desk-scale laboratory for decentralized SGD.

Builds gossip topologies, runs vanilla decentralized SGD on synthetic tasks,
measures on-average stability and the generalization gap of the consensus
model, and evaluates the matching explicit stability/generalization bounds so
theory and measurement can be compared curve against curve.
"""

__version__ = "0.1.0"

from .errors import InputError, NumericalError
from .topology import (
    GossipMatrix,
    SpectrumReport,
    TopologyKind,
    build_gossip_matrix,
    eigenvalues_symmetric,
    load_gossip_matrix,
    mixing_error,
)
from .models import (
    LossModel,
    ModelFamily,
    Shards,
    SyntheticTask,
    c_alpha_constant,
    estimate_holder_constant,
    population_risk,
    self_bounding_check,
)
from .engine import (
    ConstantRate,
    Perturbation,
    PerturbationMode,
    StepDecayRate,
    TrainConfig,
    Traces,
    dsgd_step,
    run_coupled,
    run_dsgd,
)
from .analysis import (
    BoundInputs,
    ComparisonRow,
    Estimate,
    GaussianityReport,
    consensus_control_sweep,
    estimate_epsilon_s,
    estimate_sigma_mu,
    estimate_stability,
    gaussianity_report,
    generalization_bound_closed,
    generalization_bound_from_stability,
    generalization_gap,
    stability_bound_curve,
    stability_bound_limit,
    topology_comparison,
)

__all__ = [name for name in dir() if not name.startswith("_")]
