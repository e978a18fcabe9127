"""Group-bias detection and repair for weak supervision via optimal
transport.

The library estimates per-group labeling-function accuracies without gold
labels (triplet moments), transports the weaker group's feature points
onto the stronger group (identity, Gaussian Monge map, or entropic
Sinkhorn plan), re-labels them by nearest neighbors, aggregates the
repaired votes into pseudolabels, and evaluates group-fairness metrics
before and after. A synthetic harness checks the method's guarantees
numerically.
"""

__version__ = "0.1.0"

from .core import (
    AccuracyEstimate,
    GroupedDataset,
    NumericalError,
    PipelineConfig,
    ValidationError,
    WeakLabelMatrix,
    validate_dataset,
)
from .estimate import (
    TripletRecord,
    TripletRecords,
    accuracies_from_moments,
    estimate_accuracies,
    moment_matrix,
    per_group_accuracies,
    resolve_sign,
    triplet_accuracies,
)
from .labelmodel import (
    EndModel,
    LabelModelParams,
    end_model_objective,
    fit_label_model,
    infer_pseudolabels,
    predict,
    train_end_model,
)
from .metrics import (
    FairnessReport,
    RegimeProfile,
    fairness_report,
    lf_delta_report,
    regime_profile,
)
from .ot import (
    GaussianMoments,
    MongeMap,
    SpectralSummary,
    TransportPlan,
    apply_monge,
    barycentric_map,
    fit_moments,
    inverse_monge,
    linear_monge,
    psd_sqrt,
    sinkhorn_plan,
    spectral_summary,
)
from .synthetic import (
    SweepReport,
    SyntheticModel,
    accuracy_prob,
    lipschitz_check,
    map_error_sweep,
    proximity,
    shift_sweep,
)
from .transport import (
    RelabelResult,
    TransportDecision,
    knn_transfer,
    sbm_transport,
)

__all__ = [
    "__version__",
    "AccuracyEstimate",
    "EndModel",
    "FairnessReport",
    "GaussianMoments",
    "GroupedDataset",
    "LabelModelParams",
    "MongeMap",
    "NumericalError",
    "PipelineConfig",
    "RegimeProfile",
    "RelabelResult",
    "SpectralSummary",
    "SweepReport",
    "SyntheticModel",
    "TransportDecision",
    "TransportPlan",
    "TripletRecord",
    "TripletRecords",
    "ValidationError",
    "WeakLabelMatrix",
    "accuracies_from_moments",
    "accuracy_prob",
    "apply_monge",
    "barycentric_map",
    "end_model_objective",
    "estimate_accuracies",
    "fairness_report",
    "fit_label_model",
    "fit_moments",
    "infer_pseudolabels",
    "inverse_monge",
    "knn_transfer",
    "lf_delta_report",
    "linear_monge",
    "lipschitz_check",
    "map_error_sweep",
    "moment_matrix",
    "per_group_accuracies",
    "predict",
    "proximity",
    "psd_sqrt",
    "regime_profile",
    "resolve_sign",
    "sbm_transport",
    "shift_sweep",
    "sinkhorn_plan",
    "spectral_summary",
    "train_end_model",
    "triplet_accuracies",
    "validate_dataset",
]
