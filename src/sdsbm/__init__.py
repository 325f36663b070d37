"""Dynamic mixed-membership block models for temporal labeled interaction data.

Per-epoch membership and block-interaction simplices fitted by EM, coupled
across epochs by a Dirichlet prior whose concentration follows a
count-weighted kernel average of the neighbouring epochs.  Includes synthetic
generators with planted trajectories, a held-out evaluation harness, event
file ingestion, and model archives.
"""

from .archive import ModelArchive
from .data import Dataset
from .em import FitConfig, FitReport, fit
from .errors import ContractError, DegenerateParameterError, IngestError, SdsbmError
from .evaluation import (
    DEFAULT_BETA_GRID,
    EvalResult,
    ScoreTable,
    SplitPlan,
    average_precision,
    coverage_error_normalized,
    cross_validate,
    flow_matrix,
    membership_flows,
    rmse_aligned,
    roc_auc,
    score_test_set,
    write_results,
)
from .ingest import IngestResult, ingest
from .model import BlockTensor, MembershipTensor, log_posterior
from .prior import PriorConfig
from .synthetic import (
    GroundTruth,
    PatternSpec,
    block_matrix,
    even_schedule,
    generate_memberships,
    sample_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "BlockTensor",
    "ContractError",
    "DEFAULT_BETA_GRID",
    "Dataset",
    "DegenerateParameterError",
    "EvalResult",
    "FitConfig",
    "FitReport",
    "GroundTruth",
    "IngestError",
    "IngestResult",
    "MembershipTensor",
    "ModelArchive",
    "PatternSpec",
    "PriorConfig",
    "ScoreTable",
    "SdsbmError",
    "SplitPlan",
    "average_precision",
    "block_matrix",
    "coverage_error_normalized",
    "cross_validate",
    "even_schedule",
    "fit",
    "flow_matrix",
    "generate_memberships",
    "ingest",
    "log_posterior",
    "membership_flows",
    "rmse_aligned",
    "roc_auc",
    "sample_dataset",
    "score_test_set",
    "write_results",
]
