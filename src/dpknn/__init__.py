"""Differentially private nearest-neighbor prediction with per-example budgets.

A store of labeled unit-norm feature vectors answers classification queries
by kernel-weighted threshold voting under Gaussian noise.  Each stored
example carries its own Renyi-DP budget, is charged only for the queries it
actually participates in, and is retired by a filter once its budget is
spent — so the privacy guarantee is a fixed (epsilon, delta) for the whole
interaction no matter how many queries arrive.
"""

from .accounting import (
    ChargeRecord,
    DpParams,
    IndividualLedger,
    LedgerInvariantError,
    budget_for_dp,
    classical_dp_bound,
    oracle_compose,
    rdp_to_dp,
)
from .baseline import (
    NaiveKnnConfig,
    naive_knn_accounting,
    naive_knn_predict,
    naive_knn_rdp_coefficient,
)
from .data import (
    DataFormatError,
    SyntheticData,
    generate_synthetic,
    load_dataset,
    load_features,
    load_labels,
    read_features,
    read_labels,
    write_features,
    write_labels,
)
from .engine import (
    EngineConfig,
    ExampleStore,
    QueryOutcome,
    answer_query,
    answer_stream,
    capped_votes,
    select_neighbors,
)
from .kernels import (
    DEFAULT_RBF_BANDWIDTH,
    IngestionError,
    KernelSpec,
    kernel_weights,
    normalize_rows,
)
from .lsh import LshIndex, answer_query_hashed, build_index
from .mechanisms import NoiseSource, noisy_argmax, noisy_count
from .experiment import (
    ExperimentSpec,
    MetricsReport,
    SpecError,
    parse_spec,
    run_experiment,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ChargeRecord",
    "DpParams",
    "IndividualLedger",
    "LedgerInvariantError",
    "budget_for_dp",
    "classical_dp_bound",
    "oracle_compose",
    "rdp_to_dp",
    "NaiveKnnConfig",
    "naive_knn_accounting",
    "naive_knn_predict",
    "naive_knn_rdp_coefficient",
    "DataFormatError",
    "SyntheticData",
    "generate_synthetic",
    "load_dataset",
    "load_features",
    "load_labels",
    "read_features",
    "read_labels",
    "write_features",
    "write_labels",
    "EngineConfig",
    "ExampleStore",
    "QueryOutcome",
    "answer_query",
    "answer_stream",
    "capped_votes",
    "select_neighbors",
    "DEFAULT_RBF_BANDWIDTH",
    "IngestionError",
    "KernelSpec",
    "kernel_weights",
    "normalize_rows",
    "LshIndex",
    "answer_query_hashed",
    "build_index",
    "NoiseSource",
    "noisy_argmax",
    "noisy_count",
    "ExperimentSpec",
    "MetricsReport",
    "SpecError",
    "parse_spec",
    "run_experiment",
    "sweep",
    "__version__",
]
