"""latebench: a late-interaction retrieval engine and diagnostic bench.

Exact MaxSim scoring with a brute-force oracle, IVF and PLAID-style
approximate backends over spherical k-means centroids, TREC-convention
evaluation metrics, a planted-relevance synthetic generator, and the
diagnostic drivers (centroid coverage, query truncation, parameter grids,
backend agreement) needed to stress-test them against each other.
"""

from .core import (
    Corpus,
    RankedList,
    ScoredDoc,
    TokenMatrix,
    exact_search,
    maxsim_score,
    pool_corpus,
    validate_matrix,
)
from .diagnostics import (
    AgreementReport,
    CoverageReport,
    SweepRow,
    SweepTable,
    centroid_coverage,
    compare_runs,
    grid_search,
    truncation_ablation,
)
from .ivf import IvfConfig, IvfIndex, build_ivf, ivf_candidates, ivf_search
from .kmeans import train_kmeans
from .metrics import (
    MetricReport,
    MetricSpec,
    evaluate_run,
    mrr_at_k,
    ndcg_at_k,
    recall_at_k,
)
from .plaid import (
    PlaidConfig,
    PlaidIndex,
    StorageReport,
    build_plaid,
    decode_residuals,
    encode_residuals,
    plaid_candidates,
    plaid_search,
)
from .synthetic import SyntheticSpec, generate_synthetic
from .trec import Qrels, RunFile, parse_qrels, parse_run, write_qrels, write_run

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "RankedList",
    "ScoredDoc",
    "TokenMatrix",
    "exact_search",
    "maxsim_score",
    "pool_corpus",
    "validate_matrix",
    "IvfConfig",
    "IvfIndex",
    "build_ivf",
    "ivf_candidates",
    "ivf_search",
    "train_kmeans",
    "PlaidConfig",
    "PlaidIndex",
    "StorageReport",
    "build_plaid",
    "decode_residuals",
    "encode_residuals",
    "plaid_candidates",
    "plaid_search",
    "MetricReport",
    "MetricSpec",
    "evaluate_run",
    "mrr_at_k",
    "ndcg_at_k",
    "recall_at_k",
    "Qrels",
    "RunFile",
    "parse_qrels",
    "parse_run",
    "write_qrels",
    "write_run",
    "SyntheticSpec",
    "generate_synthetic",
    "AgreementReport",
    "CoverageReport",
    "SweepRow",
    "SweepTable",
    "centroid_coverage",
    "compare_runs",
    "grid_search",
    "truncation_ablation",
]
