"""Mixture-of-experts CTR models with cross-expert de-correlation.

A desk-scale numpy library: multi-embedding MoE forward/backward, the
correlation- and covariance-based de-correlation losses, cross-expert
correlation metrics, and a small training stack with a CLI.
"""

from .data import (
    Batch,
    DatasetSchema,
    EncodedDataset,
    FeatureField,
    SyntheticParams,
    gen_synthetic,
    hash_token,
    load_table,
    make_batches,
    split_dataset,
)
from .embedding import EmbeddingBank, EmbeddingTable, SparseGrad, init_bank, lookup
from .experts import ExpertConfig, make_expert
from .gating import aggregate_experts, build_gate, gate_weights, gating_backward
from .losses import LossConfig, bce, corr_loss_pair, cov_loss_pair, decorrelation_total, total_objective
from .metrics import CorrelationReport, EvalMetrics, auc, cec, cec_report, pearson_matrix
from .model import ModelBundle, build_model, forward_full, load_model, named_params, param_count, predict, save_model
from .numerics import GradCheckReport, central_diff_gradcheck, row_softmax, standardize_columns
from .optim import Adam, AdamState
from .trainer import TrainConfig, TrainReport, evaluate, gradcheck_model, train_loop, train_step

__all__ = [
    "Adam",
    "AdamState",
    "Batch",
    "CorrelationReport",
    "DatasetSchema",
    "EmbeddingBank",
    "EmbeddingTable",
    "EncodedDataset",
    "EvalMetrics",
    "ExpertConfig",
    "FeatureField",
    "GradCheckReport",
    "LossConfig",
    "ModelBundle",
    "SparseGrad",
    "SyntheticParams",
    "TrainConfig",
    "TrainReport",
    "aggregate_experts",
    "auc",
    "bce",
    "build_gate",
    "build_model",
    "cec",
    "cec_report",
    "central_diff_gradcheck",
    "corr_loss_pair",
    "cov_loss_pair",
    "decorrelation_total",
    "evaluate",
    "forward_full",
    "gate_weights",
    "gating_backward",
    "gen_synthetic",
    "gradcheck_model",
    "hash_token",
    "init_bank",
    "load_model",
    "load_table",
    "lookup",
    "make_batches",
    "make_expert",
    "named_params",
    "param_count",
    "pearson_matrix",
    "predict",
    "row_softmax",
    "save_model",
    "split_dataset",
    "standardize_columns",
    "total_objective",
    "train_loop",
    "train_step",
]

__version__ = "0.1.0"
