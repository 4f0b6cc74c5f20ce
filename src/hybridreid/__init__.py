"""Trainable embedding model for unsupervised retrieval: pseudo-label
clustering, dual memory banks (cluster centroids and per-cluster instance
slots), and a hybrid contrastive objective that mixes cluster-level and
hard-instance terms."""

__version__ = "0.1.0"

from .core import (
    OUTLIER,
    ClusteringCollapseError,
    ConfigError,
    EvaluationError,
    FeatureSet,
    FileFormatError,
    FileIOError,
    HybridReidError,
    NumericError,
    PseudoLabeling,
    TrainConfig,
    l2_normalize,
    load_features,
    save_features,
    validate_config,
)
from .clustering import dbscan, pseudo_label
from .encoder import AdamState, MLPEncoder, adam_step, load_checkpoint, save_checkpoint
from .evaluation import evaluate_retrieval
from .loss import cluster_loss, hard_instance_loss, softmax_contrastive
from .memory import (
    init_cluster_bank,
    init_instance_bank,
    update_cluster_bank,
    update_instance_bank,
)
from .sampler import build_epoch_batches
from .synthdata import SynthSpec, generate
from .trainer import EpochReport, embed_all, train

__all__ = [
    "__version__",
    "OUTLIER",
    "HybridReidError",
    "ConfigError",
    "FileFormatError",
    "FileIOError",
    "NumericError",
    "ClusteringCollapseError",
    "EvaluationError",
    "FeatureSet",
    "PseudoLabeling",
    "TrainConfig",
    "validate_config",
    "l2_normalize",
    "save_features",
    "load_features",
    "pseudo_label",
    "dbscan",
    "init_cluster_bank",
    "update_cluster_bank",
    "init_instance_bank",
    "update_instance_bank",
    "softmax_contrastive",
    "cluster_loss",
    "hard_instance_loss",
    "MLPEncoder",
    "AdamState",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
    "build_epoch_batches",
    "evaluate_retrieval",
    "SynthSpec",
    "generate",
    "EpochReport",
    "embed_all",
    "train",
]
