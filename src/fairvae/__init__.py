"""Semi-supervised fair representation learning toolkit.

A numpy library implementing dual bias-aware/bias-free adversarial encoders
fused with a semi-supervised variational autoencoder for learning fair
tabular representations, together with the baseline ladder (adversarial
learning, decomposed adversarial learning, self-training variants) and a
group-fairness evaluation harness.
"""

from .data import (
    DatasetSplit,
    Samples,
    Stats,
    batches,
    load_adult,
    preprocess,
    split_and_mask,
)
from .experiments import (
    ExperimentConfig,
    config_hash,
    evaluate_checkpoint,
    export_embeddings,
    run_ablation,
    run_experiments,
    run_sweep,
)
from .metrics import (
    FairnessReport,
    accuracy,
    auc,
    demographic_parity_gap,
    equal_opportunity_gap,
    fairness_report,
    leakage_probe,
)
from .models import BundleConfig, ModelBundle, load_bundle, save_bundle
from .objectives import LossBreakdown, ObjectiveConfig, joint_loss
from .training import Adam, MethodSpec, TrainReport, train

__version__ = "0.1.0"

__all__ = [
    "Adam", "BundleConfig", "DatasetSplit", "ExperimentConfig",
    "FairnessReport", "LossBreakdown", "MethodSpec", "ModelBundle",
    "ObjectiveConfig", "Samples", "Stats", "TrainReport", "accuracy", "auc",
    "batches", "config_hash", "demographic_parity_gap",
    "equal_opportunity_gap", "evaluate_checkpoint", "export_embeddings",
    "fairness_report", "joint_loss", "leakage_probe", "load_adult",
    "load_bundle", "preprocess", "run_ablation", "run_experiments",
    "run_sweep", "save_bundle", "split_and_mask", "train",
]
