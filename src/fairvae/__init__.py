"""Semi-supervised fair representation learning toolkit.

A numpy library implementing dual bias-aware/bias-free adversarial encoders
fused with a semi-supervised variational autoencoder for learning fair
tabular representations, together with the baseline ladder (adversarial
learning, decomposed adversarial learning, self-training variants) and a
group-fairness evaluation harness.

The command line, ``fairvae`` or ``python -m fairvae.cli``, pins BLAS to one
thread before numpy loads, setting each thread variable that is unset to 1:
a process whose BLAS runs worker threads never forks the helper of a
two-core step or export (``parallel.forkable``). ``import fairvae`` from
another program, and ``cli.main`` called in it, keep that program's
settings.
"""

import os as _os
import sys as _sys

# python -m fairvae.cli (sys.argv[0] is "-m" while -m imports the package)
# or the fairvae console script
if (_sys.argv[:1] == ["-m"] and "fairvae.cli" in _sys.orig_argv
        or _os.path.basename(_sys.argv[0] if _sys.argv else "") == "fairvae"):
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "BLIS_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")

from .data import (  # noqa: E402
    DatasetSplit,
    Samples,
    Stats,
    batches,
    load_adult,
    preprocess,
    split_and_mask,
)
from .experiments import (  # noqa: E402
    ExperimentConfig,
    config_hash,
    evaluate_checkpoint,
    export_embeddings,
    run_ablation,
    run_experiments,
    run_sweep,
)
from .metrics import (  # noqa: E402
    FairnessReport,
    accuracy,
    auc,
    demographic_parity_gap,
    equal_opportunity_gap,
    fairness_report,
    leakage_probe,
)
from .models import (  # noqa: E402
    BundleConfig, ModelBundle, load_bundle, save_bundle)
from .objectives import (  # noqa: E402
    LossBreakdown, ObjectiveConfig, joint_loss)
from .training import Adam, MethodSpec, TrainReport, train  # noqa: E402

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
