#!/usr/bin/env python3
"""Anatomy of the training objective.

Builds a small dual-encoder model with its VAE and evaluates the labeled,
unlabeled and joint losses on random batches, printing every component.
Then flips one ablation switch to show that only its designated term moves.
"""

import numpy as np

from fairvae import BundleConfig, ModelBundle, ObjectiveConfig
from fairvae.data import Samples
from fairvae.objectives import joint_loss, labeled_loss, unlabeled_loss

rng = np.random.default_rng(3)
cfg = BundleConfig(input_dim=6, backbone="dnn", hidden_dim=8, latent_dim=4,
                   grl_lambda=0.4, dropout_rate=0.0, seed=1)
bundle = ModelBundle(cfg)
objective = ObjectiveConfig()

labeled = Samples(rng.uniform(-2, 2, (8, 6)), rng.integers(0, 2, 8),
                  rng.integers(0, 2, 8))
unlabeled = Samples(rng.uniform(-2, 2, (6, 6)), rng.integers(0, 2, 6))
eps_l = rng.standard_normal((8, 4))
eps_u = rng.standard_normal((6, 4))


def show(tag, breakdown):
    print(f"\n{tag}")
    for key, value in breakdown.as_dict().items():
        print(f"  {key:16s} {value:+.4f}")


_, lab_break = labeled_loss(labeled, bundle, objective, eps_l)
show("labeled batch (true attribute one-hot in the decoder)", lab_break)

_, unl_break = unlabeled_loss(unlabeled, bundle, objective, eps_u)
show("unlabeled batch (marginalized over both attribute classes)", unl_break)

_, joint_break = joint_loss(labeled, unlabeled, bundle, objective, eps_l, eps_u)
show("joint = labeled + unlabeled", joint_break)

# flip one ablation switch: only the reconstruction term may move
ablated = ObjectiveConfig(use_ztilde_in_decoder=False)
_, ablated_break = labeled_loss(labeled, bundle, ablated, eps_l)
print("\nablation: zero the adversarial soft-label slot in the decoder")
for key in ("attr_pred", "adversarial", "orthogonality", "task",
            "reconstruction", "kl"):
    before = getattr(lab_break, key)
    after = getattr(ablated_break, key)
    marker = "<- changed" if before != after else ""
    print(f"  {key:16s} {before:+.4f} -> {after:+.4f} {marker}")
