"""Shared toy constructions used by module tests and the acceptance suite."""

import numpy as np

from fairvae import autodiff as ad
from fairvae import models as M
from fairvae import objectives as O


def tiny_config(**overrides) -> M.BundleConfig:
    base = dict(input_dim=6, backbone="dnn", hidden_dim=4, fm_factors=3,
                latent_dim=3, grl_lambda=0.4, dropout_rate=0.0, seed=0)
    base.update(overrides)
    return M.BundleConfig(**base)


def toy_batch(n=8, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, (n, dim))
    y = rng.integers(0, 2, n)
    z = rng.integers(0, 2, n)
    return x, y, z


def adversarial_wiring_outcome(lr=0.05, seed=0):
    """One hand-rolled gradient step on the adversarial loss, two ways.

    Returns (baseline, after_discriminator_step, after_encoder_step): the
    adversarial loss on a fixed toy batch before any update, after updating
    only the discriminator head, and after updating only the encoder (whose
    gradient arrives through the reversal layer).
    """
    x, _, z = toy_batch(n=16, seed=seed)

    def fresh_bundle():
        return M.ModelBundle(tiny_config(method="dadv", seed=seed))

    def adv_loss(bundle):
        r_f, r_b, r = M.encode(bundle, x)
        _, z_tilde, _ = M.predict_heads(bundle, r_f, r_b, r)
        return O.cross_entropy(O.one_hot(z, 2), z_tilde)

    def step(bundle, param_filter):
        params = bundle.trainable_parameters()
        for p in params:
            p.grad[...] = 0.0
        loss = adv_loss(bundle)
        ad.backward(loss)
        for p in params:
            if param_filter(p.name):
                p.value -= lr * p.grad
        return float(loss.value)

    bundle = fresh_bundle()
    baseline = float(adv_loss(bundle).value)
    step(bundle, lambda name: name.startswith("disc_head"))
    after_disc = float(adv_loss(bundle).value)

    bundle = fresh_bundle()
    step(bundle, lambda name: name.startswith("bias_free"))
    after_enc = float(adv_loss(bundle).value)
    return baseline, after_disc, after_enc
