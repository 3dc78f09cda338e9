"""Loss terms and their labeled/unlabeled/joint compositions.

Sign conventions: the adversarial term is recorded raw; its minus-lambda
weighting is realized structurally by the gradient-reversal layer inside the
discriminator path, so the scalar being minimized contains +adversarial while
the encoder receives the reversed, scaled gradient. Entropy terms on
unlabeled data enter the minimized total with negative sign (both entropies
are pushed up); ``negate_entropy_zhat`` flips the bias-aware one for the
ablation study that rewards confident attribute predictions instead.

On unlabeled data the reconstruction objective is marginalized over the
enumerable attribute classes, weighted by the bias-aware predictor's class
probabilities; those weights stay in the graph (they are how reconstruction
sharpens the predictor), while the discriminator's soft labels are detached
before entering the decoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import models as M

LOG2 = math.log(2.0)

# running tally of degenerate rows seen by the orthogonality loss
DIAGNOSTICS = {"zero_norm_rows": 0}


def reset_diagnostics():
    DIAGNOSTICS["zero_norm_rows"] = 0


@dataclass
class ObjectiveConfig:
    use_zhat_in_decoder: bool = True
    use_ztilde_in_decoder: bool = True
    use_entropy_zhat: bool = True
    use_entropy_ztilde: bool = True
    negate_entropy_zhat: bool = False
    attr_classes: int = 2


@dataclass
class LossBreakdown:
    """Per-batch means of every loss term (raw values; signs live in total)."""

    attr_pred: float = 0.0       # cross-entropy of the bias-aware predictor
    adversarial: float = 0.0     # cross-entropy of the reversed discriminator
    orthogonality: float = 0.0   # |cosine| between the two representations
    task: float = 0.0
    reconstruction: float = 0.0  # marginalized over classes on unlabeled data
    kl: float = 0.0
    entropy_attr: float = 0.0    # 0 when the term is switched off
    entropy_adv: float = 0.0
    log_prior: float = 0.0       # uniform attribute prior: ln 2 per sample
    total: float = 0.0

    def expected_total(self, config: ObjectiveConfig) -> float:
        sign_attr = 1.0 if config.negate_entropy_zhat else -1.0
        return (self.attr_pred + self.adversarial + self.orthogonality
                + self.task + self.reconstruction + self.kl + self.log_prior
                + sign_attr * self.entropy_attr - self.entropy_adv)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __add__(self, other: "LossBreakdown") -> "LossBreakdown":
        return LossBreakdown(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        })


def one_hot(labels, k: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


# ---------------------------------------------------------------------------
# individual terms (batch means); per-sample row variants where the
# marginalization needs them


def _ce_rows(target, probs) -> ad.Node:
    target = ad.as_node(target)
    return ad.scale(ad.sum_rows(ad.mul(target, ad.log_clipped(probs))), -1.0)


def attribute_prediction_loss(z_onehot, z_hat) -> ad.Node:
    return ad.mean_all(_ce_rows(z_onehot, z_hat))


def adversarial_loss(z_onehot, z_tilde) -> ad.Node:
    return ad.mean_all(_ce_rows(z_onehot, z_tilde))


def task_loss(y_onehot, y_hat) -> ad.Node:
    return ad.mean_all(_ce_rows(y_onehot, y_hat))


def orthogonality_loss(r_f, r_b) -> ad.Node:
    """Mean absolute cosine similarity per row; zero-norm rows contribute 0."""
    cos, zero_rows = ad.abs_row_cosine(r_f, r_b)
    DIAGNOSTICS["zero_norm_rows"] += zero_rows
    return ad.mean_all(cos)


def _recon_rows(x, x_hat) -> ad.Node:
    x = ad.as_node(x)
    if x.value.shape != x_hat.value.shape:
        raise ad.ShapeMismatch(
            f"reconstruction shapes differ: {x_hat.value.shape} vs {x.value.shape}"
        )
    d = x.value.shape[1]
    return ad.scale(ad.sum_rows(ad.square(ad.sub(x_hat, x))), 1.0 / d)


def reconstruction_loss(x, x_hat) -> ad.Node:
    return ad.mean_all(_recon_rows(x, x_hat))


def _kl_rows(mu, sigma) -> ad.Node:
    if np.any(sigma.value <= 0):
        raise ValueError("kl divergence needs strictly positive sigma")
    n, k = mu.value.shape
    inner = ad.sub(
        ad.add(ad.square(mu), ad.square(sigma)),
        ad.add(ad.log_clipped(ad.square(sigma), hi=np.inf),
               np.ones((n, k))),
    )
    return ad.scale(ad.sum_rows(inner), 0.5)


def kl_to_standard_normal(mu, sigma) -> ad.Node:
    return ad.mean_all(_kl_rows(mu, sigma))


def _entropy_rows(p) -> ad.Node:
    return ad.scale(ad.sum_rows(ad.mul(p, ad.log_clipped(p))), -1.0)


def entropy(p) -> ad.Node:
    return ad.mean_all(_entropy_rows(p))


def elbo_term(x, z_slot, z_tilde_slot, bundle: M.ModelBundle, epsilon) -> ad.Node:
    """Reconstruction + KL + constant uniform-prior term for the given slots."""
    x_hat, mu, sigma = M.vae_forward(bundle, x, z_tilde_slot, z_slot, epsilon)
    return ad.add(
        ad.add(reconstruction_loss(x, x_hat), kl_to_standard_normal(mu, sigma)),
        ad.Node(LOG2, requires_grad=False),
    )


# ---------------------------------------------------------------------------
# labeled / unlabeled / joint compositions


def _sum_nodes(nodes):
    total = nodes[0]
    for node in nodes[1:]:
        total = ad.add(total, node)
    return total


def labeled_loss(batch, bundle: M.ModelBundle, config: ObjectiveConfig,
                 epsilon, training: bool = False, rng=None):
    """Supervised composition: the decoder sees the true attribute one-hot in
    the bias-aware slot and a uniform vector in the discriminator slot."""
    if batch.z is None:
        raise ValueError("labeled loss requires observed attributes")
    if len(batch) == 0:
        raise ValueError("labeled loss got an empty batch")
    n = len(batch)
    k = config.attr_classes
    r_f, r_b, r = M.encode(bundle, batch.x, training=training, rng=rng)
    z_hat, z_tilde, y_hat = M.predict_heads(bundle, r_f, r_b, r)

    z1 = one_hot(batch.z, k)
    attr_s = attribute_prediction_loss(z1, z_hat)
    adv_s = adversarial_loss(z1, z_tilde)
    orth_s = orthogonality_loss(r_f, r_b)
    task_s = task_loss(one_hot(batch.y, bundle.cfg.task_classes), y_hat)

    z_slot = z1 if config.use_zhat_in_decoder else np.zeros((n, k))
    zt_slot = np.full((n, k), 1.0 / k) if config.use_ztilde_in_decoder \
        else np.zeros((n, k))
    x_hat, mu, sigma = M.vae_forward(bundle, batch.x, zt_slot, z_slot, epsilon)
    recon_s = reconstruction_loss(batch.x, x_hat)
    kl_s = kl_to_standard_normal(mu, sigma)
    prior_s = ad.as_node(LOG2)

    total = _sum_nodes([attr_s, adv_s, orth_s, task_s, recon_s, kl_s, prior_s])
    breakdown = LossBreakdown(
        attr_pred=float(attr_s.value), adversarial=float(adv_s.value),
        orthogonality=float(orth_s.value), task=float(task_s.value),
        reconstruction=float(recon_s.value), kl=float(kl_s.value),
        log_prior=LOG2, total=float(total.value),
    )
    return total, breakdown


def unlabeled_loss(batch, bundle: M.ModelBundle, config: ObjectiveConfig,
                   epsilon, training: bool = False, rng=None):
    """Marginalized composition over the enumerable attribute classes.

    Branch weights are the bias-aware predictor's class probabilities and stay
    differentiable; the discriminator's soft labels are detached before they
    enter the decoder. Both entropy terms are subtracted from the total.
    """
    if batch.z is not None:
        raise ValueError("unlabeled loss got observed attributes")
    if len(batch) == 0:
        raise ValueError("unlabeled loss got an empty batch")
    n = len(batch)
    k = config.attr_classes
    r_f, r_b, r = M.encode(bundle, batch.x, training=training, rng=rng)
    z_hat, z_tilde, y_hat = M.predict_heads(bundle, r_f, r_b, r)

    orth_s = orthogonality_loss(r_f, r_b)
    task_s = task_loss(one_hot(batch.y, bundle.cfg.task_classes), y_hat)

    mu, sigma = bundle.vae.latent(batch.x)
    h = ad.reparameterize(mu, sigma, epsilon)
    kl_rows = _kl_rows(mu, sigma)
    zt_slot = z_tilde.detach() if config.use_ztilde_in_decoder \
        else ad.as_node(np.zeros((n, k)))

    recon_parts, kl_parts, prior_parts = [], [], []
    for c in range(k):
        weight = ad.column(z_hat, c)
        if config.use_zhat_in_decoder:
            slot = one_hot(np.full(n, c), k)
        else:
            slot = np.zeros((n, k))
        x_hat_c = bundle.vae.decode(zt_slot, slot, h)
        recon_parts.append(ad.mul(weight, _recon_rows(batch.x, x_hat_c)))
        kl_parts.append(ad.mul(weight, kl_rows))
        prior_parts.append(ad.mul(weight, np.full(n, LOG2)))
    recon_s = ad.mean_all(_sum_nodes(recon_parts))
    kl_s = ad.mean_all(_sum_nodes(kl_parts))
    prior_s = ad.mean_all(_sum_nodes(prior_parts))

    parts = [orth_s, task_s, recon_s, kl_s, prior_s]
    ent_attr_value = ent_adv_value = 0.0
    if config.use_entropy_zhat:
        ent_attr = entropy(z_hat)
        ent_attr_value = float(ent_attr.value)
        sign = 1.0 if config.negate_entropy_zhat else -1.0
        parts.append(ad.scale(ent_attr, sign))
    if config.use_entropy_ztilde:
        ent_adv = entropy(z_tilde)
        ent_adv_value = float(ent_adv.value)
        parts.append(ad.scale(ent_adv, -1.0))

    total = _sum_nodes(parts)
    breakdown = LossBreakdown(
        orthogonality=float(orth_s.value), task=float(task_s.value),
        reconstruction=float(recon_s.value), kl=float(kl_s.value),
        entropy_attr=ent_attr_value, entropy_adv=ent_adv_value,
        log_prior=float(prior_s.value), total=float(total.value),
    )
    return total, breakdown


def joint_loss(labeled_batch, unlabeled_batch, bundle: M.ModelBundle,
               config: ObjectiveConfig, labeled_epsilon, unlabeled_epsilon,
               training: bool = False, rng=None):
    """Sum of the labeled and unlabeled compositions; either side may be empty."""
    n_lab = len(labeled_batch) if labeled_batch is not None else 0
    n_unl = len(unlabeled_batch) if unlabeled_batch is not None else 0
    if n_lab == 0 and n_unl == 0:
        raise ValueError("joint loss needs at least one non-empty batch")
    if n_unl == 0:
        return labeled_loss(labeled_batch, bundle, config, labeled_epsilon,
                            training=training, rng=rng)
    if n_lab == 0:
        return unlabeled_loss(unlabeled_batch, bundle, config, unlabeled_epsilon,
                              training=training, rng=rng)
    lab_total, lab_break = labeled_loss(labeled_batch, bundle, config,
                                        labeled_epsilon, training=training, rng=rng)
    unl_total, unl_break = unlabeled_loss(unlabeled_batch, bundle, config,
                                          unlabeled_epsilon, training=training,
                                          rng=rng)
    combined = lab_break + unl_break
    total = ad.add(lab_total, unl_total)
    combined.total = float(total.value)
    return total, combined
