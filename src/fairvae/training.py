"""Optimization: Adam, the training loop for every method, self-training.

Method ladder, each a set of loss terms read off the bundle's parts:

plain    one encoder, task loss only, over one stream of all training rows
         (attribute labels never touched, so results are invariant to the
         masking ratio by construction);
adv      + a reversed discriminator on the shared representation: the
         adversarial term on labeled batches;
dadv     + a bias-aware encoder and attribute predictor: attr_pred on labeled
         batches, orthogonality on both;
fairvae  + the semi-supervised VAE: the labeled ELBO, the class-marginalized
         unlabeled ELBO and both entropy terms;
adv_st / dadv_st
         two-round self-training: fit an attribute predictor on the labeled
         subset, adopt confident pseudo-labels, retrain the base method.

Every step of plain, adv, dadv and fairvae is one ``objectives.joint_loss``
call; only the batch stream (plain's single stream) and the VAE noise differ
by method. The self-training predictor keeps its own loop: it trains the
bias-aware encoder and attribute head alone, with its own batch seed and
selection rule.

Model selection: the restored checkpoint maximizes validation accuracy minus
the validation demographic-parity gap, compared over the second half of the
epochs only. The burn-in matters: an undertrained epoch shows a deceptively
small parity gap simply because its predictions are still uncommitted, and
without it the criterion reliably picks transients over converged models.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import metrics as MX
from . import models as M
from . import objectives as O
from .data import ConfigError, DatasetSplit, batches, single_stream_batches

METHODS = ("plain", "adv", "adv_st", "dadv", "dadv_st", "fairvae")


class NonFiniteGradient(RuntimeError):
    """A gradient turned NaN/Inf; the step is aborted with context."""


@contextmanager
def _step_context(context: str):
    """Name the training step in a ValueError it raises (a non-finite value, a
    shape mismatch): re-raised as the same type, chained from the original."""
    try:
        yield
    except ValueError as exc:
        raise type(exc)(f"{exc} ({context})") from exc


class Adam:
    """Adam with bias correction; beta1=0.9, beta2=0.999, eps=1e-8."""

    def __init__(self, params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self):
        ad.zero_grads(self.params)

    def step(self, context: str = ""):
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise NonFiniteGradient(
                    f"non-finite gradient for {p.name}"
                    + (f" ({context})" if context else "")
                )
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass(kw_only=True)
class TrainingSettings(M.ArchitectureSettings):
    """The architecture and training settings, declared once: the experiment
    config and a method spec both extend it."""

    st_threshold: float = 0.9
    epochs: int = 50
    batch_size: int = 128
    lr: float = 0.01
    objective: O.ObjectiveConfig = field(default_factory=O.ObjectiveConfig)

    def __post_init__(self):
        super().__post_init__()
        for key in ("epochs", "batch_size"):
            M.require(self, key, lambda v: v >= 1, ">= 1")
        M.require(self, "objective", lambda o: isinstance(o, O.ObjectiveConfig),
                  "an ObjectiveConfig")

    def check_threshold(self, methods) -> None:
        """``st_threshold`` is read, and checked, only when one of ``methods``
        self-trains."""
        if any(m.endswith("_st") for m in methods):
            M.require(self, "st_threshold", lambda t: 0.5 < t < 1.0,
                      "in (0.5, 1) for self-training methods")


@dataclass
class MethodSpec(TrainingSettings):
    """One training configuration of the ladder."""

    backbone: str = "dnn"
    method: str = "fairvae"
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        M.require(self, "seed", lambda v: v >= 0, ">= 0")
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; expected one of {METHODS}")
        self.check_threshold([self.method])


@dataclass
class TrainReport:
    method: str
    backbone: str
    seed: int
    epoch_losses: list = field(default_factory=list)
    val_history: list = field(default_factory=list)
    selected_epoch: int = -1
    epoch_seconds: list = field(default_factory=list)
    shadow_reads_during_training: int = 0
    pseudo_label_accuracy: float | None = None
    pseudo_label_count: int | None = None


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _build_bundle(spec: MethodSpec, input_dim: int) -> M.ModelBundle:
    base = spec.method.removesuffix("_st")
    arch = M.settings(spec, M.ArchitectureSettings)
    if base == "plain":
        arch["grl_lambda"] = 0.0  # plain has no discriminator to reverse into
    return M.ModelBundle(M.BundleConfig(
        **arch, input_dim=input_dim, backbone=spec.backbone,
        with_bias_aware=base in ("dadv", "fairvae"),
        with_discriminator=base != "plain", with_vae=base == "fairvae",
        seed=spec.seed))


def predict_labels(bundle: M.ModelBundle, x) -> np.ndarray:
    return M.predict_test(bundle, x).value.argmax(axis=1)


def _epsilon(bundle, rng, batch, latent_dim: int):
    """Reparameterization noise for one batch side; None if nothing uses it."""
    if bundle.vae is None or batch is None or not len(batch):
        return None
    return rng.standard_normal((len(batch), latent_dim))


def _validation_criterion(bundle, split: DatasetSplit) -> dict:
    """Accuracy minus demographic-parity gap on the validation split."""
    labels = predict_labels(bundle, split.val_x)
    acc = MX.accuracy(split.val_y, labels)
    if len(np.unique(split.val_z)) == 2:
        dp = MX.demographic_parity_gap(labels, split.val_z)
    else:
        dp = 0.0
    return {"accuracy": acc, "dp_gap": dp, "criterion": acc - dp}


def train(spec: MethodSpec, split: DatasetSplit,
          log_writer=None) -> tuple[M.ModelBundle, TrainReport]:
    """Train one method on one split; returns the best-validation-epoch model."""
    if spec.method.endswith("_st"):
        return self_train(spec, split, log_writer=log_writer)
    bundle = _build_bundle(spec, split.feature_dim)
    opt = Adam(bundle.trainable_parameters(), lr=spec.lr)
    rng_drop = _stream(spec.seed, 11)
    rng_eps = _stream(spec.seed, 12)
    report = TrainReport(method=spec.method, backbone=spec.backbone,
                         seed=spec.seed)
    shadow_before = split.shadow_reads
    burn_in = spec.epochs // 2  # compare converged checkpoints only
    best_criterion = -np.inf
    best_state = None
    step_index = 0
    if spec.method == "plain":
        x_all, y_all = split.all_train_xy()

    for epoch in range(spec.epochs):
        t0 = time.perf_counter()
        agg: dict[str, float] = {}
        steps = 0
        if spec.method == "plain":
            stream = ((b, None) for b in single_stream_batches(
                x_all, y_all, spec.batch_size, spec.seed, epoch))
        else:
            stream = batches(split, spec.batch_size, spec.seed, epoch)
        for lab, unl in stream:
            context = f"method={spec.method} epoch={epoch} step={steps}"
            with _step_context(context):
                total, br = O.joint_loss(
                    lab, unl, bundle, spec.objective,
                    _epsilon(bundle, rng_eps, lab, spec.latent_dim),
                    _epsilon(bundle, rng_eps, unl, spec.latent_dim),
                    training=True, rng=rng_drop)
                opt.zero_grad()
                ad.backward(total)
                opt.step(context=context)
            for key, value in br.as_dict().items():
                agg[key] = agg.get(key, 0.0) + value
            if log_writer is not None:
                log_writer({"step": step_index, "epoch": epoch,
                            "lambda": spec.grl_lambda, "lr": spec.lr,
                            **br.as_dict()})
            steps += 1
            step_index += 1
        report.epoch_losses.append({k: v / steps for k, v in agg.items()})
        val = _validation_criterion(bundle, split)
        report.val_history.append(val)
        report.epoch_seconds.append(time.perf_counter() - t0)
        if epoch >= burn_in and val["criterion"] > best_criterion:
            best_criterion = val["criterion"]
            best_state = bundle.state_arrays()
            report.selected_epoch = epoch
    if best_state is not None:
        bundle.load_state_arrays(best_state)
    report.shadow_reads_during_training = split.shadow_reads - shadow_before
    return bundle, report


def _attribute_probs(bundle, x) -> ad.Node:
    """The attribute predictor in eval mode over x, tracking no gradients."""
    with ad.no_grad():
        return bundle.attr_head(bundle.bias_aware.forward(x))


def _train_attribute_predictor(spec: MethodSpec,
                               split: DatasetSplit) -> M.ModelBundle:
    """Round one of self-training: fit the attribute predictor on labeled data."""
    probe_spec = replace(spec, method="dadv")
    bundle = _build_bundle(probe_spec, split.feature_dim)
    attr_params = [p for p in bundle.trainable_parameters()
                   if p.name.startswith(("bias_aware", "attr_head"))]
    opt = Adam(attr_params, lr=spec.lr)
    rng_drop = _stream(spec.seed, 13)
    best_acc, best_state = -np.inf, None
    for epoch in range(spec.epochs):
        context = f"attribute predictor epoch={epoch}"
        for lab, _ in batches(split, spec.batch_size, spec.seed + 7919, epoch):
            with _step_context(context):
                r_b = ad.dropout(bundle.bias_aware.forward(lab.x),
                                 spec.dropout_rate, training=True, rng=rng_drop)
                z_hat = bundle.attr_head(r_b)
                loss = O.attribute_prediction_loss(O.one_hot(lab.z, 2), z_hat)
                opt.zero_grad()
                ad.backward(loss)
                opt.step(context=context)
        val_pred = _attribute_probs(bundle, split.val_x).value.argmax(axis=1)
        acc = MX.accuracy(split.val_z, val_pred)
        if acc > best_acc:
            best_acc, best_state = acc, bundle.state_arrays()
    if best_state is not None:
        bundle.load_state_arrays(best_state)
    return bundle


def self_train(spec: MethodSpec, split: DatasetSplit,
               log_writer=None) -> tuple[M.ModelBundle, TrainReport]:
    """Two rounds: pseudo-label confident unlabeled samples, retrain the base
    method treating them as attribute-labeled. ``log_writer`` receives the
    step records of the second round."""
    if not spec.method.endswith("_st"):
        raise ValueError(f"self_train expects an _st method, got {spec.method!r}")
    base_method = spec.method.removesuffix("_st")

    predictor = _train_attribute_predictor(spec, split)
    probs = _attribute_probs(predictor, split.unl_x).value
    confident = probs.max(axis=1) >= spec.st_threshold
    pseudo = probs.argmax(axis=1)

    if confident.any():
        aug_split = split.with_pseudo_labels(confident, pseudo[confident])
    else:
        warnings.warn(
            f"no unlabeled sample cleared the confidence threshold "
            f"{spec.st_threshold}; self-training falls back to the base method",
            stacklevel=2,
        )
        aug_split = split

    bundle, report = train(replace(spec, method=base_method), aug_split,
                           log_writer=log_writer)
    report.method = spec.method
    # diagnostic only, computed after the optimization phase
    if confident.any():
        shadow = split.shadow_unlabeled_attributes()
        report.pseudo_label_accuracy = MX.accuracy(shadow[confident],
                                                   pseudo[confident])
    report.pseudo_label_count = int(confident.sum())
    return bundle, report
