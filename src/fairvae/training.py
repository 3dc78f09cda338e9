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

Two cores: a run whose bundle holds at least ``parallel.SPLIT_MIN_VALUES``
(1,000) trainable values, in a process that may fork a helper
(``parallel.forkable``: two or more CPUs and one thread, so BLAS pinned to
one), splits its two-sided steps. ``joint_loss`` has the helper process build
and sweep the unlabeled side while the labeled side is built here,
``ad.backward`` adds the helper's gradients after the labeled side's, and
``Adam.step`` has the helper update the second half of its buffers when they
hold at least ``ADAM_SPLIT_MIN_VALUES`` (12,000) values. Below that the
pipe's round trip costs more than the half of the update it moves (one step
alone, in the caller / split: 4,500 values 24 / 37 us, 12,000 values 53 /
53 us, 23,000 values 96 / 77 us), so lr's optimizers and fm's smaller ones
update in the caller. plain, whose steps have one side only, never forks,
nor does the self-training predictor round. Every bit is the serial run's.
At the default sizes every adv, dadv and fairvae bundle splits: lr holds
1.1k-4.5k values at input width 28, fm 10k-23k and dnn 74k-151k (197k at
width 103). Step times on a 2-CPU machine, BLAS pinned to one thread, 128
labeled and 128 unlabeled rows per step, median of 280 steps, with Adam's
halves split at every size (split / serial): dnn fairvae at width 103 4.79 /
8.83 ms; at width 28 fm fairvae 2.50 / 4.65, dadv 1.90 / 3.66, adv 0.93 /
2.00; lr fairvae 2.28 / 3.85, dadv 1.56 / 2.72, adv (1.1k values) 1.07 /
1.22, and adv at hidden width 16 (96 values) 0.29 / 0.32. Forking costs a
run about 3 ms in a 200 MB process and 10 ms in a 570 MB one, which a
handful of steps does not repay: the constant keeps toy bundles, as the
tests' are, serial.

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
from . import parallel
from .data import ConfigError, DatasetSplit, batches, single_stream_batches

METHODS = ("plain", "adv", "adv_st", "dadv", "dadv_st", "fairvae")

ADAM_SPLIT_MIN_VALUES = 12_000  # see the module docstring


class NonFiniteGradient(ValueError):
    """A gradient turned NaN/Inf; the step is aborted."""


@contextmanager
def _step_context(context: str):
    """Name the training step in any ValueError it raises (a non-finite value
    or gradient, a shape mismatch), re-raised as the same type and chained."""
    try:
        yield
    except ValueError as exc:
        raise type(exc)(f"{exc} ({context})") from exc


class Adam:
    """Adam with bias correction and fixed beta1=0.9, beta2=0.999, eps=1e-8.

    Flat storage: on construction the optimizer moves its parameters' values
    and gradients into one contiguous float64 buffer each (``values`` and
    ``grads``, in parameter order), and every ``p.value`` and ``p.grad``
    becomes a view of its own shape into them. The moments ``m`` and ``v`` and
    two scratch arrays are flat too and allocated once, so a step, the finite
    check and ``zero_grad`` each run over whole buffers. In-place writes
    (``load_state_arrays``, ``backward``'s accumulation) go through the views.
    A parameter belongs to at most one optimizer.

    A step checks every gradient for a non-finite value, then computes,
    elementwise and in this order, ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + ((1-b2)*g)*g`` and ``p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)``
    with ``c = 1 - b**t``. Given a training run's ``helper``, the buffers
    live in the mapping it shares, and once its process runs, it updates the
    second half of buffers of at least ``ADAM_SPLIT_MIN_VALUES`` values
    while the caller updates the first, with the same bits.
    """

    def __init__(self, params, lr=0.01, helper: parallel.Helper | None = None):
        self.params = list(params)
        seen = set()
        for p in self.params:
            if p.owned or p in seen:
                raise ValueError(
                    f"parameter {p.name!r} already belongs to an optimizer")
            if not p.trainable:
                raise ValueError(f"parameter {p.name!r} is frozen")
            seen.add(p)
        self.lr = lr
        self.t = 0
        size = sum(p.value.size for p in self.params)
        self._helper = helper
        if helper is None:
            self.values, self.grads = np.empty(size), np.empty(size)
            self.m, self.v = np.zeros(size), np.zeros(size)
            self._scratch = (np.empty(size), np.empty(size))
        else:  # zero-filled, in the mapping that the helper shares
            self.values, self.grads, self.m, self.v, *scratch = \
                helper.buffers(size, 6)
            self._scratch = tuple(scratch)
            helper.held["adam"] = self
        lo = 0
        for p in self.params:
            hi = lo + p.value.size
            self.values[lo:hi] = p.value.ravel()
            self.grads[lo:hi] = p.grad.ravel()
            p.value = self.values[lo:hi].reshape(p.value.shape)
            p.grad = self.grads[lo:hi].reshape(p.grad.shape)
            p.owned = True
            lo = hi

    def zero_grad(self):
        self.grads.fill(0.0)

    def step(self):
        if not np.isfinite(self.grads).all():
            bad = next(p for p in self.params if not np.isfinite(p.grad).all())
            raise NonFiniteGradient(f"non-finite gradient for {bad.name}")
        self.t += 1
        if (self._helper is None or self._helper.pid is None
                or self.values.size < ADAM_SPLIT_MIN_VALUES):
            self._update(slice(None))
            return
        self._helper.submit(_update_second_half, self.t)
        try:
            self._update(slice(0, self.values.size // 2))
        finally:
            self._helper.reply()

    def _update(self, part: slice):
        """The step's update of the ``part`` of the flat buffers."""
        b1, b2, eps = 0.9, 0.999, 1e-8
        g, m, v = self.grads[part], self.m[part], self.v[part]
        s, r = self._scratch[0][part], self._scratch[1][part]
        m *= b1
        np.multiply(g, 1 - b1, out=s)
        m += s
        v *= b2
        np.multiply(g, 1 - b2, out=s)
        s *= g
        v += s
        np.divide(m, 1 - b1 ** self.t, out=s)
        s *= self.lr
        np.divide(v, 1 - b2 ** self.t, out=r)
        np.sqrt(r, out=r)
        r += eps
        s /= r
        values = self.values[part]
        values -= s


def _update_second_half(helper: parallel.Helper, _views, t: int):
    """The helper's task in a split ``Adam.step``: the update of step ``t``
    over the second half of the shared buffers."""
    adam = helper.held["adam"]
    adam.t = t
    adam._update(slice(adam.values.size // 2, None))
    yield None


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
    """What a run records besides its step log (``train``'s ``log_writer``,
    which receives every loss term of every step)."""

    val_history: list = field(default_factory=list)
    selected_epoch: int = -1
    epoch_seconds: list = field(default_factory=list)
    shadow_reads_during_training: int = 0
    pseudo_label_accuracy: float | None = None
    pseudo_label_count: int | None = None


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _build_bundle(spec: MethodSpec, input_dim: int) -> M.ModelBundle:
    method = spec.method.removesuffix("_st")
    arch = M.settings(spec, M.ArchitectureSettings)
    if method == "plain":
        arch["grl_lambda"] = 0.0  # plain has no discriminator to reverse into
    return M.ModelBundle(M.BundleConfig(
        **arch, input_dim=input_dim, backbone=spec.backbone, method=method,
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
    labels = predict_labels(bundle, split.val.x)
    acc = MX.accuracy(split.val.y, labels)
    if len(np.unique(split.val.z)) == 2:
        dp = MX.demographic_parity_gap(labels, split.val.z)
    else:
        dp = 0.0
    return {"accuracy": acc, "dp_gap": dp, "criterion": acc - dp}


def train(spec: MethodSpec, split: DatasetSplit,
          log_writer=None) -> tuple[M.ModelBundle, TrainReport]:
    """Train one method on one split; returns the best-validation-epoch model."""
    if spec.method.endswith("_st"):
        return self_train(spec, split, log_writer=log_writer)
    bundle = _build_bundle(spec, split.feature_dim)
    params = bundle.trainable_parameters()
    with parallel.session(sum(p.value.size for p in params),
                          bundle=bundle) as helper:
        opt = Adam(params, lr=spec.lr, helper=helper)
        return _run_epochs(spec, split, bundle, opt, helper, log_writer)


def _run_epochs(spec: MethodSpec, split: DatasetSplit, bundle: M.ModelBundle,
                opt: Adam, helper: parallel.Helper | None,
                log_writer) -> tuple[M.ModelBundle, TrainReport]:
    """``train``'s epochs, each a pass of steps and a validation."""
    rng_drop = _stream(spec.seed, 11)
    rng_eps = _stream(spec.seed, 12)
    report = TrainReport()
    shadow_before = split.shadow_reads
    burn_in = spec.epochs // 2  # compare converged checkpoints only
    best_criterion = -np.inf
    best_state = None
    step_index = 0
    if spec.method == "plain":
        train_all = split.all_train()

    for epoch in range(spec.epochs):
        t0 = time.perf_counter()
        if spec.method == "plain":
            stream = ((b, None) for b in single_stream_batches(
                train_all, spec.batch_size, spec.seed, epoch))
        else:
            stream = batches(split, spec.batch_size, spec.seed, epoch)
        for step, (lab, unl) in enumerate(stream):
            with _step_context(f"method={spec.method} epoch={epoch} step={step}"):
                total, br = O.joint_loss(
                    lab, unl, bundle, spec.objective,
                    _epsilon(bundle, rng_eps, lab, spec.latent_dim),
                    _epsilon(bundle, rng_eps, unl, spec.latent_dim),
                    training=True, rng=rng_drop, helper=helper)
                opt.zero_grad()
                ad.backward(total)
                opt.step()
                # release this step's graph before joint_loss builds the next
                del total
            if log_writer is not None:
                log_writer({"step": step_index, "epoch": epoch,
                            "lambda": spec.grl_lambda, "lr": spec.lr,
                            **br.as_dict()})
            step_index += 1
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
        for lab, _ in batches(split, spec.batch_size, spec.seed + 7919, epoch):
            with _step_context(f"attribute predictor epoch={epoch}"):
                r_b = ad.dropout(bundle.bias_aware.forward(lab.x),
                                 spec.dropout_rate, training=True, rng=rng_drop)
                z_hat = bundle.attr_head(r_b)
                loss = O.cross_entropy(O.one_hot(lab.z, M.CLASSES), z_hat)
                opt.zero_grad()
                ad.backward(loss)
                opt.step()
                del r_b, z_hat, loss  # as in train: one step's graph at a time
        val_pred = _attribute_probs(bundle, split.val.x).value.argmax(axis=1)
        acc = MX.accuracy(split.val.z, val_pred)
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
    probs = _attribute_probs(predictor, split.unl.x).value
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
    # diagnostic only, computed after the optimization phase
    if confident.any():
        shadow = split.shadow_unlabeled_attributes()
        report.pseudo_label_accuracy = MX.accuracy(shadow[confident],
                                                   pseudo[confident])
    report.pseudo_label_count = int(confident.sum())
    return bundle, report
