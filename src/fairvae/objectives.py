"""Loss terms and their labeled/unlabeled/joint compositions.

One composition serves the whole method ladder: ``labeled_loss`` and
``unlabeled_loss`` take their terms from the parts the bundle has (the task
term always; the adversarial term with a discriminator, on labeled batches;
attr_pred on labeled batches and orthogonality on both with a bias-aware
encoder; with a VAE, the labeled ELBO, the marginalized unlabeled ELBO and
the entropies), and ``joint_loss`` adds the two sides. Heads that no term
reads are not run.

Sign conventions: the adversarial term is recorded raw; its minus-lambda
weighting is realized structurally by the gradient-reversal layer inside the
discriminator path, so the scalar being minimized contains +adversarial while
the encoder receives the reversed, scaled gradient. Entropy terms on
unlabeled data enter the minimized total with negative sign, so both
entropies are pushed up, as the classifier entropy is in the unlabeled bound
of the M2 model (Kingma et al. 2014) that the semi-supervised VAE follows.

On unlabeled data the reconstruction objective is marginalized over the
enumerable attribute classes, weighted by the bias-aware predictor's class
probabilities; those weights stay in the graph (they are how reconstruction
sharpens the predictor), while the discriminator's soft labels are detached
before entering the decoder.

The cross-entropy, reconstruction and KL terms are each one autodiff op
whose gradients have the bits of the chain of primitives it stands for
(``autodiff``'s fused ops; the comment above the terms says how), so a step
builds one node for each instead of one per array operation. The entropy,
orthogonality and class-weighted sums stay built from primitives: fusing
them saved no time that a benchmark could tell from noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import models as M
from . import parallel
from .data import Samples

LOG2 = math.log(2.0)


@dataclass
class ObjectiveConfig:
    """The ablation switches: the two decoder slots and the two entropies."""

    use_zhat_in_decoder: bool = True
    use_ztilde_in_decoder: bool = True
    use_entropy_zhat: bool = True
    use_entropy_ztilde: bool = True

    def __post_init__(self):
        M.check_types(self)


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
#
# A row builder returns the rows' value and the (parent, vjp) pairs whose vjps
# map the rows' gradient to each parent's; the term's one node is then
# ``ad._node`` of the rows or ``ad._mean_node`` of their mean. A vjp replays
# the primitive chain the term stands for (kept in tests/oracles.py as the
# reference): the same numpy operations in the same order, with
# ``ad._first_touch`` wherever the chain stored the first gradient of one of
# its nodes. An input that the chain reached twice gets two pairs,
# so its buffer sees the same two additions in the same order.


def _ce_rows(target, probs):
    """``-sum(target * log(clip(probs)))`` per row: the chain ``log_clipped``,
    ``mul(target, .)``, ``sum_rows``, ``scale(-1)``. A target that tracks
    gradients is the mul's first input."""
    target, probs = ad.as_node(target), ad.as_node(probs)
    t, p = target.value, probs.value
    if t.shape != p.shape:
        raise ad.ShapeMismatch(
            f"cross-entropy target {t.shape} does not match probabilities {p.shape}"
        )
    clipped = np.clip(p, ad.LOG_FLOOR, 1.0)
    inside = ((p >= ad.LOG_FLOOR) & (p <= 1.0)).astype(np.float64)
    log_p = np.log(clipped)
    rows = (t * log_p).sum(axis=1) * -1.0

    def product(up):  # the gradient stored at target * log p
        return ad._first_touch(ad._first_touch(-1.0 * up, rows.shape)[:, None],
                               p.shape)

    inputs = [(probs, lambda up: inside * ad._first_touch(t * product(up),
                                                          p.shape) / clipped)]
    if target.requires_grad:
        inputs.insert(0, (target, lambda up: log_p * product(up)))
    return rows, inputs


def cross_entropy(target, probs) -> ad.Node:
    """Mean cross-entropy of class probabilities against one-hot targets: the
    task, adversarial and attr_pred terms. The two shapes must be equal."""
    rows, inputs = _ce_rows(target, probs)
    return ad._mean_node(rows, "cross_entropy", *inputs)


def orthogonality_loss(r_f, r_b) -> ad.Node:
    """Mean absolute cosine similarity per row; zero-norm rows contribute 0."""
    return ad.mean_all(ad.abs_row_cosine(r_f, r_b)[0])


def _recon_rows(x, x_hat):
    """Mean squared error per row: the chain ``sub(x_hat, x)``, ``square``,
    ``sum_rows``, ``scale(1/d)``."""
    x, x_hat = ad.as_node(x), ad.as_node(x_hat)
    if x.value.shape != x_hat.value.shape:
        raise ad.ShapeMismatch(
            f"reconstruction shapes differ: {x_hat.value.shape} vs {x.value.shape}"
        )
    c = 1.0 / x.value.shape[1]
    diff = x_hat.value - x.value
    rows = (diff * diff).sum(axis=1) * c

    def diff_grad(up):  # the gradient stored at x_hat - x
        g = ad._first_touch(c * up, rows.shape)
        g = ad._first_touch(g[:, None], diff.shape)
        return ad._first_touch(2.0 * diff * g, diff.shape)

    inputs = [(x_hat, diff_grad)]
    if x.requires_grad:
        inputs.append((x, lambda up: -diff_grad(up)))
    return rows, inputs


def reconstruction_loss(x, x_hat) -> ad.Node:
    rows, inputs = _recon_rows(x, x_hat)
    return ad._mean_node(rows, "reconstruction", *inputs)


def _kl_rows(mu, sigma):
    """KL(N(mu, sigma^2) || N(0, 1)) per row: the chain
    ``0.5 * sum_rows((mu^2 + sigma^2) - (log(sigma^2) + 1))``, in which sigma
    is squared twice, first for the sum and then for the log."""
    mu, sigma = ad.as_node(mu), ad.as_node(sigma)
    if np.any(sigma.value <= 0):
        raise ValueError("kl divergence needs strictly positive sigma")
    m, s = mu.value, sigma.value
    s2 = s * s
    clipped = np.clip(s2, ad.LOG_FLOOR, np.inf)
    inside = ((s2 >= ad.LOG_FLOOR) & (s2 <= np.inf)).astype(np.float64)
    rows = ((m * m + s2) - (np.log(clipped) + np.ones(m.shape))).sum(axis=1) * 0.5

    def inner(up):  # the gradient stored at the difference
        return ad._first_touch(ad._first_touch(0.5 * up, rows.shape)[:, None],
                               m.shape)

    def log_square(up):  # stored at log(sigma^2) + 1, then at the second sigma^2
        g = ad._first_touch(-inner(up), m.shape)
        return ad._first_touch(inside * g / clipped, m.shape)

    # the sum, mu^2 and the first sigma^2 store inner's gradient as it is:
    # a first touch of a first touch has its bits
    return rows, [(mu, lambda up: 2.0 * m * inner(up)),
                  (sigma, lambda up: 2.0 * s * inner(up)),
                  (sigma, lambda up: 2.0 * s * log_square(up))]


def kl_to_standard_normal(mu, sigma) -> ad.Node:
    rows, inputs = _kl_rows(mu, sigma)
    return ad._mean_node(rows, "kl", *inputs)


def _entropy_rows(p) -> ad.Node:
    return ad.scale(ad.sum_rows(ad.mul(p, ad.log_clipped(p))), -1.0)


def entropy(p) -> ad.Node:
    return ad.mean_all(_entropy_rows(p))


# ---------------------------------------------------------------------------
# labeled / unlabeled / joint compositions: one per batch side, each reading
# its terms off the parts the bundle has


def _sum_nodes(nodes):
    total = nodes[0]
    for node in nodes[1:]:
        total = ad.add(total, node)
    return total


def _compose(summands: dict, order, **raw) -> tuple[ad.Node, LossBreakdown]:
    """Sum the present summands in ``order``; the breakdown records each
    summand's value unless ``raw`` gives the unsigned one."""
    total = _sum_nodes([summands[name] for name in order if name in summands])
    values = {name: float(node.value) for name, node in summands.items()}
    values.update(raw)
    return total, LossBreakdown(**values, total=float(total.value))


# The order of a sum decides the order in which the backward pass accumulates
# into the shared representations, so each keeps the order the method's
# parameters were first pinned with.
_LABELED_ORDER = ("task", "adversarial", "attr_pred", "orthogonality")
_LABELED_VAE_ORDER = ("attr_pred", "adversarial", "orthogonality", "task",
                      "reconstruction", "kl", "log_prior")
_UNLABELED_ORDER = ("orthogonality", "task", "reconstruction", "kl",
                    "log_prior", "entropy_attr", "entropy_adv")


def labeled_loss(batch, bundle: M.ModelBundle, config: ObjectiveConfig,
                 epsilon, training: bool = False, rng=None):
    """Supervised composition: the task term, plus the adversarial term with
    a discriminator, attr_pred and orthogonality with a bias-aware encoder,
    and with a VAE the ELBO, whose decoder sees the true attribute one-hot in
    the bias-aware slot and a uniform vector in the discriminator slot."""
    uses_z = bundle.cfg.method != "plain"  # every other part reads z
    if uses_z and batch.z is None:
        raise ValueError("labeled loss requires observed attributes")
    if len(batch) == 0:
        raise ValueError("labeled loss got an empty batch")
    n, k = len(batch), M.CLASSES
    r_f, r_b, r = M.encode(bundle, batch.x, training=training, rng=rng)
    z_hat, z_tilde, y_hat = M.predict_heads(bundle, r_f, r_b, r)

    s = {"task": cross_entropy(one_hot(batch.y, k), y_hat)}
    z1 = one_hot(batch.z, k) if uses_z else None
    if z_tilde is not None:
        s["adversarial"] = cross_entropy(z1, z_tilde)
    if z_hat is not None:
        s["attr_pred"] = cross_entropy(z1, z_hat)
        s["orthogonality"] = orthogonality_loss(r_f, r_b)
    if bundle.vae is None:
        return _compose(s, _LABELED_ORDER)

    z_slot = z1 if config.use_zhat_in_decoder else np.zeros((n, k))
    zt_slot = np.full((n, k), 1.0 / k) if config.use_ztilde_in_decoder \
        else np.zeros((n, k))
    mu, sigma = bundle.vae.latent(batch.x)
    h = ad.reparameterize(mu, sigma, epsilon)
    x_hat = bundle.vae.decode(zt_slot, z_slot, h)
    s["reconstruction"] = reconstruction_loss(batch.x, x_hat)
    s["kl"] = kl_to_standard_normal(mu, sigma)
    s["log_prior"] = ad.as_node(LOG2)
    return _compose(s, _LABELED_VAE_ORDER)


def unlabeled_loss(batch, bundle: M.ModelBundle, config: ObjectiveConfig,
                   epsilon, training: bool = False, rng=None):
    """Unsupervised composition: the task term, plus orthogonality with a
    bias-aware encoder, and with a VAE the ELBO marginalized over the
    enumerable attribute classes and both entropy terms.

    Branch weights are the bias-aware predictor's class probabilities and stay
    differentiable; the discriminator's soft labels are detached before they
    enter the decoder. Both entropy terms are subtracted from the total.
    Without a VAE no term reads the attribute heads, so they are not run.
    """
    if batch.z is not None:
        raise ValueError("unlabeled loss got observed attributes")
    if len(batch) == 0:
        raise ValueError("unlabeled loss got an empty batch")
    n, k = len(batch), M.CLASSES
    r_f, r_b, r = M.encode(bundle, batch.x, training=training, rng=rng)
    if bundle.vae is None:
        y_hat = bundle.task_head(r)
    else:
        z_hat, z_tilde, y_hat = M.predict_heads(bundle, r_f, r_b, r)

    s = {"task": cross_entropy(one_hot(batch.y, k), y_hat)}
    if r_b is not None:
        s["orthogonality"] = orthogonality_loss(r_f, r_b)
    if bundle.vae is None:
        return _compose(s, _UNLABELED_ORDER)

    mu, sigma = bundle.vae.latent(batch.x)
    h = ad.reparameterize(mu, sigma, epsilon)
    rows, inputs = _kl_rows(mu, sigma)
    kl_rows = ad._node(rows, "kl_rows", *inputs)
    zt_slot = z_tilde.detach() if config.use_ztilde_in_decoder \
        else ad.as_node(np.zeros((n, k)))

    recon_parts, kl_parts, prior_parts = [], [], []
    for c in range(k):
        weight = ad.column(z_hat, c)
        slot = one_hot(np.full(n, c), k) if config.use_zhat_in_decoder \
            else np.zeros((n, k))
        x_hat_c = bundle.vae.decode(zt_slot, slot, h)
        rows, inputs = _recon_rows(batch.x, x_hat_c)
        recon_parts.append(ad.mul(weight, ad._node(rows, "recon_rows", *inputs)))
        kl_parts.append(ad.mul(weight, kl_rows))
        prior_parts.append(ad.mul(weight, np.full(n, LOG2)))
    s["reconstruction"] = ad.mean_all(_sum_nodes(recon_parts))
    s["kl"] = ad.mean_all(_sum_nodes(kl_parts))
    s["log_prior"] = ad.mean_all(_sum_nodes(prior_parts))

    raw = {}
    if config.use_entropy_zhat:
        ent_attr = entropy(z_hat)
        raw["entropy_attr"] = float(ent_attr.value)
        s["entropy_attr"] = ad.scale(ent_attr, -1.0)
    if config.use_entropy_ztilde:
        ent_adv = entropy(z_tilde)
        raw["entropy_adv"] = float(ent_adv.value)
        s["entropy_adv"] = ad.scale(ent_adv, -1.0)
    return _compose(s, _UNLABELED_ORDER, **raw)


class _Drawn:
    """Stands in for the dropout generator on one side of a split step: hands
    out masks drawn beforehand, in order."""

    def __init__(self, masks):
        self._masks = iter(masks)

    def random(self, shape):
        return next(self._masks)


def _mask_draws(bundle: M.ModelBundle, training: bool, rng) -> int:
    """How many dropout masks one side's ``M.encode`` draws from ``rng``:
    r_f's, then r_b's with a bias-aware encoder; none when dropout is off."""
    if not training or rng is None or bundle.cfg.dropout_rate == 0.0:
        return 0
    return 1 if bundle.bias_aware is None else 2


def _signalled(helper: parallel.Helper):
    """The masks of the caller's next signal, once the first is needed."""
    yield from helper.wait()


def _unlabeled_side(helper: parallel.Helper, batch: list,
                    config: ObjectiveConfig, training: bool, masks: bool):
    """The helper's task in a split step (``joint_loss``): build the
    unlabeled side from its ``batch`` (x, y, z and the VAE noise) and, if
    ``masks``, the dropout masks that the caller signals, yield its total
    and breakdown, then sweep it from a root gradient of 1.0 and yield its
    gradients into the parameters, in order, each as ``(index in the
    optimizer, placed array)``."""
    bundle, params = helper.held["bundle"], helper.held["adam"].params
    x, y, z, epsilon = batch
    total, breakdown = unlabeled_loss(
        Samples(x, y, z), bundle, config, epsilon, training=training,
        rng=_Drawn(_signalled(helper)) if masks else None)
    yield float(total.value), breakdown
    index = {id(p): i for i, p in enumerate(params)}
    into_leaves = ad.backward_deferring(total)
    placed = helper.place([grad for _, grad in into_leaves])
    yield [(index[id(leaf)], p) for (leaf, _), p in zip(into_leaves, placed)]


def joint_loss(labeled_batch, unlabeled_batch, bundle: M.ModelBundle,
               config: ObjectiveConfig, labeled_epsilon, unlabeled_epsilon,
               training: bool = False, rng=None,
               helper: parallel.Helper | None = None):
    """Sum of the labeled and unlabeled compositions; either side may be empty.

    With both sides and a ``helper`` (a training run's ``parallel.session``,
    holding ``bundle`` and the run's optimizer), the step splits: the
    unlabeled batch and its noise go to the helper, which builds and sweeps
    the unlabeled side while the labeled side is built here, the dropout
    masks are drawn here in the serial order, the unlabeled side's handed
    over, and the sum is ``ad.add_sides``, whose backward adds the helper's
    gradients after the labeled side's. An error on either side is raised
    here, the labeled side's when both raise."""
    def labeled(rng):
        return labeled_loss(labeled_batch, bundle, config, labeled_epsilon,
                            training=training, rng=rng)

    def unlabeled(rng):
        return unlabeled_loss(unlabeled_batch, bundle, config,
                              unlabeled_epsilon, training=training, rng=rng)

    has_labeled = labeled_batch is not None and len(labeled_batch) > 0
    has_unlabeled = unlabeled_batch is not None and len(unlabeled_batch) > 0
    if not has_unlabeled:
        if not has_labeled:
            raise ValueError("joint loss needs at least one non-empty batch")
        return labeled(rng)
    if not has_labeled:
        return unlabeled(rng)
    if helper is None:
        (lab_total, lab_break), (unl_total, unl_break) = labeled(rng), unlabeled(rng)
        return ad.add(lab_total, unl_total), lab_break + unl_break
    # the helper starts while the masks are drawn, in the serial order: the
    # labeled side's r_f and r_b, then the unlabeled side's
    draws = _mask_draws(bundle, training, rng)
    u = unlabeled_batch
    task = helper.submit(_unlabeled_side, config, training, draws > 0,
                         arrays=[u.x, u.y, u.z, unlabeled_epsilon], replies=2)
    lab_rng = rng
    if draws:
        hidden = bundle.cfg.hidden_dim
        lab_rng = _Drawn([rng.random((len(labeled_batch), hidden))
                          for _ in range(draws)])
        helper.signal([rng.random((len(u), hidden)) for _ in range(draws)])
    try:
        lab_total, lab_break = labeled(lab_rng)
    except BaseException:
        helper.drain()
        raise
    unl_total, unl_break = helper.reply(task)

    def into_leaves():
        placed = helper.reply(task)
        params = helper.held["adam"].params
        grads = helper.view([p for _, p in placed])
        return [(params[i], grad) for (i, _), grad in zip(placed, grads)]

    return (ad.add_sides(lab_total, unl_total, into_leaves),
            lab_break + unl_break)
