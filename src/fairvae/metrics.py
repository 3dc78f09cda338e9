"""Group-fairness evaluation: accuracy, AUC, parity gaps, leakage probe."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .objectives import task_loss


class UndefinedMetric(ValueError):
    """The metric is undefined for this input (e.g. an empty group)."""


@dataclass
class FairnessReport:
    """Test-set evaluation of one trained model."""

    accuracy: float
    auc: float
    dp_gap: float
    opp_gap: float
    probe_accuracy: float
    pos_rate_group0: float
    pos_rate_group1: float
    tpr_group0: float
    tpr_group1: float
    n_group0: int
    n_group1: int

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def accuracy(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) == 0 or len(y_true) != len(y_pred):
        raise UndefinedMetric(
            f"accuracy needs equal non-empty inputs, got {len(y_true)} "
            f"and {len(y_pred)}"
        )
    return float((y_true == y_pred).mean())


def _group_positive_rates(y_pred, z):
    rates = []
    for g in (0, 1):
        mask = z == g
        if not mask.any():
            raise UndefinedMetric(f"group z={g} is empty")
        rates.append(float((y_pred[mask] == 1).mean()))
    return rates


def demographic_parity_gap(y_pred, z) -> float:
    """|P(pred=1 | z=0) - P(pred=1 | z=1)|."""
    y_pred = np.asarray(y_pred)
    z = np.asarray(z)
    r0, r1 = _group_positive_rates(y_pred, z)
    return abs(r0 - r1)


def _group_tprs(y_true, y_pred, z):
    tprs = []
    for g in (0, 1):
        mask = (z == g) & (y_true == 1)
        if not mask.any():
            raise UndefinedMetric(f"group z={g} has no positive-class samples")
        tprs.append(float((y_pred[mask] == 1).mean()))
    return tprs


def equal_opportunity_gap(y_true, y_pred, z) -> float:
    """|TPR(z=0) - TPR(z=1)| where TPR = P(pred=1 | y=1, group)."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    z = np.asarray(z)
    t0, t1 = _group_tprs(y_true, y_pred, z)
    return abs(t0 - t1)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with each tie group given the mean of its ranks.

    A stable sort groups equal values; a group spanning sorted positions
    ``start .. end - 1`` gets ``(start + 1 + end) / 2``. Every rank is an
    integer or a half, so the result is exact and equals
    ``scipy.stats.rankdata(values, method="average")`` for finite values.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + 1 + ends) / 2, ends - starts)
    return ranks


def auc(y_true, scores) -> float:
    """Probability a random positive outranks a random negative (ties at 0.5).

    Rank-sum formulation with average ranks, equivalent to the pairwise count.
    Ranks come from ``_average_ranks`` (a stable sort, then tie groups); a NaN
    score makes the AUC NaN.
    """
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=float)
    n_pos = int((y_true == 1).sum())
    n_neg = int((y_true == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric("auc needs both classes present")
    if np.isnan(scores).any():
        return float("nan")
    ranks = _average_ranks(scores)
    pos_rank_sum = ranks[y_true == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def leakage_probe(representations, z, seed: int) -> float:
    """Held-out accuracy of a fresh affine+softmax classifier predicting the
    attribute from frozen representations; higher means more leakage. The
    protocol is fixed: a seeded 70/30 split, then 200 full-batch Adam epochs
    at lr 0.01 on the 70%, scored on the 30%."""
    from .training import Adam  # deferred: training imports this module

    reps = np.asarray(representations, dtype=float)
    z = np.asarray(z, dtype=int)
    n = len(z)
    if n < 50:
        raise UndefinedMetric(f"leakage probe needs at least 50 samples, got {n}")
    if len(np.unique(z)) < 2:
        raise UndefinedMetric("leakage probe needs both groups present")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9806E]))
    perm = rng.permutation(n)
    n_train = int(0.7 * n)
    tr, te = perm[:n_train], perm[n_train:]

    d = reps.shape[1]
    limit = np.sqrt(6.0 / (d + 2))
    weight = ad.Parameter(rng.uniform(-limit, limit, (d, 2)), "probe.weight")
    bias = ad.Parameter(np.zeros(2), "probe.bias")
    onehot = np.zeros((len(tr), 2))
    onehot[np.arange(len(tr)), z[tr]] = 1.0
    opt = Adam([weight, bias], lr=0.01)
    # constants built once: no gradient flows into the inputs or the labels
    x_train, target = ad.as_node(reps[tr]), ad.as_node(onehot)
    for _ in range(200):
        loss = task_loss(target, ad.softmax(ad.dense(x_train, weight, bias)))
        opt.zero_grad()
        ad.backward(loss)
        opt.step()
    logits = reps[te] @ weight.value + bias.value
    return accuracy(z[te], logits.argmax(axis=1))


def fairness_report(y_true, y_pred, scores, z, representations,
                    seed: int) -> FairnessReport:
    """Full evaluation bundle for one model on one test set."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    z = np.asarray(z)
    r0, r1 = _group_positive_rates(y_pred, z)
    t0, t1 = _group_tprs(y_true, y_pred, z)
    return FairnessReport(
        accuracy=accuracy(y_true, y_pred),
        auc=auc(y_true, scores),
        dp_gap=abs(r0 - r1),
        opp_gap=abs(t0 - t1),
        probe_accuracy=leakage_probe(representations, z, seed),
        pos_rate_group0=r0, pos_rate_group1=r1,
        tpr_group0=t0, tpr_group1=t1,
        n_group0=int((z == 0).sum()), n_group1=int((z == 1).sum()),
    )
