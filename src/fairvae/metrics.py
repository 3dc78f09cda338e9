"""Group-fairness evaluation: accuracy, AUC, parity gaps, leakage probe."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad


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


def _same_length(who: str, **arrays) -> None:
    """Raise ``UndefinedMetric`` naming ``who`` and every input's length
    unless all ``arrays`` have one length."""
    lengths = {name: len(a) for name, a in arrays.items()}
    if len(set(lengths.values())) > 1:
        raise UndefinedMetric(f"{who} needs inputs of one length, got " + ", ".join(
            f"{name} {length}" for name, length in lengths.items()))


def _binary(values, who: str, what: str = "attribute") -> np.ndarray:
    """``values`` as an int array, rejecting any value other than 0 or 1 with
    ``who``, ``what`` they are and the first bad row named."""
    values = np.asarray(values)
    bad = np.flatnonzero((values != 0) & (values != 1))
    if len(bad):
        raise UndefinedMetric(
            f"{who}: {what} in row {bad[0]} is {values[bad[0]]}, not 0 or 1")
    return values.astype(int)


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
    y_pred = _binary(y_pred, "demographic parity gap", "prediction")
    z = _binary(z, "demographic parity gap")
    _same_length("demographic parity gap", y_pred=y_pred, z=z)
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
    y_true = _binary(y_true, "equal opportunity gap", "label")
    y_pred = _binary(y_pred, "equal opportunity gap", "prediction")
    z = _binary(z, "equal opportunity gap")
    _same_length("equal opportunity gap", y_true=y_true, y_pred=y_pred, z=z)
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
    y_true = _binary(y_true, "auc", "label")
    scores = np.asarray(scores, dtype=float)
    _same_length("auc", y_true=y_true, scores=scores)
    n_pos = int((y_true == 1).sum())
    n_neg = int((y_true == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric("auc needs both classes present")
    if np.isnan(scores).any():
        return float("nan")
    ranks = _average_ranks(scores)
    pos_rank_sum = ranks[y_true == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


PROBE_LIVE_MAX_WIDTH = 384  # full width of a live-column fit: see _fit_probe
# multiply-adds per product, above which the fit may read the live slice
# (_live_columns) and run its epochs transposed (_epochs): see _fit_probe
PROBE_MIN_PRODUCT = 1_000_000


def _gradients(x, up_log, w, b):
    """One epoch's gradients of the probe's mean cross-entropy with respect
    to the logits of the rows of ``x`` and to the weight ``w``, given
    ``up_log``, its gradient with respect to their log-probabilities
    (``_fit_probe``)."""
    logits = x @ w
    logits += b
    e = np.exp(logits - np.maximum(logits[:, :1], logits[:, 1:]))
    p = e / (e[:, :1] + e[:, 1:])
    inside = (p >= ad.LOG_FLOOR).astype(np.float64)
    g = inside * up_log / np.maximum(p, ad.LOG_FLOOR)
    gp = g * p
    g = p * (g - (gp[:, :1] + gp[:, 1:]))
    return g, (g.T @ x).T


def _transposed_gradients(x, xT, up, w, b, out):
    """``_gradients`` in the transposed layout (``_epochs``): the logits are
    ``w.T @ xT``, the softmax and gradient chain runs on 2 x n rows, and the
    weight gradient is ``G @ x``, every array written into the buffers
    ``out``. ``xT`` and ``up`` are C-contiguous copies of ``x.T`` and of
    ``up_log.T``. Returns the 2 x n logit gradient ``G`` and the weight
    gradient as a d x 2 view."""
    logits, p, t, g, row, weight_grad = out
    np.matmul(w.T, xT, out=logits)
    np.add(logits, b[:, None], out=logits)
    np.maximum(logits[0], logits[1], out=row)
    np.subtract(logits, row, out=logits)
    np.exp(logits, out=logits)
    np.add(logits[0], logits[1], out=row)
    np.divide(logits, row, out=p)
    np.greater_equal(p, ad.LOG_FLOOR, out=g)  # inside, as 1.0 or 0.0
    np.multiply(g, up, out=g)
    np.divide(g, np.maximum(p, ad.LOG_FLOOR, out=t), out=g)
    np.multiply(g, p, out=t)
    np.add(t[0], t[1], out=row)
    np.subtract(g, row, out=g)
    np.multiply(p, g, out=g)
    np.matmul(g, x, out=weight_grad)
    return g, weight_grad.T


def _epochs(x, up_log, w, b):
    """The fit's epoch on the training slice ``x`` at the width that
    ``_live_columns`` chose: a function of the weight and the bias that
    returns the bias and weight gradients (``_fit_probe``). Where each
    product holds more than ``PROBE_MIN_PRODUCT`` multiply-adds and the
    first epoch in the transposed layout gives ``_gradients``' bytes, every
    epoch runs transposed in buffers allocated here; else every epoch runs
    ``_gradients``."""

    def plain(w, b):
        g, weight_grad = _gradients(x, up_log, w, b)
        return np.add.accumulate(g)[-1], weight_grad

    n, d = x.shape
    if 2 * n * d <= PROBE_MIN_PRODUCT:
        return plain
    g, weight_grad = _gradients(x, up_log, w, b)  # its error first, if any
    xT, up = np.ascontiguousarray(x.T), np.ascontiguousarray(up_log.T)
    out = (*(np.empty((2, n)) for _ in range(4)), np.empty(n), np.empty((2, d)))
    first = _transposed_gradients(x, xT, up, w, b, out)
    if (first[0].tobytes() != g.T.tobytes()
            or first[1].tobytes() != weight_grad.tobytes()):
        return plain

    def transposed(w, b):
        g, weight_grad = _transposed_gradients(x, xT, up, w, b, out)
        return np.add.accumulate(g, axis=1, out=out[0])[:, -1], weight_grad

    return transposed


def _live_columns(x, up_log, w, b):
    """The columns of the training slice ``x`` that the fit's epochs read
    (``_fit_probe``): those nonzero in some row, where the shapes allow it
    and the first epoch at that width gives the full width's bytes; else
    every column (``slice(None)``)."""
    n, d = x.shape
    live = np.flatnonzero(x.any(axis=0))
    if (len(live) == d or d > PROBE_LIVE_MAX_WIDTH
            or 2 * n * len(live) <= PROBE_MIN_PRODUCT):
        return slice(None)
    full = _gradients(x, up_log, w, b)  # raises the full width's error, if any
    narrow = _gradients(x[:, live], up_log, w[live], b)
    if (narrow[0].tobytes() != full[0].tobytes()
            or narrow[1].tobytes() != full[1][live].tobytes()):
        return slice(None)
    return live


def _fit_probe(reps: np.ndarray, z: np.ndarray, seed: int):
    """The probe's seeded split and its fit on the 70%: returns the weight,
    the bias and the held-out rows. Each epoch runs in plain numpy and gives
    the bits of the graph of ``cross_entropy(onehot, softmax(dense(x, w,
    b)))``: ``x @ w``, the exp and the division are the graph's calls, and
    the loss value, which nothing reads, is skipped. Where the calls differ,
    the bits do not:

    - a row's max and its two sums are column arithmetic, ``max(l0, l1)``
      and ``a0 + a1``: a reduction over two values makes that one operation;
    - the bias gradient is ``add.accumulate(g)[-1]``: numpy reduces axis 0
      of a C-contiguous ``n x 2`` array by adding its rows in order, which
      is what the accumulate does;
    - the weight gradient is ``(g.T @ x).T`` in place of ``x.T @ g``:
      OpenBLAS sums each output over the rows in the same order (checked
      against the graph fit, for products of 10^6 multiply-adds and more
      too, where OpenBLAS leaves its small-matrix path);
    - ``log_clipped``'s upper bound and its ``p <= 1`` test are dropped: a
      softmax of two finite values is at most 1, as ``e0 + e1 >= e0``;
    - the ``+ 0.0`` first touches are dropped: they change only the sign of
      a zero, and adding into the zeroed gradient buffers makes every zero
      positive.

    Live columns: the epochs read only the training slice's columns that
    are nonzero in some row (``_live_columns``). A ReLU encoder leaves most
    columns zero on every row (186, 171, 188 and 201 of a trained wide dnn
    ``r_f``'s 256 at four seeds), and an epoch's products are memory-bound
    at this size. A dead column adds exact zeros to each logit, and its
    weight gradient is +0.0 in every epoch once added into the zeroed
    buffer, so Adam never moves its weights from their initial values (m =
    v = 0, an update of 0 / (0 + eps)). Adam's update is elementwise, so
    the fit trains the live columns' weights and the bias alone and
    returns the dead columns' weights as drawn; the seeded draws and the
    held-out scoring with the whole weight are unchanged. Dropping zero
    terms keeps every bit only where each logit is one FMA chain over the
    row and both live products run the whole products' kernels: a full
    width of at most ``PROBE_LIVE_MAX_WIDTH`` (one K block of this build's
    dgemm) and live products of more than ``PROBE_MIN_PRODUCT``
    multiply-adds (``2 * rows * live``, off OpenBLAS's small-matrix path).
    Outside them the bytes differed: at widths of 385 to 1,024, at 11,396
    rows with 40 or fewer live columns, and at 50 x 16 (scale 1e-3, ReLU
    rows), where the first epoch matched and later ones did not. So the
    shapes come first; within them the first epoch is computed at both
    widths and compared byte for byte, which guards a BLAS build that blocks
    or picks its kernels otherwise, and on a difference every epoch runs at
    the full width. Measured with
    OpenBLAS 0.3.31 (SkylakeX kernels, BLAS pinned to one thread): the bytes
    matched the full-width fit's on four trained wide representations and
    30 random ReLU-shaped fits (2,000 to 16,281 rows, widths 64 to 384). lr
    and fm representations have no dead column, so only the scan runs.

    Layout: where each product at the width the fit reads holds more than
    ``PROBE_MIN_PRODUCT`` multiply-adds, the epochs run transposed
    (``_epochs``, ``_transposed_gradients``). The logits are ``w.T @ xT``,
    with ``xT`` a C-contiguous copy of the slice, in place of ``x @ w``,
    whose N = 2 was the slowest dgemm layout measured here; the softmax and
    gradient chain makes the same elementwise calls on contiguous 2 x n
    rows, written into buffers allocated once; the weight gradient is
    ``G @ x`` and the bias gradient ``add.accumulate(G, axis=1)[:, -1]``,
    the same sums in the same order. So no epoch after the first allocates
    an array of the slice's rows, where ``_gradients`` holds eight n x 2
    arrays at once. Below the bound the bytes differed: forced into the
    transposed layout for all 200 epochs, 4 of 25 random ReLU-shaped fits
    (1,500 to 16,281 rows, widths 64 to 384) differed from ``_gradients``,
    and those 4 were the ones at or below 10^6 multiply-adds. So small fits,
    every ladder probe among them, keep ``_gradients``; above the bound the
    first epoch is computed both ways and compared byte for byte, and on a
    difference every epoch runs ``_gradients``. Measured with the same
    build, 16,281 rows of which 11,396 train (median of 3 fresh processes,
    each the minimum of 3 fits): 55, 70, 85 and 120 live columns fit in
    0.28, 0.32, 0.41 and 0.46 s transposed, against 0.33, 0.43, 0.48 and
    0.62 s as ``_gradients``."""
    from .training import Adam  # deferred: training imports this module

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9806E]))
    n = len(z)
    perm = rng.permutation(n)
    n_train = int(0.7 * n)
    tr, te = perm[:n_train], perm[n_train:]

    d = reps.shape[1]
    limit = np.sqrt(6.0 / (d + 2))
    initial = rng.uniform(-limit, limit, (d, 2))
    x = reps[tr]
    # gradient of the mean cross-entropy with respect to log p: -1/n at each
    # row's true class and +0.0 elsewhere
    up_log = np.zeros((n_train, 2))
    up_log[np.arange(n_train), z[tr]] = -1.0 * (1.0 / n_train)
    live = _live_columns(x, up_log, initial, np.zeros(2))
    x = x[:, live]
    weight = ad.Parameter(initial[live], "probe.weight")
    bias = ad.Parameter(np.zeros(2), "probe.bias")
    opt = Adam([weight, bias], lr=0.01)
    epoch = _epochs(x, up_log, weight.value, bias.value)
    for _ in range(200):
        bias_grad, weight_grad = epoch(weight.value, bias.value)
        opt.zero_grad()
        weight.grad += weight_grad
        bias.grad += bias_grad
        opt.step()  # raises NonFiniteGradient on a non-finite epoch
    initial[live] = weight.value  # a dead column's weights never move
    return initial, bias.value, te


def leakage_probe(representations, z, seed: int) -> float:
    """Held-out accuracy of a fresh affine+softmax classifier predicting the
    attribute from frozen representations; higher means more leakage. The
    protocol is fixed: a seeded 70/30 split, then 200 full-batch Adam epochs
    at lr 0.01 on the 70%, scored on the 30%. The fit runs in plain numpy,
    without an autodiff graph (``_fit_probe``). Where the shapes keep each
    logit one FMA chain on the whole products' kernels
    (``PROBE_LIVE_MAX_WIDTH``, ``PROBE_MIN_PRODUCT``) and the first epoch
    at the live width gives the full width's bytes, its epochs read only the
    training slice's live columns, those nonzero in some row, with the
    full-width fit's bits: a dead column adds exact zeros to the logits and
    its weights never move. Where the products at the width it reads hold
    more than ``PROBE_MIN_PRODUCT`` multiply-adds and the first epoch in the
    transposed layout gives the same bytes, every epoch runs in that layout,
    in buffers allocated once (``_epochs``), with the same bits. The fit
    runs on one core.

    Raises ``UndefinedMetric`` for fewer than 50 rows, an attribute other
    than 0 or 1, a single group, or a representation row that is not finite.
    """
    reps = np.asarray(representations, dtype=float)
    z = _binary(z, "leakage probe")
    n = len(z)
    if reps.ndim != 2 or len(reps) != n:
        raise UndefinedMetric(
            f"leakage probe needs one representation row per attribute "
            f"value, got shape {reps.shape} for {n} values")
    if n < 50:
        raise UndefinedMetric(f"leakage probe needs at least 50 samples, got {n}")
    if len(np.unique(z)) < 2:
        raise UndefinedMetric("leakage probe needs both groups present")
    bad = np.flatnonzero(~np.isfinite(reps).all(axis=1))
    if len(bad):
        raise UndefinedMetric(
            f"leakage probe: representation row {bad[0]} is not finite")
    weight, bias, te = _fit_probe(reps, z, seed)
    logits = reps[te] @ weight + bias
    return accuracy(z[te], logits.argmax(axis=1))


def fairness_report(y_true, y_pred, scores, z, representations,
                    seed: int) -> FairnessReport:
    """Full evaluation bundle for one model on one test set."""
    y_true = _binary(y_true, "fairness report", "label")
    y_pred = _binary(y_pred, "fairness report", "prediction")
    scores = np.asarray(scores, dtype=float)
    z = _binary(z, "fairness report")
    _same_length("fairness report", y_true=y_true, y_pred=y_pred, scores=scores,
                 z=z)
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
