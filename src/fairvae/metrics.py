"""Group-fairness evaluation: accuracy, AUC, parity gaps, leakage probe."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import parallel


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


def _attribute(z, who: str) -> np.ndarray:
    """``z`` as an int array, rejecting any value other than 0 or 1 with the
    first bad row named."""
    z = np.asarray(z)
    bad = np.flatnonzero((z != 0) & (z != 1))
    if len(bad):
        raise UndefinedMetric(
            f"{who}: attribute in row {bad[0]} is {z[bad[0]]}, not 0 or 1")
    return z.astype(int)


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
    z = _attribute(z, "demographic parity gap")
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
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    z = _attribute(z, "equal opportunity gap")
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
    y_true = np.asarray(y_true)
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
PROBE_MIN_PRODUCT = 1_000_000  # multiply-adds per product: see _fit_probe


def _logit_gradients(x, up_log, w, b) -> np.ndarray:
    """The gradient of the probe's mean cross-entropy with respect to the
    logits of the rows of ``x``, given ``up_log``, its gradient with respect
    to their log-probabilities (``_fit_probe``)."""
    logits = x @ w
    logits += b
    e = np.exp(logits - np.maximum(logits[:, :1], logits[:, 1:]))
    p = e / (e[:, :1] + e[:, 1:])
    inside = (p >= ad.LOG_FLOOR).astype(np.float64)
    g = inside * up_log / np.maximum(p, ad.LOG_FLOOR)
    gp = g * p
    return p * (g - (gp[:, :1] + gp[:, 1:]))


def _gradients(x, up_log, w, b):
    """One serial epoch's logit and weight gradients."""
    g = _logit_gradients(x, up_log, w, b)
    return g, (g.T @ x).T


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
    full = _gradients(x, up_log, w, b)  # raises the serial error, if any
    narrow = _gradients(x[:, live], up_log, w[live], b)
    if (narrow[0].tobytes() != full[0].tobytes()
            or narrow[1].tobytes() != full[1][live].tobytes()):
        return slice(None)
    return live


def _halves(shape) -> tuple[int, int]:
    """Where a split epoch cuts the rows (a multiple of 64) and the columns
    (a multiple of 8) of an ``n x d`` training slice: the caller takes those
    before the cut, the helper the rest."""
    n, d = shape
    return n // 2 // 64 * 64, d // 2 // 8 * 8


def _splits(shape) -> bool:
    """Whether each product of a split epoch over an ``n x d`` training
    slice (``_halves``) exceeds ``PROBE_MIN_PRODUCT`` multiply-adds."""
    n, d = shape
    k, c = _halves(shape)  # the caller's halves are the smaller
    return 2 * min(k * d, n * c) > PROBE_MIN_PRODUCT


def _probe_half(helper: parallel.Helper, views, k: int, c: int):
    """The helper's task in a split epoch (``_split_gradients``): the logit
    gradients of rows ``k:``, then the weight gradient of columns ``c:``."""
    w, b = views
    x, up_log, g = helper.held["x"], helper.held["up_log"], helper.held["g"]
    g[k:] = _logit_gradients(x[k:], up_log[k:], w, b)
    yield None
    helper.wait()  # the caller's rows are in g too
    yield helper.place([(g.T @ x[:, c:]).T])


def _split_gradients(helper: parallel.Helper, x, up_log, w, b, check: bool):
    """One epoch's gradients computed here and by ``helper``, in the shared
    logit gradient ``helper.held["g"]``; None if the split failed or, with
    ``check``, its bytes differ from the serial epoch's."""
    g = helper.held["g"]
    k, c = _halves(x.shape)
    try:
        task = helper.submit(_probe_half, k, c, arrays=[w, b], replies=2)
        g[:k] = _logit_gradients(x[:k], up_log[:k], w, b)
        helper.signal([])
        helper.reply(task)  # the helper's rows are in g too
        weight_grad = np.empty((x.shape[1], 2))
        weight_grad[:c] = (g.T @ x[:, :c]).T
        weight_grad[c:] = helper.view(helper.reply(task))[0]
    except Exception:  # the serial epoch raises the serial error, if any
        return None
    if check and any(a.tobytes() != s.tobytes() for a, s in zip(
            (g, weight_grad), _gradients(x, up_log, w, b))):
        return None
    return g, weight_grad


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
    30 random ReLU-shaped fits (2,000 to 16,281 rows, widths 64 to 384). A
    trained wide dnn's 11,396 x 55-85 live slice fits serially in 0.19-0.28
    s, against 0.65-0.69 s at the full width serially and 0.40 s split; lr
    and fm representations have no dead column, so only the scan runs.

    Two cores: in a process that may fork a helper (``parallel.forkable``),
    a fit splits its epochs with one helper process where every product of
    a split epoch stays off OpenBLAS's small-matrix path (``_splits``).
    Each side computes the logit gradients of its own rows into a logit
    gradient in the shared mapping, then the weight gradient of its own
    columns (``_halves``); the caller keeps the bias gradient, over all
    rows, and the Adam step. Every row's and every column's arithmetic is
    the serial epoch's, so the bits are the serial ones wherever OpenBLAS
    runs the same kernels on the halves as on the whole products: halves of
    10^6 multiply-adds or fewer under whole products above that (2,800 x
    256, 11,396 x 64, 11,396 x 92) took the small-matrix path and moved
    bits. OpenBLAS picks its kernels by the shapes alone, which are fixed
    over the 200 epochs, so the first epoch is computed both ways and
    compared byte for byte, a guard for other builds; on a difference, or
    on any error in the split, the fit finishes serially (and a serial
    epoch raises the serial error, if there is one). The helper is reaped
    when the fit returns or raises. Fit times on a 2-CPU machine, BLAS
    pinned to one thread (serial / split): 11,396 x 256 0.65 / 0.40 s,
    11,396 x 120 0.354 / 0.227 s (0.305 s with a thread as the helper)."""
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
    with parallel.session(_splits(x.shape), x=x, up_log=up_log) as helper:
        if helper is not None:
            helper.held["g"] = helper.buffers(2 * n_train, 1)[0].reshape(
                n_train, 2)
        for epoch in range(200):
            grads = None
            if helper is not None:
                grads = _split_gradients(helper, x, up_log, weight.value,
                                         bias.value, check=epoch == 0)
                if grads is None:  # finish serially
                    helper.close()
                    helper = None
            g, weight_grad = grads or _gradients(x, up_log, weight.value,
                                                 bias.value)
            opt.zero_grad()
            weight.grad += weight_grad
            bias.grad += np.add.accumulate(g)[-1]
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
    its weights never move. A slice whose split epoch keeps every product
    above ``PROBE_MIN_PRODUCT`` multiply-adds fits on two cores where the
    process may fork a helper, with the serial fit's bits: its first epoch
    is checked against the serial one, which suffices because OpenBLAS
    picks its kernels by shape alone.

    Raises ``UndefinedMetric`` for fewer than 50 rows, an attribute other
    than 0 or 1, a single group, or a representation row that is not finite.
    """
    reps = np.asarray(representations, dtype=float)
    z = _attribute(z, "leakage probe")
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
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    scores = np.asarray(scores, dtype=float)
    z = _attribute(z, "fairness report")
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
