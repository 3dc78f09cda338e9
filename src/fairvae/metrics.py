"""Group-fairness evaluation: accuracy, AUC, parity gaps, leakage probe."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


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
    probe_floor: float  # majority rate of the probe's held-out attribute
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


PROBE_RIDGE = 1e-4  # the probe objective's ridge: see leakage_probe
PROBE_TOL = 1e-8  # gradient norm at which the fit stops
PROBE_MAX_ITER = 100  # Newton iterations at most
PROBE_RANK_RTOL = 1e-12  # Gram eigenvalues kept, relative to the largest


def _probe_split(n: int, seed: int):
    """The probe's seeded 70/30 split of ``n`` rows: the training and the
    held-out row indices."""
    perm = np.random.default_rng(
        np.random.SeedSequence([seed, 0x9806E])).permutation(n)
    cut = int(0.7 * n)
    return perm[:cut], perm[cut:]


def _standardise(x):
    """The columns of the training slice ``x`` that vary on its rows,
    standardised to mean 0 and standard deviation 1, and a function that
    maps other rows of ``x``'s width to the same coordinates. Each column
    is divided by its largest magnitude first, so subnormal and huge
    columns standardise without underflow or overflow. A held-out value
    beyond 1e100 training standard deviations saturates there."""
    lo, hi = x.min(axis=0), x.max(axis=0)
    live = np.flatnonzero(lo < hi)
    top = np.maximum(-lo[live], hi[live])
    u = np.take(x, live, axis=1)  # a column gather: faster than x[:, live]
    u /= top
    shift, spread = u.mean(axis=0), u.std(axis=0)
    u -= shift
    u /= spread

    def standardise(rows):
        with np.errstate(over="ignore"):
            v = (np.take(rows, live, axis=1) / top - shift) / spread
        return np.clip(v, -1e100, 1e100, out=v)

    return u, standardise


def _objective(a, y, theta, ridge):
    """The probe objective at ``theta``, whose entries weigh the rows of the
    design ``a``, and the logits ``theta @ a``: mean log-loss plus half the
    ridge-weighted squares."""
    t = theta @ a
    loss = np.logaddexp(0.0, (1 - 2 * y) * t).mean()
    return loss + 0.5 * ridge @ theta**2, t


def _newton(u, y):
    """The weight on the columns of ``u`` and the bias that minimise the
    probe objective (``leakage_probe``) for the 0/1 targets ``y``.

    Newton runs in the rank basis of ``u``: the eigenvectors ``V`` of
    ``u.T @ u`` with eigenvalues above ``PROBE_RANK_RTOL`` times the
    largest. With the ridge the optimal weight lies in ``u``'s row space,
    so fitting ``u @ V`` and returning ``V`` times its weight is exact up to
    round-off; it is also the cheaper fit wherever ``u`` has fewer rows or
    less rank than columns. The design is held transposed, one contiguous
    row per coordinate and a last row of ones for the bias, so the Hessian
    is one symmetric product of a row-scaled copy. Each step solves the
    Hessian system and halves its length until the objective falls by the
    Armijo fraction 1e-4 of the predicted decrease. The fit stops once the
    gradient's norm is at most ``PROBE_TOL``, once no halving down to 2^-40
    lowers the objective (the round-off floor), or after ``PROBE_MAX_ITER``
    steps, returning its last iterate in each case."""
    evals, evecs = np.linalg.eigh(u.T @ u)
    basis = evecs[:, evals > PROBE_RANK_RTOL * evals.max(initial=0.0)]
    n, rank = len(y), basis.shape[1]
    a = np.empty((rank + 1, n))
    np.matmul(basis.T, u.T, out=a[:rank])
    a[rank] = 1.0
    ridge = np.r_[np.full(rank, PROBE_RIDGE), 0.0]  # the bias is unpenalised
    theta = np.zeros(rank + 1)
    f, t = _objective(a, y, theta, ridge)
    for _ in range(PROBE_MAX_ITER):
        half = 0.5 * np.tanh(0.5 * t)  # p = 0.5 + half, 1 - p = 0.5 - half
        grad = a @ (0.5 + half - y) / n + ridge * theta
        if np.linalg.norm(grad) <= PROBE_TOL:
            break
        s = a * np.sqrt((0.25 - half * half) / n)
        step = np.linalg.solve(s @ s.T + np.diag(ridge), grad)
        decrease = 1e-4 * (grad @ step)
        for _ in range(41):
            f_new, t_new = _objective(a, y, theta - step, ridge)
            if f_new <= f - decrease:
                break
            step, decrease = 0.5 * step, 0.5 * decrease
        else:
            break
        theta, f, t = theta - step, f_new, t_new
    return basis @ theta[:-1], theta[-1]


def leakage_probe(representations, z, seed: int) -> float:
    """Held-out accuracy of a logistic-regression probe predicting the
    attribute from frozen representations; higher means more leakage.

    A seeded 70/30 split comes first. The probe is the minimiser of a
    stated convex objective over the training slice: mean log-loss plus
    ``PROBE_RIDGE / 2`` (1e-4 / 2) times the squared norm of the weight,
    on the slice's columns standardised to mean 0 and standard deviation 1.
    Columns that do not vary on the training rows drop out, and the bias is
    not penalised, so with no varying column the probe predicts the training
    slice's majority class (class 0 on a tie). Newton's method with a
    backtracking line search solves it to a gradient norm of ``PROBE_TOL``
    (1e-8), in at most ``PROBE_MAX_ITER`` (100) steps (``_newton``); at that
    cap it returns its last iterate, short of the tolerance. The held-out
    30% is standardised with the training slice's statistics and scored by
    the sign of the logit (class 0 at 0). On an lr backbone, whose ``r_f``
    is the fixed linear map ``(x * scale) @ proj`` of the encoded input,
    the probe reads what it reads on ``x`` itself, up to the ridge.

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
    tr, te = _probe_split(n, seed)
    u, standardise = _standardise(reps[tr])
    weight, bias = _newton(u, z[tr])
    logits = standardise(reps[te]) @ weight + bias
    return accuracy(z[te], (logits > 0).astype(int))


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
    held_out = z[_probe_split(len(z), seed)[1]]
    return FairnessReport(
        accuracy=accuracy(y_true, y_pred),
        auc=auc(y_true, scores),
        dp_gap=abs(r0 - r1),
        opp_gap=abs(t0 - t1),
        probe_accuracy=leakage_probe(representations, z, seed),
        probe_floor=float(max(held_out.mean(), 1 - held_out.mean())),
        pos_rate_group0=r0, pos_rate_group1=r1,
        tpr_group0=t0, tpr_group1=t1,
        n_group0=int((z == 0).sum()), n_group1=int((z == 1).sum()),
    )
