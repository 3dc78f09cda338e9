import json
import os
import re
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fairvae import metrics as MX
from fairvae import parallel


def auc_bruteforce(y, scores):
    pos = scores[y == 1]
    neg = scores[y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            wins += 1.0 if p > q else (0.5 if p == q else 0.0)
    return wins / (len(pos) * len(neg))


class TestAccuracy:
    def test_all_correct(self):
        assert MX.accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_half_correct(self):
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        p = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        assert MX.accuracy(y, p) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(MX.UndefinedMetric):
            MX.accuracy([], [])


class TestDemographicParity:
    def test_identical_rates(self):
        y_pred = np.array([1, 0, 1, 0])
        z = np.array([0, 0, 1, 1])
        assert MX.demographic_parity_gap(y_pred, z) == 0.0

    def test_direct_count(self):
        # group 0: 3/5 positive, group 1: 2/5 positive
        y_pred = np.array([1, 1, 1, 0, 0, 1, 1, 0, 0, 0])
        z = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        assert MX.demographic_parity_gap(y_pred, z) == pytest.approx(0.2)

    def test_empty_group_named(self):
        with pytest.raises(MX.UndefinedMetric, match="z=1"):
            MX.demographic_parity_gap(np.array([1, 0]), np.array([0, 0]))

    def test_attribute_outside_0_1_names_row(self):
        with pytest.raises(MX.UndefinedMetric, match=(
                "demographic parity gap: attribute in row 2 is 2, not 0 or 1")):
            MX.demographic_parity_gap(np.array([1, 0, 1, 1]),
                                      np.array([0, 1, 2, 1]))

    def test_prediction_outside_0_1_names_row(self):
        with pytest.raises(MX.UndefinedMetric, match=(
                "demographic parity gap: prediction in row 1 is 2, not 0 or 1")):
            MX.demographic_parity_gap(np.array([1, 2, 0, 1]),
                                      np.array([0, 0, 1, 1]))

    def test_constant_predictor_gap_is_zero(self):
        rng = np.random.default_rng(0)
        z = rng.integers(0, 2, 100)
        assert MX.demographic_parity_gap(np.ones(100, dtype=int), z) == 0.0
        assert MX.demographic_parity_gap(np.zeros(100, dtype=int), z) == 0.0

    def test_unequal_lengths_named(self):
        with pytest.raises(MX.UndefinedMetric, match=re.escape(
                "demographic parity gap needs inputs of one length, got "
                "y_pred 105, z 100")):
            MX.demographic_parity_gap(np.ones(105, dtype=int),
                                      np.array([0, 1] * 50))


class TestEqualOpportunity:
    def test_equal_tprs(self):
        y = np.array([1, 1, 1, 1])
        p = np.array([1, 0, 1, 0])
        z = np.array([0, 0, 1, 1])
        assert MX.equal_opportunity_gap(y, p, z) == 0.0

    def test_direct_count(self):
        # TPR group 0: 0.7 (7/10), group 1: 0.5 (5/10)
        y = np.ones(20, dtype=int)
        p = np.array([1] * 7 + [0] * 3 + [1] * 5 + [0] * 5)
        z = np.array([0] * 10 + [1] * 10)
        assert MX.equal_opportunity_gap(y, p, z) == pytest.approx(0.2)

    def test_group_without_positives_rejected(self):
        y = np.array([1, 1, 0, 0])
        p = np.array([1, 1, 0, 0])
        z = np.array([0, 0, 1, 1])
        with pytest.raises(MX.UndefinedMetric, match="z=1"):
            MX.equal_opportunity_gap(y, p, z)

    def test_attribute_outside_0_1_names_row(self):
        with pytest.raises(MX.UndefinedMetric, match=(
                "equal opportunity gap: attribute in row 0 is 0.5, not 0 or 1")):
            MX.equal_opportunity_gap(np.ones(4, dtype=int), np.ones(4, dtype=int),
                                     np.array([0.5, 1, 0, 1]))

    @pytest.mark.parametrize("which", ["label", "prediction"])
    def test_label_or_prediction_outside_0_1_names_row(self, which):
        good, bad = np.array([1, 1, 0, 1, 0, 1]), np.array([1, 1, 0, 2, 0, 1])
        args = (bad, good) if which == "label" else (good, bad)
        with pytest.raises(MX.UndefinedMetric, match=(
                f"equal opportunity gap: {which} in row 3 is 2, not 0 or 1")):
            MX.equal_opportunity_gap(*args, np.array([0, 1, 0, 1, 0, 1]))

    def test_perfect_predictor_gap_is_zero(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 200)
        y[:2] = 1  # ensure positives in both groups
        z = np.array([0, 1] * 100)
        assert MX.equal_opportunity_gap(y, y, z) == 0.0

    def test_unequal_lengths_named(self):
        with pytest.raises(MX.UndefinedMetric, match=re.escape(
                "equal opportunity gap needs inputs of one length, got "
                "y_true 100, y_pred 105, z 100")):
            MX.equal_opportunity_gap(np.ones(100, dtype=int),
                                     np.ones(105, dtype=int),
                                     np.array([0, 1] * 50))


class TestAuc:
    def test_perfect_separation(self):
        y = np.array([0, 0, 1, 1])
        s = np.array([0.1, 0.2, 0.8, 0.9])
        assert MX.auc(y, s) == 1.0

    def test_all_ties(self):
        y = np.array([0, 1, 0, 1])
        assert MX.auc(y, np.full(4, 0.5)) == 0.5

    def test_hand_case(self):
        y = np.array([0, 0, 1, 1])
        s = np.array([0.1, 0.4, 0.35, 0.8])
        assert MX.auc(y, s) == pytest.approx(0.75)

    def test_matches_bruteforce_exactly(self):
        rng = np.random.default_rng(23)
        for n in (5, 20, 87, 200):
            y = rng.integers(0, 2, n)
            y[0], y[1] = 0, 1
            scores = np.round(rng.random(n), 2)  # induce ties
            assert MX.auc(y, scores) == auc_bruteforce(y, scores)

    @settings(max_examples=300, deadline=None)
    @given(scores=st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.inf, -np.inf]),
        st.floats(allow_nan=False)), max_size=60))
    def test_average_ranks_match_scipy_bytes(self, scores):
        # scipy is the reference only: the test skips without it
        rankdata = pytest.importorskip("scipy.stats").rankdata
        scores = np.array(scores, dtype=float)
        assert (MX._average_ranks(scores).tobytes()
                == rankdata(scores, method="average").tobytes())

    def test_label_outside_0_1_names_row(self):
        """A label of 2 once read as neither class, and this AUC was 1.5."""
        with pytest.raises(MX.UndefinedMetric, match=(
                "auc: label in row 2 is 2, not 0 or 1")):
            MX.auc([0, 1, 2, 1, 0], [0.1, 0.9, 0.5, 0.8, 0.2])

    def test_nan_score_gives_nan(self):
        assert np.isnan(MX.auc([0, 1, 1], [0.2, np.nan, 0.7]))

    def test_single_class_rejected(self):
        with pytest.raises(MX.UndefinedMetric):
            MX.auc(np.ones(5, dtype=int), np.random.default_rng(0).random(5))

    def test_unequal_lengths_named(self):
        with pytest.raises(MX.UndefinedMetric, match=re.escape(
                "auc needs inputs of one length, got y_true 100, scores 90")):
            MX.auc(np.array([0, 1] * 50), np.linspace(0, 1, 90))


class TestPermutationInvariance:
    def test_all_metrics(self):
        rng = np.random.default_rng(3)
        n = 150
        y = rng.integers(0, 2, n)
        p = rng.integers(0, 2, n)
        s = rng.random(n)
        z = rng.integers(0, 2, n)
        y[:4], z[:4] = [1, 1, 0, 0], [0, 1, 0, 1]
        perm = rng.permutation(n)
        assert MX.accuracy(y, p) == MX.accuracy(y[perm], p[perm])
        assert MX.demographic_parity_gap(p, z) == \
            MX.demographic_parity_gap(p[perm], z[perm])
        assert MX.equal_opportunity_gap(y, p, z) == \
            MX.equal_opportunity_gap(y[perm], p[perm], z[perm])
        assert MX.auc(y, s) == pytest.approx(MX.auc(y[perm], s[perm]), abs=1e-12)

    def test_gaps_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = 40
            y = rng.integers(0, 2, n)
            p = rng.integers(0, 2, n)
            z = rng.integers(0, 2, n)
            y[:4], z[:4] = [1, 1, 0, 0], [0, 1, 0, 1]
            assert 0.0 <= MX.demographic_parity_gap(p, z) <= 1.0
            assert 0.0 <= MX.equal_opportunity_gap(y, p, z) <= 1.0


def probe_gradient(u, y, weight, bias):
    """The gradient of the probe objective (``leakage_probe``) at ``weight``
    and ``bias`` on the standardised training columns ``u``, written from
    its definition: the weight's entries, then the bias's."""
    p = 1.0 / (1.0 + np.exp(-np.clip(u @ weight + bias, -700, 700)))
    residual = (p - y) / len(y)
    return np.r_[u.T @ residual + MX.PROBE_RIDGE * weight, residual.sum()]


def probe_fit(reps, z, seed):
    """The standardised training slice, its targets, and the fitted weight
    and bias of ``leakage_probe(reps, z, seed)``."""
    tr, _ = MX._probe_split(len(z), seed)
    u, _ = MX._standardise(reps[tr])
    return (u, z[tr], *MX._newton(u, z[tr]))


def assert_matches_lbfgs(u, y, weight, bias):
    """L-BFGS on the probe objective over every column of ``u``, to a
    gradient of 1e-12, finds the minimum of ``weight`` and ``bias`` to 1e-12
    and the same weight and bias to 1e-6."""
    # scipy is the reference only: the tests skip without it
    minimize = pytest.importorskip("scipy.optimize").minimize
    k = u.shape[1]

    def objective(theta):
        t = u @ theta[:k] + theta[k]
        value = (np.logaddexp(0.0, (1 - 2 * y) * t).mean()
                 + 0.5 * MX.PROBE_RIDGE * theta[:k] @ theta[:k])
        return value, probe_gradient(u, y, theta[:k], theta[k])

    ref = minimize(objective, np.zeros(k + 1), jac=True, method="L-BFGS-B",
                   options=dict(maxiter=20_000, gtol=1e-12, ftol=0.0))
    assert objective(np.r_[weight, bias])[0] <= ref.fun + 1e-12
    assert np.allclose(np.r_[weight, bias], ref.x, rtol=0.0, atol=1e-6)


def relu_like(rng, n, d):
    """Rows shaped like a ReLU encoder's output: exact zeros, dead columns
    and repeated rows."""
    reps = np.maximum(rng.standard_normal((n, d)), 0.0)
    reps[:, rng.random(d) < 0.25] = 0.0
    reps[rng.random(n) < 0.25] = reps[0]
    return reps


def labelled_rows(rng, kind, n, d):
    """``n`` rows of ``d`` columns and a 0/1 attribute that shifts column 7:
    ReLU-shaped, Gaussian, or of rank 6 (a fixed projection of 6 Gaussian
    coordinates)."""
    if kind == "relu":
        reps = relu_like(rng, n, d)
    elif kind == "gaussian":
        reps = rng.standard_normal((n, d))
    else:
        reps = rng.standard_normal((n, 6)) @ rng.standard_normal((6, d))
    z = rng.integers(0, 2, n)
    reps[:, 7] += 0.5 * z
    return reps, z


class TestLeakageProbe:
    def test_null_calibration_near_majority_rate(self):
        rng = np.random.default_rng(42)
        n = 3000
        reps = rng.standard_normal((n, 64))
        z = (rng.random(n) < 0.55).astype(int)
        majority = max(z.mean(), 1 - z.mean())
        probe = MX.leakage_probe(reps, z, seed=0)
        assert abs(probe - majority) <= 0.05

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
    def test_copied_attribute_is_fully_recoverable(self, scale):
        """Perfectly separable rows, at any scale, without a warning."""
        rng = np.random.default_rng(7)
        n = 600
        z = rng.integers(0, 2, n)
        reps = rng.standard_normal((n, 16))
        reps[:, 3] = 2.0 * z - 1.0
        assert MX.leakage_probe(scale * reps, z, seed=1) >= 0.99

    def test_deterministic_under_fixed_seed(self):
        rng = np.random.default_rng(9)
        reps = rng.standard_normal((200, 8))
        z = rng.integers(0, 2, 200)
        assert MX.leakage_probe(reps, z, seed=4) == \
            MX.leakage_probe(reps, z, seed=4)

    def test_too_few_samples_rejected(self):
        with pytest.raises(MX.UndefinedMetric, match="50"):
            MX.leakage_probe(np.zeros((10, 4)), np.array([0, 1] * 5), seed=0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(50, 600), d=st.integers(1, 48),
           share=st.floats(0.02, 0.98),
           scale=st.sampled_from([1e-300, 1e-3, 1.0, 30.0, 1e4]),
           relu=st.booleans(), data_seed=st.integers(0, 2**32 - 1),
           seed=st.integers(0, 2**16))
    @example(n=50, d=16, share=0.5, scale=1e-3, relu=True, data_seed=0, seed=0)
    def test_gradient_below_tolerance(self, n, d, share, scale, relu,
                                      data_seed, seed):
        """At the returned weight and bias the objective's gradient, computed
        on every standardised column, has norm at most ``PROBE_TOL``:
        Gaussian or ReLU-shaped rows (more columns than training rows among
        them), imbalanced groups, a training slice that may hold one group
        only, and scales from 1e-300 to 1e4."""
        rng = np.random.default_rng(data_seed)
        reps = (relu_like(rng, n, d) if relu
                else rng.standard_normal((n, d))) * scale
        z = (rng.random(n) < share).astype(int)
        z[:2] = [0, 1]
        u, y, weight, bias = probe_fit(reps, z, seed)
        assert np.linalg.norm(probe_gradient(u, y, weight, bias)) \
            <= MX.PROBE_TOL
        assert 0.0 <= MX.leakage_probe(reps, z, seed) <= 1.0

    def test_matches_scipy_lbfgs_optimum(self):
        """L-BFGS on the same objective, to a gradient of 1e-12, finds the
        same minimum to 1e-12 and the same weight and bias to 1e-6."""
        rng = np.random.default_rng(3)
        n = 800
        base = rng.standard_normal((n, 6))
        reps = np.c_[base @ rng.standard_normal((6, 24)),
                     relu_like(rng, n, 12)]
        z = (base[:, 0] + rng.standard_normal(n) > 0).astype(int)
        assert_matches_lbfgs(*probe_fit(reps, z, seed=2))

    @pytest.mark.parametrize("rank, n, d", [(19, 300, 256), (32, 300, 256),
                                            (None, 200, 180)],
                             ids=["lr ladder", "fm ladder",
                                  "more columns than rows"])
    def test_rank_basis_matches_full_width_lbfgs(self, rank, n, d):
        """The fit in the rank basis is the full-width optimum: rows that
        are a fixed projection of ``rank`` coordinates (an lr or fm ladder
        probe's 210 training rows of 256 columns), and Gaussian rows with
        more columns than training rows, which the probe separates."""
        rng = np.random.default_rng(4)
        if rank is None:
            reps = rng.standard_normal((n, d))
            z = rng.integers(0, 2, n)
        else:
            x = rng.standard_normal((n, rank))
            reps = (x * rng.uniform(0.5, 2.0, rank)) @ \
                rng.standard_normal((rank, d))
            z = (x[:, 0] + rng.standard_normal(n) > 0).astype(int)
        u, y, weight, bias = probe_fit(reps, z, seed=1)
        # centred columns: rank at most one below the 70% training rows
        assert np.linalg.matrix_rank(u) == min(rank or d, len(y) - 1)
        assert_matches_lbfgs(u, y, weight, bias)

    @pytest.mark.parametrize("kind", ["relu", "gaussian", "rank 6"])
    def test_column_order_does_not_change_reading(self, kind):
        """Permuted columns give the same weights, moved with their columns,
        the same bias and the same reading: ReLU-shaped rows with dead
        columns, Gaussian rows, and rows of rank 6 in 40 columns."""
        rng = np.random.default_rng(5)
        reps, z = labelled_rows(rng, kind, 1500, 40)
        order = rng.permutation(40)
        _, _, weight, bias = probe_fit(reps, z, 1)
        _, _, moved, moved_bias = probe_fit(reps[:, order], z, 1)
        live = np.flatnonzero(np.ptp(reps[MX._probe_split(1500, 1)[0]], 0))
        # the moved fit's weights, in its column order, belong to these
        # columns of reps; the fit's own, to live in increasing order
        moved_live = order[np.isin(order, live)]
        assert np.allclose(moved, weight[np.searchsorted(live, moved_live)],
                           rtol=0.0, atol=1e-9)
        assert moved_bias == pytest.approx(bias, abs=1e-9)
        assert (MX.leakage_probe(reps[:, order], z, 1)
                == MX.leakage_probe(reps, z, 1))

    @pytest.mark.parametrize("change", ["scale", "shift", "negate"])
    def test_column_affine_maps_do_not_change_reading(self, change):
        """Standardisation undoes a positive scale (1e-3 to 1e4) or a shift
        (up to 1e3) of each column: the same fit and reading. Negating
        columns negates their weights and keeps the reading."""
        rng = np.random.default_rng(14)
        reps, z = labelled_rows(rng, "relu", 1000, 24)
        sign = np.ones(24)
        if change == "scale":
            moved = reps * 10.0 ** rng.uniform(-3, 4, 24)
        elif change == "shift":
            moved = reps + rng.uniform(-1e3, 1e3, 24)
        else:
            sign[rng.permutation(24)[:12]] = -1.0
            moved = reps * sign
        _, _, weight, bias = probe_fit(reps, z, 2)
        _, _, moved_weight, moved_bias = probe_fit(moved, z, 2)
        live = np.ptp(reps[MX._probe_split(1000, 2)[0]], 0) > 0
        assert np.allclose(moved_weight, sign[live] * weight, rtol=0.0,
                           atol=1e-9)
        assert moved_bias == pytest.approx(bias, abs=1e-9)
        assert MX.leakage_probe(moved, z, 2) == MX.leakage_probe(reps, z, 2)

    @pytest.mark.parametrize("kind", ["relu", "gaussian"])
    def test_swapping_groups_keeps_reading(self, kind):
        """The objective is symmetric in the two groups: swapping them
        negates the weight and the bias and keeps the reading."""
        rng = np.random.default_rng(15)
        reps, z = labelled_rows(rng, kind, 900, 20)
        _, _, weight, bias = probe_fit(reps, z, 3)
        _, _, swapped, swapped_bias = probe_fit(reps, 1 - z, 3)
        assert np.allclose(swapped, -weight, rtol=0.0, atol=1e-12)
        assert swapped_bias == pytest.approx(-bias, abs=1e-12)
        assert MX.leakage_probe(reps, 1 - z, 3) == MX.leakage_probe(reps, z, 3)

    def test_constant_columns_do_not_change_reading(self):
        """Columns of 0.0, -0.0 or 3.0 in every row, and one that varies on
        held-out rows only, drop out: the standardised slice (mean 0 and
        standard deviation 1 per column), the fit and its reading are
        unchanged."""
        rng = np.random.default_rng(6)
        n = 1200
        reps, z = rng.standard_normal((n, 12)), rng.integers(0, 2, n)
        reps[:, 0] += z
        tr, te = MX._probe_split(n, 4)
        held_out = np.zeros(n)
        held_out[te[:5]] = 1e3
        wide = np.c_[np.zeros(n), reps[:, :6], np.full(n, -0.0),
                     np.full(n, 3.0), reps[:, 6:], held_out]
        u, standardise = MX._standardise(wide[tr])
        assert u.tobytes() == MX._standardise(reps[tr])[0].tobytes()
        assert np.allclose(u.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(u.std(axis=0), 1.0, rtol=1e-12)
        assert np.allclose(standardise(wide[tr]), u, rtol=0.0, atol=1e-12)
        assert MX.leakage_probe(wide, z, 4) == MX.leakage_probe(reps, z, 4)

    @pytest.mark.parametrize("case", ["zeros", "signed zeros", "constant",
                                      "subnormal constant", "held-out only",
                                      "one group in training"])
    def test_no_varying_column_reads_majority_class(self, case):
        """With no column varying on the training rows the fit is the bias
        alone, which predicts the training slice's majority class: the
        reading is that class's held-out rate. A training slice of one
        group reads as such a fit does."""
        n, seed = 200, 3
        tr, te = MX._probe_split(n, seed)
        z = (np.random.default_rng(8).random(n) < 0.35).astype(int)
        reps = np.zeros((n, 5))
        if case == "signed zeros":
            reps[np.random.default_rng(9).random((n, 5)) < 0.5] = -0.0
        elif case == "constant":
            reps += 7.5
        elif case == "subnormal constant":
            reps += 5e-324
        elif case == "held-out only":
            reps[te] = np.random.default_rng(9).standard_normal((len(te), 5))
        elif case == "one group in training":
            z[tr], z[te[0]] = 0, 1
            reps = np.random.default_rng(9).standard_normal((n, 5))
        majority = int(z[tr].mean() > 0.5)
        assert MX.leakage_probe(reps, z, seed) == (z[te] == majority).mean()

    @pytest.mark.parametrize("case", ["subnormal", "tiny then huge",
                                      "scaled 1e-300", "scaled 1e300",
                                      "columns 1e-300 to 1e300"])
    def test_extreme_scales_fit_without_warnings(self, case):
        """Subnormal columns, a held-out value 10^600 training standard
        deviations out (it saturates at 1e100), and a whole ReLU matrix
        scaled by 1e-300 or 1e300, or each column by its own factor from
        1e-300 to 1e300, which reads as the unscaled one does."""
        rng = np.random.default_rng(10)
        n = 400
        reps, z = relu_like(rng, n, 8), rng.integers(0, 2, n)
        reps[:, 1] += z
        if case == "subnormal":
            reps[:, 2] = 5e-324 * z
            reps[:, 3] = 1e-310 * rng.random(n)
            assert MX.leakage_probe(reps, z, 0) == 1.0
        elif case == "tiny then huge":
            reps[:, 4] = 1e-300 * rng.random(n)
            tr, te = MX._probe_split(n, 0)
            reps[te[0], 4] = 1e300
            standardise = MX._standardise(reps[tr])[1]
            assert np.abs(standardise(reps[te])).max() == 1e100
            assert 0.5 <= MX.leakage_probe(reps, z, 0) <= 1.0
        else:
            scale = (10.0 ** rng.uniform(-300, 300, 8)
                     if case == "columns 1e-300 to 1e300"
                     else float(case.split()[1]))
            assert (MX.leakage_probe(scale * reps, z, 0)
                    == MX.leakage_probe(reps, z, 0))

    def test_iteration_cap_returns_last_iterate(self, monkeypatch):
        """At a cap of 1 the fit returns the first line-searched Newton
        iterate: below the objective at zero, above the tolerance."""
        rng = np.random.default_rng(11)
        reps, z = rng.standard_normal((500, 10)), rng.integers(0, 2, 500)
        reps[:, 0] += 2 * z
        monkeypatch.setattr(MX, "PROBE_MAX_ITER", 1)
        u, y, weight, bias = probe_fit(reps, z, 0)
        assert np.linalg.norm(probe_gradient(u, y, weight, bias)) \
            > MX.PROBE_TOL
        at = lambda w, b: np.logaddexp(0.0, (1 - 2 * y) * (u @ w + b)).mean()
        assert at(weight, bias) < at(0 * weight, 0.0)
        assert 0.5 < MX.leakage_probe(reps, z, 0) <= 1.0

    def test_every_step_lowers_the_objective(self, monkeypatch):
        """Heavy-tailed columns on which the full Newton step from the third
        iterate raises the objective: the line search shortens it, so the
        objective at the returned point falls as the cap rises."""
        rng = np.random.default_rng(36)
        x = rng.standard_cauchy((60, 3))
        y = (x[:, 0] + rng.standard_normal(60) > 0).astype(int)
        u, _ = MX._standardise(x)
        values = []
        for cap in range(1, 8):
            monkeypatch.setattr(MX, "PROBE_MAX_ITER", cap)
            weight, bias = MX._newton(u, y)
            values.append(np.logaddexp(0.0, (1 - 2 * y) * (u @ weight + bias))
                          .mean() + 0.5 * MX.PROBE_RIDGE * weight @ weight)
        assert all(b < a for a, b in zip(values, values[1:])), values

    @pytest.mark.parametrize("row", [0, 199])
    def test_non_finite_representation_names_row(self, row):
        """Row 0 falls in the fitted 70% at seed 0, row 199 in the held-out
        30%, which were scored silently before."""
        rng = np.random.default_rng(12)
        reps = rng.standard_normal((200, 4))
        z = rng.integers(0, 2, 200)
        reps[row, 2] = np.nan
        with pytest.raises(MX.UndefinedMetric,
                           match=f"leakage probe: representation row {row} "):
            MX.leakage_probe(reps, z, seed=0)

    def test_attribute_outside_0_1_names_row(self):
        z = np.array([0, 1] * 50)
        z[37] = 2
        with pytest.raises(MX.UndefinedMetric, match=(
                "leakage probe: attribute in row 37 is 2, not 0 or 1")):
            MX.leakage_probe(np.zeros((100, 3)), z, seed=0)

    @pytest.mark.parametrize("shape", [(100,), (99, 3), (101, 3)])
    def test_representation_shape_must_match(self, shape):
        with pytest.raises(MX.UndefinedMetric, match="one representation row"):
            MX.leakage_probe(np.zeros(shape), np.array([0, 1] * 50), seed=0)

    @pytest.mark.parametrize("case", ["two-cpus", "one-cpu", "pool-worker",
                                      "beside-a-thread"])
    def test_same_fit_in_every_process(self, monkeypatch, case):
        """The fit on a canonical-size ReLU representation (16,281 rows, 120
        of 256 columns live) builds no helper and gives the same bytes in a
        process that may use two CPUs or one, in a grid's pool worker, and
        beside another thread (as BLAS's worker threads are)."""
        rng = np.random.default_rng(0)
        n = 16_281
        reps = np.maximum(rng.standard_normal((n, 256)), 0.0)
        reps[:, rng.permutation(256)[120:]] = 0.0
        z = rng.integers(0, 2, n)
        expected = probe_fit(reps, z, 6)[2:]

        def refuse(self, held):
            raise AssertionError("the probe built a helper")

        monkeypatch.setattr(parallel.Helper, "__init__", refuse)
        if case in ("two-cpus", "one-cpu"):
            cpus = {0, 1} if case == "two-cpus" else {0}
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        elif case == "pool-worker":
            monkeypatch.setattr(parallel, "_serial", True)
        done = threading.Event()
        other = threading.Thread(target=done.wait)
        if case == "beside-a-thread":
            other.start()
        try:
            weight, bias = probe_fit(reps, z, 6)[2:]
        finally:
            done.set()
            if other.is_alive():
                other.join(timeout=10)
        assert weight.tobytes() == expected[0].tobytes()
        assert bias.tobytes() == expected[1].tobytes()


class TestFairnessReport:
    def test_gaps_consistent_with_group_stats(self):
        rng = np.random.default_rng(11)
        n = 400
        y = rng.integers(0, 2, n)
        p = rng.integers(0, 2, n)
        s = rng.random(n)
        z = rng.integers(0, 2, n)
        y[:4], z[:4] = [1, 1, 0, 0], [0, 1, 0, 1]
        reps = rng.standard_normal((n, 8))
        report = MX.fairness_report(y, p, s, z, reps, seed=0)
        assert report.dp_gap == pytest.approx(
            abs(report.pos_rate_group0 - report.pos_rate_group1), abs=1e-12)
        assert report.opp_gap == pytest.approx(
            abs(report.tpr_group0 - report.tpr_group1), abs=1e-12)
        assert report.n_group0 + report.n_group1 == n

    def test_probe_floor_is_held_out_majority_rate(self):
        """A representation without a varying column reads its floor when
        the training and held-out slices share a majority group."""
        rng = np.random.default_rng(13)
        n = 300
        z = (rng.random(n) < 0.3).astype(int)
        y = rng.integers(0, 2, n)
        y[:4], z[:4] = [1, 1, 0, 0], [0, 1, 0, 1]
        report = MX.fairness_report(y, y, rng.random(n), z, np.ones((n, 4)),
                                    seed=2)
        held_out = z[MX._probe_split(n, 2)[1]]
        assert report.probe_floor == max(held_out.mean(), 1 - held_out.mean())
        assert report.probe_accuracy == report.probe_floor

    def test_attribute_outside_0_1_names_report_and_row(self):
        z = np.array([0, 1] * 50)
        z[5] = -1
        with pytest.raises(MX.UndefinedMetric, match=(
                "fairness report: attribute in row 5 is -1, not 0 or 1")):
            MX.fairness_report(np.array([0, 1] * 50), np.array([1, 0] * 50),
                               np.linspace(0, 1, 100), z, np.zeros((100, 3)),
                               seed=0)

    @pytest.mark.parametrize("which", ["label", "prediction"])
    def test_label_or_prediction_outside_0_1_names_report_and_row(self, which):
        y, p = np.array([0, 1] * 50), np.array([1, 0] * 50)
        (y if which == "label" else p)[7] = 3
        with pytest.raises(MX.UndefinedMetric, match=(
                f"fairness report: {which} in row 7 is 3, not 0 or 1")):
            MX.fairness_report(y, p, np.linspace(0, 1, 100),
                               np.array([0, 1] * 50), np.zeros((100, 3)), seed=0)

    def test_unequal_lengths_named(self):
        with pytest.raises(MX.UndefinedMetric, match=re.escape(
                "fairness report needs inputs of one length, got y_true 100, "
                "y_pred 100, scores 90, z 100")):
            MX.fairness_report(np.array([0, 1] * 50), np.array([1, 0] * 50),
                               np.linspace(0, 1, 90), np.array([0, 1] * 50),
                               np.zeros((100, 3)), seed=0)


def test_vae_training_step_runs_without_scipy():
    """With ``import scipy`` failing, ``import fairvae, fairvae.cli``, a
    ``fairvae`` ``joint_loss`` forward, its backward (the VAE's softplus
    gradient) and one Adam step run, and load no ``scipy*`` module and no
    process pool."""
    code = textwrap.dedent("""\
        import json, sys

        class NoScipy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError(f"{name} is blocked")
                return None

        sys.meta_path.insert(0, NoScipy())
        import fairvae, fairvae.cli
        import numpy as np
        from fairvae import autodiff as ad, models as M, objectives as O
        from fairvae import training as T
        rng = np.random.default_rng(0)
        bundle = M.ModelBundle(M.BundleConfig(
            input_dim=4, hidden_dim=3, latent_dim=2, method="fairvae"))
        opt = T.Adam(bundle.trainable_parameters())
        lab = fairvae.Samples(rng.uniform(-1, 1, (3, 4)), np.array([0, 1, 0]),
                              np.array([1, 0, 1]))
        total, _ = O.joint_loss(lab, None, bundle, O.ObjectiveConfig(),
                                rng.standard_normal((3, 2)), None)
        ad.backward(total)
        opt.step()
        print(json.dumps(sorted(
            m for m in sys.modules if m.split(".")[0] == "scipy"
            or m == "concurrent.futures.process")))
        """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
