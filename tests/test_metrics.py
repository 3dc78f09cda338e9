import json
import os
import re
import subprocess
import sys
import textwrap
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
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


class TestLeakageProbe:
    def test_null_calibration_near_majority_rate(self):
        rng = np.random.default_rng(42)
        n = 3000
        reps = rng.standard_normal((n, 64))
        z = (rng.random(n) < 0.55).astype(int)
        majority = max(z.mean(), 1 - z.mean())
        probe = MX.leakage_probe(reps, z, seed=0)
        assert abs(probe - majority) <= 0.05

    def test_copied_attribute_is_fully_recoverable(self):
        rng = np.random.default_rng(7)
        n = 600
        z = rng.integers(0, 2, n)
        reps = rng.standard_normal((n, 16))
        reps[:, 3] = 2.0 * z - 1.0
        assert MX.leakage_probe(reps, z, seed=1) >= 0.99

    def test_deterministic_under_fixed_seed(self):
        rng = np.random.default_rng(9)
        reps = rng.standard_normal((200, 8))
        z = rng.integers(0, 2, 200)
        assert MX.leakage_probe(reps, z, seed=4) == \
            MX.leakage_probe(reps, z, seed=4)

    def test_too_few_samples_rejected(self):
        with pytest.raises(MX.UndefinedMetric, match="50"):
            MX.leakage_probe(np.zeros((10, 4)), np.array([0, 1] * 5), seed=0)

    @staticmethod
    def _representations(rng, n, d, scale, relu):
        """Gaussian rows, or rows shaped like a ReLU encoder's output: exact
        zeros, dead columns and repeated rows."""
        reps = scale * rng.standard_normal((n, d))
        if relu:
            reps = np.maximum(reps, 0.0)
            reps[:, rng.random(d) < 0.25] = 0.0
            reps[rng.random(n) < 0.25] = reps[0]
        return reps

    def _assert_fit_matches_graph(self, reps, z, seed):
        weight, bias, _ = MX._fit_probe(reps, z, seed)
        ref_weight, ref_bias, ref_accuracy = oracles.graph_leakage_probe(
            reps, z, seed)
        assert weight.tobytes() == ref_weight.tobytes()
        assert bias.tobytes() == ref_bias.tobytes()
        assert MX.leakage_probe(reps, z, seed) == ref_accuracy

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(50, 600), d=st.integers(1, 64),
           share=st.floats(0.02, 0.98),
           scale=st.sampled_from([1e-3, 1.0, 30.0, 1e4]), relu=st.booleans(),
           data_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**16))
    @example(n=50, d=16, share=0.5, scale=1e-3, relu=True, data_seed=0, seed=0)
    def test_fit_matches_graph_reference_bits(self, n, d, share, scale, relu,
                                              data_seed, seed):
        """The graph-free fit gives the graph-built fit's weights, bias and
        accuracy bit for bit. Imbalanced groups are drawn with ``share``; at
        scale 1e4 one class of nearly every row has p < LOG_FLOOR, where the
        clipped log passes no gradient."""
        rng = np.random.default_rng(data_seed)
        reps = self._representations(rng, n, d, scale, relu)
        z = (rng.random(n) < share).astype(int)
        z[:2] = [0, 1]
        self._assert_fit_matches_graph(reps, z, seed)

    @pytest.mark.parametrize("n,d,relu", [(3000, 28, False), (3000, 103, True),
                                          (3000, 256, False), (4000, 256, False),
                                          (16281, 64, False)])
    def test_large_fit_matches_graph_reference_bits(self, n, d, relu):
        """Fits on 2,100 rows whose weight-gradient products hold 117,600,
        432,600 and 1,075,200 multiply-adds: the last is above the 10^6
        where OpenBLAS leaves its small-matrix path for another kernel. At
        2,800 x 256 and 11,396 x 64 (1,433,600 and 1,458,688) the whole
        products take the large kernels while half of either would not."""
        rng = np.random.default_rng(n)
        reps = self._representations(rng, n, d, 1.0, relu)
        self._assert_fit_matches_graph(reps, rng.integers(0, 2, n), seed=3)

    _edge_values = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                         745.0, -745.0, 1e4, -1e4]),
        st.floats(-1e300, 1e300))

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(_edge_values, _edge_values), min_size=1,
                         max_size=300))
    def test_column_forms_match_axis_reductions_bytes(self, rows):
        """The fit's two-column arithmetic gives numpy's axis reductions'
        bits once added into a zero buffer, as the fit's gradients are:
        signed zeros, subnormals and saturated softmax inputs included. The
        max feeds ``exp(a - max)``, which is compared as the fit uses it."""
        a = np.array(rows)

        def into_zeros(v):
            buf = np.zeros_like(v)
            buf += v
            return buf.tobytes()

        col_max = np.maximum(a[:, :1], a[:, 1:])
        axis_max = a.max(axis=1, keepdims=True)
        assert into_zeros(col_max) == into_zeros(axis_max)
        assert np.exp(a - col_max).tobytes() == np.exp(a - axis_max).tobytes()
        assert (into_zeros(a[:, :1] + a[:, 1:])
                == into_zeros(a.sum(axis=1, keepdims=True)))
        assert into_zeros(np.add.accumulate(a)[-1]) == into_zeros(a.sum(axis=0))

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


class TestLiveColumnProbe:
    """The fit's epochs on the training slice's live columns (those nonzero
    in some training row, ``_live_columns``): the graph fit's bytes where
    they run at that width, and the full width where the shapes or the first
    epoch's check rule it out. Every fit runs on one core: none builds a
    ``parallel.Helper``."""

    N = 16_281  # 11,396 training rows, as on the canonical test set

    def _reps(self, d, live, seed=0):
        """ReLU rows of width ``d`` with ``live`` columns nonzero in some
        row, as a dnn's bias-free representation has."""
        rng = np.random.default_rng(seed)
        reps = np.maximum(rng.standard_normal((self.N, d)), 0.0)
        reps[:, rng.permutation(d)[live:]] = 0.0
        return reps, rng.integers(0, 2, self.N)

    @staticmethod
    def _fit(monkeypatch, reps, z, seed):
        """The fit's weight and bias, and how many epochs' gradients
        it computed at each width."""

        def refuse(self, held):
            raise AssertionError("the probe built a helper")

        monkeypatch.setattr(parallel.Helper, "__init__", refuse)
        widths, gradients = Counter(), MX._gradients
        monkeypatch.setattr(MX, "_gradients", lambda x, *args: (
            widths.update([x.shape[1]]) or gradients(x, *args)))
        weight, bias, _ = MX._fit_probe(reps, z, seed)
        return weight, bias, dict(widths)

    def _held_out(self, seed):
        """The rows ``_fit_probe`` holds out at ``seed``, in its order."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9806E]))
        return rng.permutation(self.N)[int(0.7 * self.N):]

    # each case's gradient widths, and how many epochs computed each
    _WIDTHS = {"all live": {256: 200}, "120 live": {256: 1, 120: 201},
               "92 live": {256: 1, 92: 201}, "70 live": {256: 1, 70: 201},
               "40 live": {256: 200}, "width 512": {512: 200},
               "all dead": {256: 200}, "a -0.0 column": {256: 1, 70: 201},
               "all-zero rows": {256: 1, 70: 201},
               "a held-out column": {256: 1, 70: 201},
               "a one-row column": {256: 1, 71: 201},
               "a subnormal column": {256: 1, 71: 201}}

    @pytest.mark.parametrize("case", list(_WIDTHS))
    def test_fit_matches_graph_reference_bits(self, monkeypatch, case):
        """Every column live, as in an lr or fm cell's probe and ``eval``'s:
        every epoch at the full width. 120, 92 and 70 live columns (as the
        wide benchmark's representations have at seeds 6, 9 and 1): one
        full-width epoch for the check, then 200 at the live width. 40 live
        columns (911,680 multiply-adds per product, OpenBLAS's small-matrix
        path) and a width above 384 (more than one of its K blocks) keep the
        full width without a check; so does a slice without a live column. A
        column of -0.0 is dead, and so is one nonzero in held-out rows only
        (scored with its initial weights); one nonzero in a single training
        row, even at 5e-324, is live."""
        live = {"all live": 256, "120 live": 120, "92 live": 92,
                "40 live": 40}.get(case, 70)
        reps, z = self._reps(512 if case == "width 512" else 256, live)
        if case == "all dead":
            reps[...] = 0.0
        elif case == "a -0.0 column":
            reps[:, np.flatnonzero(~reps.any(axis=0))[0]] = -0.0
        elif case == "all-zero rows":
            reps[np.random.default_rng(1).random(self.N) < 0.3] = 0.0
        elif case in ("a held-out column", "a one-row column",
                      "a subnormal column"):
            column = np.flatnonzero(~reps.any(axis=0))[0]
            held_out = self._held_out(3)
            row = (held_out[0] if case == "a held-out column"
                   else np.setdiff1d(np.arange(self.N), held_out)[0])
            reps[row, column] = 5e-324 if case == "a subnormal column" else 1.0
        weight, bias, widths = self._fit(monkeypatch, reps, z, 3)
        assert widths == self._WIDTHS[case]
        ref_weight, ref_bias, ref_accuracy = oracles.graph_leakage_probe(
            reps, z, 3)
        assert weight.tobytes() == ref_weight.tobytes()
        assert bias.tobytes() == ref_bias.tobytes()
        assert MX.leakage_probe(reps, z, 3) == ref_accuracy

    def test_dead_column_weights_keep_their_initial_values(self, monkeypatch):
        reps, z = self._reps(256, 70)
        weight, _, widths = self._fit(monkeypatch, reps, z, 4)
        assert widths == {256: 1, 70: 201}
        rng = np.random.default_rng(np.random.SeedSequence([4, 0x9806E]))
        rng.permutation(self.N)
        limit = np.sqrt(6.0 / (256 + 2))
        initial = rng.uniform(-limit, limit, (256, 2))
        dead = ~reps.any(axis=0)
        assert weight[dead].tobytes() == initial[dead].tobytes()
        assert (weight[~dead] != initial[~dead]).all()

    def test_forced_mismatch_falls_back(self, monkeypatch):
        """A live-width weight gradient one ulp off fails the first epoch's
        check, and every epoch runs at the full width."""
        reps, z = self._reps(256, 70)
        real = MX._gradients

        def off_when_narrow(x, *args):
            g, weight_grad = real(x, *args)
            if x.shape[1] < 256:
                weight_grad[0, 0] = np.nextafter(weight_grad[0, 0], np.inf)
            return g, weight_grad

        monkeypatch.setattr(MX, "_gradients", off_when_narrow)
        weight, bias, widths = self._fit(monkeypatch, reps, z, 2)
        assert widths == {256: 201, 70: 1}
        ref_weight, ref_bias, _ = oracles.graph_leakage_probe(reps, z, 2)
        assert weight.tobytes() == ref_weight.tobytes()
        assert bias.tobytes() == ref_bias.tobytes()

    @pytest.mark.parametrize("case", ["two-cpus", "one-cpu", "pool-worker",
                                      "beside-a-thread"])
    def test_same_fit_in_every_process(self, monkeypatch, case):
        """The fit at 120 live columns, whose products each hold more than
        10^6 multiply-adds, builds no helper and gives the same bytes in a
        process that may use two CPUs or one, in a grid's pool worker, and
        beside another thread (as BLAS's worker threads are)."""
        reps, z = self._reps(256, 120)
        expected = MX._fit_probe(reps, z, 6)
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
            weight, bias, widths = self._fit(monkeypatch, reps, z, 6)
        finally:
            done.set()
            if other.is_alive():
                other.join(timeout=10)
        assert widths == {256: 1, 120: 201}
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

    def test_attribute_outside_0_1_names_report_and_row(self):
        z = np.array([0, 1] * 50)
        z[5] = -1
        with pytest.raises(MX.UndefinedMetric, match=(
                "fairness report: attribute in row 5 is -1, not 0 or 1")):
            MX.fairness_report(np.array([0, 1] * 50), np.array([1, 0] * 50),
                               np.linspace(0, 1, 100), z, np.zeros((100, 3)),
                               seed=0)

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
