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
                                          (3000, 256, False)])
    def test_large_fit_matches_graph_reference_bits(self, n, d, relu):
        """Fits on 2,100 rows whose weight-gradient products hold 117,600,
        432,600 and 1,075,200 multiply-adds: the last is above the 10^6
        where OpenBLAS leaves its small-matrix path for another kernel."""
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
    epoch's check rule it out. Fits here are serial; ``TestTwoCoreProbe``
    splits a live slice."""

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
        """The serial fit's weight and bias, and how many epochs' gradients
        it computed at each width."""
        widths, gradients = Counter(), MX._gradients
        monkeypatch.setattr(MX, "_splits", lambda shape: False)
        monkeypatch.setattr(MX, "_gradients", lambda x, *args: (
            widths.update([x.shape[1]]) or gradients(x, *args)))
        weight, bias, _ = MX._fit_probe(reps, z, seed)
        return weight, bias, dict(widths)

    # each case's gradient widths, and how many epochs computed each
    _WIDTHS = {"70 live": {256: 1, 70: 201}, "40 live": {256: 200},
               "width 512": {512: 200}, "all dead": {256: 200},
               "a -0.0 column": {256: 1, 70: 201},
               "all-zero rows": {256: 1, 70: 201}}

    @pytest.mark.parametrize("case", list(_WIDTHS))
    def test_fit_matches_graph_reference_bits(self, monkeypatch, case):
        """70 live columns: one full-width epoch for the check, then 200 at
        the live width. 40 live columns (911,680 multiply-adds per product,
        OpenBLAS's small-matrix path) and a width above 384 (more than one
        of its K blocks) keep the full width without a check; so does a
        slice without a live column. A column of -0.0 is dead."""
        reps, z = self._reps(512 if case == "width 512" else 256,
                             40 if case == "40 live" else 70)
        if case == "all dead":
            reps[...] = 0.0
        elif case == "a -0.0 column":
            reps[:, np.flatnonzero(~reps.any(axis=0))[0]] = -0.0
        elif case == "all-zero rows":
            reps[np.random.default_rng(1).random(self.N) < 0.3] = 0.0
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


def _failing_probe_half(helper, views, k, c):
    """A helper task for the probe's split that fails in the helper."""
    raise MemoryError("the helper ran out")
    yield


class TestTwoCoreProbe:
    """The leakage probe's split fit (``_fit_probe``) against its serial
    fit, byte for byte. In a process that may use one CPU only every fit is
    serial, and the same bytes must come out."""

    @staticmethod
    def _probe(reps, z, seed, split=None):
        """``leakage_probe``'s weight and bias bytes and accuracy, its epochs
        split by ``_splits`` or, with ``split`` given, by that, and the
        number of tasks it handed to a helper."""
        fits, tasks = [], []
        fit, submit = MX._fit_probe, parallel.Helper.submit
        with pytest.MonkeyPatch.context() as m:
            if split is not None:
                m.setattr(MX, "_splits", lambda shape: split)
            m.setattr(MX, "_fit_probe",
                      lambda *a: fits.append(fit(*a)) or fits[-1])
            m.setattr(parallel.Helper, "submit",
                      lambda self, *a, **k: tasks.append(1)
                      or submit(self, *a, **k))
            acc = MX.leakage_probe(reps, z, seed)
        weight, bias, _ = fits[-1]
        return (weight.tobytes(), bias.tobytes(), acc), len(tasks)

    def test_canonical_test_set_matches_serial_and_graph_bits(self):
        """16,281 rows of width 256, the wide benchmark's probe: 11,396 x
        256 training values, split for all 200 epochs."""
        rng = np.random.default_rng(16281)
        reps = np.maximum(rng.standard_normal((16281, 256)), 0.0)
        z = rng.integers(0, 2, 16281)
        assert MX._splits((int(0.7 * 16281), 256))
        serial, _ = self._probe(reps, z, 5, False)
        split, tasks = self._probe(reps, z, 5)
        assert tasks == 200 * parallel.forkable()
        assert split == serial
        weight, bias, acc = oracles.graph_leakage_probe(reps, z, 5)
        assert split == (weight.tobytes(), bias.tobytes(), acc)

    def test_live_slice_matches_serial_and_graph_bits(self, monkeypatch):
        """16,281 rows of width 256 with 120 live columns: the epochs run on
        the 11,396 x 120 live slice (``_live_columns``), split for all 200
        epochs."""
        rng = np.random.default_rng(120)
        reps = np.maximum(rng.standard_normal((16281, 256)), 0.0)
        reps[:, rng.permutation(256)[120:]] = 0.0
        z = rng.integers(0, 2, 16281)
        assert MX._splits((int(0.7 * 16281), 120))
        serial, _ = self._probe(reps, z, 6, False)
        shapes, split_gradients = set(), MX._split_gradients

        def spied(helper, x, *args, **kwargs):
            shapes.add(x.shape)
            return split_gradients(helper, x, *args, **kwargs)

        monkeypatch.setattr(MX, "_split_gradients", spied)
        split, tasks = self._probe(reps, z, 6)
        assert tasks == 200 * parallel.forkable()
        assert shapes == ({(int(0.7 * 16281), 120)} if parallel.forkable()
                          else set())
        assert split == serial
        weight, bias, acc = oracles.graph_leakage_probe(reps, z, 6)
        assert split == (weight.tobytes(), bias.tobytes(), acc)

    @pytest.mark.parametrize("n,d", [(4000, 256), (16281, 64)])
    def test_first_epoch_check_falls_back_at_crossing_shapes(self, n, d):
        """Here the whole products take OpenBLAS's large kernels and the
        halves its small-matrix path (10^6 multiply-adds or fewer): the
        halves move bits, so the first epoch's check finishes the fit
        serially, with the serial bytes. Forced to split, the fit hands the
        helper its first epoch only."""
        rng = np.random.default_rng(d)
        reps, z = rng.standard_normal((n, d)), rng.integers(0, 2, n)
        serial, _ = self._probe(reps, z, 1, False)
        assert self._probe(reps, z, 1, True) == (serial, parallel.forkable())

    def test_forced_mismatch_falls_back(self, monkeypatch):
        """Logit gradients that the helper computes one ulp off fail the
        first epoch's check, and the fit finishes serially."""
        rng = np.random.default_rng(3)
        reps, z = rng.standard_normal((600, 16)), rng.integers(0, 2, 600)
        serial, _ = self._probe(reps, z, 2, False)
        caller, real = os.getpid(), MX._logit_gradients

        def off_in_the_helper(*args):
            g = real(*args)
            if os.getpid() != caller:
                g[0, 0] = np.nextafter(g[0, 0], np.inf)
            return g

        monkeypatch.setattr(MX, "_logit_gradients", off_in_the_helper)
        assert self._probe(reps, z, 2, True) == (serial, parallel.forkable())

    def test_split_small_fit_matches_serial_bits(self):
        """Where the whole products and their halves both take the
        small-matrix path, a forced split passes the check and keeps the
        serial bytes for all 200 epochs."""
        rng = np.random.default_rng(4)
        reps, z = rng.standard_normal((600, 16)), rng.integers(0, 2, 600)
        serial, _ = self._probe(reps, z, 2, False)
        assert self._probe(reps, z, 2, True) == (serial,
                                                  200 * parallel.forkable())

    @pytest.mark.parametrize("side", ["helper", "caller"])
    def test_split_error_is_the_serial_one(self, monkeypatch, side):
        """A row that overflows among the helper's (or the caller's) rows
        raises there the serial fit's warning-turned-error; the split fit
        raises it with the serial type and message and leaves no process
        behind (the autouse fixture checks that)."""
        rng = np.random.default_rng(5)
        n, d = 600, 64
        reps, z = rng.standard_normal((n, d)), rng.integers(0, 2, n)
        perm = np.random.default_rng(
            np.random.SeedSequence([0, 0x9806E])).permutation(n)
        tr = perm[:int(0.7 * n)]
        k, _ = MX._halves((len(tr), d))
        # finite, but its logits overflow
        reps[tr[k + 5 if side == "helper" else 5]] = 1e308
        failed, reply = [], parallel.Helper.reply

        def spied_reply(self, *args):
            try:
                return reply(self, *args)
            except Exception as exc:
                failed.append(exc)
                raise

        monkeypatch.setattr(parallel.Helper, "reply", spied_reply)
        errors = []
        for split in (False, True):
            monkeypatch.setattr(MX, "_splits", lambda shape: split)
            with pytest.raises(Exception) as caught:
                MX.leakage_probe(reps, z, 0)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert errors[0] == (RuntimeWarning, "overflow encountered in matmul")
        assert [(type(e), str(e)) for e in failed] == \
            [errors[0]] * (side == "helper" and parallel.forkable())

    def test_error_only_the_helper_meets_finishes_serially(self, monkeypatch):
        """An error in the helper's task that the serial fit would not meet
        ends the split: the fit finishes serially, with the serial bytes."""
        rng = np.random.default_rng(6)
        reps, z = rng.standard_normal((600, 16)), rng.integers(0, 2, 600)
        serial, _ = self._probe(reps, z, 0, False)
        failed, reply = [], parallel.Helper.reply

        def spied_reply(self, *args):
            try:
                return reply(self, *args)
            except MemoryError as exc:
                failed.append(str(exc))
                raise

        monkeypatch.setattr(MX, "_probe_half", _failing_probe_half)
        monkeypatch.setattr(parallel.Helper, "reply", spied_reply)
        assert self._probe(reps, z, 0, True) == (serial, parallel.forkable())
        assert failed == ["the helper ran out"] * parallel.forkable()

    @pytest.mark.parametrize("case", ["one-cpu", "pool-worker",
                                      "beside-a-thread"])
    def test_no_fork(self, monkeypatch, case):
        """No helper is forked for a fit forced to split in a process that
        may use one CPU, in a grid's pool worker, or beside another thread
        (as BLAS's worker threads are)."""
        rng = np.random.default_rng(7)
        reps, z = rng.standard_normal((600, 16)), rng.integers(0, 2, 600)
        serial, _ = self._probe(reps, z, 0, False)
        monkeypatch.setattr(parallel.Helper, "_fork",
                            lambda self: pytest.fail("a helper was forked"))
        if case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif case == "pool-worker":
            monkeypatch.setattr(parallel, "_serial", True)
        done = threading.Event()
        other = threading.Thread(target=done.wait)
        if case == "beside-a-thread":
            other.start()
        try:
            assert self._probe(reps, z, 0, True)[0] == serial
        finally:
            done.set()
            if other.is_alive():
                other.join(timeout=10)

    def test_seed9_live_slice_fits_serially_with_graph_bits(self, monkeypatch):
        """16,281 rows of width 256 with 92 live columns, as the wide
        benchmark's seed-9 representation has: the 11,396 x 92 live slice's
        split epoch would put a 40-column half on OpenBLAS's small-matrix
        path, so no helper is forked, and the bytes are the graph fit's."""
        rng = np.random.default_rng(92)
        reps = np.maximum(rng.standard_normal((16281, 256)), 0.0)
        reps[:, rng.permutation(256)[92:]] = 0.0
        z = rng.integers(0, 2, 16281)
        assert MX._halves((int(0.7 * 16281), 92)) == (5696, 40)
        monkeypatch.setattr(parallel.Helper, "_fork",
                            lambda self: pytest.fail("a helper was forked"))
        fit, tasks = self._probe(reps, z, 9)
        assert tasks == 0
        weight, bias, acc = oracles.graph_leakage_probe(reps, z, 9)
        assert fit == (weight.tobytes(), bias.tobytes(), acc)


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
