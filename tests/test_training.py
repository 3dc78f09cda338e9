import hashlib
import os
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes

from fairvae import autodiff as ad
from fairvae import data as D
from fairvae import metrics as MX
from fairvae import models as M
from fairvae import objectives as O
from fairvae import parallel
from fairvae import training as T
from fairvae.data import ConfigError, Samples
from fairvae.synthetic import make_shortcut_samples


def adam_reference(theta0, grads, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
    """Straight-line Adam for comparison."""
    theta = theta0.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(theta.copy())
    return out


class TestAdam:
    def test_matches_reference_on_random_gradients(self):
        rng = np.random.default_rng(31)
        theta0 = rng.uniform(-1, 1, (3, 2))
        grads = [rng.uniform(-2, 2, (3, 2)) for _ in range(20)]
        p = ad.Parameter(theta0.copy(), "p")
        opt = T.Adam([p], lr=0.01)
        expected = adam_reference(theta0, grads)
        for g, ref in zip(grads, expected):
            p.grad[...] = g
            opt.step()
            np.testing.assert_allclose(p.value, ref, atol=1e-12)

    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = ad.Parameter([1.0, -2.0], "p")
        opt = T.Adam([p])
        p.grad[...] = 0.0
        opt.step()
        np.testing.assert_array_equal(p.value, [1.0, -2.0])
        assert opt.t == 1

    def test_single_step_hand_computation(self):
        p = ad.Parameter([0.0], "p")
        opt = T.Adam([p], lr=0.01)
        p.grad[...] = 1.0
        opt.step()
        # m_hat = v_hat = 1 after bias correction, so the step is -lr/(1+eps)
        np.testing.assert_allclose(p.value, [-0.01 / (1 + 1e-8)], atol=1e-12)

    def test_deterministic_over_100_steps(self):
        def run():
            rng = np.random.default_rng(5)
            p = ad.Parameter(rng.uniform(-1, 1, 4), "p")
            opt = T.Adam([p], lr=0.01)
            for _ in range(100):
                p.grad[...] = rng.uniform(-1, 1, 4)
                opt.step()
            return p.value.copy()
        assert np.array_equal(run(), run())

    def test_non_finite_gradient_aborts_with_context(self):
        p = ad.Parameter([1.0], "layer.weight")
        opt = T.Adam([p])
        p.grad[...] = np.nan
        with pytest.raises(T.NonFiniteGradient, match="layer.weight.*batch 3"), \
                T._step_context("batch 3"):
            opt.step()


class TestFlatAdam:
    """Adam over flat buffers steps every parameter exactly as the
    per-parameter reference does."""

    @settings(max_examples=60, deadline=None)
    @given(shapes=st.lists(array_shapes(min_dims=0, max_dims=2, max_side=4),
                           min_size=1, max_size=4),
           steps=st.integers(1, 12), lr=st.sampled_from([0.01, 0.001, 0.5]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_parameter_reference_exactly(self, shapes, steps, lr,
                                                     seed):
        rng = np.random.default_rng(seed)
        theta0 = [rng.uniform(-1, 1, shape) for shape in shapes]
        grads = []
        for _ in range(steps):
            step = []
            for shape in shapes:
                g = rng.uniform(-2, 2, shape)
                kind = rng.integers(0, 4, shape)  # some zeros and -0.0s
                g[kind == 1] = 0.0
                g[kind == 2] = -0.0
                step.append(g)
            grads.append(step)
        params = [ad.Parameter(t.copy(), f"p{i}") for i, t in enumerate(theta0)]
        opt = T.Adam(params, lr=lr)
        expected = [adam_reference(t, [step[i] for step in grads], lr=lr)
                    for i, t in enumerate(theta0)]
        for k, step in enumerate(grads):
            opt.zero_grad()
            for p, g in zip(params, step):
                p.grad += g
            opt.step()
            for p, ref in zip(params, expected):
                assert p.value.tobytes() == ref[k].tobytes()

    def test_values_and_grads_stay_views_of_the_flat_buffers(self):
        bundle = M.ModelBundle(M.BundleConfig(
            input_dim=5, backbone="dnn", hidden_dim=4, latent_dim=2))
        params = bundle.trainable_parameters()
        state = bundle.state_arrays()
        opt = T.Adam(params)
        for p in params:
            np.testing.assert_array_equal(p.value, state[p.name])

        def assert_views():
            for flat, attr in ((opt.values, "value"), (opt.grads, "grad")):
                flat[:] = np.arange(flat.size)
                lo = 0
                for p in params:
                    view = getattr(p, attr)
                    assert view.base is flat
                    np.testing.assert_array_equal(
                        view.ravel(), np.arange(lo, lo + view.size))
                    lo += view.size
                assert lo == flat.size

        assert_views()
        bundle.load_state_arrays(state)
        assert opt.values.tobytes() == np.concatenate(
            [state[p.name].ravel() for p in params]).tobytes()
        assert_views()
        opt.zero_grad()
        assert not opt.grads.any()
        assert_views()

    def test_a_parameter_belongs_to_one_optimizer(self):
        p = ad.Parameter([1.0], "layer.weight")
        q = ad.Parameter([2.0], "layer.bias")
        T.Adam([p])
        with pytest.raises(ValueError, match="'layer.weight' already belongs"):
            T.Adam([q, p])
        assert not q.owned  # the failed optimizer took nothing
        with pytest.raises(ValueError, match="'layer.bias' already belongs"):
            T.Adam([q, q])
        with pytest.raises(ValueError, match="'frozen' is frozen"):
            T.Adam([ad.Parameter([1.0], "frozen", trainable=False)])

    def test_non_finite_gradient_names_the_first_parameter(self):
        params = [ad.Parameter(np.ones(2), name) for name in ("a", "b", "c")]
        opt = T.Adam(params)
        params[2].grad[0] = np.inf
        params[1].grad[1] = np.nan
        with pytest.raises(T.NonFiniteGradient,
                           match=r"for b \(epoch 2\)$"), T._step_context("epoch 2"):
            opt.step()
        assert opt.t == 0
        np.testing.assert_array_equal(opt.values, np.ones(6))


class TestMethodSpec:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            T.MethodSpec(method="gan")

    def test_st_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            T.MethodSpec(method="dadv_st", st_threshold=0.4)
        T.MethodSpec(method="dadv_st", st_threshold=0.9)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1"):
            T.MethodSpec(seed=-1)


def separable_samples(n, seed, dim=6):
    """Strongly separable task; attribute easy to read off one coordinate."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x70F]))
    y = (np.arange(n) % 2).astype(int)
    z = ((np.arange(n) // 2) % 2).astype(int)
    x = 0.3 * rng.standard_normal((n, dim))
    x[:, 0] += 1.5 * (2 * y - 1)
    x[:, 1] += 1.0 * (2 * y - 1)
    x[:, dim - 2] += 2.0 * z - 1.0
    return Samples(x, y, z)


def tiny_split(n=18, seed=0, label_ratio=0.5):
    samples = separable_samples(n, seed)
    return D.split_and_mask(samples, val_frac=1 / 9, label_ratio=label_ratio,
                            seed=seed)


def epoch_means(records):
    """Per-epoch means of every loss term, from the step records that
    ``train`` hands its ``log_writer``."""
    epochs = {}
    for record in records:
        terms = {k: v for k, v in record.items()
                 if k not in ("step", "epoch", "lambda", "lr")}
        epochs.setdefault(record["epoch"], []).append(terms)
    return [{k: sum(t[k] for t in steps) / len(steps) for k in steps[0]}
            for steps in epochs.values()]


def toy_spec(method, **overrides):
    base = dict(backbone="dnn", method=method, grl_lambda=0.4, seed=0,
                epochs=3, batch_size=16, lr=0.01, hidden_dim=8,
                latent_dim=4, fm_factors=3, dropout_rate=0.0)
    base.update(overrides)
    return T.MethodSpec(**base)


class TestTrainBasics:
    def test_training_loss_decreases(self):
        records = []
        T.train(toy_spec("plain", backbone="lr", epochs=5), tiny_split(),
                log_writer=records.append)
        losses = epoch_means(records)
        assert len(losses) == 5
        assert losses[-1]["task"] < losses[0]["task"]

    def test_plain_is_invariant_to_label_ratio(self):
        samples = separable_samples(40, seed=2)
        states = []
        for ratio in (0.1, 0.5, 1.0):
            split = D.split_and_mask(samples, 0.1, ratio, seed=2)
            bundle, _ = T.train(toy_spec("plain", epochs=4), split)
            states.append(bundle.state_arrays())
        for name in states[0]:
            assert np.array_equal(states[0][name], states[1][name]), name
            assert np.array_equal(states[0][name], states[2][name]), name

    def test_fairvae_ratio_one_skips_unlabeled_terms(self):
        split = tiny_split(label_ratio=1.0)
        records = []
        T.train(toy_spec("fairvae"), split,
                log_writer=records.append)
        assert split.n_unlabeled == 0
        for record in records:
            assert record["entropy_attr"] == 0.0
            assert record["entropy_adv"] == 0.0

    def test_validation_selection_respects_burn_in(self):
        split = tiny_split()
        _, report = T.train(toy_spec("dadv", epochs=6), split)
        assert len(report.val_history) == 6
        assert report.selected_epoch >= 3

    def test_selection_subtracts_the_parity_gap(self, monkeypatch):
        """Of an epoch that predicts the task label (accuracy 1, the label's
        own parity gap) and one that predicts the attribute (gap 1), the
        restored epoch is the one with the larger accuracy minus gap, which
        accuracy plus gap would not pick."""
        split = D.split_and_mask(separable_samples(200, seed=4), val_frac=0.5,
                                 label_ratio=0.5, seed=4)
        val = split.val
        predictions = iter([val.y, val.y, val.y, val.z])
        monkeypatch.setattr(T, "predict_labels", lambda bundle, x: next(predictions))
        _, report = T.train(toy_spec("plain", backbone="lr", epochs=4), split)
        history = report.val_history
        assert (history[2]["accuracy"], history[3]["dp_gap"]) == (1.0, 1.0)
        assert history[2]["dp_gap"] == MX.demographic_parity_gap(val.y, val.z)
        assert report.selected_epoch == 2
        assert max((2, 3), key=lambda e: history[e]["accuracy"]
                   + history[e]["dp_gap"]) == 3

    def test_shadow_attributes_untouched_by_training(self):
        split = tiny_split()
        for method in ("plain", "adv", "dadv", "fairvae"):
            _, report = T.train(toy_spec(method), split)
            assert report.shadow_reads_during_training == 0
        assert split.shadow_reads == 0


class TestGraphRelease:
    """When a step's loss is built, no earlier step's graph is alive. A
    ``Node`` takes no weak reference, so each root's ``value`` array, which
    only the root holds, stands for its graph."""

    @staticmethod
    def _roots_alive_at_build(monkeypatch, build_name):
        """Patch ``ad.backward`` to keep a weak reference to each root's value,
        and ``O.<build_name>`` to count the live ones on every call."""
        roots, alive = [], []
        backward, build = ad.backward, getattr(O, build_name)

        def tracking_backward(root):
            backward(root)
            roots.append(weakref.ref(root.value))

        def counting_build(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in roots))
            return build(*args, **kwargs)

        monkeypatch.setattr(ad, "backward", tracking_backward)
        monkeypatch.setattr(O, build_name, counting_build)
        return alive

    def test_train_releases_each_step_graph(self, monkeypatch):
        alive = self._roots_alive_at_build(monkeypatch, "joint_loss")
        T.train(toy_spec("fairvae", epochs=2, batch_size=4), tiny_split())
        assert len(alive) >= 4 and alive == [0] * len(alive)

    def test_attribute_predictor_releases_each_step_graph(self, monkeypatch):
        alive = self._roots_alive_at_build(monkeypatch, "cross_entropy")
        T._train_attribute_predictor(
            toy_spec("dadv_st", epochs=2, batch_size=4), tiny_split())
        assert len(alive) >= 4 and alive == [0] * len(alive)


class TestReproducibility:
    def test_identical_runs_bit_identical(self):
        def run():
            records = []
            bundle, _ = T.train(toy_spec("fairvae", seed=7), tiny_split(seed=7),
                                log_writer=records.append)
            return bundle.state_arrays(), epoch_means(records)
        (state_a, losses_a), (state_b, losses_b) = run(), run()
        assert losses_a == losses_b
        for name in state_a:
            assert np.array_equal(state_a[name], state_b[name]), name


class TestOverfitSanity:
    @pytest.mark.parametrize("method", T.METHODS)
    def test_task_loss_below_threshold_on_tiny_set(self, method):
        split = tiny_split(n=18, seed=3)
        spec = toy_spec(method, epochs=500, st_threshold=0.85)
        records = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            T.train(spec, split, log_writer=records.append)
        best_task = min(e["task"] for e in epoch_means(records))
        assert best_task < 0.05, f"{method}: min task loss {best_task:.4f}"


class TestPairedRuns:
    def test_dadv_and_fairvae_share_first_step_supervised_terms(self):
        """With identical seeds the two methods see the same initialization,
        batches and dropout masks, so their shared loss terms agree at step
        one and diverge from the first parameter update on."""
        def logged(method):
            split = tiny_split(seed=11)
            records = []
            T.train(toy_spec(method, seed=11, epochs=2, dropout_rate=0.2),
                    split, log_writer=records.append)
            return records
        dadv, fairvae = logged("dadv"), logged("fairvae")
        first_d, first_f = dadv[0], fairvae[0]
        for key in ("attr_pred", "adversarial", "orthogonality", "task"):
            assert first_d[key] == first_f[key], key
        assert first_d["total"] != first_f["total"]
        assert dadv[1]["attr_pred"] != fairvae[1]["attr_pred"]


class TestSelfTraining:
    def test_high_threshold_degenerates_to_base_method(self):
        split_a = tiny_split(seed=5)
        split_b = tiny_split(seed=5)
        spec = toy_spec("dadv_st", seed=5, epochs=4, st_threshold=0.999)
        with pytest.warns(UserWarning, match="confidence threshold"):
            st_bundle, st_report = T.train(spec, split_a)
        base_bundle, _ = T.train(toy_spec("dadv", seed=5, epochs=4), split_b)
        assert st_report.pseudo_label_count == 0
        base_state = base_bundle.state_arrays()
        for name, value in st_bundle.state_arrays().items():
            assert np.array_equal(value, base_state[name]), name

    def test_confident_predictor_adopts_and_labels_accurately(self):
        samples = separable_samples(120, seed=9)
        split = D.split_and_mask(samples, 0.1, 0.3, seed=9)
        spec = toy_spec("dadv_st", seed=9, epochs=30, batch_size=32,
                        st_threshold=0.8)
        bundle, report = T.train(spec, split)
        assert report.pseudo_label_count > 0.5 * split.n_unlabeled
        assert report.pseudo_label_accuracy > 0.95
        assert report.shadow_reads_during_training == 0
        assert split.shadow_reads == 1  # the post-training diagnostic read

    def test_pseudo_labels_come_from_a_pass_that_tracks_no_gradient(
            self, monkeypatch):
        passes = []
        attribute_probs = T._attribute_probs

        def spy(bundle, x):
            out = attribute_probs(bundle, x)
            passes.append((len(x), out))
            return out

        monkeypatch.setattr(T, "_attribute_probs", spy)
        split = tiny_split(seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            T.train(toy_spec("dadv_st", seed=5, epochs=2), split)
        assert [n for n, _ in passes] == [len(split.val)] * 2 + [split.n_unlabeled]
        for _, out in passes:
            assert not out.requires_grad and out.parents == ()

    def test_adv_st_runs(self):
        split = tiny_split(seed=13)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bundle, _ = T.train(toy_spec("adv_st", seed=13, epochs=4,
                                         st_threshold=0.6), split)
        assert bundle.bias_aware is None


def debiasing_outcome():
    """Pinned synthetic debiasing experiment shared with the acceptance suite.

    Returns probe accuracies {method: leakage} on held-out representations.
    """
    samples = make_shortcut_samples(1100, seed=3)
    split = D.split_and_mask(samples[:700], val_frac=0.1, label_ratio=0.5,
                             seed=3)
    test = samples[700:]
    probes = {}
    for method, lam, epochs in (("plain", 0.0, 100), ("dadv", 1.0, 200),
                                ("fairvae", 1.0, 200)):
        spec = T.MethodSpec(backbone="lr", method=method, grl_lambda=lam,
                            seed=3, epochs=epochs,
                            batch_size=32, hidden_dim=3, latent_dim=8,
                            lr=0.01, dropout_rate=0.0)
        bundle, _ = T.train(spec, split)
        r_f, _, _ = M.encode(bundle, test.x, training=False)
        probes[method] = MX.leakage_probe(r_f.value, test.z, seed=5)
    return probes


class TestSyntheticDebiasing:
    def test_adversarial_methods_scrub_attribute_plain_does_not(self):
        probes = debiasing_outcome()
        assert probes["plain"] >= 0.9, probes
        assert probes["dadv"] <= 0.6, probes
        assert probes["fairvae"] <= 0.6, probes


def _ladder_digest(method, backbone):
    """sha256 over (name, float64 bytes) of every parameter after two epochs
    of one ladder cell, with dropout on and pseudo-labels adopted by _st."""
    samples = separable_samples(40, seed=21)
    split = D.split_and_mask(samples, val_frac=0.1, label_ratio=0.3, seed=21)
    spec = toy_spec(method, backbone=backbone, seed=21, epochs=2, batch_size=8,
                    dropout_rate=0.2, st_threshold=0.55)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bundle, _ = T.train(spec, split)
    digest = hashlib.sha256()
    for p in bundle.parameters():
        digest.update(p.name.encode())
        digest.update(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
    return digest.hexdigest()


# recorded when plain, adv/dadv and fairvae each had their own step body
GOLDEN_LADDER_DIGESTS = {
    "plain/lr":
        "6657c6bb7814183e3571d0fa356db510fbc404df033894296bafa73337aa2376",
    "plain/dnn":
        "d3dfac3d2fb22b823201b7131b7ab9341e68c77666cad4daa9c89150ffca4fc1",
    "plain/fm":
        "bbaa7b2dc1ff1c22b699e58aedd137fbad1a23a49fcbc870c57b15c10ae22dac",
    "adv/lr":
        "ac6b8ae8a1c653910d1fb9a407d44083d25dbcbcf0e195649467ee2126de2b97",
    "adv/dnn":
        "614cc4d903d4579358f4a8cfbfd564763d79fd41354fea18c4bfcd95e5615579",
    "adv/fm":
        "99f2713bcf91dc1fc1d9a0c6c07e84b5743ded2ef73315f0a3d606f934663250",
    "adv_st/lr":
        "0eba47ede7cc3a49fccb64b0afdcc37fb979a5e25ff9f6aaa8c157d0dbb9295a",
    "adv_st/dnn":
        "d86c95b35b1011cf60139f89e152ad87d8bc69594718341826528241c9d1549f",
    "adv_st/fm":
        "dbd255c2116c03a139b99b9ced280af0621874ad051569ad6ae872a7e1979880",
    "dadv/lr":
        "13156fd34a2312e785d36222b9643216e23192fd347087f5911e32eac14a5160",
    "dadv/dnn":
        "f71dd3237d5d702c3b7921e111a7542ecf412ca18df43302576cd7d39238e2bf",
    "dadv/fm":
        "7b090b96c033288cd4a948860808147d71c2fcf7fffe682480cea6bdcb47e5cd",
    "dadv_st/lr":
        "3d3ad8d03f979fbb0c6e0e401fcc925b9e858dae9a918fed87cd078504efae3b",
    "dadv_st/dnn":
        "34f1aebd6909829fa115b2ff29ca07a49e7d25d7a4f0c872b84d929cc2ec9eae",
    "dadv_st/fm":
        "8c9c32752a71c315f29fa17b82fc62cca96460b963191aae7b074e761e7cc32c",
    "fairvae/lr":
        "dbaed26754e7415bb282feca0567f5631b98e9484094bbf9615ff1433afa29d7",
    "fairvae/dnn":
        "80dbf5c3d0cef94f5f335a33d84259fbedf1af075abb90a810d892e4639ac916",
    "fairvae/fm":
        "437d58a972eb1d5004c355ff3388686d8f231a51d9bebd283c4df41fbc979002",
}


class TestLadderDigests:
    @pytest.mark.parametrize("backbone", M.BACKBONE_KINDS)
    @pytest.mark.parametrize("method", T.METHODS)
    def test_parameters_match_golden_digest(self, method, backbone):
        assert (_ladder_digest(method, backbone)
                == GOLDEN_LADDER_DIGESTS[f"{method}/{backbone}"])


@pytest.fixture
def submit_calls(monkeypatch):
    """Every task handed to a helper process, by the function that made it."""
    calls, submit = [], parallel.Helper.submit

    def counting(self, task, *args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return submit(self, task, *args, **kwargs)

    monkeypatch.setattr(parallel.Helper, "submit", counting)
    return calls


class TestTwoCoreLadderDigests:
    """The ladder pins again with every two-sided step and every Adam step
    split over two cores (``ADAM_SPLIT_MIN_VALUES`` 0). A process that may
    use one CPU only runs them serially, and must give the same pins."""

    @pytest.mark.parametrize("backbone", M.BACKBONE_KINDS)
    @pytest.mark.parametrize("method", T.METHODS)
    def test_parameters_match_golden_digest(self, monkeypatch, submit_calls,
                                            method, backbone):
        monkeypatch.setattr(T, "ADAM_SPLIT_MIN_VALUES", 0)
        assert (_ladder_digest(method, backbone)
                == GOLDEN_LADDER_DIGESTS[f"{method}/{backbone}"])
        # plain's steps have one side only and never fork a helper, and a
        # self-training cell may adopt every unlabeled row as a labeled one
        if method in ("adv", "dadv", "fairvae"):
            assert ("joint_loss" in submit_calls) == parallel.forkable()
            assert ("step" in submit_calls) == parallel.forkable()
        if method == "plain":
            assert not submit_calls


def _echo(helper, views, n):
    """A helper task for the exchange test: the sum of each array it got,
    then two arrays placed back, ``n`` values in the second."""
    yield [float(v.sum()) for v in views]
    yield helper.place([np.arange(4.0), np.arange(float(n))])


class TestTwoCoreHelper:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_arrays_cross_the_area_or_the_pipe(self):
        """Arrays that fit cross in the shared area, as views; one too big
        for its part of the area crosses through the pipe, either way."""
        helper = parallel.Helper({})
        helper.buffers(4, 1)  # 4 + 2**20 values out, 8 back
        small, big = np.arange(6.0), np.arange(2.0 ** 20 + 8)
        try:
            helper.submit(_echo, 16, arrays=[small, big], replies=2)
            assert helper.reply() == [small.sum(), big.sum()]
            placed = helper.reply()
        finally:
            helper.close()
        assert isinstance(placed[0], tuple) and isinstance(placed[1], np.ndarray)
        got = helper.view(placed)
        assert [g.tolist() for g in got] == [[0.0, 1.0, 2.0, 3.0],
                                             np.arange(16.0).tolist()]

    def test_unlabeled_side_error_is_the_serial_one(self, monkeypatch,
                                                    submit_calls):
        """A non-finite value met in the helper process is raised by the step
        with the serial run's type and message."""
        def error(serial):
            monkeypatch.setattr(parallel, "_serial", serial)
            split = tiny_split()
            split.unl.x[:, 0] = np.inf
            with pytest.raises(ValueError) as caught:
                T.train(toy_spec("fairvae"), split)
            return type(caught.value), str(caught.value)

        serial = error(True)
        assert serial[1].startswith("non-finite values in const (method=")
        assert error(False) == serial
        assert ("joint_loss" in submit_calls) == parallel.forkable()

    def test_labeled_side_error_wins(self, submit_calls):
        bundle = M.ModelBundle(M.BundleConfig(input_dim=6, hidden_dim=4,
                                              latent_dim=2, method="dadv"))
        rng = np.random.default_rng(0)
        x, y, z = rng.uniform(-1, 1, (5, 6)), rng.integers(0, 2, 5), \
            rng.integers(0, 2, 5)
        params = bundle.trainable_parameters()
        with parallel.session(True, bundle=bundle) as helper:
            T.Adam(params, helper=helper)
            # no attributes on the labeled side, attributes on the unlabeled one
            with pytest.raises(ValueError, match="^labeled loss requires "
                                                 "observed attributes$"):
                O.joint_loss(Samples(x, y), Samples(x, y, z), bundle,
                             O.ObjectiveConfig(), None, None, helper=helper)
            with pytest.raises(ValueError, match="^unlabeled loss got "
                                                 "observed attributes$"):
                O.joint_loss(Samples(x, y, z), Samples(x, y, z), bundle,
                             O.ObjectiveConfig(), None, None, helper=helper)
            # the helper is free again: the next step builds both sides
            total, _ = O.joint_loss(Samples(x, y, z), Samples(x, y), bundle,
                                    O.ObjectiveConfig(), None, None,
                                    helper=helper)
        assert total.op == ("add_sides" if parallel.forkable() else "add")
        assert submit_calls.count("joint_loss") == 3 * parallel.forkable()

    @pytest.mark.parametrize("side", ["labeled", "unlabeled"])
    def test_a_run_that_raises_reaps_its_helper(self, monkeypatch, side):
        """A split run whose labeled side, or whose side in the helper,
        raises at its third step gives the serial run's error and leaves no
        process behind (the autouse fixture checks that)."""
        calls, real = [], getattr(O, f"{side}_loss")

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError(f"{side} side failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(O, f"{side}_loss", failing)
        forks, fork = [], parallel.Helper._fork
        monkeypatch.setattr(parallel.Helper, "_fork",
                            lambda self: forks.append(1) or fork(self))
        errors = []
        for serial in (True, False):
            monkeypatch.setattr(parallel, "_serial", serial)
            calls.clear()
            with pytest.raises(ValueError) as caught:
                T.train(toy_spec("fairvae"), tiny_split(n=60))
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"{side} side failed (method=fairvae")
        assert len(forks) == parallel.forkable()

    def test_no_helper_beside_another_thread(self, monkeypatch):
        """A process running a second thread (as a multi-threaded BLAS
        does) never forks: the helper would compete with that thread, and
        forking beside threads is unsafe."""
        monkeypatch.setattr(parallel.Helper, "_fork",
                            lambda self: pytest.fail("a helper was forked"))
        done = threading.Event()
        other = threading.Thread(target=done.wait)
        other.start()
        try:
            assert not parallel.forkable()
            digest = _ladder_digest("fairvae", "dnn")
        finally:
            done.set()
            other.join()
        assert digest == GOLDEN_LADDER_DIGESTS["fairvae/dnn"]

    def test_small_optimizer_updates_in_the_caller(self, monkeypatch,
                                                   submit_calls):
        """A split run whose optimizer holds fewer than
        ``ADAM_SPLIT_MIN_VALUES`` values updates all of it in the caller:
        the helper gets its steps' unlabeled sides only."""
        spec = toy_spec("fairvae")
        values = sum(p.value.size for p in T._build_bundle(
            spec, tiny_split().feature_dim).trainable_parameters())
        assert values < T.ADAM_SPLIT_MIN_VALUES
        T.train(spec, tiny_split())
        assert ("joint_loss" in submit_calls) == parallel.forkable()
        assert "step" not in submit_calls

    @pytest.mark.parametrize("case", ["one-cpu", "one-sided"])
    def test_no_helper_for_a_serial_run(self, monkeypatch, case):
        """No helper, and so no shared mapping, is built in a process that
        may use one CPU, or for plain, whose steps have one side only (its
        optimizer alone is not worth a process)."""
        if case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(parallel.Helper, "__init__", lambda self, held:
                            pytest.fail("a helper was built"))
        before = set(threading.enumerate())
        samples = separable_samples(60, seed=1, dim=28)
        split = D.split_and_mask(samples, val_frac=0.1, label_ratio=0.5, seed=1)
        spec = T.MethodSpec(backbone="dnn", epochs=1, batch_size=16,
                            method="plain" if case == "one-sided"
                            else "fairvae")
        T.train(spec, split)
        assert set(threading.enumerate()) == before

    def test_small_two_sided_run_splits_with_serial_bits(self, monkeypatch):
        """A fairvae run whose bundle holds fewer than 1,000 trainable values
        still splits its steps where the process may fork, and its
        parameters are the serial run's bytes."""
        spec = toy_spec("fairvae", backbone="lr", epochs=2)
        values = sum(p.value.size for p in T._build_bundle(
            spec, tiny_split().feature_dim).trainable_parameters())
        assert values < 1_000
        forks, fork = [], parallel.Helper._fork
        monkeypatch.setattr(parallel.Helper, "_fork",
                            lambda self: forks.append(1) or fork(self))
        states = []
        for serial in (True, False):
            monkeypatch.setattr(parallel, "_serial", serial)
            bundle, _ = T.train(spec, tiny_split(n=60))
            states.append([p.value.tobytes() for p in bundle.parameters()])
        assert states[0] == states[1]
        assert len(forks) == parallel.forkable()
