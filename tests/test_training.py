import hashlib
import warnings

import numpy as np
import pytest

from fairvae import autodiff as ad
from fairvae import data as D
from fairvae import metrics as MX
from fairvae import models as M
from fairvae import training as T
from fairvae.data import ConfigError, Sample
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
        with pytest.raises(T.NonFiniteGradient, match="layer.weight.*batch 3"):
            opt.step(context="batch 3")


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
    return [Sample(x=x[i], y=int(y[i]), z=int(z[i])) for i in range(n)]


def tiny_split(n=18, seed=0, label_ratio=0.5):
    samples = separable_samples(n, seed)
    return D.split_and_mask(samples, val_frac=1 / 9, label_ratio=label_ratio,
                            seed=seed, test_samples=separable_samples(8, seed + 1))


def toy_spec(method, **overrides):
    base = dict(backbone="dnn", method=method, grl_lambda=0.4, seed=0,
                epochs=3, batch_size=16, lr=0.01, hidden_dim=8,
                latent_dim=4, fm_factors=3, dropout_rate=0.0)
    base.update(overrides)
    return T.MethodSpec(**base)


class TestTrainBasics:
    def test_training_loss_decreases(self):
        split = tiny_split()
        _, report = T.train(toy_spec("plain", backbone="lr", epochs=5), split)
        assert report.epoch_losses[-1]["task"] < report.epoch_losses[0]["task"]

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

    def test_shadow_attributes_untouched_by_training(self):
        split = tiny_split()
        for method in ("plain", "adv", "dadv", "fairvae"):
            _, report = T.train(toy_spec(method), split)
            assert report.shadow_reads_during_training == 0
        assert split.shadow_reads == 0


class TestReproducibility:
    def test_identical_runs_bit_identical(self):
        def run():
            split = tiny_split(seed=7)
            bundle, report = T.train(toy_spec("fairvae", seed=7), split)
            return bundle.state_arrays(), report.epoch_losses
        (state_a, losses_a), (state_b, losses_b) = run(), run()
        assert losses_a == losses_b
        for name in state_a:
            assert np.array_equal(state_a[name], state_b[name]), name


class TestOverfitSanity:
    @pytest.mark.parametrize("method", T.METHODS)
    def test_task_loss_below_threshold_on_tiny_set(self, method):
        split = tiny_split(n=18, seed=3)
        spec = toy_spec(method, epochs=500, st_threshold=0.85)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, report = T.train(spec, split)
        best_task = min(e["task"] for e in report.epoch_losses)
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
        split = D.split_and_mask(samples, 0.1, 0.3, seed=9,
                                 test_samples=separable_samples(40, 10))
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
        assert [n for n, _ in passes] == [len(split.val_y)] * 2 + [split.n_unlabeled]
        for _, out in passes:
            assert not out.requires_grad and out.parents == ()

    def test_adv_st_runs(self):
        split = tiny_split(seed=13)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bundle, report = T.train(toy_spec("adv_st", seed=13, epochs=4,
                                              st_threshold=0.6), split)
        assert report.method == "adv_st"
        assert bundle.bias_aware is None


def debiasing_outcome():
    """Pinned synthetic debiasing experiment shared with the acceptance suite.

    Returns probe accuracies {method: leakage} on held-out representations.
    """
    samples = make_shortcut_samples(1100, seed=3)
    split = D.split_and_mask(samples[:700], val_frac=0.1, label_ratio=0.5,
                             seed=3, test_samples=samples[700:])
    probes = {}
    for method, lam, epochs in (("plain", 0.0, 100), ("dadv", 1.0, 200),
                                ("fairvae", 1.0, 200)):
        spec = T.MethodSpec(backbone="lr", method=method, grl_lambda=lam,
                            seed=3, epochs=epochs,
                            batch_size=32, hidden_dim=3, latent_dim=8,
                            lr=0.01, dropout_rate=0.0)
        bundle, _ = T.train(spec, split)
        r_f, _, _ = M.encode(bundle, split.test_x, training=False)
        probes[method] = MX.leakage_probe(r_f.value, split.test_z, seed=5)
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
