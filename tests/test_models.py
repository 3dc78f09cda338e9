import hashlib
import json
import re
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairvae import autodiff as ad
from fairvae import models as M
from fairvae import objectives as O
from fairvae import parallel
from fairvae import training as T
from fairvae.data import ConfigError, Samples
from gradcheck import graph_nodes
from toys import tiny_config, toy_batch, adversarial_wiring_outcome


def zero_params(obj_params, prefix):
    for p in obj_params:
        if p.name.startswith(prefix):
            p.value[...] = 0.0


class TestBackboneForward:
    def test_dnn_zero_weights_gives_zero_output(self):
        bundle = M.ModelBundle(tiny_config())
        zero_params(bundle.parameters(), "bias_free")
        out = bundle.bias_free.forward(np.ones((3, 6)))
        np.testing.assert_array_equal(out.value, np.zeros((3, 4)))

    def test_fm_hand_case_interaction_vanishes(self):
        # d=2, k=2, v1=[1,0], v2=[0,1], x=[1,1]: interaction vector is zero
        cfg = tiny_config(input_dim=2, backbone="fm", fm_factors=2)
        bundle = M.ModelBundle(cfg)
        fm = bundle.bias_free
        fm.factors.value[...] = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([[1.0, 1.0]])
        xv = x @ fm.factors.value
        interaction = 0.5 * (xv ** 2 - (x ** 2) @ (fm.factors.value ** 2))
        np.testing.assert_array_equal(interaction, [[0.0, 0.0]])
        # and the forward pass then reduces to the linear-embedding path
        zero_params([fm.out.weight, fm.out.bias], "")
        out = fm.forward(x)
        np.testing.assert_array_equal(out.value, np.zeros((1, 4)))

    def test_fm_interaction_matches_bruteforce_pairwise_sum(self):
        rng = np.random.default_rng(17)
        for d, k in [(5, 3), (12, 4), (20, 6)]:
            v = rng.uniform(-1, 1, (d, k))
            x = rng.uniform(-2, 2, d)
            fm_vec = 0.5 * ((x @ v) ** 2 - (x ** 2) @ (v ** 2))
            brute = sum(
                np.dot(v[i], v[j]) * x[i] * x[j]
                for i in range(d) for j in range(i + 1, d)
            )
            assert abs(fm_vec.sum() - brute) < 1e-10

    def test_lr_uses_fixed_projection_when_dims_differ(self):
        bundle = M.ModelBundle(tiny_config(backbone="lr"))
        lr = bundle.bias_free
        assert lr.proj is not None and not lr.proj.trainable
        x = np.ones((2, 6))
        expected = (x * lr.scale.value) @ lr.proj.value
        np.testing.assert_allclose(lr.forward(x).value, expected)

    def test_lr_identity_when_dims_match(self):
        bundle = M.ModelBundle(tiny_config(backbone="lr", input_dim=4))
        lr = bundle.bias_free
        assert lr.proj is None
        x = np.ones((2, 4))
        np.testing.assert_array_equal(lr.forward(x).value,
                                      x * lr.scale.value)

    def test_dimension_mismatch_rejected(self):
        bundle = M.ModelBundle(tiny_config())
        with pytest.raises(ad.ShapeMismatch):
            bundle.bias_free.forward(np.ones((2, 5)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="cnn"):
            M.ModelBundle(tiny_config(backbone="cnn"))


class TestEncode:
    def test_zeroed_bias_aware_gives_r_equals_rf(self):
        bundle = M.ModelBundle(tiny_config())
        zero_params(bundle.parameters(), "bias_aware")
        x, _, _ = toy_batch()
        r_f, r_b, r = M.encode(bundle, x)
        np.testing.assert_array_equal(r_b.value, np.zeros_like(r_b.value))
        np.testing.assert_array_equal(r.value, r_f.value)

    def test_shapes(self):
        bundle = M.ModelBundle(tiny_config())
        x, _, _ = toy_batch(n=5)
        r_f, r_b, r = M.encode(bundle, x)
        assert r_f.value.shape == r_b.value.shape == r.value.shape == (5, 4)

    def test_r_is_exact_sum(self):
        bundle = M.ModelBundle(tiny_config())
        x, _, _ = toy_batch()
        r_f, r_b, r = M.encode(bundle, x)
        np.testing.assert_array_equal(r.value, r_f.value + r_b.value)

    def test_dropout_only_when_training(self):
        bundle = M.ModelBundle(tiny_config(dropout_rate=0.5))
        x, _, _ = toy_batch()
        r_eval, _, _ = M.encode(bundle, x, training=False)
        r_eval2, _, _ = M.encode(bundle, x, training=False)
        np.testing.assert_array_equal(r_eval.value, r_eval2.value)
        rng = np.random.default_rng(0)
        r_train, _, _ = M.encode(bundle, x, training=True, rng=rng)
        assert not np.array_equal(r_train.value, r_eval.value)


class TestPredictHeads:
    def test_zero_input_zero_bias_head_is_uniform(self):
        bundle = M.ModelBundle(tiny_config())
        zero_params(bundle.parameters(), "bias_aware")
        zero_params(bundle.parameters(), "attr_head")
        x, _, _ = toy_batch()
        r_f, r_b, r = M.encode(bundle, x)
        z_hat, _, _ = M.predict_heads(bundle, r_f, r_b, r)
        np.testing.assert_allclose(z_hat.value, 0.5, atol=1e-15)

    def test_probability_rows_sum_to_one(self):
        bundle = M.ModelBundle(tiny_config())
        x, _, _ = toy_batch(n=16)
        outs = M.predict_heads(bundle, *M.encode(bundle, x))
        for node in outs:
            np.testing.assert_allclose(node.value.sum(axis=1), 1.0, atol=1e-12)

    def test_reversal_flips_encoder_gradient_sign(self):
        """Gradients of the adversarial loss reach the bias-free backbone with
        sign flipped and scaled by lambda versus a no-reversal control."""
        from fairvae import objectives as O
        x, _, z = toy_batch(n=8)
        lam = 0.4

        def encoder_grads(reversal: bool):
            bundle = M.ModelBundle(tiny_config(grl_lambda=lam, method="dadv"))
            r_f, r_b, r = M.encode(bundle, x)
            rep = ad.gradient_reversal(r_f, lam) if reversal else r_f
            z_tilde = bundle.disc_head(rep)
            loss = O.cross_entropy(O.one_hot(z, 2), z_tilde)
            ad.backward(loss)
            return {p.name: p.grad.copy()
                    for p in bundle.parameters() if p.name.startswith("bias_free")}

        reversed_grads = encoder_grads(True)
        control_grads = encoder_grads(False)
        for name, g in reversed_grads.items():
            np.testing.assert_allclose(g, -lam * control_grads[name],
                                       rtol=1e-12, atol=1e-15)


class TestPredictTest:
    def test_equals_train_head_when_bias_aware_zeroed(self):
        bundle = M.ModelBundle(tiny_config())
        zero_params(bundle.parameters(), "bias_aware")
        x, _, _ = toy_batch()
        _, _, y_train = M.predict_heads(bundle, *M.encode(bundle, x))
        y_test = M.predict_test(bundle, x)
        np.testing.assert_array_equal(y_test.value, y_train.value)

    def test_deterministic(self):
        bundle = M.ModelBundle(tiny_config(dropout_rate=0.3))
        x, _, _ = toy_batch()
        a = M.predict_test(bundle, x).value
        b = M.predict_test(bundle, x).value
        np.testing.assert_array_equal(a, b)

    def test_differs_from_train_path_when_bias_aware_nonzero(self):
        bundle = M.ModelBundle(tiny_config())
        x, _, _ = toy_batch()
        r_f, r_b, r = M.encode(bundle, x)
        assert np.abs(r_b.value).max() > 0
        _, _, y_train = M.predict_heads(bundle, r_f, r_b, r)
        y_test = M.predict_test(bundle, x)
        assert not np.allclose(y_test.value, y_train.value)


    def test_runs_only_the_bias_free_encoder(self, monkeypatch):
        bundle = M.ModelBundle(tiny_config())
        x, _, _ = toy_batch()
        expected = M.predict_test(bundle, x).value.copy()

        def refuse(x):
            raise AssertionError("bias-aware backbone called")

        monkeypatch.setattr(bundle.bias_aware, "forward", refuse)
        np.testing.assert_array_equal(M.predict_test(bundle, x).value, expected)
        rep, probs = M.bias_free_forward(bundle, x)
        np.testing.assert_array_equal(probs.value, expected)
        np.testing.assert_array_equal(rep.value, bundle.bias_free.forward(x).value)


class TestEvalAllocatesNoGradients:
    @pytest.mark.parametrize("backbone", M.BACKBONE_KINDS)
    def test_no_gradient_buffer_outside_parameters(self, backbone):
        bundle = M.ModelBundle(tiny_config(backbone=backbone, dropout_rate=0.3))
        x, _, _ = toy_batch()
        probs = M.predict_test(bundle, x)
        # no graph is kept, so intermediates are freed as the pass goes
        assert not probs.requires_grad and probs.parents == ()
        for root in [probs, *M.encode(bundle, x, training=False)]:
            for node in graph_nodes(root):
                if not isinstance(node, ad.Parameter):
                    assert node.grad is None, (backbone, node)


def _joint_loss_gradients(backbone, bundle=None, helper=None):
    """One backward of the fairvae objective on labeled + unlabeled toy
    batches, with dropout on (the unlabeled side on ``helper``, if given)."""
    if bundle is None:
        bundle = M.ModelBundle(tiny_config(backbone=backbone, dropout_rate=0.2))
    rng = np.random.default_rng(3)
    lab = Samples(rng.uniform(-2, 2, (6, 6)), rng.integers(0, 2, 6),
                  rng.integers(0, 2, 6))
    unl = Samples(rng.uniform(-2, 2, (5, 6)), rng.integers(0, 2, 5))
    total, _ = O.joint_loss(lab, unl, bundle, O.ObjectiveConfig(),
                            rng.standard_normal((6, 3)),
                            rng.standard_normal((5, 3)), training=True, rng=rng,
                            helper=helper)
    ad.backward(total)
    return bundle, total


# sha256 over (name, float64 gradient bytes) of every trainable parameter,
# recorded when every node still carried a gradient buffer
GOLDEN_GRADIENT_DIGESTS = {
    "lr": "b1b9af6478be83599401975b4d35b8cc509ee78ed4389d0df0bde332df5d398a",
    "dnn": "f625a101d1f86e4bd31d597cc9ae9ad2f2f5166011fd5b8c4ac836f57e474065",
    "fm": "6bf7434232d1a4c92eed29b75e16efda293e12b0d173b02f09b6576a261f27c4",
}


def _gradient_digest(bundle):
    digest = hashlib.sha256()
    for p in bundle.trainable_parameters():
        digest.update(p.name.encode())
        digest.update(np.ascontiguousarray(p.grad, dtype="<f8").tobytes())
    return digest.hexdigest()


class TestGradientsAfterBackward:
    @pytest.mark.parametrize("backbone", M.BACKBONE_KINDS)
    def test_trainable_gradients_match_golden_digest(self, backbone):
        bundle, _ = _joint_loss_gradients(backbone)
        assert _gradient_digest(bundle) == GOLDEN_GRADIENT_DIGESTS[backbone]

    def test_constants_and_frozen_projection_hold_no_gradient(self):
        bundle, total = _joint_loss_gradients("lr")
        assert bundle.bias_free.proj.grad is None
        assert bundle.bias_aware.proj.grad is None
        consts = [n for n in graph_nodes(total) if n.op in ("const", "detach")]
        assert consts  # inputs, one-hot targets, decoder slots
        assert all(n.grad is None for n in consts)
        assert all(p.grad is not None for p in bundle.trainable_parameters())


class TestTwoCoreGradients:
    """The gradient pins again with the unlabeled side built and swept in a
    helper process, or serially in a process that may use one CPU only."""

    @staticmethod
    def _two_core_gradients(backbone, steps=1):
        """``_joint_loss_gradients`` in a training session whose optimizer
        holds the bundle: the gradient digest after each of ``steps``
        repetitions, and the last root."""
        bundle = M.ModelBundle(tiny_config(backbone=backbone, dropout_rate=0.2))
        params = bundle.trainable_parameters()
        digests = []
        with parallel.session(True, bundle=bundle) as helper:
            opt = T.Adam(params, helper=helper)
            for _ in range(steps):
                opt.zero_grad()
                _, total = _joint_loss_gradients(backbone, bundle, helper)
                digests.append(_gradient_digest(bundle))
        return digests, total

    @pytest.mark.parametrize("backbone", M.BACKBONE_KINDS)
    def test_trainable_gradients_match_golden_digest(self, backbone):
        digests, total = self._two_core_gradients(backbone)
        assert total.op == ("add_sides" if parallel.forkable() else "add")
        assert digests == [GOLDEN_GRADIENT_DIGESTS[backbone]]

    def test_pins_hold_over_repeated_split_steps(self):
        """Twenty steps of one session reuse its helper and exchange area;
        each sweep gives the pinned bits."""
        digests, _ = self._two_core_gradients("dnn", steps=20)
        assert digests == [GOLDEN_GRADIENT_DIGESTS["dnn"]] * 20


class TestTaskHeadLinearity:
    def test_logits_decompose_affinely(self):
        bundle = M.ModelBundle(tiny_config())
        x, _, _ = toy_batch()
        r_f, r_b, r = M.encode(bundle, x)
        joint = bundle.task_head.out(r).value
        parts = (bundle.task_head.out(r_f).value
                 + bundle.task_head.out(r_b).value
                 - bundle.task_head.out.bias.value)
        np.testing.assert_allclose(joint, parts, atol=1e-9)


class TestVaeForward:
    def test_zero_decoder_weights_returns_bias(self):
        bundle = M.ModelBundle(tiny_config())
        bundle.vae.decoder.weight.value[...] = 0.0
        bundle.vae.decoder.bias.value[...] = 1.5
        x, _, _ = toy_batch(n=3)
        eps = np.zeros((3, 3))
        slots = np.full((3, 2), 0.5)
        mu, sigma = bundle.vae.latent(x)
        x_hat = bundle.vae.decode(slots, slots, ad.reparameterize(mu, sigma, eps))
        np.testing.assert_array_equal(x_hat.value, np.full((3, 6), 1.5))

    def test_near_zero_sigma_removes_epsilon_dependence(self):
        bundle = M.ModelBundle(tiny_config())
        bundle.vae.sigma_layer.weight.value[...] = 0.0
        bundle.vae.sigma_layer.bias.value[...] = -50.0  # softplus(-50) ~ 2e-22
        x, _, _ = toy_batch(n=3)
        slots = np.full((3, 2), 0.5)
        rng = np.random.default_rng(0)
        mu, sigma = bundle.vae.latent(x)
        a, b = (bundle.vae.decode(slots, slots, ad.reparameterize(
            mu, sigma, rng.standard_normal((3, 3)))) for _ in range(2))
        np.testing.assert_allclose(a.value, b.value, atol=1e-12)

    def test_zhat_slot_affects_reconstruction(self):
        bundle = M.ModelBundle(tiny_config())
        x, _, _ = toy_batch(n=3)
        eps = np.zeros((3, 3))
        uniform = np.full((3, 2), 0.5)
        onehot = np.tile([1.0, 0.0], (3, 1))
        mu, sigma = bundle.vae.latent(x)
        h = ad.reparameterize(mu, sigma, eps)
        a = bundle.vae.decode(uniform, uniform, h)
        b = bundle.vae.decode(uniform, onehot, h)
        assert np.abs(a.value - b.value).max() > 1e-8


class TestAdversarialWiring:
    def test_discriminator_learns_encoder_unlearns(self):
        baseline, after_disc, after_enc = adversarial_wiring_outcome()
        assert after_disc < baseline   # discriminator step reduces its loss
        assert after_enc >= baseline   # encoder step (reversed) does not


class TestSerialization:
    def test_roundtrip_bit_identical_forward(self, tmp_path):
        bundle = M.ModelBundle(tiny_config(backbone="fm", seed=7))
        x, _, _ = toy_batch()
        before = M.predict_test(bundle, x).value.copy()
        path = tmp_path / "model.ckpt"
        M.save_bundle(bundle, path, config_hash="abc123")
        loaded, header = M.load_bundle(path)
        after = M.predict_test(loaded, x).value
        assert np.array_equal(before, after)
        assert header["config_hash"] == "abc123" and header["seed"] == 7

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="checkpoint"):
            M.load_bundle(path)

    @pytest.fixture
    def tiny_checkpoint(self, tmp_path):
        bundle = M.ModelBundle(tiny_config(
            input_dim=2, hidden_dim=2, backbone="lr", method="plain"))
        path = tmp_path / "tiny.ckpt"
        M.save_bundle(bundle, path)
        return path, path.read_bytes()

    def test_truncation_at_every_byte_rejected(self, tiny_checkpoint):
        path, blob = tiny_checkpoint
        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                M.load_bundle(path)
        path.write_bytes(blob[:-3])
        with pytest.raises(ValueError, match=r"parameter task_head\.out\.weight "
                           r"needs 32 bytes, the file holds 29"):
            M.load_bundle(path)

    def test_every_load_failure_is_a_checkpoint_error(self, tiny_checkpoint):
        path, blob = tiny_checkpoint
        for damaged in (b"not a checkpoint", blob[:-3], blob + b"\x00",
                        blob[:12] + b"x" + blob[13:]):
            path.write_bytes(damaged)
            with pytest.raises(M.CheckpointError, match=re.escape(str(path))):
                M.load_bundle(path)

    def test_trailing_byte_rejected(self, tiny_checkpoint):
        path, blob = tiny_checkpoint
        path.write_bytes(blob + b"\x00")
        with pytest.raises(ValueError, match=rf"1 bytes follow the last parameter "
                           rf"task_head\.out\.weight; the header accounts for "
                           rf"{len(blob)} bytes, the file holds {len(blob) + 1}"):
            M.load_bundle(path)
        path.write_bytes(blob)
        M.load_bundle(path)

    @pytest.mark.parametrize("offset", [9, 12, 20, 50])
    def test_damaged_header_byte_rejected(self, tiny_checkpoint, offset):
        path, blob = tiny_checkpoint
        for byte in (b"x", b"\xff"):
            path.write_bytes(blob[:offset] + byte + blob[offset + 1:])
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: the checkpoint header is damaged")):
                M.load_bundle(path)

    @staticmethod
    def _rewrite_header(tiny_checkpoint, edit):
        """Rewrite the checkpoint with ``edit`` applied to its header dict."""
        path, blob = tiny_checkpoint
        start = len(M.CHECKPOINT_MAGIC) + 4
        (hlen,) = struct.unpack("<I", blob[len(M.CHECKPOINT_MAGIC):start])
        header = json.loads(blob[start:start + hlen])
        edit(header)
        head = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(M.CHECKPOINT_MAGIC + struct.pack("<I", len(head))
                         + head + blob[start + hlen:])
        return path

    def test_header_without_config_rejected(self, tiny_checkpoint):
        path = self._rewrite_header(tiny_checkpoint,
                                    lambda header: header.pop("config"))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: the checkpoint header is damaged: KeyError")):
            M.load_bundle(path)

    @pytest.mark.parametrize("key,value", [("task_classes", 2),
                                           ("with_vae", True)])
    def test_header_with_removed_key_rejected(self, tiny_checkpoint, key, value):
        """A checkpoint whose config still carries a key of the part flags or
        class counts, which a method name replaced, names the file and key
        and asks for a retrain."""
        path = self._rewrite_header(
            tiny_checkpoint, lambda header: header["config"].update({key: value}))
        with pytest.raises(M.CheckpointError, match=re.escape(
                f"{path}: the checkpoint header is damaged, or the file was "
                "written by another version of fairvae (unknown config keys "
                f"['{key}'], missing config keys []); retrain the model with "
                "this version")):
            M.load_bundle(path)

    def test_header_with_missing_key_rejected(self, tiny_checkpoint):
        """A checkpoint written before a config field existed names the file
        and the missing key."""
        path = self._rewrite_header(
            tiny_checkpoint, lambda header: header["config"].pop("method"))
        with pytest.raises(M.CheckpointError, match=re.escape(
                f"{path}: the checkpoint header is damaged, or the file was "
                "written by another version of fairvae (unknown config keys "
                "[], missing config keys ['method']); retrain the model with "
                "this version")):
            M.load_bundle(path)

    def test_flipped_parameter_bit_rejected(self, tiny_checkpoint):
        """One bit flipped in the last parameter byte leaves the file's
        layout intact; only the payload checksum sees it."""
        path, blob = tiny_checkpoint
        path.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0x01]))
        with pytest.raises(M.CheckpointError, match=re.escape(
                f"{path}: the parameter bytes do not match the header's "
                "payload_sha256; the file is damaged; retrain the model")):
            M.load_bundle(path)

    def test_header_without_checksum_rejected(self, tiny_checkpoint):
        path = self._rewrite_header(tiny_checkpoint,
                                    lambda header: header.pop("payload_sha256"))
        with pytest.raises(M.CheckpointError, match=re.escape(
                f"{path}: the checkpoint header holds no payload_sha256")) as err:
            M.load_bundle(path)
        assert "retrain the model with this version" in str(err.value)


class TestLadderParts:
    @pytest.mark.parametrize("method,parts", [
        ("plain", set()), ("adv", {"disc_head"}),
        ("dadv", {"disc_head", "bias_aware", "attr_head"}),
        ("fairvae", {"disc_head", "bias_aware", "attr_head", "vae"})])
    def test_method_builds_its_parts(self, method, parts):
        bundle = M.ModelBundle(tiny_config(method=method))
        present = {name for name in ("disc_head", "bias_aware", "attr_head", "vae")
                   if getattr(bundle, name) is not None}
        assert present == parts

    @pytest.mark.parametrize("method", ["adv_st", "vae", ""])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ConfigError, match=re.escape(
                f"unknown method {method!r}; expected one of {M.LADDER}")):
            tiny_config(method=method)


class TestInitialization:
    def test_shared_components_init_identically_across_variants(self):
        full = M.ModelBundle(tiny_config(seed=5))
        slim = M.ModelBundle(tiny_config(seed=5, method="adv"))
        full_state = full.state_arrays()
        for p in slim.parameters():
            np.testing.assert_array_equal(p.value, full_state[p.name])

    def test_unique_parameter_names(self):
        bundle = M.ModelBundle(tiny_config())
        names = [p.name for p in bundle.parameters()]
        assert len(names) == len(set(names))


@pytest.fixture(scope="module")
def checkpoint_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt_roundtrip") / "model.ckpt"


@settings(max_examples=60, deadline=None)
@given(cfg=st.builds(
           M.BundleConfig, input_dim=st.integers(1, 5),
           backbone=st.sampled_from(M.BACKBONE_KINDS),
           hidden_dim=st.integers(1, 5), fm_factors=st.integers(1, 3),
           latent_dim=st.integers(1, 3), grl_lambda=st.floats(0.0, 5.0),
           dropout_rate=st.floats(0.0, 0.9),
           method=st.sampled_from(M.LADDER), seed=st.integers(0, 2**32 - 1)),
       rows=st.integers(1, 4))
def test_checkpoint_round_trip(checkpoint_path, cfg, rows):
    """save_bundle then load_bundle gives back the config, every parameter
    bit for bit and the same deployment forward."""
    bundle = M.ModelBundle(cfg)
    rng = np.random.default_rng(cfg.seed)
    for p in bundle.parameters():  # non-zero biases too
        p.value[...] = rng.standard_normal(p.value.shape)
    x = rng.standard_normal((rows, cfg.input_dim))
    M.save_bundle(bundle, checkpoint_path, config_hash="abc")
    loaded, header = M.load_bundle(checkpoint_path)
    assert loaded.cfg == cfg and header["config"] == asdict(cfg)
    before, after = bundle.state_arrays(), loaded.state_arrays()
    assert list(before) == list(after)
    for name in before:
        assert before[name].tobytes() == after[name].tobytes(), name
    for a, b in zip(M.bias_free_forward(bundle, x),
                    M.bias_free_forward(loaded, x)):
        assert a.value.tobytes() == b.value.tobytes()
