import math

import numpy as np
import pytest

from fairvae import autodiff as ad
from fairvae import models as M
from fairvae import objectives as O
from fairvae.data import Samples
import oracles
from toys import tiny_config, toy_batch


def scalar(node):
    return float(node.value)


def expected_total(br):
    """The minimized total rebuilt from a breakdown's raw terms: both
    entropies subtracted."""
    return (br.attr_pred + br.adversarial + br.orthogonality + br.task
            + br.reconstruction + br.kl + br.log_prior
            - br.entropy_attr - br.entropy_adv)


class TestCrossEntropyTerms:
    def test_hand_values(self):
        ce = O.cross_entropy
        assert scalar(ce(np.array([[1.0, 0.0]]), ad.Node([[1.0, 0.0]]))) == 0.0
        assert scalar(ce(np.array([[1.0, 0.0]]), ad.Node([[0.5, 0.5]]))) \
            == pytest.approx(math.log(2), abs=1e-12)
        assert scalar(ce(np.array([[0.0, 1.0]]), ad.Node([[0.25, 0.75]]))) \
            == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_lambda_zero_blocks_encoder_gradient(self):
        x, _, z = toy_batch()
        bundle = M.ModelBundle(tiny_config(grl_lambda=0.0, method="dadv"))
        r_f, r_b, r = M.encode(bundle, x)
        _, z_tilde, _ = M.predict_heads(bundle, r_f, r_b, r)
        ad.backward(O.cross_entropy(O.one_hot(z, 2), z_tilde))
        for p in bundle.parameters():
            if p.name.startswith("bias_free"):
                assert np.all(p.grad == 0.0), p.name


class TestOrthogonalityLoss:
    def test_orthogonal_rows(self):
        out = O.orthogonality_loss(ad.Node([[1.0, 0.0]]), ad.Node([[0.0, 1.0]]))
        assert scalar(out) == 0.0

    def test_parallel_rows(self):
        out = O.orthogonality_loss(ad.Node([[1.0, 1.0]]), ad.Node([[2.0, 2.0]]))
        assert scalar(out) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        out = O.orthogonality_loss(ad.Node([[1.0, 0.0]]), ad.Node([[1.0, 1.0]]))
        assert scalar(out) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_row_counts_diagnostic(self):
        out = O.orthogonality_loss(ad.Node([[0.0, 0.0], [1.0, 0.0]]),
                                   ad.Node([[1.0, 1.0], [1.0, 0.0]]))
        assert scalar(out) == pytest.approx(0.5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(-2, 2, (6, 5))
        b = rng.uniform(-2, 2, (6, 5))
        base = scalar(O.orthogonality_loss(ad.Node(a), ad.Node(b)))
        for fa, fb in [(3.0, 0.5), (0.01, 7.0)]:
            scaled = scalar(O.orthogonality_loss(ad.Node(fa * a), ad.Node(fb * b)))
            assert scaled == pytest.approx(base, rel=1e-12)


class TestReconstructionLoss:
    def test_perfect(self):
        x = np.array([[1.0, 2.0]])
        assert scalar(O.reconstruction_loss(x, ad.Node(x))) == 0.0

    def test_unit_offset(self):
        out = O.reconstruction_loss(np.array([[0.0, 0.0]]),
                                    ad.Node([[1.0, 1.0]]))
        assert scalar(out) == pytest.approx(1.0)

    def test_single_coordinate(self):
        out = O.reconstruction_loss(np.array([[1.0, 2.0, 3.0]]),
                                    ad.Node([[1.0, 2.0, 4.0]]))
        assert scalar(out) == pytest.approx(1 / 3)

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            O.reconstruction_loss(np.zeros((1, 3)), ad.Node(np.zeros((1, 2))))


class TestKl:
    def test_standard_normal_is_zero(self):
        out = O.kl_to_standard_normal(ad.Node([[0.0]]), ad.Node([[1.0]]))
        assert scalar(out) == pytest.approx(0.0, abs=1e-15)

    def test_unit_mean(self):
        out = O.kl_to_standard_normal(ad.Node([[1.0]]), ad.Node([[1.0]]))
        assert scalar(out) == pytest.approx(0.5)

    def test_wide_sigma(self):
        out = O.kl_to_standard_normal(ad.Node([[0.0]]), ad.Node([[2.0]]))
        assert scalar(out) == pytest.approx(0.5 * (4 - math.log(4) - 1), abs=1e-12)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            O.kl_to_standard_normal(ad.Node([[0.0]]), ad.Node([[0.0]]))


class TestEntropy:
    def test_uniform_maximum(self):
        assert scalar(O.entropy(ad.Node([[0.5, 0.5]]))) \
            == pytest.approx(math.log(2), abs=1e-12)

    def test_point_mass(self):
        assert scalar(O.entropy(ad.Node([[1.0, 0.0]]))) == 0.0

    def test_hand_value(self):
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert scalar(O.entropy(ad.Node([[0.25, 0.75]]))) \
            == pytest.approx(expected, abs=1e-12)


class TestTermsAgainstOracles:
    """Every term matches its straight-line numpy oracle on random batches."""

    def test_random_batches(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            t = oracles.one_hot_np(rng.integers(0, 2, n), 2)
            p = oracles.softmax_np(rng.uniform(-4, 4, (n, 2)))
            assert scalar(O.cross_entropy(t, ad.Node(p))) \
                == pytest.approx(oracles.ce_mean(t, p), abs=1e-10)
            a = rng.uniform(-2, 2, (n, 5))
            b = rng.uniform(-2, 2, (n, 5))
            assert scalar(O.orthogonality_loss(ad.Node(a), ad.Node(b))) \
                == pytest.approx(oracles.orth_mean(a, b), abs=1e-10)
            x = rng.uniform(-2, 2, (n, 4))
            xh = rng.uniform(-2, 2, (n, 4))
            assert scalar(O.reconstruction_loss(x, ad.Node(xh))) \
                == pytest.approx(oracles.recon_mean(x, xh), abs=1e-10)
            mu = rng.uniform(-2, 2, (n, 3))
            sg = rng.uniform(0.1, 2, (n, 3))
            assert scalar(O.kl_to_standard_normal(ad.Node(mu), ad.Node(sg))) \
                == pytest.approx(oracles.kl_mean(mu, sg), abs=1e-10)
            assert scalar(O.entropy(ad.Node(p))) \
                == pytest.approx(oracles.entropy_mean(p), abs=1e-10)


@pytest.fixture
def setup():
    bundle = M.ModelBundle(tiny_config(seed=3))
    config = O.ObjectiveConfig()
    xl, yl, zl = toy_batch(n=6, seed=1)
    xu, yu, _ = toy_batch(n=5, seed=2)
    rng = np.random.default_rng(8)
    eps_l = rng.standard_normal((6, 3))
    eps_u = rng.standard_normal((5, 3))
    lab = Samples(xl, yl, zl)
    unl = Samples(xu, yu)
    return bundle, config, lab, unl, eps_l, eps_u


class TestElboTerm:
    def test_compositional(self, setup):
        bundle, _, lab, _, eps_l, _ = setup
        n = len(lab)
        z_slot = O.one_hot(lab.z, 2)
        zt_slot = np.full((n, 2), 0.5)
        whole = scalar(oracles.elbo_term(lab.x, z_slot, zt_slot, bundle, eps_l))
        mu, sigma = bundle.vae.latent(lab.x)
        x_hat = bundle.vae.decode(zt_slot, z_slot,
                                  ad.reparameterize(mu, sigma, eps_l))
        parts = (scalar(O.reconstruction_loss(lab.x, x_hat))
                 + scalar(O.kl_to_standard_normal(mu, sigma)) + O.LOG2)
        assert whole == pytest.approx(parts, abs=1e-12)

    def test_invariant_to_slots_when_decoder_ignores_them(self, setup):
        bundle, _, lab, _, eps_l, _ = setup
        bundle.vae.decoder.weight.value[:4, :] = 0.0  # zero both slot blocks
        n = len(lab)
        zt = np.full((n, 2), 0.5)
        a = scalar(oracles.elbo_term(lab.x, O.one_hot(lab.z, 2), zt, bundle,
                                     eps_l))
        b = scalar(oracles.elbo_term(lab.x, O.one_hot(1 - lab.z, 2), zt, bundle,
                                     eps_l))
        assert a == pytest.approx(b, abs=1e-15)

    def test_uniform_prior_is_constant_with_zero_gradient(self, setup):
        bundle, _, lab, _, eps_l, _ = setup
        n = len(lab)
        zt = np.full((n, 2), 0.5)
        node = oracles.elbo_term(lab.x, O.one_hot(lab.z, 2), zt, bundle, eps_l)
        mu, sigma = bundle.vae.latent(lab.x)
        x_hat = bundle.vae.decode(zt, O.one_hot(lab.z, 2),
                                  ad.reparameterize(mu, sigma, eps_l))
        without_prior = (scalar(O.reconstruction_loss(lab.x, x_hat))
                         + scalar(O.kl_to_standard_normal(mu, sigma)))
        assert scalar(node) - without_prior == pytest.approx(O.LOG2, abs=1e-12)
        # the prior is a constant leaf: nothing upstream of it gets gradient
        prior_leaf = node.parents[1]
        assert prior_leaf.op == "leaf" and prior_leaf.parents == ()


class TestLabeledLoss:
    def test_uniform_heads_give_log2_terms(self, setup):
        bundle, config, lab, _, eps_l, _ = setup
        for p in bundle.parameters():
            if p.name.split(".")[0] in ("attr_head", "disc_head", "task_head"):
                p.value[...] = 0.0
        total, br = O.labeled_loss(lab, bundle, config, eps_l)
        assert br.attr_pred == pytest.approx(math.log(2), abs=1e-12)
        assert br.adversarial == pytest.approx(math.log(2), abs=1e-12)
        assert br.task == pytest.approx(math.log(2), abs=1e-12)
        assert br.total == pytest.approx(expected_total(br), abs=1e-10)

    def test_matches_reference_forward(self, setup):
        bundle, config, lab, _, eps_l, _ = setup
        total, br = O.labeled_loss(lab, bundle, config, eps_l)
        state = bundle.state_arrays()
        ref = oracles.reference_losses(
            state, (lab.x, lab.y, lab.z), (lab.x, lab.y), eps_l, eps_l)
        assert br.attr_pred == pytest.approx(ref["attr"], abs=1e-10)
        assert br.adversarial == pytest.approx(ref["adv_lab"], abs=1e-10)
        assert br.orthogonality == pytest.approx(ref["orth_lab"], abs=1e-10)
        assert br.task == pytest.approx(ref["task_lab"], abs=1e-10)
        assert br.reconstruction == pytest.approx(ref["recon_lab"], abs=1e-10)
        assert br.kl == pytest.approx(ref["kl_lab"], abs=1e-10)

    def test_ablation_switch_changes_only_reconstruction(self, setup):
        bundle, config, lab, _, eps_l, _ = setup
        _, base = O.labeled_loss(lab, bundle, config, eps_l)
        off = O.ObjectiveConfig(use_ztilde_in_decoder=False)
        _, ablated = O.labeled_loss(lab, bundle, off, eps_l)
        assert ablated.reconstruction != base.reconstruction
        for field in ("attr_pred", "adversarial", "orthogonality", "task", "kl"):
            assert getattr(ablated, field) == getattr(base, field)

    def test_duplicate_row_leaves_mean_unchanged(self, setup):
        bundle, config, lab, _, eps_l, _ = setup
        _, base = O.labeled_loss(lab, bundle, config, eps_l)
        dup = Samples(np.concatenate([lab.x, lab.x]),
                      np.concatenate([lab.y, lab.y]),
                      np.concatenate([lab.z, lab.z]))
        _, doubled = O.labeled_loss(dup, bundle, config,
                                    np.concatenate([eps_l, eps_l]))
        assert doubled.total == pytest.approx(base.total, rel=1e-12)

    def test_missing_attributes_rejected(self, setup):
        bundle, config, _, unl, _, eps_u = setup
        with pytest.raises(ValueError, match="observed"):
            O.labeled_loss(unl, bundle, config, eps_u)


class TestUnlabeledLoss:
    def test_confident_weights_collapse_to_single_branch(self, setup):
        bundle, config, _, unl, _, eps_u = setup
        bundle.attr_head.out.weight.value[...] = 0.0
        bundle.attr_head.out.bias.value[...] = np.array([40.0, 0.0])
        total, br = O.unlabeled_loss(unl, bundle, config, eps_u)
        # with z_hat ~ [1, 0] the marginal equals the class-0 branch alone
        r_f, _, _ = M.encode(bundle, unl.x)
        z_tilde = bundle.disc_head(ad.gradient_reversal(r_f, bundle.cfg.grl_lambda))
        branch0 = oracles.elbo_term(unl.x,
                                    O.one_hot(np.zeros(len(unl), int), 2),
                                    z_tilde.detach(), bundle, eps_u)
        marginal = br.reconstruction + br.kl + br.log_prior
        assert marginal == pytest.approx(scalar(branch0), abs=1e-12)

    def test_uniform_weights_average_both_branches(self, setup):
        bundle, config, _, unl, _, eps_u = setup
        bundle.attr_head.out.weight.value[...] = 0.0
        bundle.attr_head.out.bias.value[...] = 0.0
        _, br = O.unlabeled_loss(unl, bundle, config, eps_u)
        r_f, _, _ = M.encode(bundle, unl.x)
        zt = bundle.disc_head(ad.gradient_reversal(r_f, bundle.cfg.grl_lambda))
        branches = [
            scalar(oracles.elbo_term(unl.x,
                                     O.one_hot(np.full(len(unl), c, int), 2),
                                     zt.detach(), bundle, eps_u))
            for c in (0, 1)
        ]
        marginal = br.reconstruction + br.kl + br.log_prior
        assert marginal == pytest.approx(0.5 * branches[0] + 0.5 * branches[1],
                                         abs=1e-12)

    def test_matches_two_branch_weighted_sum(self, setup):
        """Marginalization equals the explicit per-class weighted sum."""
        bundle, config, _, unl, _, eps_u = setup
        total, br = O.unlabeled_loss(unl, bundle, config, eps_u)
        state = bundle.state_arrays()
        ref = oracles.reference_losses(
            state, (unl.x, unl.y, np.zeros(len(unl), int)), (unl.x, unl.y),
            eps_u, eps_u)
        expected = (ref["orth_unl"] + ref["task_unl"] + ref["recon_unl"]
                    + ref["kl_unl"] + ref["prior_unl"]
                    - ref["ent_attr"] - ref["ent_adv"])
        assert br.total == pytest.approx(expected, abs=1e-12)

    def test_entropy_terms_enter_negatively(self, setup):
        bundle, config, _, unl, _, eps_u = setup
        _, br = O.unlabeled_loss(unl, bundle, config, eps_u)
        rest = (br.orthogonality + br.task + br.reconstruction + br.kl
                + br.log_prior)
        assert br.total == pytest.approx(rest - br.entropy_attr - br.entropy_adv,
                                         abs=1e-10)
        assert br.entropy_attr > 0 and br.entropy_adv > 0

    def test_entropy_switch_pins_term_to_zero(self, setup):
        bundle, _, _, unl, _, eps_u = setup
        cfg = O.ObjectiveConfig(use_entropy_zhat=False)
        _, br = O.unlabeled_loss(unl, bundle, cfg, eps_u)
        assert br.entropy_attr == 0.0
        assert br.total == pytest.approx(expected_total(br), abs=1e-10)

    def test_observed_attributes_rejected(self, setup):
        bundle, config, lab, _, eps_l, _ = setup
        with pytest.raises(ValueError, match="observed"):
            O.unlabeled_loss(lab, bundle, config, eps_l)


class TestJointLoss:
    def test_empty_unlabeled_equals_labeled(self, setup):
        bundle, config, lab, _, eps_l, _ = setup
        empty = Samples(np.zeros((0, 6)), np.zeros(0, int))
        jt, jb = O.joint_loss(lab, empty, bundle, config, eps_l, None)
        lt, lb = O.labeled_loss(lab, bundle, config, eps_l)
        assert scalar(jt) == scalar(lt) and jb.total == lb.total

    def test_empty_labeled_equals_unlabeled(self, setup):
        bundle, config, _, unl, _, eps_u = setup
        empty = Samples(np.zeros((0, 6)), np.zeros(0, int), np.zeros(0, int))
        jt, jb = O.joint_loss(empty, unl, bundle, config, None, eps_u)
        ut, ub = O.unlabeled_loss(unl, bundle, config, eps_u)
        assert scalar(jt) == scalar(ut) and jb.total == ub.total

    def test_both_present_sums_parts(self, setup):
        bundle, config, lab, unl, eps_l, eps_u = setup
        jt, jb = O.joint_loss(lab, unl, bundle, config, eps_l, eps_u)
        lt, _ = O.labeled_loss(lab, bundle, config, eps_l)
        ut, _ = O.unlabeled_loss(unl, bundle, config, eps_u)
        assert scalar(jt) == pytest.approx(scalar(lt) + scalar(ut), abs=1e-12)

    def test_both_empty_rejected(self, setup):
        bundle, config, _, _, _, _ = setup
        empty_l = Samples(np.zeros((0, 6)), np.zeros(0, int), np.zeros(0, int))
        empty_u = Samples(np.zeros((0, 6)), np.zeros(0, int))
        with pytest.raises(ValueError, match="non-empty"):
            O.joint_loss(empty_l, empty_u, bundle, config, None, None)


class TestJointGradientsAgainstFiniteDifferences:
    def test_joint_gradients_match_fd(self):
        """Analytic gradients of the joint loss match central differences.

        The reversal layer reports -lambda times the adversarial-path
        derivative for encoder parameters, and the detached discriminator
        slot contributes no gradient, so the finite-difference target is
        std + s * adv with the slot pinned (s = -lambda below the reversal).
        """
        oracles.joint_loss_fd_check(rtol=1e-4, atol=1e-7)
