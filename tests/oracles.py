"""Straight-line numpy oracles, independent of the autodiff graph.

Each loss term is re-derived here directly from arrays. ``reference_losses``
re-implements the full forward pass of a dnn-backbone bundle and returns the
minimized total split into the standard part and the adversarial-path part
(the terms whose encoder gradient passes the reversal layer), with the
detached discriminator slot pinned to caller-supplied values. That split is
what lets finite differences reproduce the gradients the graph claims.

Some references are graph-built. ``elbo_term`` is the single-branch ELBO
for given decoder slots, which the marginalized unlabeled loss must
reproduce as a probability-weighted sum of branches. The ``chain_*``
functions build the cross-entropy, reconstruction and KL terms from
autodiff primitives, one node per operation; each of those terms in
``objectives`` is one op whose value and input gradients must have these
chains' bytes.

``reference_stats`` and ``reference_encode`` re-derive the Adult feature
encoding one row and one cell at a time, for comparison with the
column-wise ``data.preprocess``. ``reference_export`` writes the embeddings
CSV one value at a time, for comparison with the block-wise export.
"""

import numpy as np

CLIP = 1e-12
LOG2 = float(np.log(2.0))


def softmax_np(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def ce_mean(target, probs):
    return float(np.mean(-np.sum(target * np.log(np.clip(probs, CLIP, 1.0)),
                                 axis=1)))


def orth_mean(a, b):
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    ok = (na > 0) & (nb > 0)
    cos = np.where(ok, np.abs((a * b).sum(axis=1))
                   / np.where(ok, na * nb, 1.0), 0.0)
    return float(cos.mean())


def recon_mean(x, x_hat):
    return float(np.mean(((x_hat - x) ** 2).mean(axis=1)))


def recon_rows(x, x_hat):
    return ((x_hat - x) ** 2).mean(axis=1)


def kl_mean(mu, sigma):
    return float(kl_rows(mu, sigma).mean())


def kl_rows(mu, sigma):
    s2 = sigma ** 2
    return 0.5 * np.sum(mu ** 2 + s2 - np.log(np.clip(s2, CLIP, None)) - 1.0,
                        axis=1)


def entropy_mean(p):
    return float(entropy_rows(p).mean())


def entropy_rows(p):
    return -np.sum(p * np.log(np.clip(p, CLIP, 1.0)), axis=1)


def one_hot_np(labels, k):
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), np.asarray(labels, dtype=int)] = 1.0
    return out


def _dnn(state, prefix, x):
    h = np.maximum(x @ state[f"{prefix}.layer1.weight"]
                   + state[f"{prefix}.layer1.bias"], 0.0)
    return np.maximum(h @ state[f"{prefix}.layer2.weight"]
                      + state[f"{prefix}.layer2.bias"], 0.0)


def _head(state, prefix, r):
    return softmax_np(r @ state[f"{prefix}.out.weight"]
                      + state[f"{prefix}.out.bias"])


def _vae_latent(state, x):
    mu = np.tanh(x @ state["vae.mu.weight"] + state["vae.mu.bias"])
    sigma = np.logaddexp(0.0, x @ state["vae.sigma.weight"]
                         + state["vae.sigma.bias"])
    return mu, sigma


def _decode(state, zt, zh, h):
    c = np.concatenate([zt, zh, h], axis=1)
    return c @ state["vae.decoder.weight"] + state["vae.decoder.bias"]


def reference_losses(state, lab, unl, eps_lab, eps_unl, *, k=2,
                     use_zhat=True, use_ztilde=True, use_ent_zhat=True,
                     use_ent_ztilde=True, zt_pin_unl=None):
    """Straight-line forward of the dnn-backbone joint objective.

    Returns a dict with every term plus ``std`` (all terms whose gradients
    use standard semantics) and ``adv`` (the adversarial cross-entropy minus
    the discriminator entropy: the terms whose encoder gradient is reversed).
    ``zt_pin_unl`` freezes the detached decoder slot at the given values.
    """
    xl, yl, zl = lab
    xu, yu = unl
    out = {}

    def forward(x):
        r_f = _dnn(state, "bias_free", x)
        r_b = _dnn(state, "bias_aware", x)
        r = r_f + r_b
        return r_f, r_b, r

    # labeled side
    r_f, r_b, r = forward(xl)
    z_hat = _head(state, "attr_head", r_b)
    z_tilde = _head(state, "disc_head", r_f)
    y_hat = _head(state, "task_head", r)
    z1 = one_hot_np(zl, k)
    out["attr"] = ce_mean(z1, z_hat)
    out["adv_lab"] = ce_mean(z1, z_tilde)
    out["orth_lab"] = orth_mean(r_f, r_b)
    out["task_lab"] = ce_mean(one_hot_np(yl, 2), y_hat)
    mu, sigma = _vae_latent(state, xl)
    h = eps_lab * sigma + mu
    z_slot = z1 if use_zhat else np.zeros_like(z1)
    zt_slot = np.full((len(xl), k), 1.0 / k) if use_ztilde \
        else np.zeros((len(xl), k))
    out["recon_lab"] = recon_mean(xl, _decode(state, zt_slot, z_slot, h))
    out["kl_lab"] = kl_mean(mu, sigma)
    out["prior_lab"] = LOG2

    # unlabeled side
    r_fu, r_bu, ru = forward(xu)
    z_hat_u = _head(state, "attr_head", r_bu)
    z_tilde_u = _head(state, "disc_head", r_fu)
    y_hat_u = _head(state, "task_head", ru)
    out["orth_unl"] = orth_mean(r_fu, r_bu)
    out["task_unl"] = ce_mean(one_hot_np(yu, 2), y_hat_u)
    mu_u, sigma_u = _vae_latent(state, xu)
    h_u = eps_unl * sigma_u + mu_u
    klr = kl_rows(mu_u, sigma_u)
    if zt_pin_unl is not None:
        zt_u = zt_pin_unl
    else:
        zt_u = z_tilde_u if use_ztilde else np.zeros((len(xu), k))
    recon_m = np.zeros(len(xu))
    kl_m = np.zeros(len(xu))
    prior_m = np.zeros(len(xu))
    for c in range(k):
        w = z_hat_u[:, c]
        slot = one_hot_np(np.full(len(xu), c), k) if use_zhat \
            else np.zeros((len(xu), k))
        recon_m += w * recon_rows(xu, _decode(state, zt_u, slot, h_u))
        kl_m += w * klr
        prior_m += w * LOG2
    out["recon_unl"] = float(recon_m.mean())
    out["kl_unl"] = float(kl_m.mean())
    out["prior_unl"] = float(prior_m.mean())
    out["ent_attr"] = entropy_mean(z_hat_u) if use_ent_zhat else 0.0
    out["ent_adv"] = entropy_mean(z_tilde_u) if use_ent_ztilde else 0.0

    out["std"] = (out["attr"] + out["orth_lab"] + out["task_lab"]
                  + out["recon_lab"] + out["kl_lab"] + out["prior_lab"]
                  + out["orth_unl"] + out["task_unl"] + out["recon_unl"]
                  + out["kl_unl"] + out["prior_unl"]
                  - out["ent_attr"])
    out["adv"] = out["adv_lab"] - out["ent_adv"]
    out["total"] = out["std"] + out["adv"]
    return out


def chain_cross_entropy(target, probs):
    from fairvae import autodiff as ad
    return ad.mean_all(ad.scale(
        ad.sum_rows(ad.mul(target, ad.log_clipped(probs))), -1.0))


def chain_recon_rows(x, x_hat):
    from fairvae import autodiff as ad
    d = x_hat.value.shape[1]
    return ad.scale(ad.sum_rows(ad.square(ad.sub(x_hat, x))), 1.0 / d)


def chain_kl_rows(mu, sigma):
    from fairvae import autodiff as ad
    n, k = mu.value.shape
    inner = ad.sub(
        ad.add(ad.square(mu), ad.square(sigma)),
        ad.add(ad.log_clipped(ad.square(sigma), hi=np.inf), np.ones((n, k))),
    )
    return ad.scale(ad.sum_rows(inner), 0.5)


def backward_from(root, up):
    """``autodiff.backward`` from a root of any shape, whose gradient is
    ``up`` as given (a ``-0.0`` included), without the first-touch copy."""
    from fairvae import autodiff as ad
    root.grad = up
    ad._sweep(ad._topological_order(root))


def elbo_term(x, z_slot, z_tilde_slot, bundle, epsilon):
    """Reconstruction + KL + constant uniform-prior term for the given slots."""
    from fairvae import autodiff as ad
    from fairvae import objectives as O

    mu, sigma = bundle.vae.latent(x)
    x_hat = bundle.vae.decode(z_tilde_slot, z_slot,
                              ad.reparameterize(mu, sigma, epsilon))
    return ad.add(
        ad.add(O.reconstruction_loss(x, x_hat),
               O.kl_to_standard_normal(mu, sigma)),
        ad.Node(LOG2, requires_grad=False),
    )


def joint_loss_fd_check(rtol=1e-4, atol=1e-7):
    """Compare analytic joint-loss gradients against central differences.

    The finite-difference target is std + s * adv with the detached
    discriminator slot pinned, where s = -lambda for parameters below the
    reversal layer and +1 elsewhere. Raises on mismatch.
    """
    from fairvae import autodiff as ad
    from fairvae import models as M
    from fairvae import objectives as O
    from fairvae.data import Samples

    cfg = M.BundleConfig(input_dim=6, backbone="dnn", hidden_dim=4,
                         fm_factors=3, latent_dim=3, grl_lambda=0.4,
                         dropout_rate=0.0, seed=3)
    bundle = M.ModelBundle(cfg)
    config = O.ObjectiveConfig()

    def batch_arrays(n, seed):
        rng = np.random.default_rng(seed)
        return (rng.uniform(-2, 2, (n, 6)), rng.integers(0, 2, n),
                rng.integers(0, 2, n))

    xl, yl, zl = batch_arrays(6, 1)
    xu, yu, _ = batch_arrays(5, 2)
    lab = Samples(xl, yl, zl)
    unl = Samples(xu, yu)
    rng = np.random.default_rng(8)
    eps_l = rng.standard_normal((6, 3))
    eps_u = rng.standard_normal((5, 3))

    params = bundle.trainable_parameters()
    for p in params:
        p.grad[...] = 0.0
    total, _ = O.joint_loss(lab, unl, bundle, config, eps_l, eps_u)
    ad.backward(total)
    analytic = {p.name: p.grad.copy() for p in params}

    state = bundle.state_arrays()
    r_fu = _dnn(state, "bias_free", unl.x)
    zt_pin = _head(state, "disc_head", r_fu)
    fd = 1e-6
    for p in params:
        sign = -cfg.grl_lambda if p.name.startswith("bias_free") else 1.0
        flat = state[p.name].ravel()
        expected = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + fd
            up = reference_losses(state, (lab.x, lab.y, lab.z),
                                  (unl.x, unl.y), eps_l, eps_u,
                                  zt_pin_unl=zt_pin)
            flat[i] = orig - fd
            dn = reference_losses(state, (lab.x, lab.y, lab.z),
                                  (unl.x, unl.y), eps_l, eps_u,
                                  zt_pin_unl=zt_pin)
            flat[i] = orig
            expected[i] = ((up["std"] - dn["std"])
                           + sign * (up["adv"] - dn["adv"])) / (2 * fd)
        np.testing.assert_allclose(analytic[p.name].ravel(), expected,
                                   rtol=rtol, atol=atol, err_msg=p.name)


def reference_stats(records, schema):
    """Vocabularies, modes, means and population standard deviations of the
    observed cells, as plain dicts; a constant column gets std 1."""
    vocab, mode, mean, std = {}, {}, {}, {}
    for name, kind in schema:
        if name == "income":
            continue
        observed = [r[name] for r in records if r[name] != "?"]
        if kind == "categorical":
            vocab[name] = sorted(set(observed))
            best = max((observed.count(v) for v in vocab[name]), default=0)
            mode[name] = min((v for v in vocab[name]
                              if observed.count(v) == best), default="")
        else:
            values = np.array([float(v) for v in observed])
            mean[name] = float(values.mean()) if values.size else 0.0
            sd = float(values.std()) if values.size else 1.0
            std[name] = sd if sd > 0 else 1.0
    return vocab, mode, mean, std


def reference_encode(records, stats):
    """(x, y, z) built row by row: standardized numerics with missing cells
    at the mean, one-hot categoricals with missing cells at the mode and
    unseen values as an all-zero block, y = income is ">50K", z = sex
    (mode-imputed) is "Female"."""
    xs, ys, zs = [], [], []
    for r in records:
        row = []
        for name, kind in stats.feature_columns:
            cell = r[name]
            if kind == "numeric":
                mean = stats.num_mean[name]
                value = mean if cell == "?" else float(cell)
                row.append((value - mean) / stats.num_std[name])
            else:
                if cell == "?":
                    cell = stats.cat_mode[name]
                row.extend(1.0 if v == cell else 0.0
                           for v in stats.cat_vocab[name])
        xs.append(row)
        ys.append(1 if r["income"] == ">50K" else 0)
        sex = stats.cat_mode["sex"] if r["sex"] == "?" else r["sex"]
        zs.append(1 if sex == "Female" else 0)
    width = stats.feature_dim
    return (np.array(xs, dtype=float).reshape(len(records), width),
            np.array(ys, dtype=int), np.array(zs, dtype=int))


def reference_export(header, r_f, z, y, labels) -> bytes:
    """The embeddings CSV that ``experiments.export_embeddings`` must write,
    built one value at a time: ``repr(float(v))`` of each representation
    value and ``str`` of each attribute, label and prediction."""
    lines = [f"# config_hash={header['config_hash']} seed={header['seed']}\n",
             ",".join([f"r_{i}" for i in range(r_f.shape[1])]
                      + ["attribute", "label", "predicted"]) + "\n"]
    for row, a, b, c in zip(r_f, z, y, labels):
        lines.append(",".join([repr(float(v)) for v in row]
                              + [str(a), str(b), str(c)]) + "\n")
    return "".join(lines).encode("utf-8")
