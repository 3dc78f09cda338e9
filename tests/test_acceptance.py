"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-7 reproduce the census-income experiments and need the canonical
Adult files (32,561 / 16,281 rows) under data/adult/ or $ADULT_DATA_DIR; run
scripts/fetch_adult.py (needs network) to obtain them. Without the files
those tests are skipped with that instruction. With the files present the
full reproduction is compute-heavy (hours on one core at the default 50
epochs x 5 seeds); FAIRVAE_ACCEPT_WORKERS parallelizes the cells.

Criteria 8-14 are property-based and always run.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from fairvae import experiments as X
from fairvae import metrics as MX
from fairvae import models as M
from fairvae import objectives as O
from fairvae import autodiff as ad
from fairvae.data import Samples
from fairvae.synthetic import write_adult_like

import oracles
from gradcheck import check_grads
from test_autodiff import FD_CASES, _fd_case
from test_metrics import auc_bruteforce
from test_training import debiasing_outcome
from toys import adversarial_wiring_outcome

ADULT_DIR = Path(os.environ.get(
    "ADULT_DATA_DIR", Path(__file__).parent.parent / "data" / "adult"))
ADULT_TRAIN = ADULT_DIR / "adult.data"
ADULT_TEST = ADULT_DIR / "adult.test"

requires_adult = pytest.mark.skipif(
    not (ADULT_TRAIN.exists() and ADULT_TEST.exists()),
    reason=(f"canonical Adult dataset not found at {ADULT_DIR}; run "
            f"`python scripts/fetch_adult.py {ADULT_DIR}` (needs network) "
            f"or set ADULT_DATA_DIR"),
)

WORKERS = int(os.environ.get("FAIRVAE_ACCEPT_WORKERS", "1"))


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def adult_config(out_dir, **overrides) -> X.ExperimentConfig:
    base = dict(train_path=str(ADULT_TRAIN), test_path=str(ADULT_TEST),
                output_dir=str(out_dir), workers=WORKERS)
    base.update(overrides)
    return X.ExperimentConfig(**base)


@pytest.fixture(scope="session")
def adult_grid(tmp_path_factory):
    """Full method ladder at ratio 0.2 plus the fairvae ratio rows."""
    out = tmp_path_factory.mktemp("acceptance_grid")
    cfg = adult_config(out, label_ratios=[0.2])
    table = X.run_experiments(cfg)
    ratio_cfg = adult_config(
        tmp_path_factory.mktemp("acceptance_ratios"),
        methods=["fairvae"], label_ratios=[0.1, 0.5])
    ratio_table = X.run_experiments(ratio_cfg)
    return table, ratio_table


def grid_mean(table, backbone, method, ratio, metric):
    rows = [r for r in table.raw_rows if r["status"] == "OK"
            and (r["backbone"], r["method"], r["ratio"]) == (backbone, method, ratio)]
    assert rows, f"no OK cells for {backbone}+{method}@{ratio}"
    return float(np.mean([r[metric] for r in rows]))


@requires_adult
class TestQuantitative:
    def test_criterion_01_plain_lr(self, adult_grid):
        table, _ = adult_grid
        acc = grid_mean(table, "lr", "plain", 0.2, "accuracy")
        dp = grid_mean(table, "lr", "plain", 0.2, "dp_gap")
        opp = grid_mean(table, "lr", "plain", 0.2, "opp_gap")
        ok = (abs(acc - 0.8484) <= 0.010 and abs(dp - 0.1548) <= 0.025
              and abs(opp - 0.0815) <= 0.020)
        verdict(1, "plain LR reproduces census baselines", ok,
                f"acc={acc:.4f} dp={dp:.4f} opp={opp:.4f}")

    def test_criterion_02_plain_dnn_fm(self, adult_grid):
        table, _ = adult_grid
        dnn = grid_mean(table, "dnn", "plain", 0.2, "accuracy")
        fm = grid_mean(table, "fm", "plain", 0.2, "accuracy")
        ok = abs(dnn - 0.8441) <= 0.012 and abs(fm - 0.8508) <= 0.012
        verdict(2, "plain DNN/FM accuracy", ok, f"dnn={dnn:.4f} fm={fm:.4f}")

    def test_criterion_03_fairness_ordering(self, adult_grid):
        table, _ = adult_grid
        ok = True
        details = []
        for backbone in ("lr", "dnn", "fm"):
            for metric in ("dp_gap", "opp_gap"):
                gaps = {m: grid_mean(table, backbone, m, 0.2, metric)
                        for m in ("plain", "adv", "adv_st", "dadv",
                                  "dadv_st", "fairvae")}
                ordered = (gaps["fairvae"] < gaps["dadv_st"] < gaps["dadv"]
                           < gaps["plain"] and gaps["fairvae"] < gaps["adv"])
                ok = ok and ordered
                details.append(f"{backbone}/{metric}:{'ok' if ordered else 'BAD'}")
        verdict(3, "fairness ordering across the method ladder", ok,
                " ".join(details))

    def test_criterion_04_ratio_trend(self, adult_grid):
        _, ratio_table = adult_grid
        ok = True
        details = []
        for backbone in ("lr", "dnn", "fm"):
            lo = grid_mean(ratio_table, backbone, "fairvae", 0.1, "dp_gap")
            hi = grid_mean(ratio_table, backbone, "fairvae", 0.5, "dp_gap")
            ok = ok and hi <= lo
            details.append(f"{backbone}: dp@0.5={hi:.4f} <= dp@0.1={lo:.4f}")
        verdict(4, "more attribute labels do not hurt fairness", ok,
                "; ".join(details))

    def test_criterion_05_accuracy_cost(self, adult_grid):
        table, _ = adult_grid
        ok = True
        details = []
        for backbone in ("lr", "dnn", "fm"):
            plain = grid_mean(table, backbone, "plain", 0.2, "accuracy")
            fair = grid_mean(table, backbone, "fairvae", 0.2, "accuracy")
            ok = ok and plain - fair <= 0.02
            details.append(f"{backbone}: {plain - fair:+.4f}")
        verdict(5, "fairness costs at most 2 accuracy points", ok,
                " ".join(details))

    def test_criterion_06_lambda_sweep_shape(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("acceptance_lambda")
        cfg = adult_config(out, lambda_grid=[0.0, 0.1, 0.4, 1.0, 4.0])
        table = X.run_sweep(cfg, "lambda")
        dp = {row["grl_lambda"]: row["dp_gap"] for row in table.aggregated}
        grid = sorted(dp)
        best = min(grid, key=lambda g: dp[g])
        interior = best not in (grid[0], grid[-1])
        ok = interior and dp[best] < dp[grid[0]] and dp[best] < dp[grid[-1]]
        verdict(6, "fairness is non-monotone in the adversarial strength", ok,
                " ".join(f"dp({g})={dp[g]:.4f}" for g in grid))

    def test_criterion_07_ablation_directions(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("acceptance_ablation")
        cfg = adult_config(out)
        table = X.run_ablation(cfg)
        dp = {row["variant"]: row["dp_gap"] for row in table.aggregated}
        removed = [v for v in X.ABLATION_VARIANTS if v != "full"]
        ok = all(dp[v] > dp["full"] for v in removed)
        verdict(7, "removing any component worsens fairness", ok,
                " ".join(f"{v}={dp[v]:.4f}" for v in dp))


class TestProperties:
    def test_criterion_08_finite_difference_suite(self):
        for name in sorted(FD_CASES):
            shapes, builder = FD_CASES[name]
            params, build_with = _fd_case(name, builder, shapes)
            check_grads(lambda: build_with(params), params,
                        rtol=1e-5, atol=1e-7)
        oracles.joint_loss_fd_check(rtol=1e-4, atol=1e-7)
        verdict(8, "gradients match central finite differences", True,
                f"{len(FD_CASES)} ops + joint loss")

    def test_criterion_09_loss_term_oracles(self):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            t = oracles.one_hot_np(rng.integers(0, 2, n), 2)
            p = oracles.softmax_np(rng.uniform(-4, 4, (n, 2)))
            a = rng.uniform(-2, 2, (n, 5))
            b = rng.uniform(-2, 2, (n, 5))
            x = rng.uniform(-2, 2, (n, 4))
            xh = rng.uniform(-2, 2, (n, 4))
            mu = rng.uniform(-2, 2, (n, 3))
            sg = rng.uniform(0.1, 2, (n, 3))
            pairs = [
                (O.cross_entropy(t, ad.Node(p)), oracles.ce_mean(t, p)),
                (O.orthogonality_loss(ad.Node(a), ad.Node(b)),
                 oracles.orth_mean(a, b)),
                (O.reconstruction_loss(x, ad.Node(xh)), oracles.recon_mean(x, xh)),
                (O.kl_to_standard_normal(ad.Node(mu), ad.Node(sg)),
                 oracles.kl_mean(mu, sg)),
                (O.entropy(ad.Node(p)), oracles.entropy_mean(p)),
            ]
            for node, expected in pairs:
                worst = max(worst, abs(float(node.value) - expected))
        verdict(9, "loss terms match straight-line oracles", worst < 1e-10,
                f"worst |delta| = {worst:.2e} over 1000 batches")

    def test_criterion_10_marginalization(self):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cfg = M.BundleConfig(input_dim=5, backbone="dnn", hidden_dim=4,
                                 latent_dim=3, dropout_rate=0.0, seed=seed)
            bundle = M.ModelBundle(cfg)
            n = int(rng.integers(2, 7))
            batch = Samples(rng.uniform(-2, 2, (n, 5)), rng.integers(0, 2, n))
            eps = rng.standard_normal((n, 3))
            _, br = O.unlabeled_loss(batch, bundle, O.ObjectiveConfig(), eps)
            # explicit two-branch evaluation
            r_f, r_b, r = M.encode(bundle, batch.x)
            z_hat, z_tilde, y_hat = M.predict_heads(bundle, r_f, r_b, r)
            zt = z_tilde.detach()
            mu, sigma = bundle.vae.latent(batch.x)
            h = ad.reparameterize(mu, sigma, eps)
            marg = np.zeros(n)
            for c in (0, 1):
                slot = oracles.one_hot_np(np.full(n, c), 2)
                xh = bundle.vae.decode(zt, slot, h)
                rows = (oracles.recon_rows(batch.x, xh.value)
                        + oracles.kl_rows(mu.value, sigma.value) + oracles.LOG2)
                marg += z_hat.value[:, c] * rows
            expected = (oracles.orth_mean(r_f.value, r_b.value)
                        + oracles.ce_mean(oracles.one_hot_np(batch.y, 2),
                                          y_hat.value)
                        + float(marg.mean())
                        - oracles.entropy_mean(z_hat.value)
                        - oracles.entropy_mean(z_tilde.value))
            worst = max(worst, abs(br.total - expected))
        verdict(10, "marginal loss equals the two-branch weighted sum",
                worst < 1e-12, f"worst |delta| = {worst:.2e} over 20 models")

    def test_criterion_11_reversal_wiring(self):
        baseline, after_disc, after_enc = adversarial_wiring_outcome()
        ok = after_disc < baseline and after_enc >= baseline
        verdict(11, "discriminator learns while the encoder unlearns", ok,
                f"base={baseline:.4f} disc_step={after_disc:.4f} "
                f"enc_step={after_enc:.4f}")

    def test_criterion_12_metric_oracles(self):
        rng = np.random.default_rng(77)
        exact = True
        for n in (10, 50, 200):
            y = rng.integers(0, 2, n)
            y[0], y[1] = 0, 1
            scores = np.round(rng.random(n), 2)
            exact = exact and MX.auc(y, scores) == auc_bruteforce(y, scores)
        # direct-count parity checks (same float operations, exact equality)
        y_pred = np.array([1, 1, 1, 0, 0, 1, 1, 0, 0, 0])
        z = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        exact = exact and MX.demographic_parity_gap(y_pred, z) == abs(3 / 5 - 2 / 5)
        y_true = np.ones(20, dtype=int)
        p = np.array([1] * 7 + [0] * 3 + [1] * 5 + [0] * 5)
        g = np.array([0] * 10 + [1] * 10)
        exact = exact and MX.equal_opportunity_gap(y_true, p, g) == abs(7 / 10 - 5 / 10)
        calibrated = True
        details = []
        for stream, balance in ((424, 0.5), (42, 0.55)):
            null_rng = np.random.default_rng(stream)
            reps = null_rng.standard_normal((3000, 64))
            zz = (null_rng.random(3000) < balance).astype(int)
            majority = max(zz.mean(), 1 - zz.mean())
            probe = MX.leakage_probe(reps, zz, seed=0)
            calibrated = calibrated and abs(probe - majority) <= 0.05
            details.append(f"null(p={balance}): probe={probe:.3f} "
                           f"majority={majority:.3f}")
        verdict(12, "metric oracles (AUC brute force, gap counts, probe null)",
                exact and calibrated, "; ".join(details))

    def test_criterion_13_synthetic_debiasing(self):
        probes = debiasing_outcome()
        ok = (probes["plain"] >= 0.9 and probes["dadv"] <= 0.6
              and probes["fairvae"] <= 0.6)
        verdict(13, "adversarial training scrubs an injected attribute", ok,
                " ".join(f"{k}={v:.3f}" for k, v in probes.items()))

    def test_criterion_14_byte_identical_reruns(self, tmp_path):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        write_adult_like(train, test, n_train=240, n_test=120, seed=21)
        out = tmp_path / "out"
        cfg = X.ExperimentConfig(
            train_path=str(train), test_path=str(test), output_dir=str(out),
            backbones=["lr"], methods=["plain", "fairvae"], label_ratios=[0.5],
            seeds=[0, 1], epochs=3, batch_size=64, hidden_dim=8, latent_dim=4,
            dropout_rate=0.0)
        X.run_experiments(cfg)
        first = (out / "results_raw.csv").read_bytes()
        X.run_experiments(cfg)
        second = (out / "results_raw.csv").read_bytes()
        verdict(14, "identical config hash gives byte-identical outputs",
                first == second, f"{len(first)} bytes compared")
