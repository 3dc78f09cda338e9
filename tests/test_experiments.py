import csv
import hashlib
import json
import os
import re
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairvae import experiments as X
from fairvae import models as M
from fairvae import training as T
from fairvae.cli import main as cli_main
from fairvae.data import ConfigError
from fairvae.objectives import ObjectiveConfig
from fairvae.synthetic import write_adult_like


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("runner_data")
    train, test = root / "train.csv", root / "test.csv"
    write_adult_like(train, test, n_train=240, n_test=120, seed=11)
    return str(train), str(test)


def tiny_config(dataset, out, **overrides):
    train, test = dataset
    base = dict(
        train_path=train, test_path=test, output_dir=str(out),
        backbones=["lr"], methods=["plain", "fairvae"], label_ratios=[0.5],
        seeds=[0, 1], epochs=3, batch_size=64, hidden_dim=8, latent_dim=4,
        fm_factors=3, dropout_rate=0.0, lambda_grid=[0.0, 0.4],
        unlabeled_fractions=[0.0, 1.0], sweep_backbone="lr",
    )
    base.update(overrides)
    return X.ExperimentConfig(**base)


class TestConfig:
    def test_from_file_with_overrides(self, dataset, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epochs": 7, "backbones": ["dnn"]}))
        cfg = X.ExperimentConfig.from_file(path, {"epochs": 9})
        assert cfg.epochs == 9 and cfg.backbones == ["dnn"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epochz": 7}))
        with pytest.raises(Exception, match="epochz"):
            X.ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("key", ["use_entropy_zhat", "use_zhat_in_decoder",
                                     "negate_entropy_zhat", "ablation_backbone",
                                     "ablation_ratio"])
    def test_removed_flat_key_rejected(self, tmp_path, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: False}))
        with pytest.raises(ConfigError,
                           match=rf"unknown config keys: \['{key}'\]; known "
                                 rf"keys: .*'objective'.*'sweep_backbone'"):
            X.ExperimentConfig.from_file(path)

    def test_objective_from_file_and_direct(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"objective": {"use_entropy_zhat": False}}))
        expected = ObjectiveConfig(use_entropy_zhat=False)
        assert X.ExperimentConfig.from_file(path).objective == expected
        assert X.ExperimentConfig(
            objective={"use_entropy_zhat": False}).objective == expected

    def test_unknown_objective_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"objective": {"use_entropy_zhatt": False}}))
        with pytest.raises(ConfigError,
                           match=r"unknown objective keys: \['use_entropy_zhatt'\]"
                                 r"; known keys: .*'use_entropy_zhat'"):
            X.ExperimentConfig.from_file(path)
        with pytest.raises(ConfigError, match="objective must be a JSON object"):
            X.ExperimentConfig(objective=[False])

    def test_hash_tracks_content(self, dataset, tmp_path):
        a = tiny_config(dataset, tmp_path)
        b = tiny_config(dataset, tmp_path, epochs=4)
        assert X.config_hash(a) == X.config_hash(tiny_config(dataset, tmp_path))
        assert X.config_hash(a) != X.config_hash(b)

    def test_dataset_rewritten_in_place_is_reloaded(self, tmp_path):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        write_adult_like(train, test, n_train=100, n_test=60, seed=1)
        cfg = X.ExperimentConfig(train_path=str(train), test_path=str(test))
        first = X.load_dataset(cfg)
        assert X.load_dataset(cfg) is first
        assert len(first[0]) == 100
        write_adult_like(train, test, n_train=120, n_test=60, seed=2)
        assert len(X.load_dataset(cfg)[0]) == 120

    def test_missing_dataset_actionable(self, tmp_path):
        cfg = X.ExperimentConfig(train_path=str(tmp_path / "nope.data"),
                                 test_path=str(tmp_path / "nope.test"),
                                 output_dir=str(tmp_path / "out"))
        with pytest.raises(FileNotFoundError, match="fetch_adult"):
            X.run_experiments(cfg)


@pytest.fixture(scope="module")
def result(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_out")
    cfg = tiny_config(dataset, out)
    return cfg, X.run_experiments(cfg), out


class TestRunExperiments:
    def test_arity(self, result):
        cfg, table, out = result
        # 1 backbone x 2 methods x 1 ratio x 2 seeds
        assert len(table.raw_rows) == 4
        assert len(table.aggregated) == 2
        raw_lines = Path(out, "results_raw.csv").read_text().splitlines()
        assert len(raw_lines) == 2 + 4  # comment + header + rows

    def test_all_cells_ok(self, result):
        _, table, _ = result
        assert all(r["status"] == "OK" for r in table.raw_rows)

    def test_outputs_embed_config_hash(self, result):
        cfg, table, out = result
        for stem in ("results_raw.csv", "results_agg.csv", "results.txt"):
            with open(os.path.join(out, stem)) as fh:
                first = fh.readline()
            assert X.config_hash(cfg) in first
            assert str(cfg.seeds) in first

    def test_aggregate_equals_mean_of_raw(self, result):
        _, table, _ = result
        for agg in table.aggregated:
            members = [r for r in table.raw_rows
                       if (r["backbone"], r["method"], r["ratio"])
                       == (agg["backbone"], agg["method"], agg["ratio"])]
            for metric in ("accuracy", "dp_gap", "opp_gap"):
                expected = np.mean([m[metric] for m in members])
                assert abs(agg[metric] - expected) < 1e-12

    def test_checkpoints_and_logs_written(self, result):
        _, table, out = result
        for row in table.raw_rows:
            assert os.path.exists(os.path.join(out, "checkpoints",
                                               row["cell"] + ".ckpt"))
            assert os.path.exists(os.path.join(out, "logs",
                                               row["cell"] + ".jsonl"))

    def test_self_training_log_holds_its_steps(self, dataset, tmp_path):
        cfg = tiny_config(dataset, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # no confident pseudo-labels
            row = X.run_cell(cfg, "lr", "adv_st", 0.5, 0)
        with open(tmp_path / "logs" / f"{row['cell']}.jsonl") as fh:
            records = [json.loads(line) for line in fh][1:]
        # 240 rows: 24 validation, 108 labeled + pseudo-labeled, 108 - those
        n_lab = 108 + row["pseudo_label_count"]
        assert [r["step"] for r in records] == list(range(3 * -(-n_lab // 64)))

    def test_rerun_is_byte_identical(self, dataset, tmp_path_factory, result):
        cfg_a, _, out_a = result
        out_b = tmp_path_factory.mktemp("run_out_b")
        cfg_b = tiny_config(dataset, out_b)
        X.run_experiments(cfg_b)
        a = Path(out_a, "results_raw.csv").read_text()
        b = Path(out_b, "results_raw.csv").read_text()
        # same cells and metrics; only the embedded output_dir hash differs
        assert a.splitlines()[1:] == b.splitlines()[1:]

    def test_plain_rows_identical_across_ratios(self, dataset, tmp_path_factory):
        out = tmp_path_factory.mktemp("plain_out")
        cfg = tiny_config(dataset, out, methods=["plain"],
                          label_ratios=[0.1, 0.5], seeds=[0])
        table = X.run_experiments(cfg)
        rows = [r for r in table.raw_rows if r["status"] == "OK"]
        assert len(rows) == 2
        for metric in ("accuracy", "dp_gap", "opp_gap", "probe_accuracy"):
            assert rows[0][metric] == rows[1][metric]

    def test_failed_cell_does_not_stop_run(self, dataset, tmp_path_factory):
        out = tmp_path_factory.mktemp("failed_out")
        # ratio 0.001 of 216 training rows keeps no labeled row: that cell fails
        cfg = tiny_config(dataset, out, label_ratios=[0.5, 0.001],
                          methods=["plain"], seeds=[0])
        table = X.run_experiments(cfg)
        statuses = {r["ratio"]: r["status"] for r in table.raw_rows}
        assert statuses[0.5] == "OK"
        assert statuses[0.001].startswith("FAILED: ConfigError")
        agg = {a["ratio"]: a for a in table.aggregated}
        assert agg[0.001]["n_failed"] == 1

    def test_pool_matches_serial_run(self, dataset, tmp_path_factory):
        # a switch off its default shows that the nested objective reaches
        # the workers
        outs = []
        for workers in (1, 2):
            outs.append(tmp_path_factory.mktemp(f"workers{workers}_out"))
            X.run_experiments(tiny_config(
                dataset, outs[-1], workers=workers,
                objective={"use_entropy_zhat": False}))
        for stem in ("results_raw.csv", "results_agg.csv", "results.txt"):
            assert (outs[1] / stem).read_bytes() == (outs[0] / stem).read_bytes()


class TestCsvOutput:
    def test_failed_status_with_commas_and_quotes_reads_back(self, tmp_path):
        status = 'FAILED: ShapeMismatch: matmul shapes (3, 4) x (5, 6) in "lr"'
        rows = [
            {"cell": "a", "status": "OK", "accuracy": 0.75, "seed": 0},
            {"cell": "b", "status": status, "accuracy": "", "seed": 1,
             "traceback": "Traceback, with commas"},
        ]
        path = tmp_path / "rows.csv"
        X._write_csv(path, rows, "# kind=grid")
        lines = path.read_text().splitlines()
        assert lines[:3] == ["# kind=grid", "cell,status,accuracy,seed",
                             "a,OK,0.75,0"]
        with open(path, newline="") as fh:
            next(fh)
            read = list(csv.DictReader(fh))
        assert read == [
            {"cell": "a", "status": "OK", "accuracy": "0.75", "seed": "0"},
            {"cell": "b", "status": status, "accuracy": "", "seed": "1"},
        ]

    def test_carriage_returns_read_back(self, tmp_path):
        hostile = ["a\rb", "c\nd", "e\r\nf", 'g"h', "i,j", "\r", "k", ""]
        rows = [{"cell": text, "status": f"FAILED: {text}", "seed": i}
                for i, text in enumerate(hostile)]
        path = tmp_path / "rows.csv"
        X._write_csv(path, rows, "# kind=grid")
        with open(path, newline="") as fh:
            next(fh)
            read = list(csv.DictReader(fh))
        assert read == [{k: str(v) for k, v in row.items()} for row in rows]
        assert b"\nk,FAILED: k,6\n" in path.read_bytes()


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv_roundtrip") / "rows.csv"


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.fixed_dictionaries(
    {"cell": st.text(), "status": st.text(), "accuracy": st.floats(),
     "seed": st.integers()}), max_size=6))
def test_csv_round_trip(csv_path, rows):
    X._write_csv(csv_path, rows, "# kind=grid")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        next(fh)
        read = list(csv.DictReader(fh))
    assert read == [{k: repr(v) if isinstance(v, float) else str(v)
                     for k, v in row.items()} for row in rows]


@pytest.fixture(scope="module")
def ablation_result(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("ablation_out")
    cfg = tiny_config(dataset, out, seeds=[0], sweep_ratio=0.5)
    return cfg, X.run_ablation(cfg), out


class TestAblation:
    def test_arity(self, ablation_result):
        _, table, _ = ablation_result
        assert len(table.raw_rows) == len(X.ABLATION_VARIANTS)
        assert len(table.aggregated) == len(X.ABLATION_VARIANTS)

    def test_full_variant_matches_grid_cell(self, dataset, tmp_path_factory, ablation_result):
        cfg, table, _ = ablation_result
        out = tmp_path_factory.mktemp("grid_for_ablation")
        grid_cfg = tiny_config(dataset, out, backbones=["lr"],
                               methods=["fairvae"], label_ratios=[0.5], seeds=[0])
        grid = X.run_experiments(grid_cfg)
        full = next(r for r in table.raw_rows if r["variant"] == "full")
        cell = next(r for r in grid.raw_rows if r["status"] == "OK")
        for metric in ("accuracy", "dp_gap", "opp_gap", "probe_accuracy"):
            assert full[metric] == cell[metric]

    def test_disabled_term_pinned_in_logs(self, ablation_result):
        _, table, out = ablation_result
        row = next(r for r in table.raw_rows
                   if r["variant"] == "no_entropy_zhat")
        log_path = os.path.join(out, "logs", row["cell"] + ".jsonl")
        header, *records = [json.loads(line)
                            for line in Path(log_path).read_text().splitlines()]
        assert "config_hash" in header
        assert records and all(rec["entropy_attr"] == 0.0 for rec in records)
        assert any(rec["entropy_adv"] != 0.0 for rec in records)


class TestSweep:
    def test_lambda_sweep_rows(self, dataset, tmp_path_factory):
        out = tmp_path_factory.mktemp("sweep_out")
        cfg = tiny_config(dataset, out, seeds=[0], lambda_grid=[0.0, 0.4, 1.0],
                          sweep_ratio=0.5)
        table = X.run_sweep(cfg, "lambda")
        assert [row["grl_lambda"] for row in table.aggregated] == [0.0, 0.4, 1.0]
        agg_lines = Path(out, "sweep_lambda_agg.csv").read_text().splitlines()
        assert len(agg_lines) == 2 + 3

    def test_unlabeled_fraction_zero_behaves_supervised(self, dataset,
                                                        tmp_path_factory):
        out = tmp_path_factory.mktemp("sweep_unl_out")
        cfg = tiny_config(dataset, out, seeds=[0],
                          unlabeled_fractions=[0.0], sweep_ratio=0.5)
        table = X.run_sweep(cfg, "unlabeled_fraction")
        row = next(r for r in table.raw_rows if r["status"] == "OK")
        log_path = os.path.join(out, "logs", row["cell"] + ".jsonl")
        records = [json.loads(line)
                   for line in Path(log_path).read_text().splitlines()][1:]
        assert all(rec["entropy_attr"] == 0.0 and rec["entropy_adv"] == 0.0
                   for rec in records)

    def test_unknown_axis_rejected(self, dataset, tmp_path):
        cfg = tiny_config(dataset, tmp_path)
        with pytest.raises(Exception, match="axis"):
            X.run_sweep(cfg, "dropout")


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt_out")
    cfg = tiny_config(dataset, out, methods=["fairvae"], seeds=[0])
    table = X.run_experiments(cfg)
    row = next(r for r in table.raw_rows if r["status"] == "OK")
    ckpt = os.path.join(out, "checkpoints", row["cell"] + ".ckpt")
    return cfg, ckpt


class TestCheckpointConsumers:
    def test_eval_reports_consistent_metrics(self, dataset, trained):
        _, ckpt = trained
        report = X.evaluate_checkpoint(ckpt, dataset[1], seed=0)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.dp_gap == pytest.approx(
            abs(report.pos_rate_group0 - report.pos_rate_group1), abs=1e-12)

    def test_export_row_count_and_rerun_identical(self, dataset, trained,
                                                  tmp_path):
        _, ckpt = trained
        out_a = tmp_path / "emb_a.csv"
        out_b = tmp_path / "emb_b.csv"
        n = X.export_embeddings(ckpt, dataset[1], out_a)
        X.export_embeddings(ckpt, dataset[1], out_b)
        lines = out_a.read_text().splitlines()
        assert n == 120 and len(lines) == n + 2  # hash comment + header
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_export_zeroed_encoder_gives_zero_columns(self, dataset, trained,
                                                      tmp_path):
        from fairvae import models as M
        _, ckpt = trained
        bundle, header = M.load_bundle(ckpt)
        for p in bundle.parameters():
            if p.name.startswith("bias_free"):
                p.value[...] = 0.0
        zeroed = tmp_path / "zeroed.ckpt"
        M.save_bundle(bundle, zeroed, config_hash=header["config_hash"],
                      seed=header["seed"], extra=header["extra"])
        out = tmp_path / "emb_zero.csv"
        X.export_embeddings(zeroed, dataset[1], out)
        rows = out.read_text().splitlines()[2:]
        dim = bundle.cfg.hidden_dim
        for row in rows[:5]:
            values = row.split(",")[:dim]
            assert all(float(v) == 0.0 for v in values)


class TestCli:
    def test_run_verb(self, dataset, tmp_path, capsys):
        out = tmp_path / "cli_out"
        code = cli_main([
            "run", "--train", dataset[0], "--test", dataset[1],
            "--out", str(out),
            "--set", 'backbones=["lr"]', "--set", 'methods=["plain"]',
            "--set", "label_ratios=[0.5]", "--set", "seeds=[0]",
            "--set", "epochs=2", "--set", "hidden_dim=8",
            "--set", "latent_dim=4", "--set", "dropout_rate=0.0",
        ])
        assert code == 0
        assert "lr+plain" in capsys.readouterr().out
        assert (out / "results_raw.csv").exists()

    def test_eval_verb(self, dataset, tmp_path, capsys):
        out = tmp_path / "cli_eval_out"
        cli_main([
            "run", "--train", dataset[0], "--test", dataset[1],
            "--out", str(out),
            "--set", 'backbones=["lr"]', "--set", 'methods=["plain"]',
            "--set", "label_ratios=[0.5]", "--set", "seeds=[0]",
            "--set", "epochs=2", "--set", "hidden_dim=8",
            "--set", "latent_dim=4", "--set", "dropout_rate=0.0",
        ])
        capsys.readouterr()
        ckpt = next((out / "checkpoints").glob("*.ckpt"))
        code = cli_main(["eval", "--checkpoint", str(ckpt),
                         "--test", dataset[1]])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "dp_gap" in payload

    def test_missing_dataset_exit_code(self, tmp_path, capsys):
        code = cli_main(["run", "--train", str(tmp_path / "none.data"),
                         "--test", str(tmp_path / "none.test"),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "fetch_adult" in capsys.readouterr().err


def _digest_after_header(path):
    """sha256 of a written table without its first line, which carries the
    config hash (and through it the output directory)."""
    with open(path, "rb") as fh:
        fh.readline()
        return hashlib.sha256(fh.read()).hexdigest()


# recorded on the tiny lr config (2 seeds) before the three runners shared
# one grid path
RUNNER_PINS = {
    "results": {
        "results_raw.csv":
            "060eeaffe24ce2d4dbb5b1808e54beb0096c7602afc0757759ff1f56054298a9",
        "results_agg.csv":
            "bc17109ff51f765df8aeee170b248883d4eecb0f050a51f354e783cebb84393a",
        "results.txt":
            "324ac83acd8df4eba028e1e173785ee231961c52e948d70a746733204913d848",
    },
    "ablation": {
        "ablation_raw.csv":
            "d9b76371a35860c0116d0546e20a1423f420042a75aa753149f0b8e9cbe29006",
        "ablation_agg.csv":
            "23dab4216bfd2171de0e2baf89db6bddd049168aed51445f0d5697c74614880f",
        "ablation.txt":
            "d0b31112c9201abc6bfb9f1413a8bfb8784b549d37266195f98b9a7ba160bb47",
    },
    "sweep_lambda": {
        "sweep_lambda_raw.csv":
            "16c489b066ce27d1e7feb8fbee9405b091b9193f3074169f15b17d9db166b106",
        "sweep_lambda_agg.csv":
            "aad394824b023208816a3c73a3b13fc899ec3c6ff699862ed91cacc697661f57",
        "sweep_lambda.txt":
            "f44d4744be918f1407c5f6ae09a9c5eb16a15717cff069f5b2792f0839a4dc27",
    },
    "sweep_unlabeled_fraction": {
        "sweep_unlabeled_fraction_raw.csv":
            "2110c86d41b4caed510e22c70e3f078d658368c336b0461005fe5677e7ada6f6",
        "sweep_unlabeled_fraction_agg.csv":
            "e87fb23b5da7991138c45a0f8b7aa4b63c29c37b6e0ec63befedf4b329407898",
        "sweep_unlabeled_fraction.txt":
            "f3f1f788783e5b5d9f8cd24abc0acc491d29df9e1e2a6d8cc3512f51604f3ff3",
    },
}


def _run_stem(cfg, stem):
    if stem == "results":
        return X.run_experiments(cfg)
    if stem == "ablation":
        return X.run_ablation(cfg)
    return X.run_sweep(cfg, stem.removeprefix("sweep_"))


class TestRunnerPins:
    @pytest.mark.parametrize("stem", sorted(RUNNER_PINS))
    def test_tables_match_pins(self, dataset, tmp_path, stem):
        _run_stem(tiny_config(dataset, tmp_path), stem)
        digests = {f"{stem}{suffix}": _digest_after_header(
            tmp_path / f"{stem}{suffix}")
            for suffix in ("_raw.csv", "_agg.csv", ".txt")}
        assert digests == RUNNER_PINS[stem]


class TestFailedGridPoints:
    @pytest.mark.parametrize("axis,key,grid", [
        ("lambda", "grl_lambda", [0.0, 0.4]),
        ("unlabeled_fraction", "unlabeled_fraction", [0.0, 1.0]),
    ])
    def test_failed_sweep_aggregates_per_grid_point(self, dataset, tmp_path,
                                                    axis, key, grid):
        cfg = tiny_config(dataset, tmp_path, lr=float("nan"))
        table = X.run_sweep(cfg, axis)
        assert all(r["status"].startswith("FAILED") for r in table.raw_rows)
        assert sorted({r[key] for r in table.raw_rows}) == grid
        assert [(a[key], a["n_ok"], a["n_failed"]) for a in table.aggregated] \
            == [(value, 0, len(cfg.seeds)) for value in grid]


class TestFailureRecords:
    def test_non_finite_step_names_its_step(self, dataset, tmp_path):
        cfg = tiny_config(dataset, tmp_path, lr=float("nan"))
        with pytest.raises(ValueError,
                           match=r"non-finite .*\(method=fairvae epoch=0 step=1\)"
                           ) as info:
            X.run_cell(cfg, "lr", "fairvae", 0.5, 0)
        assert type(info.value) is ValueError
        assert type(info.value.__cause__) is ValueError
        assert "step=" not in str(info.value.__cause__)

    def test_failures_jsonl_keeps_full_traceback(self, dataset, tmp_path):
        cfg = tiny_config(dataset, tmp_path, lr=float("nan"),
                          methods=["plain"], seeds=[0, 1])
        table = X.run_experiments(cfg)
        assert all("(method=plain epoch=0 step=1)" in r["status"]
                   for r in table.raw_rows)
        with open(tmp_path / "results_failures.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        assert [r["cell"] for r in records] == ["lr_plain_r0.5_s0",
                                                "lr_plain_r0.5_s1"]
        for record, row in zip(records, table.raw_rows):
            assert set(record) == {"cell", "status", "traceback"}
            assert record["status"] == row["status"]
            # the innermost frame, where the non-finite value was found
            assert "autodiff.py" in record["traceback"]
            assert "in tensor" in record["traceback"]
        X.run_experiments(tiny_config(dataset, tmp_path, methods=["plain"]))
        assert (tmp_path / "results_failures.jsonl").read_text() == ""


class TestGridValidation:
    @pytest.mark.parametrize("axis,values", [
        ("seeds", [0, 1, 0]), ("backbones", ["lr", "lr"]),
        ("methods", ["plain", "fairvae", "plain"]),
        ("label_ratios", [0.2, 0.2]), ("lambda_grid", [0.4, 0.4]),
        ("unlabeled_fractions", [0.0, 1.0, 1.0]),
    ])
    def test_repeated_value_rejected(self, tmp_path, axis, values):
        with pytest.raises(ConfigError, match=rf"{axis} repeats"):
            X.ExperimentConfig(**{axis: values})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({axis: values}))
        with pytest.raises(ConfigError, match=rf"{axis} repeats"):
            X.ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("key,value,match", [
        ("backbones", ["lr", "cnn"], r"unknown backbones \['cnn'\]"),
        ("sweep_backbone", "cnn", r"unknown backbones \['cnn'\]"),
        ("methods", ["plain", "fair"], r"unknown methods \['fair'\]"),
    ])
    def test_unknown_backbone_or_method_rejected(self, tmp_path, key, value,
                                                 match):
        with pytest.raises(ConfigError, match=match):
            X.ExperimentConfig(**{key: value})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=match):
            X.ExperimentConfig.from_file(path)

    def test_non_list_axis_rejected(self):
        with pytest.raises(ConfigError, match="seeds must be a list, got 3"):
            X.ExperimentConfig(seeds=3)

    def test_rejected_before_any_cell_runs(self, dataset, tmp_path, capsys):
        code = cli_main(["run", "--train", dataset[0], "--test", dataset[1],
                         "--out", str(tmp_path / "out"),
                         "--set", "lambda_grid=[0.4, 0.4]"])
        assert code == 2
        assert "lambda_grid repeats [0.4]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# each value fails the type or range check of its field's declaration
BAD_CONFIGS = [
    ({"objective": {"use_entropy_zhat": "false"}}, "use_entropy_zhat"),
    ({"epochs": "abc"}, "epochs"),
    ({"batch_size": 0}, "batch_size"),
    ({"label_ratios": [0.5, 2.0]}, "label_ratios"),
    ({"unlabeled_fractions": [2.0]}, "unlabeled_fractions"),
    ({"val_frac": 1.5}, "val_frac"),
    ({"dropout_rate": 1.0}, "dropout_rate"),
    ({"st_threshold": 0.3, "methods": ["plain", "adv_st"]}, "st_threshold"),
    ({"seeds": [0, 0.5]}, "seeds"),
    ({"workers": "2"}, "workers"),
    *[({axis: []}, axis) for axis in ("seeds", "backbones", "methods",
                                      "label_ratios", "lambda_grid",
                                      "unlabeled_fractions")],
]


class TestBoundaryChecks:
    @pytest.mark.parametrize("raw,key", BAD_CONFIGS,
                             ids=[key for _, key in BAD_CONFIGS])
    def test_bad_value_rejected_before_any_cell_runs(self, dataset, tmp_path,
                                                     capsys, raw, key):
        with pytest.raises(ConfigError, match=rf"^{key} must be"):
            X.ExperimentConfig(**raw)
        with pytest.raises(ConfigError, match=rf"^{key} must be"):
            X.ExperimentConfig.from_dict(raw)
        sets = [arg for k, v in raw.items()
                for arg in ("--set", f"{k}={json.dumps(v)}")]
        code = cli_main(["run", "--train", dataset[0], "--test", dataset[1],
                         "--out", str(tmp_path / "out"), *sets])
        assert code == 2
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_threshold_unchecked_without_self_training(self):
        assert X.ExperimentConfig(st_threshold=0.3,
                                  methods=["plain", "fairvae"]).st_threshold == 0.3

    @pytest.mark.parametrize("make", [
        X.ExperimentConfig, T.MethodSpec,
        lambda **kw: M.BundleConfig(input_dim=3, **kw)],
        ids=["ExperimentConfig", "MethodSpec", "BundleConfig"])
    @pytest.mark.parametrize("key,value", [
        ("dropout_rate", 1.0), ("hidden_dim", True), ("hidden_dim", 0),
        ("grl_lambda", -0.1), ("head_hidden", 1.5)])
    def test_shared_settings_checked_on_every_class(self, make, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be"):
            make(**{key: value})


@settings(max_examples=60, deadline=None)
@given(values=st.fixed_dictionaries({
    "hidden_dim": st.integers(1, 512), "fm_factors": st.integers(1, 64),
    "latent_dim": st.integers(1, 64), "head_hidden": st.integers(0, 64),
    "grl_lambda": st.floats(0.0, 100.0) | st.integers(0, 100),
    "dropout_rate": st.floats(0.0, 1.0, exclude_max=True),
    "st_threshold": st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    "epochs": st.integers(1, 500), "batch_size": st.integers(1, 4096),
    "lr": st.floats(1e-6, 1.0), "workers": st.integers(1, 8),
    "val_frac": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "sweep_ratio": st.floats(0.0, 1.0, exclude_min=True),
    "seeds": st.lists(st.integers(0, 2**32 - 1), unique=True, min_size=1,
                      max_size=5),
    "label_ratios": st.lists(st.floats(0.0, 1.0, exclude_min=True) | st.just(1),
                             unique=True, min_size=1, max_size=3),
    "lambda_grid": st.lists(st.floats(0.0, 10.0), unique=True, min_size=1,
                            max_size=4),
    "unlabeled_fractions": st.lists(st.floats(0.0, 1.0), unique=True,
                                    min_size=1, max_size=4),
    "methods": st.lists(st.sampled_from(T.METHODS), unique=True, min_size=1),
    "include_sensitive_feature": st.booleans(), "save_logs": st.booleans(),
    "objective": st.builds(ObjectiveConfig, **{
        f.name: st.booleans() for f in fields(ObjectiveConfig)}),
}))
def test_in_range_values_construct(values):
    cfg = X.ExperimentConfig(**values)
    assert {key: getattr(cfg, key) for key in values} == values


def test_readme_config_block_matches_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    assert json.loads(re.sub(r"//[^\n]*", "", block)) == asdict(
        X.ExperimentConfig())


@pytest.fixture(scope="module")
def roundtrip_path(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip") / "config.json"


@settings(max_examples=60, deadline=None)
@given(switches=st.fixed_dictionaries(
           {f.name: st.booleans() for f in fields(ObjectiveConfig)}),
       seeds=st.lists(st.integers(0, 2**31), unique=True, min_size=1,
                      max_size=5),
       grl_lambda=st.floats(0.0, 10.0))
def test_config_json_round_trip(roundtrip_path, switches, seeds, grl_lambda):
    cfg = X.ExperimentConfig(objective=ObjectiveConfig(**switches),
                             seeds=seeds, grl_lambda=grl_lambda)
    roundtrip_path.write_text(json.dumps(asdict(cfg)))
    back = X.ExperimentConfig.from_file(roundtrip_path)
    assert back == cfg
    assert X.config_hash(back) == X.config_hash(cfg)


class TestConfigHash:
    @pytest.mark.parametrize("field,value", [
        ("output_dir", "elsewhere"), ("workers", 2),
        ("save_logs", False), ("save_checkpoints", False),
    ])
    def test_execution_fields_leave_hash_unchanged(self, field, value):
        base = X.ExperimentConfig()
        assert X.config_hash(base) == X.config_hash(
            X.ExperimentConfig(**{field: value}))

    def test_epochs_change_hash(self):
        assert X.config_hash(X.ExperimentConfig()) != X.config_hash(
            X.ExperimentConfig(epochs=7))


TINY_CLI_SETS = [
    "--set", "seeds=[0]", "--set", "epochs=2", "--set", "hidden_dim=8",
    "--set", "latent_dim=4", "--set", "dropout_rate=0.0",
]


class TestCliGridVerbs:
    def test_ablate_verb(self, dataset, tmp_path, capsys):
        out = tmp_path / "cli_ablate_out"
        code = cli_main([
            "ablate", "--train", dataset[0], "--test", dataset[1],
            "--out", str(out), "--set", "sweep_backbone=lr",
            "--set", "sweep_ratio=0.5", *TINY_CLI_SETS,
        ])
        assert code == 0
        printed = capsys.readouterr().out
        for variant in X.ABLATION_VARIANTS:
            assert variant in printed
        assert (out / "ablation_agg.csv").exists()
        assert (out / "ablation_failures.jsonl").read_text() == ""

    def test_objective_set_as_json(self, dataset, tmp_path, capsys):
        out = tmp_path / "cli_objective_out"
        code = cli_main([
            "run", "--train", dataset[0], "--test", dataset[1],
            "--out", str(out), "--set", 'backbones=["lr"]',
            "--set", 'methods=["fairvae"]', "--set", "label_ratios=[0.5]",
            "--set", 'objective={"use_entropy_zhat": false}', *TINY_CLI_SETS,
        ])
        assert code == 0
        capsys.readouterr()
        records = [json.loads(line) for line in
                   (out / "logs" / "lr_fairvae_r0.5_s0.jsonl").read_text()
                   .splitlines()][1:]
        assert records and all(r["entropy_attr"] == 0.0 for r in records)
        assert any(r["entropy_adv"] != 0.0 for r in records)

    def test_sweep_lambda_verb(self, dataset, tmp_path, capsys):
        out = tmp_path / "cli_sweep_out"
        code = cli_main([
            "sweep", "--axis", "lambda", "--train", dataset[0],
            "--test", dataset[1], "--out", str(out),
            "--set", "sweep_backbone=lr", "--set", "sweep_ratio=0.5",
            "--set", "lambda_grid=[0.0, 0.4]", *TINY_CLI_SETS,
        ])
        assert code == 0
        assert "grl_lambda" in capsys.readouterr().out
        with open(out / "sweep_lambda_agg.csv", newline="") as fh:
            next(fh)
            rows = list(csv.DictReader(fh))
        assert [(r["grl_lambda"], r["n_ok"]) for r in rows] == [
            ("0.0", "1"), ("0.4", "1")]
