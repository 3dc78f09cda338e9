import contextlib
import csv
import errno
import gc
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import textwrap
import threading
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairvae import data as D
from fairvae import experiments as X
from fairvae import models as M
from fairvae import parallel
from fairvae import training as T
from fairvae.cli import main as cli_main
from fairvae.data import ConfigError
from fairvae.objectives import ObjectiveConfig
from fairvae.synthetic import write_adult_like
import oracles


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
                                     "ablation_ratio",
                                     "include_sensitive_feature"])
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
        # a removed switch reads as any other unknown key
        with pytest.raises(ConfigError, match=r"unknown objective keys: "
                                              r"\['negate_entropy_zhat'\]"):
            X.ExperimentConfig(objective={"negate_entropy_zhat": True})

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

    def test_dataset_cache_holds_the_last_pair(self, tmp_path):
        """Four distinct pairs leave one entry, the last; loading it again
        returns the same objects."""
        for seed in range(4):
            train = tmp_path / f"train{seed}.csv"
            test = tmp_path / f"test{seed}.csv"
            write_adult_like(train, test, n_train=60, n_test=50, seed=seed)
            cfg = X.ExperimentConfig(train_path=str(train), test_path=str(test))
            first = X.load_dataset(cfg)
            assert X.load_dataset(cfg) is first
            assert list(X._DATA_CACHE) == [(str(train), str(test))]

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
                      extra=header["extra"])
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

    def test_set_without_value_exit_code(self, tmp_path, capsys):
        code = cli_main(["run", "--set", "epochs", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: --set expects key=value, got 'epochs'\n"

    def test_non_checkpoint_exit_code(self, dataset, tmp_path, capsys):
        junk = tmp_path / "junk.ckpt"
        junk.write_bytes(b"not a checkpoint")
        code = cli_main(["eval", "--checkpoint", str(junk), "--test", dataset[1]])
        assert code == 2
        assert capsys.readouterr().err == f"error: {junk}: not a model checkpoint\n"

    def test_eval_on_empty_test_file_exit_code(self, trained, tmp_path, capsys):
        """One ``error:`` line naming the file, and no warning before it."""
        _, ckpt = trained
        empty = tmp_path / "empty.test"
        empty.write_text("")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["eval", "--checkpoint", ckpt, "--test", str(empty)])
        assert code == 2 and caught == []
        assert capsys.readouterr().err == \
            f"error: {empty}: holds no records to evaluate\n"
        out = tmp_path / "emb.csv"
        code = cli_main(["export-embeddings", "--checkpoint", ckpt,
                         "--test", str(empty), "--out", str(out)])
        assert code == 0 and f"wrote 0 rows to {out}" in capsys.readouterr().out

    def test_eval_on_one_group_exit_code(self, dataset, trained, tmp_path,
                                         capsys):
        _, ckpt = trained
        males = tmp_path / "males.test"
        lines = Path(dataset[1]).read_text().splitlines(keepends=True)
        males.write_text("".join(line for line in lines if ", Male," in line))
        code = cli_main(["eval", "--checkpoint", ckpt, "--test", str(males)])
        assert code == 2
        assert capsys.readouterr().err == "error: group z=1 is empty\n"

    @pytest.mark.parametrize("content,message", [
        (b"{bad", "not a UTF-8 JSON file: Expecting property name"),
        (b"[1, 2]", "a config file must hold a JSON object, got [1, 2]"),
        (b'"x"', "a config file must hold a JSON object, got 'x'"),
        (b"\xff\xfe{", "not a UTF-8 JSON file: 'utf-8' codec can't decode"),
    ], ids=["JSONDecodeError", "list", "string", "UnicodeDecodeError"])
    def test_config_file_not_a_json_object_exit_code(self, dataset, tmp_path,
                                                     capsys, content, message):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        code = cli_main(["run", "--config", str(path), "--train", dataset[0],
                         "--test", dataset[1], "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line,message", [
        ("39, State-gov, 77516", "expected 15 fields, got 3"),
        ("abc, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, "
         "Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K",
         "column 'age' has 'abc', expected a finite number"),
    ], ids=["SchemaError", "ParseError"])
    def test_malformed_data_file_exit_code(self, dataset, tmp_path, capsys,
                                           line, message):
        bad = tmp_path / "bad.data"
        bad.write_text(line + "\n")
        code = cli_main(["run", "--train", str(bad), "--test", dataset[1],
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}:1: {message}\n"

    def test_training_file_whose_statistics_overflow_exit_code(
            self, tmp_path, capsys):
        """One age of 1e308 among 200 rows is a finite cell, but the age's
        standard deviation overflows: ``run`` saved it as inf in the
        checkpoint, which ``eval`` then called damaged."""
        train, test = tmp_path / "train.data", tmp_path / "test.data"
        write_adult_like(train, test, n_train=200, n_test=100, seed=0)
        lines = train.read_text().split("\n")
        lines[3] = " 1e308," + lines[3].split(",", 1)[1]
        train.write_text("\n".join(lines))
        code = cli_main(["run", "--train", str(train), "--test", str(test),
                         "--out", str(tmp_path / "out"), *TINY_CLI_SETS])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {train}: column 'age' has a standard deviation of inf "
            "over its values, expected a finite number\n")
        assert not (tmp_path / "out" / "checkpoints").exists()

    @pytest.mark.parametrize("verb", ["run", "eval"])
    def test_data_file_not_utf8_exit_code(self, dataset, trained, tmp_path,
                                          capsys, verb):
        """A Latin-1 byte in a country name: one ``error:`` line naming the
        file, line, column and byte, for the training and the test file."""
        row = ("39, State-gov, 77516, Bachelors, 13, Never-married, "
               "Adm-clerical, Not-in-family, White, Male, 2174, 0, 40, "
               "{}, <=50K\n")
        bad = tmp_path / "latin1.data"
        bad.write_bytes(row.format("United-States").encode()
                        + row.format("M\xe9xico").encode("latin-1"))
        if verb == "run":
            argv = ["run", "--train", str(bad), "--test", dataset[1],
                    "--out", str(tmp_path / "out")]
        else:
            argv = ["eval", "--checkpoint", trained[1], "--test", str(bad)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:2: byte 0xe9 at column 109 is not UTF-8 text\n")

    @pytest.mark.parametrize("verb", ["eval", "export-embeddings"])
    def test_checkpoint_with_renamed_stats_key_exit_code(self, dataset, trained,
                                                         tmp_path, capsys, verb):
        bundle, header = M.load_bundle(trained[1])
        vocab = header["extra"]["stats"]["cat_vocab"]
        vocab["marital-statuz"] = vocab.pop("marital-status")
        renamed = tmp_path / "renamed.ckpt"
        M.save_bundle(bundle, renamed, extra=header["extra"])
        argv = [verb, "--checkpoint", str(renamed), "--test", dataset[1]]
        if verb == "export-embeddings":
            argv += ["--out", str(tmp_path / "emb.csv")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {renamed}: the checkpoint's encoding statistics are "
            "damaged: extra.stats.cat_vocab has unknown keys ['marital-statuz'] "
            "and lacks keys ['marital-status']\n")

    @pytest.mark.parametrize("verb", ["eval", "export-embeddings"])
    @pytest.mark.parametrize("table,key,value,expected", [
        ("num_std", "age", "abc", "a finite number above 0"),
        ("num_std", "age", 0.0, "a finite number above 0"),
        ("num_mean", "hours-per-week", None, "a finite number"),
        ("cat_vocab", "race", ["White", 3], "a list of strings"),
        ("cat_vocab", "race", "White", "a list of strings"),
        ("cat_mode", "workclass", 1, "a string"),
    ], ids=["std-text", "std-zero", "mean-null", "vocab-number",
            "vocab-text", "mode-number"])
    def test_checkpoint_with_mistyped_stats_value_exit_code(
            self, dataset, trained, tmp_path, capsys, verb, table, key, value,
            expected):
        bundle, header = M.load_bundle(trained[1])
        header["extra"]["stats"][table][key] = value
        damaged = tmp_path / "damaged.ckpt"
        M.save_bundle(bundle, damaged, extra=header["extra"])
        argv = [verb, "--checkpoint", str(damaged), "--test", dataset[1]]
        if verb == "export-embeddings":
            argv += ["--out", str(tmp_path / "emb.csv")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {damaged}: the checkpoint's encoding statistics are "
            f"damaged: extra.stats.{table}[{key!r}] is {value!r}, expected "
            f"{expected}\n")

    @pytest.mark.parametrize("verb", ["eval", "export-embeddings"])
    @pytest.mark.parametrize("value,expected", [
        (True, "they encode 30 input columns, its model takes 28"),
        ("x", "include_sensitive is 'x', expected true or false"),
    ], ids=["true", "text"])
    def test_checkpoint_with_changed_encoding_exit_code(
            self, dataset, trained, tmp_path, capsys, verb, value, expected):
        """A fuzzed checkpoint: statistics that encode ``sex`` for a model
        trained without it gave inputs of the wrong width (``ShapeMismatch``
        escaped ``eval``)."""
        bundle, header = M.load_bundle(trained[1])
        header["extra"]["stats"]["include_sensitive"] = value
        damaged = tmp_path / "damaged.ckpt"
        M.save_bundle(bundle, damaged, extra=header["extra"])
        argv = [verb, "--checkpoint", str(damaged), "--test", dataset[1]]
        if verb == "export-embeddings":
            argv += ["--out", str(tmp_path / "emb.csv")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {damaged}: the checkpoint's encoding statistics are "
            f"damaged: {'' if value is True else 'extra.stats.'}{expected}\n")

    @pytest.mark.parametrize("input_dim", [0, -1])
    def test_checkpoint_with_non_positive_input_width_exit_code(
            self, dataset, trained, tmp_path, capsys, input_dim):
        """A fuzzed checkpoint header: an input width below 1 escaped
        ``eval`` from numpy's initializer (``OverflowError`` at -1)."""
        blob = Path(trained[1]).read_bytes()
        start = len(M.CHECKPOINT_MAGIC)
        (length,) = struct.unpack("<I", blob[start:start + 4])
        header = json.loads(blob[start + 4:start + 4 + length])
        header["config"]["input_dim"] = input_dim
        new = json.dumps(header).encode()
        damaged = tmp_path / "damaged.ckpt"
        damaged.write_bytes(blob[:start] + struct.pack("<I", len(new)) + new
                            + blob[start + 4 + length:])
        assert cli_main(["eval", "--checkpoint", str(damaged),
                         "--test", dataset[1]]) == 2
        assert capsys.readouterr().err == (
            f"error: {damaged}: the checkpoint header is damaged: ConfigError: "
            f"input_dim must be >= 1, got {input_dim}\n")

    def test_config_with_a_null_method_exit_code(self, dataset, tmp_path,
                                                 capsys):
        """A fuzzed config: a method that is not a string escaped ``run``
        as an ``AttributeError`` from the self-training check."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"methods": [None]}))
        code = cli_main(["run", "--config", str(path), "--train", dataset[0],
                         "--test", dataset[1], "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: unknown methods [None]; expected from {T.METHODS}\n")

    def test_test_path_is_a_directory_exit_code(self, trained, tmp_path, capsys):
        _, ckpt = trained
        code = cli_main(["eval", "--checkpoint", ckpt, "--test", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err and str(tmp_path) in err

    def test_output_path_is_a_file_exit_code(self, dataset, tmp_path, capsys,
                                             monkeypatch):
        """Rejected before any cell trains."""
        out = tmp_path / "taken"
        out.write_text("")
        ran = []
        monkeypatch.setattr(X, "run_cell", lambda cfg, **cell: ran.append(cell))
        code = cli_main(["run", "--train", dataset[0], "--test", dataset[1],
                         "--out", str(out), *TINY_CLI_SETS])
        assert code == 2 and ran == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "File exists" in err and str(out) in err

    @pytest.mark.parametrize("extra", [None, {"stats": {"cat_vocab": {}}}],
                             ids=["no-extra", "partial-stats"])
    @pytest.mark.parametrize("verb", ["eval", "export-embeddings"])
    def test_checkpoint_without_stats_exit_code(self, dataset, trained,
                                                tmp_path, capsys, verb, extra):
        _, ckpt = trained
        bare = tmp_path / "bare.ckpt"
        M.save_bundle(M.load_bundle(ckpt)[0], bare, extra=extra)
        argv = [verb, "--checkpoint", str(bare), "--test", dataset[1]]
        if verb == "export-embeddings":
            argv += ["--out", str(tmp_path / "emb.csv")]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bare}: the checkpoint holds no encoding "
                              f"statistics (extra.stats)") and err.count("\n") == 1

    def test_negative_seed_exit_code(self, dataset, trained, capsys):
        _, ckpt = trained
        code = cli_main(["eval", "--checkpoint", ckpt, "--test", dataset[1],
                         "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be an int >= 0, got -1\n"


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "BLIS_NUM_THREADS")

# a sitecustomize module: at exit the process writes its thread variables
# and parallel.forkable() to a JSON file
_REPORT_AT_EXIT = """\
import atexit, json, os

def report():
    from fairvae import parallel
    with open({path!r}, "w") as fh:
        json.dump({{"env": {{v: os.environ.get(v) for v in {names!r}}},
                   "forkable": parallel.forkable()}}, fh)

atexit.register(report)
"""

# the console script that pip writes for the fairvae entry point
_CONSOLE_SCRIPT = """\
import re
import sys
from fairvae.cli import main
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit(main())
"""


class TestCommandLineThreads:
    """The command line pins BLAS to one thread before numpy loads, each
    thread variable only where it is unset; ``import fairvae`` and
    ``cli.main`` called in another program keep that program's settings."""

    @staticmethod
    def _seen(tmp_path, route, **preset):
        """What a process started by ``route``, its thread variables unset
        but for ``preset``, saw at exit."""
        site, report = tmp_path / "site", tmp_path / "report.json"
        site.mkdir()
        (site / "sitecustomize.py").write_text(_REPORT_AT_EXIT.format(
            path=str(report), names=_THREAD_VARS))
        script = tmp_path / "bin" / "fairvae"
        script.parent.mkdir()
        script.write_text(_CONSOLE_SCRIPT)
        eval_args = ["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--test", str(tmp_path / "missing.csv")]
        argv = {"module": ["-m", "fairvae.cli", *eval_args],
                "console script": [str(script), *eval_args],
                "import": ["-c", "import fairvae"],
                "cli.main": ["-c", "import sys; from fairvae import cli; "
                             "sys.exit(cli.main(sys.argv[1:]))", *eval_args]}
        env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
        env.update(preset)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(site), src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, *argv[route]], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == (0 if route == "import" else 2), proc.stderr
        return json.loads(report.read_text())

    @pytest.mark.parametrize("route", ["module", "console script"])
    def test_command_line_pins_blas(self, tmp_path, route):
        seen = self._seen(tmp_path, route)
        assert seen["env"] == dict.fromkeys(_THREAD_VARS, "1")
        assert seen["forkable"] == (parallel._cpus() >= 2)

    def test_a_set_value_is_kept(self, tmp_path):
        seen = self._seen(tmp_path, "module", OPENBLAS_NUM_THREADS="2")
        assert seen["env"] == {**dict.fromkeys(_THREAD_VARS, "1"),
                               "OPENBLAS_NUM_THREADS": "2"}

    @pytest.mark.parametrize("route", ["import", "cli.main"])
    def test_library_keeps_the_host_settings(self, tmp_path, route):
        seen = self._seen(tmp_path, route, OMP_NUM_THREADS="3")
        assert seen["env"] == {**dict.fromkeys(_THREAD_VARS),
                               "OMP_NUM_THREADS": "3"}


# -- fuzzing the command line's input files ---------------------------------

# values that a replaced cell takes: in an Adult file as text, in a config
# or checkpoint header as JSON (small numbers only: a mutated config must
# not train for long)
_NASTY_CELLS = ["", " ", "?", "nan", "inf", "-inf", "1e308", "-1", "0", "1.5",
                "abc", "Male", "<=50K", ">50K.", "\u00d1", "\x00", "\t"]
_NASTY_VALUES = [None, True, False, 0, -1, 2, 0.5, float("nan"),
                 float("inf"), "", "x", [], {}, [1], ["x"], {"a": 1}]


def _leaf_paths(value, path=()):
    """The paths (keys and indices) of every leaf of a JSON value."""
    if isinstance(value, dict) and value:
        return [p for k, v in value.items() for p in _leaf_paths(v, path + (k,))]
    if isinstance(value, list) and value:
        return [p for i, v in enumerate(value)
                for p in _leaf_paths(v, path + (i,))]
    return [path]


def _replaced(value, path, new):
    """A deep copy of ``value`` with the leaf at ``path`` replaced by ``new``."""
    value = json.loads(json.dumps(value))
    *head, last = path
    inner = value
    for key in head:
        inner = inner[key]
    inner[last] = new
    return value


@st.composite
def _byte_mutation(draw, blob: bytes) -> bytes:
    """``blob`` with one byte flipped, a few bytes deleted or inserted, or
    cut short."""
    kind = draw(st.sampled_from(["flip", "delete", "insert", "truncate"]))
    at = draw(st.integers(0, len(blob) - 1))
    if kind == "flip":
        return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) \
            + blob[at + 1:]
    if kind == "delete":
        return blob[:at] + blob[at + draw(st.integers(1, 4)):]
    if kind == "insert":
        return blob[:at] + draw(st.binary(min_size=1, max_size=4)) + blob[at:]
    return blob[:at]


@st.composite
def _adult_mutation(draw, text: str) -> bytes:
    """An Adult file with one byte mutation or one cell replaced."""
    if draw(st.booleans()):
        return draw(_byte_mutation(text.encode()))
    lines = text.split("\n")
    row = draw(st.integers(0, len(lines) - 2))  # the last line is empty
    cells = lines[row].split(",")
    cells[draw(st.integers(0, len(cells) - 1))] = \
        " " + draw(st.sampled_from(_NASTY_CELLS))
    lines[row] = ",".join(cells)
    return "\n".join(lines).encode()


@st.composite
def _json_mutation(draw, value) -> bytes:
    """A JSON document with one byte mutation or one leaf replaced."""
    if draw(st.booleans()):
        return draw(_byte_mutation(json.dumps(value).encode()))
    path = draw(st.sampled_from(_leaf_paths(value)))
    return json.dumps(_replaced(value, path,
                                draw(st.sampled_from(_NASTY_VALUES)))).encode()


@st.composite
def _checkpoint_mutation(draw, blob: bytes) -> bytes:
    """A checkpoint with one byte mutation or one header leaf replaced (and
    the header's length rewritten to match)."""
    if draw(st.booleans()):
        return draw(_byte_mutation(blob))
    start = len(M.CHECKPOINT_MAGIC)
    (length,) = struct.unpack("<I", blob[start:start + 4])
    header = json.loads(blob[start + 4:start + 4 + length])
    new = draw(_json_mutation(header))
    return (blob[:start] + struct.pack("<I", len(new)) + new
            + blob[start + 4 + length:])


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """One tiny ``write_adult_like`` cell (lr/plain, one epoch) run from the
    command line: its training and test text, its config and checkpoint."""
    root = tmp_path_factory.mktemp("fuzz")
    train, test = root / "train.data", root / "test.data"
    write_adult_like(train, test, n_train=80, n_test=60, seed=5)
    config = {"backbones": ["lr"], "methods": ["plain"], "label_ratios": [0.5],
              "seeds": [0], "epochs": 1, "batch_size": 32, "hidden_dim": 4,
              "latent_dim": 2, "dropout_rate": 0.0}
    (root / "config.json").write_text(json.dumps(config))
    argv = ["run", "--config", str(root / "config.json"), "--train",
            str(train), "--test", str(test), "--out", str(root / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(argv) == 0
    ckpt = root / "out" / "checkpoints" / "lr_plain_r0.5_s0.ckpt"
    return {"train": train.read_text(), "train_path": train, "test": test,
            "config": config, "config_path": root / "config.json",
            "checkpoint": ckpt}


def _cli_outcome(argv) -> tuple[int, str]:
    """``cli_main(argv)``'s exit code and what it wrote to stderr, warnings
    recorded rather than raised."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli_main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code: int, err: str) -> None:
    """Exit 0, or exit 2 with exactly one ``error:`` line."""
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestCliFuzz:
    """Mutated input files never end ``run`` or ``eval`` in a traceback."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), verb=st.sampled_from(["run", "eval"]))
    def test_mutated_adult_file(self, fuzz_inputs, data, verb):
        """The training file of ``run`` or the test file of ``eval``."""
        test = fuzz_inputs["test"]
        text = fuzz_inputs["train"] if verb == "run" else test.read_text()
        blob = data.draw(_adult_mutation(text))
        with tempfile.TemporaryDirectory() as root:
            mutated = os.path.join(root, "mutated.data")
            with open(mutated, "wb") as fh:
                fh.write(blob)
            if verb == "run":
                argv = ["run", "--train", mutated, "--test", str(test),
                        "--out", os.path.join(root, "out"),
                        "--config", str(fuzz_inputs["config_path"])]
            else:
                argv = ["eval", "--checkpoint",
                        str(fuzz_inputs["checkpoint"]), "--test", mutated]
            _assert_clean_exit(*_cli_outcome(argv))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_mutated_config_file(self, fuzz_inputs, data):
        blob = data.draw(_json_mutation(fuzz_inputs["config"]))
        with tempfile.TemporaryDirectory() as root:
            config = os.path.join(root, "config.json")
            with open(config, "wb") as fh:
                fh.write(blob)
            _assert_clean_exit(*_cli_outcome([
                "run", "--config", config,
                "--train", str(fuzz_inputs["train_path"]),
                "--test", str(fuzz_inputs["test"]),
                "--out", os.path.join(root, "out")]))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_mutated_checkpoint(self, fuzz_inputs, data):
        blob = data.draw(_checkpoint_mutation(
            fuzz_inputs["checkpoint"].read_bytes()))
        with tempfile.TemporaryDirectory() as root:
            ckpt = os.path.join(root, "model.ckpt")
            with open(ckpt, "wb") as fh:
                fh.write(blob)
            _assert_clean_exit(*_cli_outcome([
                "eval", "--checkpoint", ckpt,
                "--test", str(fuzz_inputs["test"])]))


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


# recorded on the same runs before the step log became the only per-epoch
# record of the loss terms: one digest over the step-log bodies and one over
# the checkpoints' payload_sha256, each over the files in sorted order
STEP_LOG_PINS = {
    "ablation": (
        10, "c9a19e8731626bb0fceef7e7907d1cd9c4aa8d3f46bfc5a295e3b55e8818dad6"),
    "results": (
        4, "0041d351d91256392f62cb041ac3bcafde12de36e7b383cd88e46a17819d9c70"),
    "sweep_lambda": (
        4, "60f6d1629851b36af896da375de47028ecf2e9499040b57453f2e49454d3323e"),
    "sweep_unlabeled_fraction": (
        4, "55635891904832537bd6d31d01aec6891ee3e900ed54cec28275e83abae36591"),
}
CHECKPOINT_PINS = {
    "ablation": (
        10, "f6775afc759985391e3ba84b539f6e09b7feabca6114aca7ce34e6c6454023ef"),
    "results": (
        4, "2432fa8e34441936dc1ad7f8a9116f351f7b1d864f6ad0e0e1960319a981302a"),
    "sweep_lambda": (
        4, "4a4431f8df13204c3319bd3227f7c34cd13b94a78df38cb8cd460baf4083aa0a"),
    "sweep_unlabeled_fraction": (
        4, "791adddc46ca83e9239e809ca1cde04a5a13536c942abd4c151f65c3e9b9de5c"),
}


@pytest.fixture(scope="module")
def stem_output(dataset, tmp_path_factory):
    """The output directory of one tiny-config run per stem, run once."""
    outputs = {}

    def run(stem):
        if stem not in outputs:
            out = tmp_path_factory.mktemp(stem)
            _run_stem(tiny_config(dataset, out), stem)
            outputs[stem] = out
        return outputs[stem]
    return run


class TestRunnerPins:
    @pytest.mark.parametrize("stem", sorted(RUNNER_PINS))
    def test_tables_match_pins(self, stem_output, stem):
        out = stem_output(stem)
        digests = {f"{stem}{suffix}": _digest_after_header(
            out / f"{stem}{suffix}")
            for suffix in ("_raw.csv", "_agg.csv", ".txt")}
        assert digests == RUNNER_PINS[stem]

    @pytest.mark.parametrize("stem", sorted(RUNNER_PINS))
    def test_step_logs_match_pins(self, stem_output, stem):
        """Every term of every step, each log read after its header line."""
        logs = sorted((stem_output(stem) / "logs").iterdir())
        digest = hashlib.sha256()
        for path in logs:
            digest.update(_digest_after_header(path).encode())
        assert (len(logs), digest.hexdigest()) == STEP_LOG_PINS[stem]

    @pytest.mark.parametrize("stem", sorted(RUNNER_PINS))
    def test_checkpoints_match_pins(self, stem_output, stem):
        paths = sorted((stem_output(stem) / "checkpoints").iterdir())
        digest = hashlib.sha256()
        for path in paths:
            digest.update(M.load_bundle(path)[1]["payload_sha256"].encode())
        assert (len(paths), digest.hexdigest()) == CHECKPOINT_PINS[stem]


@pytest.fixture
def nan_steps(monkeypatch):
    """Every Adam step leaves its parameters NaN: a cell's second step meets
    a non-finite value in its forward pass and fails."""
    step = T.Adam.step

    def poisoned(self):
        step(self)
        self.values[...] = np.nan

    monkeypatch.setattr(T.Adam, "step", poisoned)


class TestFailedGridPoints:
    @pytest.mark.parametrize("axis,key,grid", [
        ("lambda", "grl_lambda", [0.0, 0.4]),
        ("unlabeled_fraction", "unlabeled_fraction", [0.0, 1.0]),
    ])
    def test_failed_sweep_aggregates_per_grid_point(
            self, dataset, tmp_path, nan_steps, axis, key, grid):
        cfg = tiny_config(dataset, tmp_path)
        table = X.run_sweep(cfg, axis)
        assert all(r["status"].startswith("FAILED") for r in table.raw_rows)
        assert sorted({r[key] for r in table.raw_rows}) == grid
        assert [(a[key], a["n_ok"], a["n_failed"]) for a in table.aggregated] \
            == [(value, 0, len(cfg.seeds)) for value in grid]


class TestFailureRecords:
    @pytest.mark.parametrize("method,overrides", [
        ("bogus", {}), ("plain", {"grl_lambda": -1.0})])
    def test_rejected_spec_leaves_no_log(self, dataset, tmp_path, monkeypatch,
                                         method, overrides):
        """The spec is checked before the cell's log is opened: no file, and
        no handle left for the garbage collector to warn about."""
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        cfg = tiny_config(dataset, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(ConfigError):
                X.run_cell(cfg, "lr", method, 0.5, 0, **overrides)
            gc.collect()
        assert unraisable == []
        assert not (tmp_path / "logs").exists()

    def test_non_finite_step_names_its_step(self, dataset, tmp_path,
                                            nan_steps):
        cfg = tiny_config(dataset, tmp_path)
        with pytest.raises(ValueError,
                           match=r"non-finite .*\(method=fairvae epoch=0 step=1\)"
                           ) as info:
            X.run_cell(cfg, "lr", "fairvae", 0.5, 0)
        assert type(info.value) is ValueError
        assert type(info.value.__cause__) is ValueError
        assert "step=" not in str(info.value.__cause__)

    def test_failures_jsonl_keeps_full_traceback(self, dataset, tmp_path,
                                                 monkeypatch, nan_steps):
        cfg = tiny_config(dataset, tmp_path, methods=["plain"], seeds=[0, 1])
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
        monkeypatch.undo()  # the steps are finite again
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
    ({"lr": -0.01}, "lr"), ({"lr": 0}, "lr"), ({"lr": float("nan")}, "lr"),
    ({"lr": float("inf")}, "lr"),
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
        ("grl_lambda", -0.1)])
    def test_shared_settings_checked_on_every_class(self, make, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be"):
            make(**{key: value})


@settings(max_examples=60, deadline=None)
@given(values=st.fixed_dictionaries({
    "hidden_dim": st.integers(1, 512), "fm_factors": st.integers(1, 64),
    "latent_dim": st.integers(1, 64),
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
    "save_logs": st.booleans(),
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


class TestTwoCoreCell:
    def test_natural_size_dnn_cell_matches_serial_run(self, dataset, tmp_path,
                                                      monkeypatch):
        """dnn/fairvae at the default sizes (151k trainable values on this
        width-28 data): where the process may fork a helper its steps split,
        and its step log and checkpoint are the serial run's bytes."""
        calls, submit = [], parallel.Helper.submit
        monkeypatch.setattr(parallel.Helper, "submit",
                            lambda self, *a, **k: calls.append(1)
                            or submit(self, *a, **k))
        files, counts = [], []
        for serial in (True, False):
            monkeypatch.setattr(parallel, "_serial", serial)
            out = tmp_path / f"serial{serial}"
            cfg = tiny_config(dataset, out, backbones=["dnn"], epochs=2,
                              hidden_dim=256, latent_dim=32, fm_factors=16,
                              dropout_rate=0.2)
            row = X.run_cell(cfg, "dnn", "fairvae", 0.5, 0)
            files.append([(out / sub / f"{row['cell']}{ext}").read_bytes()
                          for sub, ext in (("logs", ".jsonl"),
                                           ("checkpoints", ".ckpt"))])
            counts.append(len(calls))
        assert files[0] == files[1]
        assert counts[0] == 0 and (counts[1] > 0) == parallel.forkable()

    def test_pool_after_split_training_matches_serial_run(self, dataset,
                                                          tmp_path):
        """A process that ran split training steps (its helper forked and
        reaped) runs a ``workers=2`` grid with the ``workers=1`` tables, and
        no pool worker splits a step: a worker that forked a helper would
        fail its cells."""
        code = textwrap.dedent("""
            import sys
            from fairvae import experiments as X, parallel
            forks, fork = [], parallel.Helper._fork
            parallel.Helper._fork = lambda self: forks.append(1) or fork(self)
            X.run_experiments(X.ExperimentConfig.from_file(sys.argv[1]))
            assert bool(forks) == parallel.forkable(), forks

            def refuse(self):
                raise RuntimeError("a pool worker forked a helper")

            parallel.Helper._fork = refuse
            X.run_experiments(X.ExperimentConfig.from_file(sys.argv[2]))
            """)
        paths = []
        for workers in (1, 2):
            cfg = tiny_config(dataset, tmp_path / f"workers{workers}",
                              workers=workers, dropout_rate=0.2)
            paths.append(tmp_path / f"workers{workers}.json")
            paths[-1].write_text(json.dumps(asdict(cfg)))
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", code, *map(str, paths)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        for stem in ("results_raw.csv", "results_agg.csv", "results.txt"):
            assert ((tmp_path / "workers2" / stem).read_bytes()
                    == (tmp_path / "workers1" / stem).read_bytes())
        assert "FAILED" not in (tmp_path / "workers2" / "results_raw.csv").read_text()


@pytest.fixture(scope="module")
def wide_export(tmp_path_factory):
    """An untrained dnn bundle at hidden width 256, saved with the encoding
    statistics of a ``write_adult_like`` pair whose test file holds 16,281
    rows, the canonical test set's count."""
    root = tmp_path_factory.mktemp("wide_export")
    train, test = root / "train.data", root / "test.data"
    write_adult_like(train, test, n_train=100, n_test=16_281, seed=3)
    _, stats = D.preprocess(D.load_adult(train, test)[0])
    bundle = M.ModelBundle(M.BundleConfig(input_dim=stats.feature_dim, seed=3))
    ckpt = root / "wide.ckpt"
    M.save_bundle(bundle, ckpt, config_hash="0123456789abcdef",
                  extra={"stats": asdict(stats)})
    return str(ckpt), str(test)


def _reference_export(ckpt, test_path) -> bytes:
    """The export's bytes as the per-value oracle writes them."""
    bundle, header = M.load_bundle(ckpt)
    test = X._load_test_set(ckpt, header, test_path)
    r_f, _, labels = X._predict(bundle, test.x)
    return oracles.reference_export(header, r_f, test.z, test.y, labels)


# values whose repr is scientific or holds 17 significant digits, and zeros
# of both signs
_AWKWARD_VALUES = [-0.0, 0.0, 5e-324, 1e-5, 1e16, 0.1 + 0.2, 1 / 3, -2.5e-300,
                   1.7976931348623157e308, 123456789.12345679, -7.0, 1e22]


def _patched_forward(monkeypatch, n: int, r_f=None):
    """Make the export see ``n`` test rows of ``r_f`` (a mix of
    ``_AWKWARD_VALUES`` by default); returns the columns it writes."""
    rng = np.random.default_rng(n)
    if r_f is None:
        r_f = rng.choice(_AWKWARD_VALUES, size=(n, 7))
    z, y, labels = (rng.integers(0, 2, n) for _ in range(3))
    monkeypatch.setattr(X, "_load_test_set", lambda *a: D.Samples(
        np.zeros((n, 1)), y, z))
    monkeypatch.setattr(X, "_predict", lambda bundle, x: (r_f, None, labels))
    return r_f, z, y, labels


def _spy(monkeypatch, cls, name) -> list:
    """Record each call of ``cls.name`` (its result or exception type)."""
    calls, method = [], getattr(cls, name)

    def spy(self, *args, **kwargs):
        try:
            calls.append(method(self, *args, **kwargs))
        except Exception as exc:
            calls.append(type(exc))
            raise
        return calls[-1]
    monkeypatch.setattr(cls, name, spy)
    return calls


def _failing_export_half(helper, views, start):
    """A helper task that fails (module level: tasks cross by name)."""
    raise RuntimeError("the helper failed")
    yield


class TestTwoCoreExport:
    """The export's rows split between the caller and a helper process
    where the process may fork one; the file holds the per-value writer's
    bytes either way (CI runs these on one CPU too, where none splits)."""

    def test_wide_export_splits_once_with_the_reference_bytes(
            self, wide_export, tmp_path, monkeypatch):
        submits = _spy(monkeypatch, parallel.Helper, "submit")
        out = tmp_path / "emb.csv"
        assert X.export_embeddings(*wide_export, out) == 16_281
        assert out.read_bytes() == _reference_export(*wide_export)
        assert len(submits) == int(parallel.forkable())

    @pytest.mark.parametrize("n", [0, 1, 2, 1_023, 1_025, 4_097])
    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    def test_awkward_values_keep_the_reference_bytes(
            self, trained, tmp_path, monkeypatch, n, split):
        """Block edges (1,024 rows) on either side of the cut."""
        monkeypatch.setattr(X, "EXPORT_SPLIT_MIN_VALUES", 0 if split else 2 ** 62)
        forks = _spy(monkeypatch, parallel.Helper, "_fork")
        columns = _patched_forward(monkeypatch, n)
        out = tmp_path / "emb.csv"
        assert X.export_embeddings(trained[1], "unused", out) == n
        header = M.load_bundle(trained[1])[1]
        assert out.read_bytes() == oracles.reference_export(header, *columns)
        assert len(forks) == int(split and parallel.forkable())

    # each case's columns formatted value by value, of 8
    _FORMATTED = {"a dead column": 7, "a -0.0 column": 8, "one nonzero row": 8,
                  "every column dead": 0, "no column dead": 8}

    @pytest.mark.parametrize("case", list(_FORMATTED))
    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    def test_zero_columns_keep_the_reference_bytes(
            self, trained, tmp_path, monkeypatch, case, split):
        """A column of +0.0 in every row is written as the line template's
        ``0.0`` literals (``_export_template``); a column of -0.0, or of
        zeros but for one row in the helper's half, goes through ``%r``."""
        n = 3_000
        r_f = np.maximum(np.random.default_rng(11).standard_normal((n, 8)), 0.0)
        if case == "every column dead":
            r_f[...] = 0.0
        elif case != "no column dead":
            r_f[:, 2] = -0.0 if case == "a -0.0 column" else 0.0
        if case == "one nonzero row":
            r_f[-1, 2] = 0.25
        assert X._export_template(r_f)[0].count("%r") == self._FORMATTED[case]
        monkeypatch.setattr(X, "EXPORT_SPLIT_MIN_VALUES", 0 if split else 2 ** 62)
        forks = _spy(monkeypatch, parallel.Helper, "_fork")
        columns = _patched_forward(monkeypatch, n, r_f)
        out = tmp_path / "emb.csv"
        assert X.export_embeddings(trained[1], "unused", out) == n
        header = M.load_bundle(trained[1])[1]
        assert out.read_bytes() == oracles.reference_export(header, *columns)
        assert len(forks) == int(split and parallel.forkable())

    @pytest.mark.parametrize("case", ["below", "one_cpu", "pool_worker",
                                      "beside_thread"])
    def test_no_fork(self, trained, dataset, tmp_path, monkeypatch, case):
        """Below the constant (120 rows x 8), and, with the constant at 0,
        on one CPU, in a grid's pool worker or beside another thread."""
        if case != "below":
            monkeypatch.setattr(X, "EXPORT_SPLIT_MIN_VALUES", 0)
        if case == "one_cpu":
            monkeypatch.setattr(parallel, "_cpus", lambda: 1)
        elif case == "pool_worker":
            monkeypatch.setattr(parallel, "_serial", True)
        forks = _spy(monkeypatch, parallel.Helper, "_fork")
        out = tmp_path / "emb.csv"
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        if case == "beside_thread":
            thread.start()
        try:
            X.export_embeddings(trained[1], dataset[1], out)
        finally:
            done.set()
            if thread.is_alive():
                thread.join()
        assert forks == []
        assert out.read_bytes() == _reference_export(trained[1], dataset[1])

    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    def test_formatting_error_has_the_serial_type(self, trained, tmp_path,
                                                  monkeypatch, split):
        """A value whose repr raises, in the last row: the helper's half."""
        class Unprintable:
            def __repr__(self):
                raise ValueError("unprintable value")

        r_f = np.zeros((3_000, 40), dtype=object)
        r_f[...] = 0.5
        r_f[-1, -1] = Unprintable()
        monkeypatch.setattr(X, "EXPORT_SPLIT_MIN_VALUES", 0 if split else 2 ** 62)
        replies = _spy(monkeypatch, parallel.Helper, "reply")
        _patched_forward(monkeypatch, len(r_f), r_f)
        with pytest.raises(ValueError, match="^unprintable value$"):
            X.export_embeddings(trained[1], "unused", tmp_path / "emb.csv")
        assert replies == ([ValueError] if split and parallel.forkable() else [])

    @pytest.mark.parametrize("failure", ["task", "fork"])
    def test_helper_failure_leaves_the_serial_bytes(
            self, trained, dataset, tmp_path, monkeypatch, failure):
        """The caller formats the helper's half itself, or all rows if the
        helper could not be forked."""
        def no_fork(self):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(X, "EXPORT_SPLIT_MIN_VALUES", 0)
        if failure == "task":
            monkeypatch.setattr(X, "_export_half", _failing_export_half)
        else:
            monkeypatch.setattr(parallel.Helper, "_fork", no_fork)
        replies = _spy(monkeypatch, parallel.Helper, "reply")
        out = tmp_path / "emb.csv"
        X.export_embeddings(trained[1], dataset[1], out)
        assert out.read_bytes() == _reference_export(trained[1], dataset[1])
        helper_failed = failure == "task" and parallel.forkable()
        assert replies == ([RuntimeError] if helper_failed else [])

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device whose writes fail")
    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    def test_write_error_has_the_serial_type(self, wide_export, monkeypatch,
                                             split):
        """Every write to /dev/full fails with ENOSPC; the helper, still
        formatting or sending its half, is reaped."""
        monkeypatch.setattr(X, "EXPORT_SPLIT_MIN_VALUES", 0 if split else 2 ** 62)
        forks = _spy(monkeypatch, parallel.Helper, "_fork")
        with pytest.raises(OSError) as info:
            X.export_embeddings(*wide_export, "/dev/full")
        assert info.value.errno == errno.ENOSPC
        assert len(forks) == int(split and parallel.forkable())
