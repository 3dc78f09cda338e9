"""The benchmark's two workloads: inputs, set-up, timed rounds and checks.

A round is one whole pass of a workload's operations: one ``run_experiments``
grid, followed on the wide workload by the ``eval`` and ``export-embeddings``
verbs on the checkpoint the grid wrote. Every round is checked against the
benchmark's own computations (``oracle``) before the next one starts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import time
import traceback

from fairvae import cli, experiments, synthetic, training

import adultgen
import oracle
from oracle import require

VAL_FRAC, RATIO, BATCH = 0.1, 0.2, 128

# row counts and epochs; "tiny" is the self-test's size
SIZES = {
    "full": {
        "train_fairvae_dnn_wide": dict(n_train=adultgen.CANONICAL_ROWS[0],
                                       n_test=adultgen.CANONICAL_ROWS[1], epochs=3),
        "ladder_lr_fm_narrow": dict(n_train=4_000, n_test=300, epochs=3),
    },
    "tiny": {
        "train_fairvae_dnn_wide": dict(n_train=1_500, n_test=400, epochs=2),
        "ladder_lr_fm_narrow": dict(n_train=300, n_test=120, epochs=2),
    },
}


def dataset(out: str, kind: str, n_train: int, n_test: int, seed: int):
    """Train/test file pair, written once per kind, size and seed."""
    folder = os.path.join(out, "data")
    os.makedirs(folder, exist_ok=True)
    stem = os.path.join(folder, f"{kind}-{n_train}-{n_test}-s{seed}")
    paths = (stem + ".data", stem + ".test")
    if not all(os.path.exists(p) for p in paths):
        if kind == "adult103":
            adultgen.write_pair(*paths, n_train=n_train, n_test=n_test, seed=seed)
        else:
            tmp = [f"{p}.tmp{os.getpid()}" for p in paths]
            synthetic.write_adult_like(*tmp, n_train=n_train, n_test=n_test,
                                       seed=seed)
            for src, dst in zip(tmp, paths):
                os.replace(src, dst)
    return paths


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclasses.dataclass
class RoundResult:
    attempted: int
    failed: int
    rows: int            # rows the training steps consumed
    rows_seconds: float  # time in training.train
    eval_seconds: float  # test-set evaluation, in run_cell and the eval verb


class TrainGrid:
    """One ``run_experiments`` grid per round, logs and checkpoints on."""

    name, why = "", ""
    kind, backbones, methods = "", (), ()

    def __init__(self, size: str, seed: int, out: str):
        s = self.sizes = SIZES[size][self.name]
        self.seed = seed
        self.out = os.path.join(out, f"run-{self.name}-{os.getpid()}")
        self.ref_hashes: dict = {}
        self.notes: dict = {}  # test metrics of the last checked round
        self.paths = dataset(out, self.kind, s["n_train"], s["n_test"], seed)
        self.cfg = experiments.ExperimentConfig(
            train_path=self.paths[0], test_path=self.paths[1],
            output_dir=os.path.join(self.out, "grid"),
            backbones=list(self.backbones), methods=list(self.methods),
            label_ratios=[RATIO], seeds=[seed], epochs=s["epochs"],
            batch_size=BATCH, val_frac=VAL_FRAC, workers=1,
            save_checkpoints=True, save_logs=True)
        self.test_rows = oracle.read_adult(self.paths[1])
        self.n_lab, self.n_unl = oracle.split_counts(
            len(oracle.read_adult(self.paths[0])), VAL_FRAC, RATIO)

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def _width_check(self, train_samples, test_samples, stats) -> None:
        """The program's loader reads every row, at the width of adultgen."""
        require(len(train_samples) == self.sizes["n_train"]
                and len(test_samples) == self.sizes["n_test"],
                f"loader read {len(train_samples)}/{len(test_samples)} rows")
        width = adultgen.encoded_width()
        require(width == 103 and stats.feature_dim == width
                and train_samples[0].x.shape == (width,),
                f"encoded width {stats.feature_dim}, expected {width} = 103")

    def _same_as_first(self, index: int, path) -> None:
        digest = _sha(path)
        if index == 0:
            self.ref_hashes[path] = digest
        require(digest == self.ref_hashes[path],
                f"{os.path.basename(path)} of round {index} differs from round 0")

    def setup(self) -> None:
        train_samples, test_samples, stats = experiments.load_dataset(self.cfg)
        if self.kind == "adult103":
            self._width_check(train_samples, test_samples, stats)

    def run_round(self, tracer, index: int) -> RoundResult:
        shutil.rmtree(self.cfg.output_dir, ignore_errors=True)
        table = experiments.run_experiments(self.cfg)
        where = ("round", index)
        spans = tracer.durations(where)
        failed = sum(1 for row in table.raw_rows if row["status"] != "OK")
        return RoundResult(len(table.raw_rows), failed, tracer.round_rows[where],
                           spans["training.train"], spans["eval"])

    def check_round(self, tracer, index: int) -> None:
        root = self.cfg.output_dir
        # a rerun of the same cells writes byte-identical results
        self._same_as_first(index, os.path.join(root, "results_raw.csv"))
        self._same_as_first(index, os.path.join(root, "results_agg.csv"))
        raw = oracle.read_csv(os.path.join(root, "results_raw.csv"))
        agg = oracle.read_csv(os.path.join(root, "results_agg.csv"))
        cells = {f"{b}_{m}_r{RATIO}_s{self.seed}": (b, m)
                 for b in self.backbones for m in self.methods}
        require(sorted(r["cell"] for r in raw) == sorted(cells),
                f"raw rows {[r['cell'] for r in raw]}")
        encoded = {}
        for row in raw:
            require(row["status"] == "OK", f"{row['cell']}: {row['status']}")
            header, params = oracle.read_checkpoint(
                os.path.join(root, "checkpoints", row["cell"] + ".ckpt"))
            stats = header["extra"]["stats"]
            key = json.dumps(stats, sort_keys=True)
            if key not in encoded:
                encoded[key] = oracle.encode_test(self.test_rows, stats)
            x, y, z = encoded[key]
            rep, probs = oracle.bias_free_forward(header, params, x)
            self.forward = (rep, probs, y, z)
            expected = oracle.test_metrics(y, z, probs)
            # reported, not required: on some seeds the program restores a
            # model that predicts one class (see README, "Checks")
            self.notes[row["cell"]] = {k: round(expected[k], 4) for k in
                                       ("accuracy", "dp_gap", "opp_gap", "auc")}
            self.notes[row["cell"]]["majority"] = round(max(y.mean(), 1 - y.mean()), 4)
            oracle.check_metrics(row, expected, row["cell"])
            method = cells[row["cell"]][1]
            steps = oracle.expected_steps(
                method, self.n_lab, self.n_unl, BATCH, self.sizes["epochs"],
                int(row.get("pseudo_label_count") or 0))
            logged = oracle.check_log(os.path.join(root, "logs", row["cell"] + ".jsonl"),
                                      row["cell"], self.seed)
            if not method.endswith("_st"):  # self-training writes no step records
                require(logged == steps, f"{row['cell']}: {logged} logged steps, "
                        f"the split gives {steps}")
            ran = tracer.steps[(("round", index), cells[row["cell"]])]
            require(ran == steps, f"{row['cell']}: {ran} training steps, "
                    f"the split gives {steps}")
        oracle.check_aggregates(raw, agg)


class TrainWide(TrainGrid):
    """The paper's cell, then the eval and export verbs on its checkpoint."""

    name = "train_fairvae_dnn_wide"
    why = ("the paper's model at its matmul shapes (fairvae, 256-wide dnn, "
           "width-103 Adult-format data at canonical row counts), then the "
           "eval and export verbs on its checkpoint")
    kind, backbones, methods = "adult103", ("dnn",), ("fairvae",)

    def __init__(self, size, seed, out):
        super().__init__(size, seed, out)
        self.ckpt = os.path.join(self.cfg.output_dir, "checkpoints",
                                 f"dnn_fairvae_r{RATIO}_s{seed}.ckpt")
        self.csv = os.path.join(self.out, "embeddings.csv")

    def _verb(self, argv) -> tuple[int, str, float]:
        """Exit code, printed text and seconds of one CLI call."""
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:  # a crashing verb is a failed operation
            traceback.print_exc()
            code = 1
        return code, buf.getvalue(), time.perf_counter() - t0

    def run_round(self, tracer, index: int) -> RoundResult:
        result = super().run_round(tracer, index)
        if os.path.exists(self.csv):
            os.remove(self.csv)
        code_e, text_e, eval_s = self._verb(
            ["eval", "--checkpoint", self.ckpt, "--test", self.paths[1],
             "--seed", str(self.seed)])
        code_x, text_x, _ = self._verb(
            ["export-embeddings", "--checkpoint", self.ckpt,
             "--test", self.paths[1], "--out", self.csv])
        self.printed = (text_e, text_x)
        result.attempted += 2
        result.failed += int(code_e != 0) + int(code_x != 0)
        result.eval_seconds += eval_s
        return result

    def check_round(self, tracer, index: int) -> None:
        super().check_round(tracer, index)
        rep, probs, y, z = self.forward
        text_e, text_x = self.printed
        try:
            report = json.loads(text_e)
        except ValueError:
            raise oracle.CheckFailed(f"eval printed {text_e[:200]!r}") from None
        oracle.check_metrics(report, oracle.test_metrics(y, z, probs), "eval")
        # the verb evaluates the saved weights with the cell's probe seed
        raw = oracle.read_csv(os.path.join(self.cfg.output_dir, "results_raw.csv"))
        require(report["probe_accuracy"] == float(raw[0]["probe_accuracy"]),
                f"eval: probe_accuracy {report['probe_accuracy']!r}, the cell "
                f"reported {raw[0]['probe_accuracy']}")
        require(text_x.split()[:2] == ["wrote", str(len(y))],
                f"export printed {text_x.strip()!r} for {len(y)} test rows")
        if index == 0:
            oracle.check_export(self.csv, rep, y, z, probs.argmax(axis=1))
        self._same_as_first(index, self.csv)


class Ladder(TrainGrid):
    name = "ladder_lr_fm_narrow"
    why = ("all six methods on lr and fm at width 28 and small row counts, "
           "where per-node Python overhead outweighs matrix work")
    kind, backbones, methods = "adultlike28", ("lr", "fm"), training.METHODS


WORKLOADS = {w.name: w for w in (TrainWide, Ladder)}
