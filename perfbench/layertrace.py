"""Spans and counts taken from outside the program.

The tracer replaces public functions by timing wrappers at the names their
callers look them up under (``training.batches`` for the training loop,
``models.encode`` for every caller of ``M.encode``) and puts the originals
back on exit. Spans are kept in memory and written out at the end of a run.

The light mode, used for the end-to-end metrics, wraps only the few calls
those metrics need: one per cell, one per batch. The full mode, used for the
per-layer metrics, wraps every layer boundary named in the README.

Work that lives only in private functions is derived by subtracting the
public spans around it, e.g. the self-training predictor round is
``training.self_train`` minus the ``training.train`` it calls.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from collections import Counter, defaultdict

from fairvae import autodiff, cli, data, experiments, metrics, models
from fairvae import objectives, training

# cells of the benchmark's workloads, for per-cell metrics
CELLS = [("dnn", "fairvae")] + [(b, m) for b in ("lr", "fm")
                                for m in training.METHODS]

ROUND_TIMES = [  # (metric, span) summed per round, median over rounds
    ("data.split_and_mask_s", "data.split_and_mask"),
    ("data.batch_wait_s", "data.batch_wait"),
    ("data.preprocess_test_s", "data.preprocess"),
    ("models.encode_train_s", "models.encode.step"),
    ("models.encode_eval_s", "models.encode.eval"),
    ("objectives.labeled_loss_s", "objectives.labeled_loss"),
    ("objectives.unlabeled_loss_s", "objectives.unlabeled_loss"),
    ("autodiff.backward_s", "autodiff.backward.step"),
    ("training.adam_s", "training.adam.step"),
    ("training.validation_s", "training.predict_labels.train"),
    ("training.st_predictor_s", "derived.st_predictor"),
    ("models.save_bundle_s", "models.save_bundle"),
    ("experiments.emit_s", "derived.emit"),
    ("models.predict_test_s", "models.predict_test.eval"),
    ("metrics.leakage_probe_s", "metrics.leakage_probe"),
    ("metrics.fairness_report_s", "derived.fairness_report"),
    ("models.load_bundle_s", "models.load_bundle"),
    ("experiments.export_embeddings_s", "experiments.export_embeddings"),
    ("cli.overhead_s", "derived.cli_overhead"),
]
SETUP_TIMES = [  # (metric, span) summed over the run's set-up
    ("data.load_adult_s", "data.load_adult"),
    ("data.preprocess_s", "data.preprocess"),
    ("experiments.load_dataset_s", "experiments.load_dataset"),
]


def layer_metric_units() -> dict:
    """Every per-layer metric name and its unit, in a fixed order."""
    units = {name: "s" for name, _ in SETUP_TIMES + ROUND_TIMES}
    units["training.steps"] = "count"
    for name in ("models.encode_calls_per_step", "models.decode_calls_per_step",
                 "autodiff.dense_per_step"):
        units[name] = "count"
    units["autodiff.matmul_gflop_per_step"] = "GFLOP"
    for backbone, method in CELLS:
        units[f"autodiff.nodes_per_step.{backbone}.{method}"] = "count"
        units[f"training.step_ms.{backbone}.{method}"] = "ms"
    units["experiments.export_rows_per_s"] = "rows/s"
    units["training.rss_peak_mb"] = "MB"
    units["metrics.rss_peak_mb"] = "MB"
    return units


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _label(module, name: str) -> str:
    return f"{module.__name__.removeprefix('fairvae.')}.{name}"


def _graph_size(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Install with ``with Tracer(full) as tr:``; read results afterwards."""

    def __init__(self, full: bool):
        self.full = full
        self.spans: list[tuple] = []  # (name, where, cell, t0, t1)
        self.where = ("setup", 0)     # ("setup", 0) or ("round", index)
        self.cell = None              # (backbone, method) of the running cell
        self.train_depth = 0
        self.st_depth = 0
        self.in_step = False
        self.step_ms: dict = defaultdict(list)
        self.steps: Counter = Counter()       # per (round, cell)
        self.round_rows: Counter = Counter()
        self.exported: Counter = Counter()     # rows written by the export
        self.step_counts: Counter = Counter()  # encode/decode/dense/gflop
        self.cell_nodes: Counter = Counter()
        self.rss = {"training": 0.0, "metrics": 0.0}
        self._train_end = None
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        self._patch(experiments, "run_cell", self._run_cell)
        self._patch(training, "train", self._train)
        self._patch(training, "self_train", self._self_train)
        self._patch(training, "batches", self._batches(False))
        self._patch(training, "single_stream_batches", self._batches(True))
        self._patch(models, "save_bundle", self._span("models.save_bundle"))
        if self.full:
            for module, name in ((data, "load_adult"), (data, "preprocess"),
                                 (data, "split_and_mask"),
                                 (experiments, "load_dataset"),
                                 (experiments, "run_experiments"),
                                 (experiments, "evaluate_checkpoint"),
                                 (experiments, "export_embeddings"),
                                 (objectives, "labeled_loss"),
                                 (objectives, "unlabeled_loss"),
                                 (metrics, "leakage_probe"),
                                 (metrics, "fairness_report"),
                                 (models, "load_bundle"), (cli, "main")):
                self._patch(module, name, self._span(_label(module, name)))
            for module, name in ((models, "encode"), (models, "predict_test"),
                                 (training, "predict_labels"),
                                 (autodiff, "backward")):
                self._patch(module, name, self._phased(_label(module, name)))
            self._patch(training.Adam, "step", self._phased("training.adam"))
            self._patch(models.VaePair, "decode", self._counted("decode"))
            self._patch(autodiff, "dense", self._dense)
            self._patch(autodiff, "matmul", self._matmul)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False

    def _patch(self, owner, name, make):
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def _record(self, name, t0, t1):
        self.spans.append((name, self.where, self.cell, t0, t1))

    # -- wrappers -------------------------------------------------------------

    def _span(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                if name == "models.save_bundle" and self._train_end is not None:
                    # run_cell evaluates the test set between training and
                    # saving the checkpoint
                    self._record("eval", self._train_end, time.perf_counter())
                    self._train_end = None
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                    if name == "experiments.export_embeddings":
                        self.exported[self.where] += out  # rows written
                    return out
                finally:
                    self._record(name, t0, time.perf_counter())
                    if name == "metrics.fairness_report":
                        self.rss["metrics"] = max_rss_mb()
            return wrapper
        return make

    def _phase(self):
        if self.in_step:
            return "step"
        return "train" if self.train_depth else "eval"

    def _phased(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                where = self._phase()
                if where == "step" and name == "models.encode":
                    self.step_counts["encode"] += 1
                if where == "step" and name == "autodiff.backward":
                    self.cell_nodes[self.cell] += _graph_size(args[0])
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._record(f"{name}.{where}", t0, time.perf_counter())
            return wrapper
        return make

    def _counted(self, key):
        def make(fn):
            def wrapper(*args, **kwargs):
                if self.in_step:
                    self.step_counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _dense(self, fn):
        def wrapper(x, weight, bias):
            if self.in_step:
                rows = x.value.shape[0] if hasattr(x, "value") else len(x)
                d_in, d_out = weight.value.shape
                self.step_counts["dense"] += 1
                # forward x@W, backward dx = up@W.T and dW = x.T@up
                self.step_counts["flop"] += 6 * rows * d_in * d_out
            return fn(x, weight, bias)
        return wrapper

    def _matmul(self, fn):
        def wrapper(a, b):
            if self.in_step:
                n, k = autodiff.as_node(a).value.shape
                m = autodiff.as_node(b).value.shape[1]
                self.step_counts["flop"] += 6 * n * k * m
            return fn(a, b)
        return wrapper

    def _run_cell(self, fn):
        def wrapper(cfg, backbone, method, ratio, seed, **kwargs):
            self.cell = (backbone, method)
            t0 = time.perf_counter()
            try:
                return fn(cfg, backbone, method, ratio, seed, **kwargs)
            finally:
                self._record("experiments.run_cell", t0, time.perf_counter())
                self.cell = None
        return wrapper

    def _train(self, fn):
        def wrapper(*args, **kwargs):
            self.train_depth += 1
            name = "training.train" if self.train_depth == 1 else "training.train.inner"
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.train_depth -= 1
                self._record(name, t0, t1)
                if self.train_depth == 0:
                    self._train_end = t1
                    self.rss["training"] = max_rss_mb()
        return wrapper

    def _self_train(self, fn):
        def wrapper(*args, **kwargs):
            self.st_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.st_depth -= 1
                self._record("training.self_train", t0, time.perf_counter())
        return wrapper

    def _batches(self, single: bool):
        def make(fn):
            def wrapper(*args, **kwargs):
                # the self-training predictor round steps on labeled rows only
                predictor = self.st_depth > 0 and self.train_depth == 1
                return self._drive(fn(*args, **kwargs), single, predictor)
            return wrapper
        return make

    def _drive(self, gen, single, predictor):
        cell, where = self.cell, self.where
        step_start = None
        while True:
            t0 = time.perf_counter()
            self.in_step = False
            if step_start is not None:
                self.step_ms[cell].append(1e3 * (t0 - step_start))
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._record("data.batch_wait", t0, time.perf_counter())
            if single:
                rows = len(item)
            else:
                lab, unl = item
                rows = len(lab) + (0 if predictor else len(unl))
            self.round_rows[where] += rows
            self.steps[(where, cell)] += 1
            self.in_step = True
            step_start = time.perf_counter()
            yield item

    # -- results ------------------------------------------------------------

    def durations(self, where) -> Counter:
        """Summed span seconds by name for one set-up repetition or round."""
        out: Counter = Counter()
        for name, w, _, t0, t1 in self.spans:
            if w == where:
                out[name] += t1 - t0
        out["derived.st_predictor"] = (out["training.self_train"]
                                       - out["training.train.inner"])
        out["derived.emit"] = (out["experiments.run_experiments"]
                               - out["experiments.run_cell"]
                               - out["experiments.load_dataset"])
        out["derived.fairness_report"] = (out["metrics.fairness_report"]
                                          - out["metrics.leakage_probe"])
        out["derived.cli_overhead"] = (out["cli.main"]
                                       - out["experiments.evaluate_checkpoint"]
                                       - out["experiments.export_embeddings"])
        return out

    def layer_metrics(self, rounds: int) -> dict:
        setup = self.durations(("setup", 0))
        per_round = [self.durations(("round", i)) for i in range(rounds)]
        values = {metric: float(setup[span]) for metric, span in SETUP_TIMES}
        for metric, span in ROUND_TIMES:
            values[metric] = statistics.median(max(float(d[span]), 0.0) for d in per_round)
        per_cell: Counter = Counter()
        for (_, cell), n in self.steps.items():
            per_cell[cell] += n
        steps = sum(per_cell.values())
        values["training.steps"] = steps / rounds
        per_step = (lambda key: self.step_counts[key] / steps) if steps else (lambda key: 0.0)
        values["models.encode_calls_per_step"] = per_step("encode")
        values["models.decode_calls_per_step"] = per_step("decode")
        values["autodiff.dense_per_step"] = per_step("dense")
        values["autodiff.matmul_gflop_per_step"] = per_step("flop") / 1e9
        for cell in CELLS:
            key = ".".join(cell)
            n = per_cell[cell]
            values[f"autodiff.nodes_per_step.{key}"] = self.cell_nodes[cell] / n if n else 0.0
            values[f"training.step_ms.{key}"] = (statistics.median(self.step_ms[cell])
                                                 if self.step_ms[cell] else 0.0)
        export = [(self.exported[("round", i)], d["experiments.export_embeddings"])
                  for i, d in enumerate(per_round)]
        values["experiments.export_rows_per_s"] = statistics.median(
            rows / secs if secs else 0.0 for rows, secs in export)
        values["training.rss_peak_mb"] = self.rss["training"]
        values["metrics.rss_peak_mb"] = self.rss["metrics"]
        return values

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, where, cell, t0, t1 in self.spans:
                fh.write(json.dumps({"name": name, "phase": where[0],
                                     "index": where[1],
                                     "cell": ".".join(cell) if cell else None,
                                     "start": t0, "end": t1}) + "\n")
