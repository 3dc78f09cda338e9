"""Config-driven experiment runner: grids, ablations, sweeps, exports.

The grid, the ablation and both sweeps are cell lists run through one path
(``_run_grid``): execute every cell, aggregate the rows by group, emit the
tables. A cell is ``run_cell``'s keyword arguments plus a ``group`` dict that
is stamped onto its row, so a row names its grid point whether it passed or
failed. Cells run independently; a failing cell is recorded as FAILED and the
run continues.

Every output file embeds the config hash and the seed list, and all floats
are written with round-trip ``repr`` so a rerun under the same hash is
byte-identical.
"""

from __future__ import annotations

import csv
import json
import hashlib
import os
import traceback
import warnings
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import data as D
from . import metrics as MX
from . import models as M
from . import parallel
from . import training as T
from .objectives import ObjectiveConfig

DOWNLOAD_HINT = (
    "the canonical Adult census files are available from the UCI repository "
    "(https://archive.ics.uci.edu/ml/machine-learning-databases/adult/); "
    "scripts/fetch_adult.py downloads and verifies them"
)

ABLATION_VARIANTS = {
    "full": {},
    "no_zhat_decoder": {"use_zhat_in_decoder": False},
    "no_ztilde_decoder": {"use_ztilde_in_decoder": False},
    "no_entropy_zhat": {"use_entropy_zhat": False},
    "no_entropy_ztilde": {"use_entropy_ztilde": False},
}

# sweep axis -> (row key and run_cell argument, cell-name tag, config grid)
SWEEP_AXES = {
    "lambda": ("grl_lambda", "lam", "lambda_grid"),
    "unlabeled_fraction": ("unlabeled_fraction", "frac", "unlabeled_fractions"),
}


def _known_keys(cls, raw, what: str) -> dict:
    """``raw`` unchanged if it is a dict whose keys are all fields of ``cls``."""
    if not isinstance(raw, dict):
        raise D.ConfigError(f"{what} must be a JSON object, got {raw!r}")
    known = set(cls.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise D.ConfigError(
            f"unknown {what} keys: {sorted(unknown)}; known keys: {sorted(known)}")
    return raw


_GRID_AXES = ("seeds", "backbones", "methods", "label_ratios", "lambda_grid",
              "unlabeled_fractions")

# grid axis -> (check of each value, what the values must be); backbones and
# methods are checked against the names the code knows
_GRID_VALUES = (
    ("seeds", lambda v: M.is_int(v) and v >= 0, "ints >= 0"),
    ("label_ratios", lambda v: M.is_number(v) and 0 < v <= 1,
     "numbers in (0, 1]"),
    ("lambda_grid", lambda v: M.is_number(v) and v >= 0, "numbers >= 0"),
    ("unlabeled_fractions", lambda v: M.is_number(v) and 0 <= v <= 1,
     "numbers in [0, 1]"),
)


@dataclass
class ExperimentConfig(T.TrainingSettings):
    """An experiment: the data, the grids and how cells are run, plus the
    architecture and training settings every cell shares (inherited, so a
    config file and ``MethodSpec`` take the same keys and defaults)."""

    train_path: str = "data/adult/adult.data"
    test_path: str = "data/adult/adult.test"
    output_dir: str = "results"
    backbones: list = field(default_factory=lambda: ["lr", "dnn", "fm"])
    methods: list = field(default_factory=lambda: list(T.METHODS))
    label_ratios: list = field(default_factory=lambda: [0.1, 0.2, 0.5])
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    lambda_grid: list = field(default_factory=lambda: [0.0, 0.1, 0.4, 1.0, 4.0])
    unlabeled_fractions: list = field(
        default_factory=lambda: [0.0, 0.25, 0.5, 0.75, 1.0])
    val_frac: float = 0.1
    sweep_backbone: str = "fm"   # the ablation and both sweeps run here
    sweep_ratio: float = 0.2
    workers: int = 1
    save_checkpoints: bool = True
    save_logs: bool = True

    def __post_init__(self):
        if not isinstance(self.objective, ObjectiveConfig):  # JSON or --set
            self.objective = ObjectiveConfig(
                **_known_keys(ObjectiveConfig, self.objective, "objective"))
        super().__post_init__()  # every type, the shared settings' ranges
        M.require(self, "val_frac", lambda v: 0 < v < 1, "in (0, 1)")
        M.require(self, "sweep_ratio", lambda v: 0 < v <= 1, "in (0, 1]")
        M.require(self, "workers", lambda v: v >= 1, ">= 1")
        # an empty axis would run no cell and still report success
        for axis in _GRID_AXES:
            M.require(self, axis, bool, "a non-empty list")
        for axis, ok, expected in _GRID_VALUES:
            M.require(self, axis, lambda values: all(map(ok, values)),
                      f"a list of {expected}")
        # grid values name cells: a repeated one would run a cell twice
        for axis in _GRID_AXES:
            values = getattr(self, axis)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise D.ConfigError(f"{axis} repeats {repeated}: {values}")
        for axis, values, allowed in (
                ("backbones", [*self.backbones, self.sweep_backbone],
                 M.BACKBONE_KINDS), ("methods", self.methods, T.METHODS)):
            unknown = [v for v in values if v not in allowed]
            if unknown:
                raise D.ConfigError(
                    f"unknown {axis} {unknown}; expected from {allowed}")
        self.check_threshold(self.methods)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return cls(**_known_keys(cls, raw, "config"))

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        """A UTF-8 JSON object; anything else raises ``ConfigError``."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise D.ConfigError(f"{path}: not a UTF-8 JSON file: {exc}") from None
        if not isinstance(raw, dict):
            raise D.ConfigError(f"{path}: a config file must hold a JSON object, "
                                f"got {raw!r}")
        return cls.from_dict({**raw, **(overrides or {})})


# fields that change no number: where the outputs go and how cells are run
_UNHASHED = ("output_dir", "workers", "save_checkpoints", "save_logs")


def config_hash(cfg: ExperimentConfig) -> str:
    """Identifies the experiment; the data paths stay in as its only handle on
    which data was used."""
    payload = {k: v for k, v in asdict(cfg).items() if k not in _UNHASHED}
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# the last preprocessed dataset pair this process loaded, keyed by the two
# paths, with the files' (size, mtime) so a file rewritten in place is
# reloaded; one entry, so a process that loads many pairs holds only the last
_DATA_CACHE: dict = {}


def load_dataset(cfg: ExperimentConfig):
    key = (cfg.train_path, cfg.test_path)
    stamp = []
    for path in (cfg.train_path, cfg.test_path):
        try:
            st = os.stat(path)
        except FileNotFoundError:
            raise FileNotFoundError(
                f"dataset file not found: {path}; {DOWNLOAD_HINT}"
            ) from None
        stamp.append((st.st_size, st.st_mtime_ns))
    cached = _DATA_CACHE.get(key)
    if cached is None or cached[0] != stamp:
        _DATA_CACHE.clear()  # before the load: two pairs are never held
        train_records, test_records = D.load_adult(cfg.train_path, cfg.test_path)
        train_samples, stats = D.preprocess(train_records)
        test_samples, _ = D.preprocess(test_records, stats)
        _DATA_CACHE[key] = (stamp, (train_samples, test_samples, stats))
    return _DATA_CACHE[key][1]


def _cell_name(backbone, method, ratio, seed, **extra):
    parts = [backbone, method, f"r{ratio}", f"s{seed}"]
    parts += [f"{k}{v}" for k, v in sorted(extra.items())]
    return "_".join(str(p) for p in parts)


@contextmanager
def _cell_log(cfg: ExperimentConfig, name: str, seed: int):
    """The step-record writer of ``logs/<name>.jsonl`` (None without logs),
    the file open for the block's duration."""
    if not cfg.save_logs:
        yield None
        return
    os.makedirs(os.path.join(cfg.output_dir, "logs"), exist_ok=True)
    with open(os.path.join(cfg.output_dir, "logs", f"{name}.jsonl"), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps({"config_hash": config_hash(cfg),
                             "cell": name, "seed": seed}) + "\n")
        yield lambda record: fh.write(json.dumps(record, sort_keys=True) + "\n")


def run_cell(cfg: ExperimentConfig, backbone: str, method: str, ratio: float,
             seed: int, unlabeled_fraction: float | None = None,
             cell_name: str | None = None, **overrides) -> dict:
    """Train and evaluate one experiment cell; returns a raw results row.
    ``overrides`` replace the config's training settings for this cell (the
    ablation's ``objective``, the lambda sweep's ``grl_lambda``)."""
    name = cell_name or _cell_name(backbone, method, ratio, seed)
    spec = T.MethodSpec(
        **{**M.settings(cfg, T.TrainingSettings), **overrides},
        backbone=backbone, method=method, seed=seed)
    train_samples, test_samples, stats = load_dataset(cfg)
    split = D.split_and_mask(train_samples, cfg.val_frac, ratio, seed)
    if unlabeled_fraction is not None:
        split = split.with_unlabeled_fraction(unlabeled_fraction)
    root = cfg.output_dir
    with _cell_log(cfg, name, seed) as log_writer, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bundle, report = T.train(spec, split, log_writer=log_writer)
    if report.shadow_reads_during_training != 0:
        raise RuntimeError(
            f"{name}: training read {report.shadow_reads_during_training} "
            f"shadow attribute values"
        )
    fairness = _test_report(bundle, test_samples, seed)
    if cfg.save_checkpoints:
        os.makedirs(os.path.join(root, "checkpoints"), exist_ok=True)
        M.save_bundle(
            bundle, os.path.join(root, "checkpoints", f"{name}.ckpt"),
            config_hash=config_hash(cfg),
            extra={"cell": name, "stats": asdict(stats),
                   "method": method, "label_ratio": ratio},
        )
    row = {
        "cell": name, "backbone": backbone, "method": method, "ratio": ratio,
        "seed": seed, "status": "OK", **fairness.as_dict(),
        "selected_epoch": report.selected_epoch,
    }
    if report.pseudo_label_count is not None:
        row["pseudo_label_count"] = report.pseudo_label_count
    return row


def _run_cell_task(args):
    """Run one cell in isolation; the cell's group lands on its row, OK or
    FAILED."""
    cfg, cell = args
    kwargs = {k: v for k, v in cell.items() if k != "group"}
    try:
        row = run_cell(cfg, **kwargs)
    except Exception as exc:  # cell isolation: record and continue
        row = {
            "cell": kwargs["cell_name"], "backbone": kwargs["backbone"],
            "method": kwargs["method"], "ratio": kwargs["ratio"],
            "seed": kwargs["seed"],
            "status": f"FAILED: {type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
    row.update(cell["group"])
    return row


@dataclass
class ResultsTable:
    kind: str
    config_hash: str
    seeds: list
    raw_rows: list
    aggregated: list
    group_keys: tuple

    def comment(self) -> str:
        return (f"# kind={self.kind} config_hash={self.config_hash} "
                f"seeds={self.seeds}")

    def render_text(self) -> str:
        lines = [self.comment()]
        if self.kind == "experiments":
            ratios = sorted({r["ratio"] for r in self.aggregated})
            header = f"{'Method':24s}" + "".join(
                f" | {'%g' % ratio + ':':<7s}Acc    DP     OPP   " for ratio in ratios)
            lines.append(header)
            lines.append("-" * len(header))
            pairs = dict.fromkeys((r["backbone"], r["method"])
                                  for r in self.aggregated)
            for backbone, method in pairs:
                cells = []
                for ratio in ratios:
                    match = [r for r in self.aggregated
                             if (r["backbone"], r["method"], r["ratio"])
                             == (backbone, method, ratio)]
                    if match and match[0]["n_ok"] > 0:
                        r = match[0]
                        cells.append(f" |        {r['accuracy']:.4f} "
                                     f"{r['dp_gap']:.4f} {r['opp_gap']:.4f}")
                    else:
                        cells.append(" |        FAILED" + " " * 13)
                lines.append(f"{backbone + '+' + method:24s}" + "".join(cells))
        else:
            metrics = ["accuracy", "dp_gap", "opp_gap"]
            header = " ".join(f"{k:>20s}" for k in self.group_keys) + "".join(
                f" {m + '_mean':>14s} {m + '_std':>14s}" for m in metrics)
            lines.append(header)
            for row in self.aggregated:
                cells = " ".join(f"{str(row[k]):>20s}" for k in self.group_keys)
                for m in metrics:
                    cells += f" {row[m]:14.4f} {row[m + '_std']:14.4f}"
                lines.append(cells)
        return "\n".join(lines) + "\n"


def _aggregate(rows: list[dict], group_keys: tuple) -> list[dict]:
    metrics = ["accuracy", "auc", "dp_gap", "opp_gap", "probe_accuracy"]
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row.get(k) for k in group_keys), []).append(row)
    aggregated = []
    for key, members in groups.items():
        ok = [r for r in members if r["status"] == "OK"]
        agg = dict(zip(group_keys, key))
        agg["n_ok"] = len(ok)
        agg["n_failed"] = len(members) - len(ok)
        for metric in metrics:
            values = [r[metric] for r in ok]
            agg[metric] = float(np.mean(values)) if values else float("nan")
            agg[metric + "_std"] = float(np.std(values)) if values else float("nan")
        aggregated.append(agg)
    return aggregated


def _write_csv(path, rows: list[dict], header_comment: str) -> None:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns and key != "traceback":
                columns.append(key)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header_comment + "\n")
        minimal = csv.writer(fh, lineterminator="\n")
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)

        def write(values):
            # QUOTE_MINIMAL quotes only the lineterminator's "\n", but a reader
            # also ends a row at a bare "\r": a row holding one is quoted whole
            quoted = any("\r" in v for v in values)
            (quote_all if quoted else minimal).writerow(values)

        write(columns)
        for row in rows:
            # round-trip repr of a builtin float keeps reruns byte-identical
            values = [row.get(col, "") for col in columns]
            write([repr(float(v)) if isinstance(v, float) else str(v)
                   for v in values])


def _run_grid(cfg: ExperimentConfig, kind: str, stem: str, cells: list[dict],
              group_keys: tuple) -> ResultsTable:
    """Run a cell list (serially or in the process pool), aggregate the rows
    by ``group_keys`` and write ``<stem>_raw.csv``, ``_agg.csv`` and ``.txt``."""
    load_dataset(cfg)  # fail fast with the download hint if files are missing
    os.makedirs(cfg.output_dir, exist_ok=True)  # and if the output is a file
    tasks = [(cfg, cell) for cell in cells]
    if cfg.workers > 1:
        # deferred: the process pool's modules are a serial run's waste
        from concurrent.futures import ProcessPoolExecutor

        # each worker steps serially: the workers already share the CPUs
        with ProcessPoolExecutor(max_workers=cfg.workers,
                                 initializer=parallel.run_serially) as pool:
            rows = list(pool.map(_run_cell_task, tasks))
    else:
        rows = [_run_cell_task(t) for t in tasks]
    rows.sort(key=lambda r: r["cell"])
    table = ResultsTable(
        kind=kind, config_hash=config_hash(cfg), seeds=cfg.seeds,
        raw_rows=rows, aggregated=_aggregate(rows, group_keys),
        group_keys=group_keys,
    )
    root = cfg.output_dir
    _write_csv(os.path.join(root, f"{stem}_raw.csv"), rows, table.comment())
    _write_csv(os.path.join(root, f"{stem}_agg.csv"), table.aggregated,
               table.comment())
    with open(os.path.join(root, f"{stem}.txt"), "w", encoding="utf-8") as fh:
        fh.write(table.render_text())
    # written on every run, so a clean rerun replaces a stale file
    with open(os.path.join(root, f"{stem}_failures.jsonl"), "w",
              encoding="utf-8") as fh:
        for row in rows:
            if row["status"] != "OK":
                fh.write(json.dumps({k: row[k] for k in
                                     ("cell", "status", "traceback")}) + "\n")
    return table


def _point_cells(cfg: ExperimentConfig, backbone: str, ratio: float, key: str,
                 tag: str, points: list[tuple]) -> list[dict]:
    """fairvae cells at one backbone and ratio, one per seed and
    ``(value, extra run_cell arguments)`` point, grouped by ``key``."""
    return [
        dict(backbone=backbone, method="fairvae", ratio=ratio, seed=seed,
             cell_name=_cell_name(backbone, "fairvae", ratio, seed, **{tag: value}),
             group={key: value}, **extra)
        for value, extra in points for seed in cfg.seeds
    ]


def run_experiments(cfg: ExperimentConfig) -> ResultsTable:
    """The full grid: backbone x method x label ratio x seed."""
    cells = [
        dict(backbone=b, method=m, ratio=r, seed=s,
             cell_name=_cell_name(b, m, r, s), group={})
        for b in cfg.backbones for m in cfg.methods
        for r in cfg.label_ratios for s in cfg.seeds
    ]
    return _run_grid(cfg, "experiments", "results", cells,
                     ("backbone", "method", "ratio"))


def run_ablation(cfg: ExperimentConfig) -> ResultsTable:
    """Single-switch-off variants of the full model at the sweep backbone
    and ratio."""
    points = [(variant, {"objective": replace(cfg.objective, **switches)})
              for variant, switches in ABLATION_VARIANTS.items()]
    cells = _point_cells(cfg, cfg.sweep_backbone, cfg.sweep_ratio,
                         "variant", "variant", points)
    return _run_grid(cfg, "ablation", "ablation", cells, ("variant",))


def run_sweep(cfg: ExperimentConfig, axis: str) -> ResultsTable:
    """One aggregated row per grid point along lambda or unlabeled fraction."""
    if axis not in SWEEP_AXES:
        raise D.ConfigError(
            f"unknown sweep axis {axis!r}; expected {tuple(SWEEP_AXES)}")
    key, tag, grid_field = SWEEP_AXES[axis]
    grid = getattr(cfg, grid_field)
    cells = _point_cells(cfg, cfg.sweep_backbone, cfg.sweep_ratio, key, tag,
                         [(value, {key: value}) for value in grid])
    return _run_grid(cfg, f"sweep_{axis}", f"sweep_{axis}", cells, (key,))


# ---------------------------------------------------------------------------
# checkpoint consumers


def _predict(bundle, x):
    """One bias-free forward over the test features: the representation, the
    positive-class probability and the predicted label of each row."""
    r_f, probs = M.bias_free_forward(bundle, x)
    return r_f.value, probs.value[:, 1], probs.value.argmax(axis=1)


def _test_report(bundle, test: D.Samples, seed: int) -> MX.FairnessReport:
    r_f, positive, labels = _predict(bundle, test.x)
    return MX.fairness_report(test.y, labels, positive, test.z, r_f, seed=seed)


def _load_test_set(checkpoint_path, header: dict, test_path) -> D.Samples:
    """The test file encoded with the checkpoint's training statistics; a
    checkpoint without them, with tables not keyed by the schema's columns,
    or with an encoding whose width is not its model's input width raises
    ``CheckpointError`` naming its file."""
    try:
        stats = D.Stats(**header["extra"]["stats"])
    except (KeyError, TypeError):
        raise M.CheckpointError(
            f"{checkpoint_path}: the checkpoint holds no encoding statistics "
            f"(extra.stats); save it with extra={{'stats': asdict(stats)}}"
        ) from None
    try:
        stats.check_columns()
    except D.SchemaError as exc:
        raise M.CheckpointError(
            f"{checkpoint_path}: the checkpoint's encoding statistics are "
            f"damaged: extra.stats.{exc}") from None
    if stats.feature_dim != header["config"]["input_dim"]:
        raise M.CheckpointError(
            f"{checkpoint_path}: the checkpoint's encoding statistics are "
            f"damaged: they encode {stats.feature_dim} input columns, its "
            f"model takes {header['config']['input_dim']}")
    return D.preprocess(D._read_adult_file(test_path), stats)[0]


def evaluate_checkpoint(checkpoint_path, test_path, seed: int = 0) -> MX.FairnessReport:
    """Load a checkpoint and produce a FairnessReport on an Adult-format file.
    Raises ``UndefinedMetric`` naming the file when it holds no records, and
    ``ConfigError`` for a seed that is not an int >= 0."""
    if not (M.is_int(seed) and seed >= 0):
        raise D.ConfigError(f"seed must be an int >= 0, got {seed!r}")
    bundle, header = M.load_bundle(checkpoint_path)
    test = _load_test_set(checkpoint_path, header, test_path)
    if not len(test):
        raise MX.UndefinedMetric(f"{test_path}: holds no records to evaluate")
    return _test_report(bundle, test, seed)


EXPORT_SPLIT_MIN_VALUES = 100_000  # rows x width: see export_embeddings
_EXPORT_BLOCK = 1_024  # rows formatted per tolist()


def _export_template(r_f):
    """An export's line template and the columns of ``r_f`` that it formats:
    ``0.0`` for each column that holds +0.0 in every row (zero with the sign
    bit clear; -0.0 prints as ``-0.0``), ``%r`` for every other column, then
    ``%s`` for the attribute, the label and the prediction."""
    zero = (r_f == 0).all(axis=0)
    # of those, the columns without a -0.0 (signbit takes floats only)
    zero[zero] = ~np.signbit(r_f[:, zero].astype(float)).any(axis=0)
    template = ",".join(np.where(zero, "0.0", "%r")) + ",%s,%s,%s\n"
    return template, np.flatnonzero(~zero)


def _export_lines(template: str, columns, start: int, stop: int):
    """The CSV text of rows ``start:stop`` of ``columns`` (the formatted
    columns of the representation, the attribute, the label and the
    prediction) through ``template`` (``_export_template``), one string per
    block of ``_EXPORT_BLOCK`` rows. ``%r`` of a Python float from
    ``tolist()`` is ``repr(float(v))`` of its numpy element, and ``%s`` of
    a Python int is ``str`` of its numpy int."""
    for lo in range(start, stop, _EXPORT_BLOCK):
        hi = min(lo + _EXPORT_BLOCK, stop)
        yield "".join(
            template % (*row, z, y, label)
            for row, z, y, label in zip(*(c[lo:hi].tolist() for c in columns)))


def _export_half(helper: parallel.Helper, views, start: int):
    """The helper's task in a split export: the text of rows ``start:``."""
    template, columns = helper.held["template"], helper.held["columns"]
    yield "".join(_export_lines(template, columns, start, len(columns[0])))


def export_embeddings(checkpoint_path, test_path, out_path) -> int:
    """Write one CSV row per test sample: bias-free representation values,
    true attribute, true label, predicted label. Returns the row count.

    The rows are formatted in blocks (``_export_lines``) through one line
    template per export (``_export_template``): a column that holds +0.0 in
    every row is its ``0.0`` literal, and only the other columns' values go
    through ``%r``. An export of at
    least ``EXPORT_SPLIT_MIN_VALUES`` values (rows x width), in a process
    that may fork a helper (``parallel.forkable``), formats the second half
    of its rows in a helper process while the caller writes the header and
    the first half; the helper's text comes back through the pipe and is
    written after them. If the helper fails, the caller formats that half
    itself, so an error is the serial one; the helper is reaped when the
    export returns or raises. The file's bytes are the serial export's.

    Formatting is ``repr`` per value: about 400 ns for a value other than
    zero, and most of a trained dnn's values are exact zeros (85.7% of one
    16,281 x 256 export), most of them in dead columns (186 of its 256).
    The split costs the fork and the pipe. The constant is where it pays,
    measured with ``repr`` of every value. Export times on a 2-CPU machine,
    BLAS pinned to one thread, in a process holding 480 MB more (serial /
    split): 200 x 256 values 9.4 / 10.0 ms, 400 x 256 16.2 / 13.6 ms, 1,600
    x 64 16.6 / 14.3 ms. A trained wide dnn's 16,281 x 256 export takes
    0.49 / 0.36 s through the template, against 0.68 / 0.44 s with ``repr``
    of every value."""
    bundle, header = M.load_bundle(checkpoint_path)
    test = _load_test_set(checkpoint_path, header, test_path)
    r_f, _, labels = _predict(bundle, test.x)
    template, live = _export_template(r_f)
    columns = (r_f[:, live], test.z, test.y, labels)
    n, dim = r_f.shape
    with open(out_path, "w", encoding="utf-8") as fh, parallel.session(
            r_f.size, EXPORT_SPLIT_MIN_VALUES, template=template,
            columns=columns) as helper:
        task = None
        if helper is not None:
            with suppress(Exception):  # then all rows are formatted here
                task = helper.submit(_export_half, n // 2)
        half = n if task is None else n // 2
        fh.write(f"# config_hash={header['config_hash']} seed={header['seed']}\n")
        fh.write(",".join([f"r_{i}" for i in range(dim)]
                          + ["attribute", "label", "predicted"]) + "\n")
        fh.writelines(_export_lines(template, columns, 0, half))
        rest = _export_lines(template, columns, half, n)
        if task is not None:
            try:
                rest = [helper.reply(task)]
            except Exception:  # formatting them here raises the serial error
                pass
        fh.writelines(rest)
    return len(test)
