"""Adult-format tabular ingestion, preprocessing, splitting and attribute masking.

The sensitive attribute (the ``sex`` column) is left out of the feature
vector and kept as a separate target ``z``: fitted statistics always encode
without it. ``Stats.include_sensitive`` records the encoding, so a checkpoint
says which one it was trained on; an encoding with ``sex`` in ``x`` is asked
for as ``dataclasses.replace(stats, include_sensitive=True)``. One container,
``Samples``, carries the encoded arrays from ``preprocess`` through the split
to every mini-batch. Masking hides ``z`` for a seed-deterministic share of
the training set: the split's unlabeled ``Samples`` have no ``z``, and their
true values sit in a shadow field that only evaluation code should touch
(reads are counted so experiments can assert training never looked).
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

import numpy as np


class ParseError(ValueError):
    """A row failed to parse (message includes file and line number)."""


class SchemaError(ValueError):
    """A row does not match the expected column layout."""


class ConfigError(ValueError):
    """An invalid configuration value: a setting of the wrong type or out of
    range, or a split or mask that cannot be made."""


NUMERIC = "numeric"
CATEGORICAL = "categorical"

# canonical Adult census schema: (column name, kind)
ADULT_SCHEMA = [
    ("age", NUMERIC),
    ("workclass", CATEGORICAL),
    ("fnlwgt", NUMERIC),
    ("education", CATEGORICAL),
    ("education-num", NUMERIC),
    ("marital-status", CATEGORICAL),
    ("occupation", CATEGORICAL),
    ("relationship", CATEGORICAL),
    ("race", CATEGORICAL),
    ("sex", CATEGORICAL),
    ("capital-gain", NUMERIC),
    ("capital-loss", NUMERIC),
    ("hours-per-week", NUMERIC),
    ("native-country", CATEGORICAL),
    ("income", CATEGORICAL),
]
SENSITIVE_COLUMN = "sex"
LABEL_COLUMN = "income"
POSITIVE_LABEL = ">50K"
MISSING = "?"
# the only codes the label and the attribute may take in a file
CODED_VALUES = {
    LABEL_COLUMN: frozenset({"<=50K", POSITIVE_LABEL}),
    SENSITIVE_COLUMN: frozenset({"Female", "Male", MISSING}),
}

# the schema's column names, in file order
NAMES = [name for name, _ in ADULT_SCHEMA]


class Records:
    """Adult records as a column table, checked once when it is built.

    ``columns`` holds one tuple of stripped cells per schema column;
    ``numbers`` holds each numeric column's present cells as floats and the
    mask of where they are. A missing column raises ``SchemaError``. A
    numeric cell that ``float()`` does not read as a finite number (``?`` is
    missing), a categorical cell that is not a string, or a label or
    attribute outside ``CODED_VALUES`` raises ``ParseError`` naming the
    earliest bad record (``where``), its column and value.
    """

    def __init__(self, columns: dict, path=None, lines=None):
        missing = [name for name in NAMES if name not in columns]
        if missing:
            raise SchemaError(f"no column {missing[0]!r}; expected {NAMES}")
        self.columns = {name: tuple(columns[name]) for name in NAMES}
        if len(set(map(len, self.columns.values()))) > 1:
            raise SchemaError("columns differ in length")
        self.path, self.lines = path, lines
        self.numbers = {}
        bad = []  # (record, column, expected) of each column's first bad cell
        for name, kind in ADULT_SCHEMA:
            cells = self.columns[name]
            if kind == NUMERIC:
                present = np.array([v != MISSING for v in cells], dtype=bool)
                try:
                    observed = np.array([float(v) for v in cells if v != MISSING])
                except (TypeError, ValueError):
                    observed = np.array([_float_or_nan(v) for v in cells
                                         if v != MISSING])
                self.numbers[name] = observed, present
                finite = np.isfinite(observed)
                if not finite.all():
                    index = np.flatnonzero(present)[np.argmin(finite)]
                    bad.append((int(index), name, "a finite number"))
                continue
            allowed = CODED_VALUES.get(name)
            if (not all(issubclass(t, str) for t in set(map(type, cells)))
                    or allowed and not allowed.issuperset(cells)):
                index = next(i for i, v in enumerate(cells)
                             if not isinstance(v, str)
                             or allowed and v not in allowed)
                bad.append((index, name, f"one of {sorted(allowed)}"
                            if allowed else "a string"))
        if bad:  # the earliest record; within it, the first column
            index, name, expected = min(bad, key=itemgetter(0))
            raise ParseError(f"{self.where(index)}: column {name!r} has "
                             f"{self.columns[name][index]!r}, expected {expected}")

    @classmethod
    def of(cls, rows) -> "Records":
        """Records built by hand: dicts keyed by column name."""
        rows = list(rows)
        try:
            cells = list(zip(*map(itemgetter(*NAMES), rows)))
        except KeyError as exc:
            column = exc.args[0]
            index = next(i for i, row in enumerate(rows) if column not in row)
            raise SchemaError(f"record {index}: no column {column!r}") from None
        return cls(dict(zip(NAMES, cells or [()] * len(NAMES))))

    def __len__(self) -> int:
        return len(self.columns[LABEL_COLUMN])

    def where(self, i: int) -> str:
        """``file:line`` for a file, ``record i`` for records built by hand."""
        return f"record {i}" if self.path is None else f"{self.path}:{self.lines[i]}"


def _float_or_nan(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _read_adult_file(path) -> Records:
    """The file's records; its first error in file order is raised. A file
    that is not UTF-8 is read up to the line of its first bad byte, and that
    byte's error is raised if those lines hold none."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text, bad = fh.read(), None  # universal newlines: \r\n and \r too
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            bad = exc
        start = max(data.rfind(b"\n", 0, bad.start),
                    data.rfind(b"\r", 0, bad.start)) + 1
        text = data[:start].decode("utf-8")
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    rows, linenos = [], []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("|"):
            continue
        fields = line.split(",")
        if len(fields) != len(NAMES):
            raise SchemaError(f"{path}:{lineno}: expected {len(NAMES)} "
                              f"fields, got {len(fields)}")
        rows.append(fields)
        linenos.append(lineno)
    columns = dict(zip(NAMES, [tuple(map(str.strip, cells)) for cells in zip(*rows)]
                            or [()] * len(NAMES)))
    # the test file suffixes labels with one period
    columns[LABEL_COLUMN] = [v.removesuffix(".") for v in columns[LABEL_COLUMN]]
    records = Records(columns, path, linenos)
    if bad is not None:  # the lines before the bad byte's were good
        raise ParseError(
            f"{path}:{len(lines)}: byte {data[bad.start]:#04x} at column "
            f"{bad.start - start + 1} is not UTF-8 text")
    return records


def load_adult(train_path, test_path) -> tuple[Records, Records]:
    """Read the Adult train/test files (32,561 and 16,281 rows for the canonical pair).

    Raises ``SchemaError`` for a row without 15 fields, and ``ParseError``
    (``Records``) naming the file, line, column and value of a bad cell, or
    the file, line and column of the first byte that is not UTF-8. Warns, at
    the caller's line, for a file that holds no records.
    """
    records = _read_adult_file(train_path), _read_adult_file(test_path)
    for r in records:
        if not len(r):
            warnings.warn(f"{r.path}: no records found", stacklevel=2)
    return records


@dataclass
class Stats:
    """Train-split statistics that define the feature encoding. They cover
    every feature column, ``sex`` included; ``include_sensitive`` says whether
    ``sex`` is encoded into ``x`` (never when fitted)."""

    cat_vocab: dict
    cat_mode: dict
    num_mean: dict
    num_std: dict
    include_sensitive: bool = False

    @property
    def feature_columns(self):
        return [(name, kind) for name, kind in ADULT_SCHEMA
                if name != LABEL_COLUMN
                and (name != SENSITIVE_COLUMN or self.include_sensitive)]

    @property
    def feature_dim(self) -> int:
        return sum(1 if kind == NUMERIC else len(self.cat_vocab[name])
                   for name, kind in self.feature_columns)

    def check_columns(self) -> None:
        """Raise ``SchemaError`` naming the first table, and its keys, that is
        not keyed by exactly the schema's feature columns of its kind (``sex``
        included), or the first value of the wrong type, as statistics read
        back from a file may be: a mean must be a finite number, a standard
        deviation a finite number above 0, a vocabulary a list of strings and
        a mode a string, and ``include_sensitive`` a bool."""
        if not isinstance(self.include_sensitive, bool):
            raise SchemaError(f"include_sensitive is {self.include_sensitive!r}, "
                              "expected true or false")
        for table, kind, valid, expected in _STATS_TABLES:
            value = getattr(self, table)
            names = {name for name, k in ADULT_SCHEMA
                     if k == kind and name != LABEL_COLUMN}
            if not isinstance(value, dict):
                raise SchemaError(f"{table} must map column names to values, "
                                  f"got {type(value).__name__}")
            if set(value) != names:
                raise SchemaError(
                    f"{table} has unknown keys {sorted(set(value) - names)} "
                    f"and lacks keys {sorted(names - set(value))}")
            for name, v in value.items():
                if not valid(v):
                    raise SchemaError(f"{table}[{name!r}] is {v!r}, "
                                      f"expected {expected}")


def _is_number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


# each statistics table: its name, the kind of column it covers, the check
# of one value and what the check expects
_STATS_TABLES = (
    ("cat_vocab", CATEGORICAL,
     lambda v: isinstance(v, list) and all(isinstance(c, str) for c in v),
     "a list of strings"),
    ("cat_mode", CATEGORICAL, lambda v: isinstance(v, str), "a string"),
    ("num_mean", NUMERIC, _is_number, "a finite number"),
    ("num_std", NUMERIC, lambda v: _is_number(v) and v > 0,
     "a finite number above 0"),
)


@dataclass
class Samples:
    """Encoded examples: feature rows ``x``, task labels ``y`` and sensitive
    attributes ``z`` (None where they are hidden). Indexing indexes each
    array, so ``samples[i].x`` is one row and ``samples[a:b]`` a slice."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, index) -> "Samples":
        return Samples(self.x[index], self.y[index],
                       None if self.z is None else self.z[index])


def _fit_stats(records: Records) -> Stats:
    cat_vocab, cat_mode, num_mean, num_std = {}, {}, {}, {}
    for name, kind in ADULT_SCHEMA:
        if name == LABEL_COLUMN:
            continue
        if kind == CATEGORICAL:
            counts = Counter(records.columns[name])
            counts.pop(MISSING, None)
            cat_vocab[name] = sorted(counts)
            # deterministic mode: highest count, ties broken alphabetically
            cat_mode[name] = min(counts, key=lambda v: (-counts[v], v)) \
                if counts else ""
        else:
            observed = records.numbers[name][0]
            # finite cells near the float limit overflow the sums: rejected
            # below, naming the column, not saved into a checkpoint
            with np.errstate(over="ignore", invalid="ignore"):
                mean = float(observed.mean()) if observed.size else 0.0
                std = float(observed.std()) if observed.size else 1.0
            for what, value in (("mean", mean), ("standard deviation", std)):
                if not math.isfinite(value):
                    where = f"{records.path}: " if records.path else ""
                    raise SchemaError(
                        f"{where}column {name!r} has a {what} of {value!r} over "
                        "its values, expected a finite number")
            num_mean[name] = mean
            num_std[name] = std if std > 0 else 1.0
    return Stats(cat_vocab, cat_mode, num_mean, num_std)


def preprocess(records, stats: Stats | None = None) -> tuple[Samples, Stats]:
    """Encode records as one-hot + standardized-numeric feature vectors.

    ``records`` is a ``Records`` table or a list of dicts built by hand, which
    ``Records.of`` checks as a file is. Pass the train-split ``stats`` when
    encoding test data so vocabularies and standardization constants come
    from training. Unknown categories encode as an all-zero block; missing
    cells are imputed with the train mode/mean. The encoded columns are
    ``stats.feature_columns``. The encoding runs column by column into one
    float64 matrix. Fitting raises ``SchemaError`` naming a numeric column
    whose mean or standard deviation is not finite (huge cells overflow).
    """
    if not isinstance(records, Records):
        records = Records.of(records)
    if stats is None:
        stats = _fit_stats(records)
    n = len(records)
    x = np.zeros((n, stats.feature_dim))
    rows = np.arange(n)
    pos = 0
    for name, kind in stats.feature_columns:
        if kind == NUMERIC:
            mean = stats.num_mean[name]
            observed, present = records.numbers[name]
            values = np.full(n, mean)
            values[present] = observed
            x[:, pos] = (values - mean) / stats.num_std[name]
            pos += 1
        else:
            vocab = stats.cat_vocab[name]
            index = {v: i for i, v in enumerate(vocab)}
            index[MISSING] = index.get(stats.cat_mode[name], -1)
            # an unseen category (index -1) leaves its block all zeros
            idx = np.fromiter(map(index.get, records.columns[name], repeat(-1)),
                              dtype=np.intp, count=n)
            known = idx >= 0
            x[rows[known], pos + idx[known]] = 1.0
            pos += len(vocab)
    sex_mode = stats.cat_mode[SENSITIVE_COLUMN]
    y = np.array([v == POSITIVE_LABEL for v in records.columns[LABEL_COLUMN]],
                 dtype=int)
    z = np.array([(sex_mode if v == MISSING else v) == "Female"
                  for v in records.columns[SENSITIVE_COLUMN]], dtype=int)
    return Samples(x, y, z), stats


class DatasetSplit:
    """The training pool cut into labeled, unlabeled and validation
    ``Samples``, with each part's row indices into the pool.

    ``unl`` is passed in with its true attributes and exposed without them
    (``unl.z`` is None); they sit in a shadow whose accessor counts every read.
    """

    def __init__(self, lab: Samples, unl: Samples, val: Samples,
                 lab_index, unl_index, val_index):
        self.lab, self.val = lab, val
        self._unl = unl  # with the true attributes
        self.unl = Samples(unl.x, unl.y)
        self.lab_index = lab_index
        self.unl_index = unl_index
        self.val_index = val_index
        self.shadow_reads = 0

    @property
    def n_labeled(self) -> int:
        return len(self.lab)

    @property
    def n_unlabeled(self) -> int:
        return len(self.unl)

    @property
    def feature_dim(self) -> int:
        return self.lab.x.shape[1]

    def shadow_unlabeled_attributes(self) -> np.ndarray:
        """True attributes of masked samples; for evaluation only (reads counted)."""
        self.shadow_reads += 1
        return self._unl.z.copy()

    def all_train(self) -> Samples:
        """Labeled + unlabeled features and labels in original dataset order.

        Methods that ignore attribute labels train on this stream so their
        results cannot depend on the masking ratio.
        """
        idx = np.concatenate([self.lab_index, self.unl_index])
        order = np.argsort(idx, kind="stable")
        return Samples(np.concatenate([self.lab.x, self.unl.x])[order],
                       np.concatenate([self.lab.y, self.unl.y])[order])

    def with_pseudo_labels(self, adopt_mask: np.ndarray,
                           pseudo_z: np.ndarray) -> "DatasetSplit":
        """Move the masked samples selected by ``adopt_mask`` into the labeled
        set under the given pseudo attributes. Shadow values travel with the
        remaining unlabeled samples; none are read here."""
        adopt_mask = np.asarray(adopt_mask, dtype=bool)
        if adopt_mask.shape != (self.n_unlabeled,):
            raise ConfigError(
                f"adopt mask has shape {adopt_mask.shape}, expected "
                f"({self.n_unlabeled},)"
            )
        adopted = self.unl[adopt_mask]
        lab = Samples(np.concatenate([self.lab.x, adopted.x]),
                      np.concatenate([self.lab.y, adopted.y]),
                      np.concatenate([self.lab.z, np.asarray(pseudo_z, dtype=int)]))
        keep = ~adopt_mask
        return DatasetSplit(
            lab, self._unl[keep], self.val,
            np.concatenate([self.lab_index, self.unl_index[adopt_mask]]),
            self.unl_index[keep], self.val_index,
        )

    def with_unlabeled_fraction(self, fraction: float) -> "DatasetSplit":
        """A copy keeping only the first ``fraction`` of the unlabeled pool."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(f"unlabeled fraction must be in [0, 1], got {fraction}")
        keep = int(math.floor(fraction * self.n_unlabeled))
        return DatasetSplit(self.lab, self._unl[:keep], self.val, self.lab_index,
                            self.unl_index[:keep], self.val_index)


def split_and_mask(samples: Samples, val_frac: float, label_ratio: float,
                   seed: int) -> DatasetSplit:
    """Carve validation, then mask attributes for all but ``label_ratio`` of the rest.

    The shuffle is fully determined by ``seed``; exactly
    ``floor(label_ratio * N_post_validation)`` samples keep their attribute.
    """
    if not 0.0 < val_frac < 1.0:
        raise ConfigError(f"val_frac must be in (0, 1), got {val_frac}")
    if not 0.0 < label_ratio <= 1.0:
        raise ConfigError(
            f"label_ratio must be in (0, 1]; the method needs some observed "
            f"attributes (got {label_ratio})"
        )
    n = len(samples)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    perm = rng.permutation(n)
    n_val = int(math.floor(val_frac * n))
    if n_val == 0:
        raise ConfigError(f"val_frac {val_frac} of {n} rows keeps 0 validation "
                          f"rows; model selection needs at least 1")
    val_index = np.sort(perm[:n_val])
    rest = perm[n_val:]
    n_lab = int(math.floor(label_ratio * len(rest)))
    if n_lab == 0:
        raise ConfigError(
            f"label_ratio {label_ratio} of {len(rest)} training rows (after "
            f"{n_val} validation rows of {n}) keeps 0 labeled rows; the method "
            f"needs at least 1"
        )
    lab_index = np.sort(rest[:n_lab])
    unl_index = np.sort(rest[n_lab:])
    indices = (lab_index, unl_index, val_index)
    return DatasetSplit(*[samples[index] for index in indices], *indices)


def _tiled_order(rng, n: int, total: int) -> np.ndarray:
    """range(n) shuffled, then repeated cyclically to ``total`` entries."""
    perm = rng.permutation(n)
    return np.resize(perm, total) if n else perm


def batches(split: DatasetSplit, batch_size: int, seed: int, epoch: int):
    """Yield (labeled, unlabeled) ``Samples`` pairs, cycling the shorter set;
    unlabeled batches carry no ``z`` and are empty when the pool is.

    Steps per epoch = ceil(max(|labeled|, |unlabeled|) / batch_size); both
    sets are reshuffled per epoch from (seed, epoch).
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    longer = max(split.n_labeled, split.n_unlabeled)
    rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, 0xBA7C4]))
    lab_order = _tiled_order(rng, split.n_labeled, longer)
    unl_order = _tiled_order(rng, split.n_unlabeled, longer)
    for lo in range(0, longer, batch_size):
        yield (split.lab[lab_order[lo:lo + batch_size]],
               split.unl[unl_order[lo:lo + batch_size]])


def single_stream_batches(samples: Samples, batch_size: int, seed: int,
                          epoch: int):
    """Plain mini-batches over one ``Samples``, reshuffled per (seed, epoch)."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, 0x51247]))
    perm = rng.permutation(len(samples))
    for lo in range(0, len(samples), batch_size):
        yield samples[perm[lo:lo + batch_size]]
