"""Adult-format tabular ingestion, preprocessing, splitting and attribute masking.

The sensitive attribute (the ``sex`` column) is removed from the feature
vector by default and kept as a separate target ``z``. Masking hides ``z``
for a seed-deterministic share of the training set; the true values of masked
samples are retained in a shadow field that only evaluation code should touch
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

RawRecord = dict  # column name -> stripped string value


def _read_adult_file(path) -> list[RawRecord]:
    names = [c for c, _ in ADULT_SCHEMA]
    numeric = [(i, c) for i, (c, kind) in enumerate(ADULT_SCHEMA)
               if kind == NUMERIC]
    coded = [(names.index(c), c, allowed) for c, allowed in CODED_VALUES.items()]
    label = names.index(LABEL_COLUMN)
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("|"):
                continue
            fields = list(map(str.strip, line.split(",")))
            if len(fields) != len(names):
                raise SchemaError(
                    f"{path}:{lineno}: expected {len(names)} fields, "
                    f"got {len(fields)}"
                )
            # the test file suffixes labels with a period
            fields[label] = fields[label].rstrip(".")
            for i, col in numeric:
                value = fields[i]
                try:
                    finite = value == MISSING or math.isfinite(float(value))
                except ValueError:
                    finite = False
                if not finite:
                    raise ParseError(
                        f"{path}:{lineno}: column {col!r} is not a finite "
                        f"number: {value!r}"
                    )
            for i, col, allowed in coded:
                if fields[i] not in allowed:
                    raise ParseError(
                        f"{path}:{lineno}: column {col!r} has {fields[i]!r}, "
                        f"expected one of {sorted(allowed)}"
                    )
            records.append(dict(zip(names, fields)))
    if not records:
        warnings.warn(f"{path}: no records found", stacklevel=2)
    return records


def load_adult(train_path, test_path) -> tuple[list[RawRecord], list[RawRecord]]:
    """Read the Adult train/test files (32,561 and 16,281 rows for the canonical pair).

    Raises ``SchemaError`` for a row without 15 fields and ``ParseError``,
    naming the file, line, column and value, for a numeric cell that is not a
    finite number or a label or attribute outside ``CODED_VALUES``.
    """
    return _read_adult_file(train_path), _read_adult_file(test_path)


@dataclass
class Stats:
    """Train-split statistics that define the feature encoding."""

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


@dataclass
class Sample:
    """One encoded example: features, task label, sensitive attribute."""

    x: np.ndarray
    y: int
    z: int


class EncodedSamples(list):
    """The samples ``preprocess`` returns: a list of ``Sample`` whose ``x`` are
    the rows of the one matrix ``x``, kept with the label and attribute arrays
    ``y`` and ``z`` so that partitions are cut from them by fancy indexing.
    The arrays describe the list as built; a slice or copy is a plain list."""

    def __init__(self, x: np.ndarray, y: list, z: list):
        super().__init__(map(Sample, x, y, z))
        self.x = x
        self.y = np.array(y, dtype=int)
        self.z = np.array(z, dtype=int)


def _bad_cell(column: str, index: int, value, expected: str) -> ParseError:
    return ParseError(f"record {index}: column {column!r} has {value!r}, "
                      f"expected {expected}")


def _observed_numbers(name: str, values) -> tuple[np.ndarray, np.ndarray]:
    """The floats of a numeric column's present cells, and where they are.

    Raises ``ParseError`` naming the first cell that is not a finite number."""
    present = np.array([v != MISSING for v in values], dtype=bool)
    try:
        observed = np.array([float(v) for v in values if v != MISSING])
    except (TypeError, ValueError):
        observed = np.array([_float_or_nan(v) for v in values if v != MISSING])
    finite = np.isfinite(observed)
    if not finite.all():
        index = int(np.flatnonzero(present)[np.argmin(finite)])
        raise _bad_cell(name, index, values[index], "a finite number")
    return observed, present


def _float_or_nan(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _check_codes(columns) -> None:
    """Every label and attribute cell is one of ``CODED_VALUES``."""
    for name, allowed in CODED_VALUES.items():
        if not allowed.issuperset(columns[name]):
            index = next(i for i, v in enumerate(columns[name])
                         if v not in allowed)
            raise _bad_cell(name, index, columns[name][index],
                            f"one of {sorted(allowed)}")


def _fit_stats(columns, numbers, include_sensitive: bool) -> Stats:
    cat_vocab, cat_mode, num_mean, num_std = {}, {}, {}, {}
    for name, kind in ADULT_SCHEMA:
        if name == LABEL_COLUMN:
            continue
        if kind == CATEGORICAL:
            counts = Counter(columns[name])
            counts.pop(MISSING, None)
            cat_vocab[name] = sorted(counts)
            # deterministic mode: highest count, ties broken alphabetically
            cat_mode[name] = min(counts, key=lambda v: (-counts[v], v)) \
                if counts else ""
        else:
            observed = numbers[name][0]
            mean = float(observed.mean()) if observed.size else 0.0
            std = float(observed.std()) if observed.size else 1.0
            num_mean[name] = mean
            num_std[name] = std if std > 0 else 1.0
    return Stats(cat_vocab, cat_mode, num_mean, num_std, include_sensitive)


def preprocess(records, stats: Stats | None = None,
               include_sensitive: bool = False) -> tuple[EncodedSamples, Stats]:
    """Encode records as one-hot + standardized-numeric feature vectors.

    Pass the train-split ``stats`` when encoding test data so vocabularies and
    standardization constants come from training. Unknown categories encode as
    an all-zero block; missing cells are imputed with the train mode/mean.

    The encoding runs column by column into one float64 matrix: a numeric
    column is standardized as a vector, a categorical column is looked up in
    a value-to-index dict and its ones set in one assignment. Each sample's
    ``x`` is a row of that matrix (``EncodedSamples``). Records built by hand
    are held to the rules ``load_adult`` applies to a file: a numeric cell
    that is not a finite number, or a label or attribute outside
    ``CODED_VALUES``, raises ``ParseError`` naming the column, the record's
    index and the value.
    """
    names = [name for name, _ in ADULT_SCHEMA]
    # transpose the records into one tuple of cells per column
    cells = list(zip(*map(itemgetter(*names), records))) or [()] * len(names)
    columns = dict(zip(names, cells))
    _check_codes(columns)
    numbers = {name: _observed_numbers(name, columns[name])
               for name, kind in ADULT_SCHEMA if kind == NUMERIC}
    if stats is None:
        stats = _fit_stats(columns, numbers, include_sensitive)
    n = len(records)
    x = np.zeros((n, stats.feature_dim))
    rows = np.arange(n)
    pos = 0
    for name, kind in stats.feature_columns:
        if kind == NUMERIC:
            mean = stats.num_mean[name]
            observed, present = numbers[name]
            values = np.full(n, mean)
            values[present] = observed
            x[:, pos] = (values - mean) / stats.num_std[name]
            pos += 1
        else:
            vocab = stats.cat_vocab[name]
            index = {v: i for i, v in enumerate(vocab)}
            index[MISSING] = index.get(stats.cat_mode[name], -1)
            # an unseen category (index -1) leaves its block all zeros
            idx = np.fromiter(map(index.get, columns[name], repeat(-1)),
                              dtype=np.intp, count=n)
            known = idx >= 0
            x[rows[known], pos + idx[known]] = 1.0
            pos += len(vocab)
    sex_mode = stats.cat_mode[SENSITIVE_COLUMN]
    y = [int(v == POSITIVE_LABEL) for v in columns[LABEL_COLUMN]]
    z = [int((sex_mode if v == MISSING else v) == "Female")
         for v in columns[SENSITIVE_COLUMN]]
    return EncodedSamples(x, y, z), stats


def _arrays(samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, z) of every sample: the arrays ``preprocess`` keeps with its
    result, else stacked from the samples."""
    if isinstance(samples, EncodedSamples):
        return samples.x, samples.y, samples.z
    if not len(samples):
        return np.zeros((0, 0)), np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    return (np.stack([s.x for s in samples]),
            np.array([s.y for s in samples], dtype=int),
            np.array([s.z for s in samples], dtype=int))


class DatasetSplit:
    """Train partition (labeled / unlabeled / validation) plus the test set.

    Unlabeled samples expose only features and task labels; their true
    attributes sit in a shadow array whose accessor counts every read.
    """

    def __init__(self, lab, unl, val, test, lab_index, unl_index, val_index):
        self.lab_x, self.lab_y, self.lab_z = lab
        self.unl_x, self.unl_y, self._shadow_unl_z = unl
        self.val_x, self.val_y, self.val_z = val
        self.test_x, self.test_y, self.test_z = test
        self.lab_index = lab_index
        self.unl_index = unl_index
        self.val_index = val_index
        self.shadow_reads = 0

    @property
    def n_labeled(self) -> int:
        return len(self.lab_y)

    @property
    def n_unlabeled(self) -> int:
        return len(self.unl_y)

    @property
    def feature_dim(self) -> int:
        return self.lab_x.shape[1]

    def shadow_unlabeled_attributes(self) -> np.ndarray:
        """True attributes of masked samples; for evaluation only (reads counted)."""
        self.shadow_reads += 1
        return self._shadow_unl_z.copy()

    def all_train_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """Labeled + unlabeled features/labels in original dataset order.

        Methods that ignore attribute labels train on this stream so their
        results cannot depend on the masking ratio.
        """
        idx = np.concatenate([self.lab_index, self.unl_index])
        order = np.argsort(idx, kind="stable")
        x = np.concatenate([self.lab_x, self.unl_x])[order]
        y = np.concatenate([self.lab_y, self.unl_y])[order]
        return x, y

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
        lab = (
            np.concatenate([self.lab_x, self.unl_x[adopt_mask]]),
            np.concatenate([self.lab_y, self.unl_y[adopt_mask]]),
            np.concatenate([self.lab_z, np.asarray(pseudo_z, dtype=int)]),
        )
        keep = ~adopt_mask
        unl = (self.unl_x[keep], self.unl_y[keep], self._shadow_unl_z[keep])
        return DatasetSplit(
            lab, unl,
            (self.val_x, self.val_y, self.val_z),
            (self.test_x, self.test_y, self.test_z),
            np.concatenate([self.lab_index, self.unl_index[adopt_mask]]),
            self.unl_index[keep], self.val_index,
        )

    def with_unlabeled_fraction(self, fraction: float) -> "DatasetSplit":
        """A copy keeping only the first ``fraction`` of the unlabeled pool."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(f"unlabeled fraction must be in [0, 1], got {fraction}")
        keep = int(math.floor(fraction * self.n_unlabeled))
        return DatasetSplit(
            (self.lab_x, self.lab_y, self.lab_z),
            (self.unl_x[:keep], self.unl_y[:keep], self._shadow_unl_z[:keep]),
            (self.val_x, self.val_y, self.val_z),
            (self.test_x, self.test_y, self.test_z),
            self.lab_index, self.unl_index[:keep], self.val_index,
        )


def split_and_mask(samples, val_frac: float, label_ratio: float, seed: int,
                   test_samples=()) -> DatasetSplit:
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
    arrays = _arrays(samples)
    test = tuple(a.copy() for a in _arrays(test_samples))
    return DatasetSplit(
        *[tuple(a[index] for a in arrays)
          for index in (lab_index, unl_index, val_index)],
        test, lab_index, unl_index, val_index,
    )


@dataclass
class Batch:
    """One mini-batch; ``z`` is None when attributes are masked."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray | None = None

    def __len__(self):
        return len(self.y)


def _tiled_order(rng, n: int, total: int) -> np.ndarray:
    perm = rng.permutation(n)
    if n >= total:
        return perm
    reps = -(-total // n)
    return np.tile(perm, reps)[:total]


def batches(split: DatasetSplit, batch_size: int, seed: int, epoch: int):
    """Yield (labeled, unlabeled) batch pairs, cycling the shorter set.

    Steps per epoch = ceil(max(|labeled|, |unlabeled|) / batch_size); both
    sets are reshuffled per epoch from (seed, epoch).
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    n_lab, n_unl = split.n_labeled, split.n_unlabeled
    longer = max(n_lab, n_unl)
    steps = -(-longer // batch_size)
    rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, 0xBA7C4]))
    lab_order = _tiled_order(rng, n_lab, longer)
    unl_order = _tiled_order(rng, n_unl, longer) if n_unl else np.zeros(0, dtype=int)
    for i in range(steps):
        lo, hi = i * batch_size, min((i + 1) * batch_size, longer)
        li = lab_order[lo:hi]
        lab = Batch(split.lab_x[li], split.lab_y[li], split.lab_z[li])
        if n_unl:
            ui = unl_order[lo:hi]
            unl = Batch(split.unl_x[ui], split.unl_y[ui], None)
        else:
            unl = Batch(np.zeros((0, split.feature_dim)), np.zeros(0, dtype=int), None)
        yield lab, unl


def single_stream_batches(x: np.ndarray, y: np.ndarray, batch_size: int,
                          seed: int, epoch: int):
    """Plain mini-batches over one array pair, reshuffled per (seed, epoch)."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, 0x51247]))
    perm = rng.permutation(len(y))
    for i in range(-(-len(y) // batch_size)):
        idx = perm[i * batch_size:(i + 1) * batch_size]
        yield Batch(x[idx], y[idx], None)
