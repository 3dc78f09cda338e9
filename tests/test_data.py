import hashlib
import json
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairvae import data as D
from fairvae.synthetic import write_adult_like
import oracles


@pytest.fixture(scope="module")
def adult_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthetic_adult")
    train, test = root / "train.csv", root / "test.csv"
    write_adult_like(train, test, n_train=400, n_test=200, seed=7)
    return train, test


@pytest.fixture(scope="module")
def loaded(adult_files):
    return D.load_adult(*adult_files)


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def _encoded(samples, width):
    """(x, y, z) of encoded samples as int64/float64 arrays."""
    return (np.array([s.x for s in samples], dtype=float).reshape(-1, width),
            np.array([s.y for s in samples], dtype=np.int64),
            np.array([s.z for s in samples], dtype=np.int64))


def _fit(records, include_sensitive: bool):
    """Fit statistics on ``records`` and encode them, with ``sex`` in ``x``
    when ``include_sensitive``: fitting leaves it out, so the fitted
    statistics are replaced to put it back."""
    _, stats = D.preprocess(records)
    return D.preprocess(records,
                        replace(stats, include_sensitive=include_sensitive))


# sha256 prefixes of the row-by-row encoder's output for the adult_files
# fixture; any change to the encoding moves them
ENCODING_PINS = {
    False: {
        "train.x": "766afce1203194c9", "train.y": "44a8c39a7a71a061",
        "train.z": "473f186d6ff4cdc2", "test.x": "6870cce2195b036c",
        "test.y": "ad360c83924c20d2", "test.z": "d94000027e313dea",
        "stats": "7849b7ace8186ba7",
    },
    True: {
        "train.x": "cc704fca80435707", "train.y": "44a8c39a7a71a061",
        "train.z": "473f186d6ff4cdc2", "test.x": "690238bc2c557cc1",
        "test.y": "ad360c83924c20d2", "test.z": "d94000027e313dea",
        "stats": "a5e0ae97a3608a20",
    },
}

_SEEN = ["a", "b", "c", D.MISSING]
_NUMERIC_CELL = st.one_of(
    st.just(D.MISSING), st.integers(-100, 10**6).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr))


def _record(categories):
    """Records over the Adult columns with the given categorical values;
    missing cells appear in every feature column."""
    cells = {}
    for name, kind in D.ADULT_SCHEMA:
        if name == D.LABEL_COLUMN:
            cells[name] = st.sampled_from(["<=50K", ">50K"])
        elif name == D.SENSITIVE_COLUMN:
            cells[name] = st.sampled_from(["Female", "Male", D.MISSING])
        elif kind == D.NUMERIC:
            cells[name] = _NUMERIC_CELL
        else:
            cells[name] = st.sampled_from(categories)
    return st.fixed_dictionaries(cells)


# one cell that a file or a hand-built record may not hold
_BAD_CELLS = [("age", "abc"), ("fnlwgt", "inf"), ("capital-loss", "nan"),
              ("hours-per-week", "1e999"), ("income", "1"), ("sex", "F")]


@pytest.fixture(scope="module")
def records_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("records")


def _with_bad_cell(tmp_path, good_file, column, value):
    """A file holding the first row of ``good_file``, then that row with
    ``column`` set to ``value``."""
    with open(good_file) as fh:
        good_line = fh.readline().strip()
    fields = [f.strip() for f in good_line.split(",")]
    fields[[c for c, _ in D.ADULT_SCHEMA].index(column)] = value
    p = tmp_path / "bad.csv"
    p.write_text(good_line + "\n" + ", ".join(fields) + "\n")
    return p


class TestLoadAdult:
    def test_row_counts(self, loaded):
        train, test = loaded
        assert len(train) == 400 and len(test) == 200

    def test_test_banner_and_period_tolerated(self, loaded):
        _, test = loaded
        assert all(not v.endswith(".") for v in test.columns["income"])
        assert set(test.columns["income"]) <= {"<=50K", ">50K"}

    def test_empty_file_warns(self, adult_files, tmp_path):
        """The warning names the empty file and points at the caller's line."""
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.warns(UserWarning, match=f"{p}: no records") as caught:
            _, records = D.load_adult(adult_files[0], p)
        assert len(records) == 0
        assert [w.filename for w in caught] == [__file__]

    def test_wrong_column_count_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,3\n")
        with pytest.raises(D.SchemaError, match=r"bad.csv:1.*expected 15.*got 3"):
            D._read_adult_file(p)

    def test_first_error_in_file_order_precedes_a_later_bad_byte(self,
                                                                tmp_path):
        """Line 1 has two fields, line 2 a Latin-1 byte: line 1's error."""
        p = tmp_path / "bad.data"
        p.write_bytes(b"1,2\n" + "M\xe9xico\n".encode("latin-1"))
        with pytest.raises(D.SchemaError,
                           match=r"^\S*bad.data:1: expected 15 fields, got 2$"):
            D._read_adult_file(p)

    def test_bad_cell_before_a_bad_byte_is_reported(self, tmp_path,
                                                    adult_files):
        p = _with_bad_cell(tmp_path, adult_files[0], "age", "abc")
        p.write_bytes(p.read_bytes() + "M\xe9xico\n".encode("latin-1"))
        with pytest.raises(D.ParseError, match=r"bad.csv:2: column 'age'"):
            D._read_adult_file(p)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_bad_byte_names_its_line_and_column(self, tmp_path, adult_files,
                                                newline):
        with open(adult_files[0]) as fh:
            good = fh.readline().strip()
        p = tmp_path / "latin1.data"
        p.write_bytes((good + newline + "|banner" + newline).encode()
                      + b"ab\xe9" + newline.encode())
        with pytest.raises(D.ParseError,
                           match=r"latin1.data:3: byte 0xe9 at column 3 is "
                                 r"not UTF-8 text$"):
            D._read_adult_file(p)

    def test_malformed_numeric_names_line(self, tmp_path, adult_files):
        with open(adult_files[0]) as fh:
            good_line = fh.readline().strip()
        fields = [f.strip() for f in good_line.split(",")]
        fields[0] = "abc"  # age must be numeric
        p = tmp_path / "malformed.csv"
        p.write_text(good_line + "\n" + ", ".join(fields) + "\n")
        with pytest.raises(D.ParseError, match=r"malformed.csv:2.*age"):
            D._read_adult_file(p)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_numeric_names_cell(self, tmp_path, adult_files, value):
        p = _with_bad_cell(tmp_path, adult_files[0], "age", value)
        with pytest.raises(D.ParseError,
                           match=rf"bad.csv:2: column 'age' has "
                                 rf"'{value}', expected a finite number"):
            D._read_adult_file(p)

    @pytest.mark.parametrize("column,value,allowed", [
        ("income", "1", r"\['<=50K', '>50K'\]"),
        ("income", "?", r"\['<=50K', '>50K'\]"),
        ("sex", "F", r"\['\?', 'Female', 'Male'\]"),
        ("sex", "female", r"\['\?', 'Female', 'Male'\]"),
    ])
    def test_unknown_code_names_cell(self, tmp_path, adult_files, column,
                                     value, allowed):
        p = _with_bad_cell(tmp_path, adult_files[0], column, value)
        with pytest.raises(D.ParseError,
                           match=rf"bad.csv:2: column '{column}' has "
                                 rf"'{re.escape(value)}', expected one of "
                                 rf"{allowed}"):
            D._read_adult_file(p)

    @pytest.mark.parametrize("label", [">50K", "<=50K"])
    def test_label_with_two_periods_names_cell(self, tmp_path, adult_files,
                                               label):
        """The test file's labels end in one period, which is stripped; a
        second one is kept, and the label is not a code."""
        p = _with_bad_cell(tmp_path, adult_files[0], "income", label + "..")
        with pytest.raises(D.ParseError,
                           match=rf"bad.csv:2: column 'income' has "
                                 rf"'{re.escape(label)}\.', expected one of "
                                 r"\['<=50K', '>50K'\]$"):
            D._read_adult_file(p)


class TestPreprocess:
    def test_sensitive_column_removed_and_stored(self, loaded):
        train, _ = loaded
        samples, stats = D.preprocess(train)
        assert not any(n == "sex" for n, _ in stats.feature_columns)
        assert {s.z for s in samples} == {0, 1}
        # an encoding that keeps it widens the feature vector
        stats_inc = replace(stats, include_sensitive=True)
        samples_inc, _ = D.preprocess(train, stats_inc)
        assert stats_inc.feature_dim == stats.feature_dim + 2
        assert samples_inc.x.shape == (len(train), stats.feature_dim + 2)

    def test_standardization_center(self):
        records = []
        base = {name: ("Male" if kind == D.CATEGORICAL else "0")
                for name, kind in D.ADULT_SCHEMA}
        base["income"] = "<=50K"
        for v in ("25.0", "38.6", "52.2"):
            r = dict(base)
            r["age"] = v
            records.append(r)
        samples, stats = D.preprocess(records)
        assert stats.num_mean["age"] == pytest.approx(38.6)
        assert samples[1].x[0] == pytest.approx(0.0, abs=1e-12)

    def test_categorical_block_width_matches_vocab(self, loaded):
        train, _ = loaded
        _, stats = D.preprocess(train)
        assert len(stats.cat_vocab["marital-status"]) == 3
        start = 0
        for name, kind in stats.feature_columns:
            width = 1 if kind == D.NUMERIC else len(stats.cat_vocab[name])
            if name == "marital-status":
                break
            start += width
        sample = D.preprocess(train, stats)[0][0]
        assert sample.x[start:start + 3].sum() == 1.0

    def test_unseen_category_encodes_as_zero_block(self, loaded):
        train, _ = loaded
        _, stats = D.preprocess(train)
        record = {name: cells[0] for name, cells in train.columns.items()}
        record["marital-status"] = "Widowed-unseen"
        [sample], _ = D.preprocess([record], stats)
        start = 0
        for name, kind in stats.feature_columns:
            if name == "marital-status":
                break
            start += 1 if kind == D.NUMERIC else len(stats.cat_vocab[name])
        assert sample.x[start:start + 3].sum() == 0.0

    def test_train_and_test_dimensions_match(self, loaded):
        train, test = loaded
        train_samples, stats = D.preprocess(train)
        test_samples, _ = D.preprocess(test, stats)
        assert train_samples[0].x.shape == test_samples[0].x.shape

    def test_train_numeric_columns_standardized(self, loaded):
        train, _ = loaded
        samples, stats = D.preprocess(train)
        x = np.stack([s.x for s in samples])
        col = 0
        for name, kind in stats.feature_columns:
            if kind == D.NUMERIC:
                assert abs(x[:, col].mean()) < 1e-9, name
                assert abs(x[:, col].std() - 1) < 1e-9, name
                col += 1
            else:
                col += len(stats.cat_vocab[name])

    def test_missing_categorical_imputed_with_mode(self, loaded):
        train, _ = loaded
        _, stats = D.preprocess(train)
        record = {name: cells[0] for name, cells in train.columns.items()}
        record["workclass"] = "?"
        [sample], _ = D.preprocess([record], stats)
        mode_pos = stats.cat_vocab["workclass"].index(stats.cat_mode["workclass"])
        start = 1  # age occupies the first slot
        assert sample.x[start + mode_pos] == 1.0

    @pytest.mark.parametrize("include_sensitive", [False, True])
    def test_encoding_pinned(self, loaded, include_sensitive):
        train, test = loaded
        train_samples, stats = _fit(train, include_sensitive)
        test_samples, _ = D.preprocess(test, stats)
        digests = {}
        for part, samples in (("train", train_samples), ("test", test_samples)):
            x, y, z = _encoded(samples, stats.feature_dim)
            for name, a in (("x", x), ("y", y), ("z", z)):
                digests[f"{part}.{name}"] = _sha(a.tobytes())
        digests["stats"] = _sha(json.dumps(asdict(stats),
                                           sort_keys=True).encode())
        assert digests == ENCODING_PINS[include_sensitive]

    @settings(max_examples=150, deadline=None)
    @given(train=st.lists(_record(_SEEN), max_size=25),
           other=st.lists(_record(_SEEN + ["unseen"]), max_size=10),
           include_sensitive=st.booleans())
    def test_matches_row_by_row_reference(self, train, other,
                                          include_sensitive):
        samples, stats = _fit(train, include_sensitive)
        assert (stats.cat_vocab, stats.cat_mode, stats.num_mean,
                stats.num_std) == oracles.reference_stats(train, D.ADULT_SCHEMA)
        other_samples, _ = D.preprocess(other, stats)
        for records, got in ((train, samples), (other, other_samples)):
            want = oracles.reference_encode(records, stats)
            assert ([a.tobytes() for a in _encoded(got, stats.feature_dim)]
                    == [a.tobytes() for a in want])


def _good_records(n=3):
    """``n`` hand-built records that ``preprocess`` accepts."""
    base = {name: ("a" if kind == D.CATEGORICAL else "1") for name, kind
            in D.ADULT_SCHEMA}
    base.update({"income": "<=50K", "sex": "Female"})
    return [dict(base, age=str(30 + i)) for i in range(n)]


class TestPreprocessRejects:
    """Hand-built records are held to the reader's rules."""

    @pytest.mark.parametrize("column,value,expected", [
        ("age", "nan", "a finite number"),
        ("age", "inf", "a finite number"),
        ("fnlwgt", "-inf", "a finite number"),
        ("hours-per-week", "abc", "a finite number"),
        ("capital-gain", None, "a finite number"),
        ("income", "<=50K.", r"one of \['<=50K', '>50K'\]"),
        ("income", "?", r"one of \['<=50K', '>50K'\]"),
        ("sex", "F", r"one of \['\?', 'Female', 'Male'\]"),
    ])
    @pytest.mark.parametrize("fitted", [False, True])
    def test_bad_cell_names_column_record_and_value(self, column, value,
                                                    expected, fitted):
        records = _good_records()
        _, stats = D.preprocess(records)
        records[1][column] = value
        with pytest.raises(D.ParseError,
                           match=rf"record 1: column '{column}' has "
                                 rf"{re.escape(repr(value))}, expected "
                                 rf"{expected}"):
            D.preprocess(records, stats if fitted else None)

    def test_first_bad_record_is_named(self):
        records = _good_records(4)
        records[2]["age"] = "nan"
        records[3]["age"] = "inf"
        with pytest.raises(D.ParseError, match="record 2: column 'age'"):
            D.preprocess(records)

    @pytest.mark.parametrize("ages,what", [
        (["30", "1e308", "31"], "standard deviation"),
        (["1.7e308", "1.7e308", "31"], "mean"),
    ], ids=["std", "mean"])
    def test_statistic_that_overflows_names_column(self, ages, what):
        """Finite cells whose sums overflow: one huge age gives an infinite
        standard deviation, two an infinite mean. Fitting raises, with no
        warning, instead of encoding with an infinite statistic."""
        records = _good_records()
        for record, age in zip(records, ages):
            record["age"] = age
        with pytest.raises(D.SchemaError,
                           match=rf"^column 'age' has a {what} of inf over "
                                 rf"its values, expected a finite number$"):
            D.preprocess(records)

    def test_missing_numbers_and_attributes_still_accepted(self):
        records = _good_records()
        records[0]["age"] = D.MISSING
        records[1]["sex"] = D.MISSING
        samples, stats = D.preprocess(records)
        assert stats.num_mean["age"] == 31.5
        assert len(samples) == 3

    def test_missing_column_names_record_and_column(self):
        records = _good_records()
        del records[1]["age"]
        with pytest.raises(D.SchemaError, match=r"^record 1: no column 'age'$"):
            D.preprocess(records)

    @pytest.mark.parametrize("value", [5, None, b"a"])
    @pytest.mark.parametrize("fitted", [False, True])
    def test_non_string_category_names_record_column_and_value(self, value,
                                                                fitted):
        records = _good_records()
        _, stats = D.preprocess(records)
        records[1]["workclass"] = value
        with pytest.raises(D.ParseError,
                           match=rf"^record 1: column 'workclass' has "
                                 rf"{re.escape(repr(value))}, expected a "
                                 rf"string$"):
            D.preprocess(records, stats if fitted else None)

    def test_str_subclass_cells_accepted(self):
        records = _good_records()
        records[0]["workclass"] = np.str_("a")
        records[0]["sex"] = np.str_("Male")
        samples, _ = D.preprocess(records)
        assert samples.z.tolist() == [0, 1, 1]


class TestRecords:
    def test_missing_column_rejected(self):
        columns = {name: () for name in D.NAMES if name != "sex"}
        with pytest.raises(D.SchemaError, match="no column 'sex'"):
            D.Records(columns)

    def test_columns_of_unequal_length_rejected(self):
        columns = dict(D.Records.of(_good_records()).columns)
        columns["age"] = columns["age"][:2]
        with pytest.raises(D.SchemaError, match="columns differ in length"):
            D.Records(columns)

    def test_earliest_bad_line_is_named_across_columns(self, tmp_path,
                                                       adult_files):
        with open(adult_files[0]) as fh:
            lines = [fh.readline().strip() for _ in range(3)]
        fields = [f.strip() for f in lines[2].split(",")]
        fields[0] = "abc"  # age, line 3
        lines[2] = ", ".join(fields)
        fields = [f.strip() for f in lines[1].split(",")]
        fields[-1] = "1"  # income, line 2
        lines[1] = ", ".join(fields)
        p = tmp_path / "two_bad.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(D.ParseError,
                           match=r"two_bad.csv:2: column 'income' has '1'"):
            D._read_adult_file(p)

    @settings(max_examples=80, deadline=None)
    @given(records=st.lists(_record(_SEEN), min_size=1, max_size=20),
           banner=st.booleans(), period=st.booleans(),
           include_sensitive=st.booleans(),
           bad=st.one_of(st.none(), st.tuples(st.integers(0, 10**6),
                                              st.sampled_from(_BAD_CELLS))))
    def test_file_and_hand_built_records_agree(self, records_dir, records,
                                               banner, period,
                                               include_sensitive, bad):
        """Records written to an Adult-format file and the same records
        built by hand encode to the same bytes, or fail on the same cell."""
        if bad is not None:
            index, (column, value) = bad
            index %= len(records)
            records[index] = dict(records[index], **{column: value})
        path = records_dir / "records.csv"
        with open(path, "w") as fh:
            if banner:
                fh.write("|1x3 Cross validator\n")
            for record in records:
                fh.write(", ".join(record[name] for name in D.NAMES)
                         + ("." if period else "") + "\n")
        if bad is not None:
            with pytest.raises(D.ParseError) as from_file:
                D._read_adult_file(path)
            with pytest.raises(D.ParseError) as by_hand:
                D.preprocess(records)
            cell = f": column {column!r} has {value!r}, expected "
            assert str(by_hand.value).startswith(f"record {index}{cell}")
            assert str(from_file.value) == (
                f"{path}:{index + 1 + banner}"
                + str(by_hand.value)[len(f"record {index}"):])
            return
        got = _fit(D._read_adult_file(path), include_sensitive)
        want = _fit(records, include_sensitive)
        assert [a.tobytes() for a in (got[0].x, got[0].y, got[0].z)] == \
            [a.tobytes() for a in (want[0].x, want[0].y, want[0].z)]
        assert json.dumps(asdict(got[1]), sort_keys=True) == \
            json.dumps(asdict(want[1]), sort_keys=True)


@pytest.fixture(scope="module")
def split(loaded):
    train, _ = loaded
    train_samples, _ = D.preprocess(train)
    return D.split_and_mask(train_samples, val_frac=0.1, label_ratio=0.2,
                            seed=3)


class TestSplitAndMask:
    def test_sizes(self, split):
        n = 400
        n_val = int(0.1 * n)
        assert len(split.val) == n_val
        assert split.n_labeled == int(0.2 * (n - n_val))
        assert split.n_labeled + split.n_unlabeled + n_val == n

    def test_partition_no_overlap(self, split):
        all_idx = np.concatenate([split.lab_index, split.unl_index,
                                  split.val_index])
        assert len(np.unique(all_idx)) == 400

    def test_deterministic_given_seed(self, loaded):
        train, _ = loaded
        samples, _ = D.preprocess(train)
        def index_hash(seed):
            s = D.split_and_mask(samples, 0.1, 0.2, seed)
            blob = json.dumps([s.lab_index.tolist(), s.unl_index.tolist(),
                               s.val_index.tolist()])
            return hashlib.sha256(blob.encode()).hexdigest()
        assert index_hash(5) == index_hash(5)
        assert index_hash(5) != index_hash(6)

    def test_ratio_one_leaves_no_unlabeled(self, loaded):
        train, _ = loaded
        samples, _ = D.preprocess(train)
        s = D.split_and_mask(samples, 0.1, 1.0, seed=0)
        assert s.n_unlabeled == 0

    def test_ratio_zero_rejected(self, loaded):
        train, _ = loaded
        samples, _ = D.preprocess(train)
        with pytest.raises(D.ConfigError, match="label_ratio"):
            D.split_and_mask(samples, 0.1, 0.0, seed=0)

    def test_ratio_flooring_to_zero_labeled_rows_rejected(self):
        parity = np.arange(300) % 2
        samples = D.Samples(np.zeros((300, 3)), parity, parity)
        with pytest.raises(D.ConfigError,
                           match=r"label_ratio 0\.001 of 270 training rows .*"
                                 r"30 validation rows of 300.* 0 labeled rows"):
            D.split_and_mask(samples, 0.1, 0.001, seed=0)
        assert D.split_and_mask(samples, 0.1, 1 / 270, seed=0).n_labeled == 1

    def test_val_frac_flooring_to_zero_validation_rows_rejected(self):
        """Caught at the split, not when the first epoch's validation finds
        no rows to score."""
        parity = np.arange(60) % 2
        samples = D.Samples(np.zeros((60, 3)), parity, parity)
        with pytest.raises(D.ConfigError,
                           match=r"val_frac 0\.01 of 60 rows keeps 0 "
                                 r"validation rows"):
            D.split_and_mask(samples, 0.01, 0.5, seed=0)
        assert len(D.split_and_mask(samples, 1 / 60, 0.5, seed=0).val) == 1

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 80),
           val_frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           label_ratio=st.floats(0.0, 1.0, exclude_min=True),
           seed=st.integers(0, 2**32 - 1))
    def test_partition_property(self, n, val_frac, label_ratio, seed):
        # x holds the row number, so each part's rows can be traced back
        rows = np.arange(n)
        samples = D.Samples(rows[:, None].astype(float), rows % 2, (rows // 3) % 2)
        n_val = math.floor(val_frac * n)
        n_lab = math.floor(label_ratio * (n - n_val))
        if n_val == 0:
            with pytest.raises(D.ConfigError, match="0 validation rows"):
                D.split_and_mask(samples, val_frac, label_ratio, seed)
            return
        if n_lab == 0:
            with pytest.raises(D.ConfigError, match="0 labeled rows"):
                D.split_and_mask(samples, val_frac, label_ratio, seed)
            return
        s = D.split_and_mask(samples, val_frac, label_ratio, seed)
        assert s.unl.z is None
        parts = [(s.lab_index, s.lab.x, s.lab.y, s.lab.z),
                 (s.unl_index, s.unl.x, s.unl.y, s.shadow_unlabeled_attributes()),
                 (s.val_index, s.val.x, s.val.y, s.val.z)]
        assert [len(p[0]) for p in parts] == [n_lab, n - n_val - n_lab, n_val]
        rows = np.concatenate([p[0] for p in parts])
        assert sorted(rows.tolist()) == list(range(n))  # disjoint and covering
        for index, x, y, z in parts:
            assert np.array_equal(x[:, 0], index)
            assert np.array_equal(y, index % 2)
            assert np.array_equal(z, (index // 3) % 2)

    def test_partitions_of_encoded_samples_match_stacked_rows(self, loaded):
        """Each partition is byte-identical to the encoded matrix's own rows
        at its indices, stacked one by one."""
        train, _ = loaded
        samples, _ = D.preprocess(train)
        cut = D.split_and_mask(samples, 0.1, 0.2, seed=4)
        hidden = D.Samples(cut.unl.x, cut.unl.y, cut.shadow_unlabeled_attributes())
        parts = {"lab": (cut.lab_index, cut.lab), "unl": (cut.unl_index, hidden),
                 "val": (cut.val_index, cut.val)}
        for part, (index, got) in parts.items():
            rows = [samples[int(i)] for i in index]
            stacked = (np.stack([r.x for r in rows]),
                       np.array([r.y for r in rows]), np.array([r.z for r in rows]))
            for name, b in zip("xyz", stacked):
                a = getattr(got, name)
                assert (a.dtype, a.shape, a.tobytes()) == \
                    (b.dtype, b.shape, b.tobytes()), f"{part}.{name}"

    def test_shadow_access_is_counted(self, split):
        before = split.shadow_reads
        shadow = split.shadow_unlabeled_attributes()
        assert split.shadow_reads == before + 1
        assert len(shadow) == split.n_unlabeled

    def test_each_derived_split_keeps_unlabeled_z_hidden(self, split):
        shadow = split.shadow_unlabeled_attributes()
        adopt = np.arange(split.n_unlabeled) % 3 == 0
        moved = split.with_pseudo_labels(adopt, 1 - shadow[adopt])
        n = split.n_labeled
        assert moved.n_labeled == n + adopt.sum() and moved.unl.z is None
        assert np.array_equal(moved.lab.x[n:], split.unl.x[adopt])
        assert np.array_equal(moved.lab.z[n:], 1 - shadow[adopt])
        assert np.array_equal(moved.shadow_unlabeled_attributes(), shadow[~adopt])
        half = split.with_unlabeled_fraction(0.5)
        assert half.unl.z is None
        assert np.array_equal(half.shadow_unlabeled_attributes(),
                              shadow[:half.n_unlabeled])

    def test_all_train_is_the_pool_in_dataset_order(self, loaded):
        samples, _ = D.preprocess(loaded[0])
        s = D.split_and_mask(samples, 0.1, 0.2, seed=2)
        pool = s.all_train()
        rows = np.sort(np.concatenate([s.lab_index, s.unl_index]))
        assert pool.z is None
        assert np.array_equal(pool.x, samples.x[rows])
        assert np.array_equal(pool.y, samples.y[rows])

    def test_unlabeled_fraction_truncates(self, split):
        half = split.with_unlabeled_fraction(0.5)
        assert half.n_unlabeled == split.n_unlabeled // 2
        assert half.n_labeled == split.n_labeled


class TestSamples:
    def test_hidden_z_stays_none_when_indexed(self):
        s = D.Samples(np.arange(6.0).reshape(3, 2), np.array([0, 1, 0]))
        assert s.z is None and s[1:].z is None and s[np.array([2, 0])].z is None
        assert s[1].x.tolist() == [2.0, 3.0] and len(s[1:]) == 2


class TestBatches:
    def test_step_count_and_cycling(self, loaded):
        train, _ = loaded
        samples, _ = D.preprocess(train)
        # 400 samples, val 40, ratio 0.2 -> 72 labeled / 288 unlabeled
        s = D.split_and_mask(samples, 0.1, 0.2, seed=1)
        pairs = list(D.batches(s, batch_size=36, seed=1, epoch=0))
        assert len(pairs) == 8  # ceil(288 / 36)
        lab_seen = sum(len(b) for b, _ in pairs)
        assert lab_seen == 288  # labeled set cycled 4x
        assert all(b.z is not None for b, _ in pairs)
        assert all(u.z is None for _, u in pairs)

    def test_ratio_one_gives_empty_unlabeled_batches(self, loaded):
        train, _ = loaded
        samples, _ = D.preprocess(train)
        s = D.split_and_mask(samples, 0.1, 1.0, seed=1)
        for _, unl in D.batches(s, 64, seed=1, epoch=0):
            assert len(unl) == 0
            assert unl.x.shape == (0, s.feature_dim) and unl.z is None

    def test_single_stream_covers_each_row_once(self):
        rows = np.arange(103)
        pool = D.Samples(rows[:, None].astype(float), rows % 2)
        got = list(D.single_stream_batches(pool, 25, seed=4, epoch=1))
        assert [len(b) for b in got] == [25, 25, 25, 25, 3]
        assert all(b.z is None for b in got)
        seen = np.concatenate([b.x[:, 0] for b in got])
        assert sorted(seen.tolist()) == rows.tolist()

    def test_same_seed_epoch_identical_order(self, split):
        def orders(epoch):
            return [b.x.sum() for b, _ in D.batches(split, 32, seed=9, epoch=epoch)]
        assert orders(0) == orders(0)
        assert orders(0) != orders(1)
