import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairvae import data as D
from fairvae.synthetic import write_adult_like


@pytest.fixture(scope="module")
def adult_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthetic_adult")
    train, test = root / "train.csv", root / "test.csv"
    write_adult_like(train, test, n_train=400, n_test=200, seed=7)
    return train, test


@pytest.fixture(scope="module")
def loaded(adult_files):
    return D.load_adult(*adult_files)


class TestLoadAdult:
    def test_row_counts(self, loaded):
        train, test = loaded
        assert len(train) == 400 and len(test) == 200

    def test_test_banner_and_period_tolerated(self, loaded):
        _, test = loaded
        assert all(not r["income"].endswith(".") for r in test)
        assert {r["income"] for r in test} <= {"<=50K", ">50K"}

    def test_empty_file_warns(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.warns(UserWarning, match="no records"):
            records = D._read_adult_file(p)
        assert records == []

    def test_wrong_column_count_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,3\n")
        with pytest.raises(D.SchemaError, match=r"bad.csv:1.*expected 15.*got 3"):
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


class TestPreprocess:
    def test_sensitive_column_removed_and_stored(self, loaded):
        train, _ = loaded
        samples, stats = D.preprocess(train)
        assert not any(n == "sex" for n, _ in stats.feature_columns)
        assert {s.z for s in samples} == {0, 1}
        # re-including it for ablation widens the feature vector
        samples_inc, stats_inc = D.preprocess(train, include_sensitive=True)
        assert stats_inc.feature_dim == stats.feature_dim + 2

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
        record = dict(train[0])
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
        record = dict(train[0])
        record["workclass"] = "?"
        [sample], _ = D.preprocess([record], stats)
        mode_pos = stats.cat_vocab["workclass"].index(stats.cat_mode["workclass"])
        start = 1  # age occupies the first slot
        assert sample.x[start + mode_pos] == 1.0


@pytest.fixture(scope="module")
def split(loaded):
    train, test = loaded
    train_samples, stats = D.preprocess(train)
    test_samples, _ = D.preprocess(test, stats)
    return D.split_and_mask(train_samples, val_frac=0.1, label_ratio=0.2,
                            seed=3, test_samples=test_samples)


class TestSplitAndMask:
    def test_sizes(self, split):
        n = 400
        n_val = int(0.1 * n)
        assert len(split.val_y) == n_val
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
        samples = [D.Sample(x=np.zeros(3), y=i % 2, z=i % 2) for i in range(300)]
        with pytest.raises(D.ConfigError,
                           match=r"label_ratio 0\.001 of 270 training rows .*"
                                 r"30 validation rows of 300.* 0 labeled rows"):
            D.split_and_mask(samples, 0.1, 0.001, seed=0)
        assert D.split_and_mask(samples, 0.1, 1 / 270, seed=0).n_labeled == 1

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 80),
           val_frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           label_ratio=st.floats(0.0, 1.0, exclude_min=True),
           seed=st.integers(0, 2**32 - 1))
    def test_partition_property(self, n, val_frac, label_ratio, seed):
        # x holds the row number, so each part's rows can be traced back
        samples = [D.Sample(x=np.array([float(i)]), y=i % 2, z=(i // 3) % 2)
                   for i in range(n)]
        n_val = math.floor(val_frac * n)
        n_lab = math.floor(label_ratio * (n - n_val))
        if n_lab == 0:
            with pytest.raises(D.ConfigError, match="0 labeled rows"):
                D.split_and_mask(samples, val_frac, label_ratio, seed)
            return
        s = D.split_and_mask(samples, val_frac, label_ratio, seed)
        parts = [(s.lab_index, s.lab_x, s.lab_y, s.lab_z),
                 (s.unl_index, s.unl_x, s.unl_y, s._shadow_unl_z),
                 (s.val_index, s.val_x, s.val_y, s.val_z)]
        assert [len(p[0]) for p in parts] == [n_lab, n - n_val - n_lab, n_val]
        rows = np.concatenate([p[0] for p in parts])
        assert sorted(rows.tolist()) == list(range(n))  # disjoint and covering
        for index, x, y, z in parts:
            assert np.array_equal(x[:, 0], index)
            assert np.array_equal(y, index % 2)
            assert np.array_equal(z, (index // 3) % 2)

    def test_shadow_access_is_counted(self, split):
        before = split.shadow_reads
        shadow = split.shadow_unlabeled_attributes()
        assert split.shadow_reads == before + 1
        assert len(shadow) == split.n_unlabeled

    def test_unlabeled_fraction_truncates(self, split):
        half = split.with_unlabeled_fraction(0.5)
        assert half.n_unlabeled == split.n_unlabeled // 2
        assert half.n_labeled == split.n_labeled


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

    def test_same_seed_epoch_identical_order(self, split):
        def orders(epoch):
            return [b.x.sum() for b, _ in D.batches(split, 32, seed=9, epoch=epoch)]
        assert orders(0) == orders(0)
        assert orders(0) != orders(1)
