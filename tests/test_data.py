"""Tests for CSV ingestion, preprocessing, and the labeled/unlabeled split."""

import numpy as np
import pytest

from drulearn.data import (
    TableError,
    append_intercept,
    load_csv,
    sample_split,
    standardize,
    synthetic_two_gaussians,
)
from drulearn.model import LabeledDataset, make_rng


def write_csv(path, text):
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_numeric_round_trip(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            "a,b,y\n1.5,2.0,1\n-0.5,0.25,0\n3.0,-1.0,1\n",
        )
        table = load_csv(path, "y", "1")
        np.testing.assert_array_equal(
            table.features, [[1.5, 2.0], [-0.5, 0.25], [3.0, -1.0]]
        )
        np.testing.assert_array_equal(table.labels, [1, 0, 1])

    def test_byte_order_mark_and_non_ascii_header_load(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" starts with a byte-order mark, which
        # must not become part of the first column's name
        path = tmp_path / "t.csv"
        path.write_bytes(
            "\ufeff\u00e9tiquette,a\noui,1.5\nnon,-0.5\noui,3.0\n".encode("utf-8")
        )
        table = load_csv(str(path), "\u00e9tiquette", "oui")
        np.testing.assert_array_equal(table.features, [[1.5], [-0.5], [3.0]])
        np.testing.assert_array_equal(table.labels, [1, 0, 1])

    def test_categorical_one_hot_alphabetical(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            "color,y\nb,yes\na,no\nb,yes\n",
        )
        table = load_csv(path, "y", "yes")
        # one indicator per category, "a" first
        np.testing.assert_array_equal(table.features, [[0, 1], [1, 0], [0, 1]])
        np.testing.assert_array_equal(table.labels, [1, 0, 1])

    def test_mixed_columns_keep_header_order(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            "size,kind,y\n1.0,m,0\n2.0,f,1\n",
        )
        table = load_csv(path, "y", "1")
        # size, then kind's indicators for "f" and "m"
        np.testing.assert_array_equal(table.features, [[1.0, 0, 1], [2.0, 1, 0]])

    def test_label_column_anywhere(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "y,a\n1,4.0\n0,5.0\n")
        table = load_csv(path, "y", "1")
        np.testing.assert_array_equal(table.features, [[4.0], [5.0]])

    def test_missing_label_column_is_an_error(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "a,b\n1,2\n")
        with pytest.raises(TableError, match="no column named"):
            load_csv(path, "y", "1")

    def test_missing_positive_token_is_an_error(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "a,y\n1,x\n2,z\n")
        with pytest.raises(TableError, match="positive token"):
            load_csv(path, "y", "1")

    def test_more_than_two_label_values_is_an_error(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "a,y\n1,x\n2,z\n3,w\n")
        with pytest.raises(TableError, match="distinct values"):
            load_csv(path, "y", "x")

    def test_ragged_row_is_an_error(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "a,b,y\n1,2,0\n1,0\n")
        with pytest.raises(TableError, match="row 3 has 2 cells"):
            load_csv(path, "y", "1")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_is_an_error_naming_column_and_row(self, tmp_path, cell):
        path = write_csv(
            tmp_path / "t.csv", f"a,y,b\n1.0,1,2.0\n0.5,0,0.5\n0.3,1,{cell}\n"
        )
        with pytest.raises(TableError) as raised:
            load_csv(path, "y", "1")
        message = str(raised.value)
        assert message.startswith(f"{path}: column 'b', data row 3 (line 4): ")
        assert repr(cell) in message

    @pytest.mark.parametrize(
        "header, repeated", [("a,y,y", "y"), ("a,y,a", "a"), ("b,a,y,a,a", "a")]
    )
    def test_a_column_named_twice_is_an_error_naming_it(
        self, tmp_path, header, repeated
    ):
        # a second label column was read as a feature, the label leaking in
        width = header.count(",") + 1
        text = header + "\n" + "".join(
            ",".join([str(i % 2)] * width) + "\n" for i in range(4)
        )
        path = write_csv(tmp_path / "t.csv", text)
        with pytest.raises(TableError) as raised:
            load_csv(path, "y", "1")
        assert str(raised.value) == (
            f"{path}: the header names column {repeated!r} more than once"
        )

    @pytest.mark.parametrize("cell", ["", "  "])
    def test_blank_cell_in_a_numeric_column_is_an_error(self, tmp_path, cell):
        # five numbers and one blank cell once loaded as six indicator columns
        rows = ["1.0", "2.5", cell, "0.3", "1.1", "0.9"]
        text = "a,b,y\n" + "".join(
            f"{a},{i / 2},{i % 2}\n" for i, a in enumerate(rows)
        )
        path = write_csv(tmp_path / "t.csv", text)
        with pytest.raises(TableError) as raised:
            load_csv(path, "y", "1")
        assert str(raised.value) == (
            f"{path}: column 'a', data row 3 (line 4): {cell!r} is blank"
        )

    def test_blank_cell_beside_a_category_stays_a_category(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "a,y\n1.0,1\n,0\nx,1\n")
        table = load_csv(path, "y", "1")
        # the categories "", "1.0" and "x", in that order
        np.testing.assert_array_equal(
            table.features, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        )

    def test_label_column_alone_is_an_error(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "y\n1\n0\n1\n")
        with pytest.raises(TableError) as raised:
            load_csv(path, "y", "1")
        assert str(raised.value) == (
            f"{path}: no feature column besides the label column 'y'"
        )

    def test_empty_file_and_header_only_are_errors(self, tmp_path):
        empty = write_csv(tmp_path / "e.csv", "")
        with pytest.raises(TableError, match="empty file"):
            load_csv(empty, "y", "1")
        header = write_csv(tmp_path / "h.csv", "a,y\n")
        with pytest.raises(TableError, match="no data rows"):
            load_csv(header, "y", "1")

    def test_single_label_value_loads(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "a,y\n1,p\n2,p\n")
        table = load_csv(path, "y", "p")
        np.testing.assert_array_equal(table.labels, [1, 1])

    def test_large_mixed_table_shape_and_share(self, tmp_path):
        # Shaped like a prepared shellfish table: 10 encoded feature
        # columns over 2854 rows with a 50.7% positive class.
        rng = make_rng(77)
        n = 2854
        n_positive = 1447  # 1447 / 2854 = 0.50701...
        categories = np.array(["f", "i", "m"])[rng.integers(0, 3, size=n)]
        numeric = rng.normal(size=(n, 7))
        labels = np.array(["old"] * n_positive + ["young"] * (n - n_positive))
        lines = ["sex," + ",".join(f"m{j}" for j in range(7)) + ",age"]
        for i in range(n):
            cells = [categories[i]] + [repr(float(v)) for v in numeric[i]] + [labels[i]]
            lines.append(",".join(cells))
        path = write_csv(tmp_path / "big.csv", "\n".join(lines) + "\n")
        table = load_csv(path, "age", "old")
        assert table.features.shape == (2854, 10)  # 3 one-hot + 7 numeric
        assert float(table.labels.mean()) == pytest.approx(0.507, abs=1e-3)


class TestRawTable:
    """The raw table, a `LabeledDataset` as the loaders return it, checks
    its labels and its shapes."""

    def test_binary_label_validation(self):
        with pytest.raises(ValueError, match="0 or 1"):
            LabeledDataset([[1.0], [2.0]], [0, 2])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="disagree"):
            LabeledDataset([[1.0], [2.0]], [0, 1, 1])


class TestStandardize:
    def test_hand_computed_two_by_two(self):
        table = LabeledDataset([[0.0, 2.0], [2.0, 0.0]], [0, 1])
        scaled = standardize(table)
        np.testing.assert_array_equal(scaled.features, [[-1.0, 1.0], [1.0, -1.0]])

    def test_zero_mean_unit_std_divides_by_max_abs(self):
        values = np.array([-2.0, -1.0, 1.0, 2.0])
        values = values / values.std()  # zero mean, unit population std
        table = LabeledDataset(values[:, None], [0, 0, 1, 1])
        scaled = standardize(table)
        peak = np.abs(values).max()
        np.testing.assert_allclose(
            scaled.features[:, 0], values / peak, rtol=0, atol=1e-15
        )

    def test_constant_feature_becomes_zeros(self):
        table = LabeledDataset([[5.0, 1.0], [5.0, 3.0], [5.0, 2.0]], [0, 1, 0])
        scaled = standardize(table)
        np.testing.assert_array_equal(scaled.features[:, 0], np.zeros(3))

    def test_all_constant_table_keeps_unit_global_scale(self):
        table = LabeledDataset([[4.0], [4.0]], [0, 1])
        scaled = standardize(table)
        np.testing.assert_array_equal(scaled.features, [[0.0], [0.0]])

    def test_idempotent_within_tolerance(self):
        # Re-standardizing standardized data re-inflates each feature to
        # unit spread and then divides the same global factor back out, so
        # the output is unchanged and its largest magnitude stays exactly 1.
        rng = make_rng(3)
        table = LabeledDataset(
            rng.normal(size=(50, 4)) * rng.uniform(0.5, 3.0, size=4) + 1.0,
            rng.integers(0, 2, size=50),
        )
        once = standardize(table)
        assert np.abs(once.features).max() == 1.0
        twice = standardize(once)
        np.testing.assert_allclose(
            twice.features, once.features, rtol=0, atol=1e-12
        )
        assert np.abs(twice.features).max() == pytest.approx(1.0, abs=1e-12)

    def test_input_table_is_not_mutated(self):
        features = np.array([[1.0, 2.0], [3.0, 4.0]])
        table = LabeledDataset(features.copy(), [0, 1])
        before = table.features.copy()
        standardize(table)
        np.testing.assert_array_equal(table.features, before)

    def test_single_row_is_an_error(self):
        table = LabeledDataset([[1.0]], [1])
        with pytest.raises(TableError, match="two rows"):
            standardize(table)

    @pytest.mark.filterwarnings("error")
    def test_finite_cells_near_the_float_limit_do_not_overflow(self):
        # the column sum of two 1e308 cells overflows; scaled by a power of
        # two first, the column gives the z-scores of its scaled copy
        features = np.array([[1e308, 2.0], [1e308, 0.5], [0.3, 1.5], [2.0, 0.1]])
        scaled = standardize(LabeledDataset(features, [1, 0, 1, 0]))
        assert np.all(np.isfinite(scaled.features))
        small = standardize(
            LabeledDataset(features * [2.0**-1000, 1.0], [1, 0, 1, 0])
        )
        assert scaled.features.tobytes() == small.features.tobytes()

    def test_column_scaling_keeps_the_unscaled_z_scores_bit_for_bit(self):
        # the power-of-two scaling is exact, so where the unscaled mean and
        # std cannot overflow the output is the unscaled formula's
        rng = make_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            scales = 10.0 ** rng.uniform(-30, 30, size=3)
            features = (rng.normal(size=(n, 3)) + rng.normal(size=3)) * scales
            means, stds = features.mean(axis=0), features.std(axis=0)
            scored = (features - means) / np.where(stds == 0.0, 1.0, stds)
            reference = scored / np.abs(scored).max()
            scaled = standardize(LabeledDataset(features, rng.integers(0, 2, n)))
            assert scaled.features.tobytes() == reference.tobytes()


class TestAppendIntercept:
    def test_appends_trailing_ones(self):
        table = LabeledDataset([[2.0], [3.0]], [0, 1])
        extended = append_intercept(table)
        np.testing.assert_array_equal(extended.features, [[2.0, 1.0], [3.0, 1.0]])


class TestSampleSplit:
    @staticmethod
    def table(n=10, dim=2, seed=0):
        rng = make_rng(seed)
        return LabeledDataset(rng.normal(size=(n, dim)), rng.integers(0, 2, size=n))

    def test_same_seed_same_split(self):
        table = self.table()
        first = sample_split(table, 4, seed=9)
        second = sample_split(table, 4, seed=9)
        np.testing.assert_array_equal(first[0].features, second[0].features)
        np.testing.assert_array_equal(first[0].labels, second[0].labels)
        np.testing.assert_array_equal(first[1].features, second[1].features)
        np.testing.assert_array_equal(first[1].labels, second[1].labels)

    def test_remainder_mode_partitions_the_rows(self):
        # the rest is every row not drawn, with its label, in table order
        table = self.table()
        labeled, rest = sample_split(table, 4, seed=2)
        drawn = np.isin(table.features[:, 0], labeled.features[:, 0])
        assert labeled.n == 4 and drawn.sum() == 4
        np.testing.assert_array_equal(labeled.labels, table.labels[drawn])
        np.testing.assert_array_equal(rest.features, table.features[~drawn])
        np.testing.assert_array_equal(rest.labels, table.labels[~drawn])

    def test_taking_every_row_leaves_no_remainder(self):
        table = self.table(n=5)
        labeled, unlabeled = sample_split(table, 5, seed=3)
        assert unlabeled is None
        np.testing.assert_array_equal(labeled.features, table.features)
        np.testing.assert_array_equal(labeled.labels, table.labels)

    def test_labeled_rows_come_from_the_table(self):
        table = self.table(n=30, seed=5)
        labeled, _ = sample_split(table, 7, seed=11)
        table_rows = {tuple(row) for row in table.features}
        assert all(tuple(row) in table_rows for row in labeled.features)

    def test_oversized_request_is_an_error(self):
        table = self.table(n=5)
        with pytest.raises(ValueError, match=r"n_labeled must be in \[1, 5\]"):
            sample_split(table, 6, seed=0)
        with pytest.raises(ValueError, match="n_labeled"):
            sample_split(table, 0, seed=0)

    def test_overlap_between_seeds_is_hypergeometric_on_average(self):
        # Two independent draws of 20 from 100 share 20*20/100 = 4 rows
        # in expectation.
        table = self.table(n=100, seed=8)
        row_ids = {tuple(row): i for i, row in enumerate(table.features)}
        overlaps = []
        for pair in range(1000):
            first, _ = sample_split(table, 20, seed=2 * pair)
            second, _ = sample_split(table, 20, seed=2 * pair + 1)
            ids_first = {row_ids[tuple(row)] for row in first.features}
            ids_second = {row_ids[tuple(row)] for row in second.features}
            overlaps.append(len(ids_first & ids_second))
        assert abs(np.mean(overlaps) - 4.0) <= 0.5


class TestSyntheticTwoGaussians:
    def test_balanced_and_deterministic(self):
        table = synthetic_two_gaussians(40, seed=6)
        again = synthetic_two_gaussians(40, seed=6)
        assert table.n == 40
        assert int(table.labels.sum()) == 20
        np.testing.assert_array_equal(table.features, again.features)

    def test_classes_sit_on_opposite_sides(self):
        table = synthetic_two_gaussians(200, seed=7, separation=2.0, noise=0.3)
        positive = table.features[table.labels == 1]
        negative = table.features[table.labels == 0]
        assert positive.mean(axis=0) == pytest.approx((2.0, 2.0), abs=0.2)
        assert negative.mean(axis=0) == pytest.approx((-2.0, -2.0), abs=0.2)

    def test_odd_count_favors_the_negative_class(self):
        table = synthetic_two_gaussians(7, seed=1)
        assert int(table.labels.sum()) == 3

    def test_too_small_is_an_error(self):
        with pytest.raises(ValueError, match="two points"):
            synthetic_two_gaussians(1, seed=0)
