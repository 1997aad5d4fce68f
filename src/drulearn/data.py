"""Dataset ingestion, preprocessing, and sampling.

Every step takes and returns a `model.LabeledDataset`.  CSV tables come in
as UTF-8 text with a header naming each column once and a binary label
column; the feature columns keep the header's order, a categorical column
becoming one indicator column per category in alphabetical order, and every
cell must be a finite number or a category: a numeric column may hold no
blank cell, and a table needs a feature column besides the label.  A table
used unstandardized must keep the distances between its rows finite.
Preprocessing z-scores each feature and then rescales the whole matrix by
its largest absolute entry; `append_intercept` adds the constant feature
last.  `sample_split` draws the labeled rows, seeded and uniform without
replacement, and returns the rows left over with them; every subcommand
that needs a labeled subsample takes it from there.
"""

from __future__ import annotations

import csv

import numpy as np

from .config import open_utf8
from .model import LabeledDataset, make_rng


class TableError(ValueError):
    """Raised when an input table cannot be ingested as requested."""


def _is_numeric_column(values) -> bool:
    """Whether every non-blank cell parses as a number."""
    try:
        for value in values:
            if value.strip():
                float(value)
    except ValueError:
        return False
    return True


def overflowing_column(features):
    """The index of the widest column of `features` if the distances between
    its rows could overflow, else ``None``: the sum over columns of each
    column's squared range, taken by the float operations of
    `model.feature_distances` with the overflow warning off, bounds them."""
    with np.errstate(over="ignore"):
        spans = np.ptp(features, axis=0)
        reach = np.sum(spans * spans)
    return None if np.isfinite(reach) else int(np.argmax(spans))


def load_csv(
    path, label_column: str, positive_class_token: str, raw: bool = False
) -> LabeledDataset:
    """Ingest a headed CSV into a labeled dataset with a binary label.

    The file must be UTF-8 text.  The header must name each column once.
    Numeric columns parse as reals and must be finite, with no blank cell;
    any other column is one-hot encoded with its categories in alphabetical
    order.  The label column must hold exactly two distinct tokens, one of
    them the positive token, mapped to 1, and some other column must exist.
    A `raw` table, one whose features are used unstandardized, must not
    spread so far that the distances between its rows overflow.
    """
    with open_utf8(path, TableError, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TableError(f"{path}: empty file, expected a header row")
        rows = list(reader)
    if not rows:
        raise TableError(f"{path}: no data rows")
    if len(set(header)) < len(header):
        repeated = next(name for name in header if header.count(name) > 1)
        raise TableError(
            f"{path}: the header names column {repeated!r} more than once"
        )
    for index, row in enumerate(rows):
        if len(row) != len(header):
            raise TableError(
                f"{path}: row {index + 2} has {len(row)} cells, "
                f"expected {len(header)}"
            )
    if label_column not in header:
        raise TableError(f"{path}: no column named {label_column!r}")
    if len(header) == 1:
        raise TableError(
            f"{path}: no feature column besides the label column {label_column!r}"
        )
    label_index = header.index(label_column)

    label_tokens = [row[label_index] for row in rows]
    distinct = sorted(set(label_tokens))
    if positive_class_token not in distinct:
        raise TableError(
            f"{path}: positive token {positive_class_token!r} absent from "
            f"label column (saw {distinct})"
        )
    if len(distinct) > 2:
        raise TableError(
            f"{path}: label column has {len(distinct)} distinct values, "
            "expected a binary column"
        )
    labels = np.array(
        [1 if token == positive_class_token else 0 for token in label_tokens]
    )

    columns, names = [], []
    for index, name in enumerate(header):
        if index == label_index:
            continue
        values = [row[index] for row in rows]
        if _is_numeric_column(values):
            column = np.array([float(v) if v.strip() else np.nan for v in values])
            bad = np.flatnonzero(~np.isfinite(column))
            if bad.size:
                cell = values[bad[0]]
                problem = "is not a finite number" if cell.strip() else "is blank"
                raise TableError(
                    f"{path}: column {name!r}, data row {bad[0] + 1} "
                    f"(line {bad[0] + 2}): {cell!r} {problem}"
                )
            columns.append(column)
            names.append(name)
        else:
            for category in sorted(set(values)):
                columns.append(
                    np.array([1.0 if v == category else 0.0 for v in values])
                )
                names.append(name)
    features = np.column_stack(columns)
    widest = overflowing_column(features) if raw else None
    if widest is not None:
        raise TableError(
            f"{path}: column {names[widest]!r} spreads the features so far "
            "that their distances overflow; set standardize = true"
        )
    return LabeledDataset(features, labels)


def standardize(table: LabeledDataset) -> LabeledDataset:
    """Z-score each feature, then divide everything by the largest |entry|.

    Population (divide-by-n) standard deviations; a constant feature is
    centered and divided by 1, and an all-zero matrix keeps a global scale
    of 1.  Each column is first scaled by the power of two that brings its
    largest |entry| into [0.5, 1): the scaling is exact, so the z-scores
    keep their bits, and the mean and std of finite cells near the float
    limit cannot overflow.  Returns a new dataset; the input is never
    modified.
    """
    if table.n < 2:
        raise TableError("standardization needs at least two rows")
    _, exponents = np.frexp(np.abs(table.features).max(axis=0))
    features = np.ldexp(table.features, -exponents)
    means = features.mean(axis=0)
    stds = features.std(axis=0)
    stds = np.where(stds == 0.0, 1.0, stds)
    scored = (features - means) / stds
    global_scale = float(np.abs(scored).max())
    if global_scale == 0.0:
        global_scale = 1.0
    return LabeledDataset(scored / global_scale, table.labels)


def append_intercept(table: LabeledDataset) -> LabeledDataset:
    """Add the constant-1 intercept feature as the final column."""
    features = np.column_stack([table.features, np.ones(table.n)])
    return LabeledDataset(features, table.labels)


def sample_split(table: LabeledDataset, n_labeled: int, seed: int):
    """Draw the labeled subsample, a seeded uniform draw without replacement.

    Returns ``(labeled, rest)``: ``rest`` holds the rows not drawn, in table
    order, or is ``None`` when every row was drawn.
    """
    if not 0 < n_labeled <= table.n:
        raise ValueError(
            f"n_labeled must be in [1, {table.n}], got {n_labeled}"
        )
    rng = make_rng(seed)
    chosen = np.sort(rng.choice(table.n, size=n_labeled, replace=False))
    mask = np.zeros(table.n, dtype=bool)
    mask[chosen] = True
    labeled = LabeledDataset(table.features[mask], table.labels[mask])
    if mask.all():
        return labeled, None
    return labeled, LabeledDataset(table.features[~mask], table.labels[~mask])


def synthetic_two_gaussians(
    n: int, seed: int, separation: float = 1.5, noise: float = 0.5
) -> LabeledDataset:
    """Balanced two-cluster binary dataset with Gaussian class conditionals.

    Class 1 is centered at (+separation, +separation) and class 0 at the
    mirror image, both with isotropic ``noise`` standard deviation.
    """
    if n < 2:
        raise ValueError("need at least two points")
    rng = make_rng(seed)
    half = n // 2
    positive = rng.normal(scale=noise, size=(half, 2)) + separation
    negative = rng.normal(scale=noise, size=(n - half, 2)) - separation
    features = np.concatenate([positive, negative])
    labels = np.array([1] * half + [0] * (n - half))
    return LabeledDataset(features, labels)
