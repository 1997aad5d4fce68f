"""Dataset ingestion, preprocessing, and sampling.

Every step takes and returns a `model.LabeledDataset`.  CSV tables come in
with a header and a binary label column; the feature columns keep the
header's order, a categorical column becoming one indicator column per
category in alphabetical order, and every cell must be a finite number or a
category.  Preprocessing z-scores each feature and then rescales the whole
matrix by its largest absolute entry; `append_intercept` adds the constant
feature last.  The labeled/unlabeled split is seeded and uniform without
replacement, and the whole table is the reference sample that stands in for
the true distribution.
"""

from __future__ import annotations

import csv

import numpy as np

from .config import UNLABELED_FULL, UNLABELED_REMAINDER
from .model import LabeledDataset, UnlabeledDataset, make_rng


class TableError(ValueError):
    """Raised when an input table cannot be ingested as requested."""


def _is_numeric_column(values) -> bool:
    try:
        for value in values:
            float(value)
    except ValueError:
        return False
    return True


def load_csv(path, label_column: str, positive_class_token: str) -> LabeledDataset:
    """Ingest a headed CSV into a labeled dataset with a binary label.

    Numeric columns parse as reals and must be finite; any other column is
    one-hot encoded with its categories in alphabetical order.  The label
    column must hold exactly two distinct tokens, one of them the positive
    token, mapped to 1.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TableError(f"{path}: empty file, expected a header row")
        rows = list(reader)
    if not rows:
        raise TableError(f"{path}: no data rows")
    for index, row in enumerate(rows):
        if len(row) != len(header):
            raise TableError(
                f"{path}: row {index + 2} has {len(row)} cells, "
                f"expected {len(header)}"
            )
    if label_column not in header:
        raise TableError(f"{path}: no column named {label_column!r}")
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

    columns = []
    for index, name in enumerate(header):
        if index == label_index:
            continue
        values = [row[index] for row in rows]
        if _is_numeric_column(values):
            column = np.array([float(v) for v in values])
            bad = np.flatnonzero(~np.isfinite(column))
            if bad.size:
                raise TableError(
                    f"{path}: column {name!r}, data row {bad[0] + 1} "
                    f"(line {bad[0] + 2}): {values[bad[0]]!r} is not a finite number"
                )
            columns.append(column)
        else:
            for category in sorted(set(values)):
                columns.append(
                    np.array([1.0 if v == category else 0.0 for v in values])
                )
    features = np.column_stack(columns) if columns else np.empty((len(rows), 0))
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


def sample_split(
    table: LabeledDataset,
    n_labeled: int,
    seed: int,
    unlabeled_mode: str = UNLABELED_FULL,
):
    """Draw the labeled subsample and build the unlabeled set.

    The labeled set is a seeded uniform draw without replacement.  The
    unlabeled set is either every feature row (``full``) or only the rows
    left out of the labeled draw (``remainder``; ``None`` when nothing
    remains).  Returns ``(labeled, unlabeled)``.
    """
    if unlabeled_mode not in (UNLABELED_FULL, UNLABELED_REMAINDER):
        raise ValueError(f"unknown unlabeled_mode {unlabeled_mode!r}")
    if not 0 < n_labeled <= table.n:
        raise ValueError(
            f"n_labeled must be in [1, {table.n}], got {n_labeled}"
        )
    rng = make_rng(seed)
    chosen = np.sort(rng.choice(table.n, size=n_labeled, replace=False))
    mask = np.zeros(table.n, dtype=bool)
    mask[chosen] = True
    labeled = LabeledDataset(table.features[mask], table.labels[mask])
    if unlabeled_mode == UNLABELED_FULL:
        unlabeled = UnlabeledDataset(table.features)
    elif mask.all():
        unlabeled = None
    else:
        unlabeled = UnlabeledDataset(table.features[~mask])
    return labeled, unlabeled


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
