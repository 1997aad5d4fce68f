"""Dataset ingestion, preprocessing, and sampling.

CSV tables come in with a header and a binary label column; categorical
feature columns are one-hot encoded deterministically. Preprocessing
z-scores each feature and then rescales the whole matrix by its largest
absolute entry, and the labeled/unlabeled split is seeded and uniform
without replacement.
"""

from __future__ import annotations

import csv
import dataclasses

import numpy as np

from .config import UNLABELED_FULL, UNLABELED_REMAINDER
from .model import DiscreteDistribution, LabeledDataset, UnlabeledDataset, make_rng

INTERCEPT_NAME = "intercept"


class TableError(ValueError):
    """Raised when an input table cannot be ingested as requested."""


@dataclasses.dataclass(frozen=True, eq=False)
class RawTable:
    """Numeric feature matrix with named columns and a binary label vector."""

    feature_names: tuple
    features: np.ndarray
    labels: np.ndarray
    label_column: str

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int).ravel()
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if features.ndim != 2:
            raise TableError("features must form a matrix")
        if features.shape[1] != len(self.feature_names):
            raise TableError("feature names and columns disagree")
        if features.shape[0] != labels.shape[0]:
            raise TableError("feature rows and labels disagree")
        if not np.all((labels == 0) | (labels == 1)):
            raise TableError("labels must be binary")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def positive_share(self) -> float:
        return float(self.labels.mean())


def _is_numeric_column(values) -> bool:
    try:
        for value in values:
            float(value)
    except ValueError:
        return False
    return True


def load_csv(path, label_column: str, positive_class_token: str) -> RawTable:
    """Ingest a headed CSV into a numeric table with a binary label.

    Numeric columns parse as reals; any other column is one-hot encoded with
    its categories in alphabetical order. The label column must hold exactly
    two distinct tokens, one of them the positive token, mapped to 1.
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

    feature_names = []
    columns = []
    for index, name in enumerate(header):
        if index == label_index:
            continue
        values = [row[index] for row in rows]
        if _is_numeric_column(values):
            feature_names.append(name)
            columns.append(np.array([float(v) for v in values]))
        else:
            for category in sorted(set(values)):
                feature_names.append(f"{name}={category}")
                columns.append(
                    np.array([1.0 if v == category else 0.0 for v in values])
                )
    features = np.column_stack(columns) if columns else np.empty((len(rows), 0))
    return RawTable(tuple(feature_names), features, labels, label_column)


@dataclasses.dataclass(frozen=True, eq=False)
class StandardizeTransform:
    """Fitted preprocessing: per-feature centering/scaling, then a global scale."""

    means: np.ndarray
    stds: np.ndarray
    global_scale: float

    def apply(self, features) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return (features - self.means) / self.stds / self.global_scale


def standardize(table: RawTable):
    """Z-score each feature, then divide everything by the largest |entry|.

    Population (divide-by-n) standard deviations; a constant feature is
    centered and divided by 1, and an all-zero matrix keeps a global scale
    of 1. Returns the transformed table and the fitted transform; the input
    table is never modified.
    """
    if table.n < 2:
        raise TableError("standardization needs at least two rows")
    means = table.features.mean(axis=0)
    stds = table.features.std(axis=0)
    stds = np.where(stds == 0.0, 1.0, stds)
    scored = (table.features - means) / stds
    global_scale = float(np.abs(scored).max())
    if global_scale == 0.0:
        global_scale = 1.0
    transform = StandardizeTransform(means=means, stds=stds, global_scale=global_scale)
    scaled = RawTable(
        table.feature_names, scored / global_scale, table.labels, table.label_column
    )
    return scaled, transform


def append_intercept(table: RawTable) -> RawTable:
    """Add the constant-1 intercept feature as the final column."""
    features = np.column_stack([table.features, np.ones(table.n)])
    return RawTable(
        table.feature_names + (INTERCEPT_NAME,),
        features,
        table.labels,
        table.label_column,
    )


def sample_split(
    table: RawTable,
    n_labeled: int,
    seed: int,
    unlabeled_mode: str = UNLABELED_FULL,
):
    """Draw the labeled subsample and build the unlabeled set and reference.

    The labeled set is a seeded uniform draw without replacement. The
    unlabeled set is either every feature row (``full``) or only the rows
    left out of the labeled draw (``remainder``; ``None`` when nothing
    remains). The full-table empirical distribution is returned as the
    stand-in for the true distribution.
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
    full = DiscreteDistribution.from_dataset(
        LabeledDataset(table.features, table.labels)
    )
    return labeled, unlabeled, full


def synthetic_two_gaussians(
    n: int, seed: int, separation: float = 1.5, noise: float = 0.5
) -> RawTable:
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
    return RawTable(("f0", "f1"), features, labels, "label")
