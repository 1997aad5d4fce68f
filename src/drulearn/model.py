"""Linear logistic model: prediction, loss, gradients, transport cost, dual cells,
confidence.

Conventions used across the package:

* Feature vectors live in R^q x {1}: a constant 1 is appended as the last
  coordinate at ingestion time, so the bias is an ordinary weight.  The model
  functions accept arbitrary vectors; the constant coordinate is only enforced
  by the data pipeline.
* Binary labels are {0, 1} everywhere, and the class index k is the label
  (k=0 negative class, k=1 positive class).  The transport cost compares
  labels for equality: a label flip contributes exactly the configured flip
  cost.
* An unlabeled sample is its (m, d) float feature matrix, one row per point
  with implied weight 1/m: it constrains the adversary only through its
  feature marginal.  A labeled sample is a `LabeledDataset`.
* A dual point's multipliers are one flat vector: the transport price, one
  potential per labeled atom, then the upper and the lower label
  multipliers, one per class.  The worst-case LP returns it, `dual.DualState`
  holds it and the certificate search moves it; `multiplier_parts` is the
  one place its parts are named.
* The cells of the finite dual (the loss at a candidate label minus the
  multipliers' charges) sit next to the transport costs they charge for
  (`pair_costs`), in the same (point, atom, label) layout.  `CellLayout`
  holds a block's losses and costs in that layout, flattened, and is the one
  place the cells are built.  A dual point is priced by its multiplier
  vector on a layout, whose losses already fix the weights: `certify` builds
  its sample's losses and costs once and prices every point on their rows,
  and the worst-case LP's pricing and the stochastic dual solver build one
  layout per payoff or batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import expit

N_CLASSES = 2


@dataclass(frozen=True)
class TransportCost:
    """Ground transport cost: Euclidean distance on features plus a label term.

    The label term is ``label_flip_cost`` when the two labels differ and
    zero when they agree, so moving mass across the label boundary costs
    exactly the flip cost and keeping the label costs nothing.
    """

    label_flip_cost: float = 1.0

    def __post_init__(self):
        if not self.label_flip_cost >= 0:
            raise ValueError("label_flip_cost must be nonnegative")


def _check_dim(theta, x):
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    if theta.shape[-1] != x.shape[-1]:
        raise ValueError(
            f"dimension mismatch: weights have {theta.shape[-1]} coordinates, "
            f"features have {x.shape[-1]}"
        )
    return theta, x


def margin(theta, x):
    """Inner product <theta, x>; x may be a single vector or a matrix of rows."""
    theta, x = _check_dim(theta, x)
    return x @ theta


def logistic_predict(theta, x):
    """Predicted probability of the positive class, sigma(<theta, x>)."""
    return expit(margin(theta, x))


def logistic_loss(theta, x, y):
    """Negative log-likelihood of label(s) y in {0, 1} under the logistic model.

    Computed as log(1 + exp(-m)) for y=1 and log(1 + exp(m)) for y=0 via
    logaddexp, which branches on the sign of the margin internally and is
    stable for |m| far beyond 700.
    """
    m = margin(theta, x)
    y = np.asarray(y)
    return np.logaddexp(0.0, (1 - 2 * y) * m)


def both_class_losses(theta, features):
    """Losses for both labels at each row: column k holds the loss of label k.

    Returns an (n, 2) array for an (n, d) feature matrix.
    """
    m = margin(theta, features)
    return np.stack([np.logaddexp(0.0, m), np.logaddexp(0.0, -m)], axis=-1)


def loss_grad_theta(theta, x, y):
    """Gradient of logistic_loss in theta: (sigma(<theta, x>) - y) * x."""
    m = margin(theta, x)
    resid = expit(m) - np.asarray(y)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return resid * x
    return resid[..., None] * x


def confidence(theta, x):
    """Confidence of the prediction at x: max of the two class probabilities."""
    p = logistic_predict(theta, x)
    return np.maximum(p, 1.0 - p)


def median(values) -> float:
    """The median of a nonempty sample, bit for bit `np.median`'s.

    `np.median` checks its partition for NaN through `numpy.ma`, which
    costs a run about 10 ms to import.  This takes the same partition and
    keeps numpy's arithmetic: the mean of the middle one or two values
    starts from +0.0, so a zero median is +0.0, and a NaN in the sample is
    returned as the median.
    """
    values = np.asarray(values, dtype=float).ravel()
    if not values.size:
        raise ValueError("median of an empty sample")
    half, odd = divmod(values.size, 2)
    middle = [half] if odd else [half - 1, half]
    part = np.partition(values, middle + [-1])
    if np.isnan(part[-1]):
        return float(part[-1])
    if odd:
        return 0.0 + float(part[half])
    return (0.0 + float(part[half - 1]) + float(part[half])) / 2


def feature_distances(a, b):
    """Pairwise Euclidean distances between rows of a (n, d) and b (m, d)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError("dimension mismatch between point sets")
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def pair_costs(features, atoms, cost: TransportCost):
    """Transport cost from every (feature row, candidate label) to every atom.

    `atoms` is a `LabeledDataset`, or anything with its (n_atoms, d)
    `features` and {0, 1} `labels`.  Returns an (n, n_atoms, 2) tensor:
    Euclidean feature distance plus the flip cost whenever the candidate
    label differs from the atom's label.
    """
    dist = feature_distances(features, atoms.features)
    flip = cost.label_flip_cost * (
        np.arange(N_CLASSES)[None, :] != atoms.labels[:, None]
    )
    return dist[:, :, None] + flip[None, :, :]


def multiplier_parts(multipliers):
    """Views of a multiplier vector's transport price (0-d), potentials, and
    upper and lower label multipliers; writing through one writes the vector."""
    return (
        multipliers[0, ...],
        multipliers[1:-2 * N_CLASSES],
        multipliers[-2 * N_CLASSES : -N_CLASSES],
        multipliers[-N_CLASSES:],
    )


class CellLayout:
    """The parts of the flat atom-major (n, 2 * n_labeled) cell matrix that
    do not depend on the multipliers, for an (n, 2) loss table and its
    (n, n_labeled, 2) transport costs (`pair_costs`); column
    2 * atom + label holds that cell.

    `losses` holds each column's label loss, `costs` each cell's transport
    cost, and `atom` and `label` each column's atom and label.  Built once
    for a block of points, it gives the cells of any dual point with three
    subtractions (`cells`).  Indexing by `atom` and `label` gives the
    per-column potentials and label multipliers, about 5 us sooner per call
    on 100 x 40 cells than `np.repeat` and `np.tile`.
    """

    def __init__(self, loss_table, pair_costs):
        n, n_l = pair_costs.shape[:2]
        self.n_labeled = n_l
        self.losses = np.tile(loss_table, n_l)
        self.costs = pair_costs.reshape(n, -1)
        self.atom, self.label = np.divmod(np.arange(n_l * N_CLASSES), N_CLASSES)

    def cells(self, multipliers):
        """The flat (n, 2 * n_labeled) cells at `multipliers`, a new array:
        loss minus transport charge, minus potential, minus net label
        multiplier.  These are the operations of the broadcast over
        (n, n_labeled, 2) in its order, so the values are bitwise those."""
        alpha, potentials, upper, lower = multiplier_parts(multipliers)
        flat = np.multiply(self.costs, alpha)
        np.subtract(self.losses, flat, out=flat)
        flat -= potentials[self.atom]
        flat -= (upper - lower)[self.label]
        return flat


@dataclass(eq=False)
class LabeledDataset:
    """Empirical labeled sample with implied uniform weights 1/n.

    features: (n, d) float matrix, one row per sample.
    labels: (n,) integer array of labels in {0, 1}.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.labels = np.asarray(self.labels, dtype=int).ravel()
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if self.features.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be 0 or 1")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class LabelPrior:
    """Per-class probability intervals [lower_k, upper_k] for the label marginal.

    Some probability vector must fit inside the box, i.e. lower <= upper
    elementwise, sum(lower) <= 1 <= sum(upper).
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != (N_CLASSES,) or upper.shape != (N_CLASSES,):
            raise ValueError("prior bounds must have one entry per class")
        if np.any(lower < -1e-12) or np.any(upper > 1.0 + 1e-12):
            raise ValueError("prior bounds must lie in [0, 1]")
        if np.any(lower > upper + 1e-12):
            raise ValueError("lower bounds must not exceed upper bounds")
        if lower.sum() > 1.0 + 1e-12 or upper.sum() < 1.0 - 1e-12:
            raise ValueError("no probability vector fits the prior box")

    @staticmethod
    def point(probabilities) -> "LabelPrior":
        """Degenerate prior pinning the label marginal to one vector."""
        p = np.asarray(probabilities, dtype=float)
        return LabelPrior(lower=p, upper=p)


def make_rng(seed):
    """Seeded counter-based generator used everywhere randomness is drawn.

    Philox is counter-based, so streams are reproducible bit-for-bit across
    platforms and runs for the same 64-bit seed.
    """
    return np.random.Generator(np.random.Philox(int(seed)))
