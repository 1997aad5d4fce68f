"""Test-only reference implementations that the package's fast paths are
checked against bit for bit."""

import math
from types import SimpleNamespace

import numpy as np

from drulearn.model import N_CLASSES


def flat_smoothed_bound(params, table, pair, data, prior, eps, z_score, tau):
    """`bounds._smoothed_bound` as it was before `model.CellLayout`: the
    flat (n, 2 * n_labeled) cells rebuilt from the loss table and the
    transport costs on every call (`np.tile` and `np.repeat`, as
    `model.cell_tensor` then did), means taken by `mean`, and `np.exp`
    called on every scaled cell, however far below the underflow
    threshold."""
    n_l = data.n
    alpha, potentials = params[0], params[1 : 1 + n_l]
    upper, lower = params[1 + n_l : 3 + n_l], params[3 + n_l :]
    n = table.shape[0]
    flat = np.tile(table, n_l) - alpha * pair.reshape(n, -1)
    flat -= np.repeat(potentials, N_CLASSES)
    flat -= np.tile(upper - lower, n_l)
    top = flat.max(axis=1)
    flat -= top[:, None]
    flat /= tau
    np.exp(flat, out=flat)
    total = flat.sum(axis=1)
    values = top + tau * np.log(total)
    mean = values.mean()
    linear = (
        alpha * eps
        + potentials.mean()
        + upper @ prior.upper
        - lower @ prior.lower
    )
    value = linear + mean
    weight = np.full(n, 1.0 / n)
    if z_score > 0.0:
        centered = values - mean
        spread = math.sqrt(centered @ centered / (n - 1))
        value += z_score * spread / math.sqrt(n)
        if spread > 0.0:
            weight += z_score / math.sqrt(n) * centered / ((n - 1) * spread)
    share = weight / total
    mass = (share @ flat).reshape(n_l, N_CLASSES)
    label_mass = mass.sum(axis=0)
    moved = share @ np.einsum("ij,ij->i", flat, pair.reshape(n, -1))
    grad = np.concatenate(
        [
            [eps - moved],
            1.0 / n_l - mass.sum(axis=1),
            prior.upper - label_mass,
            label_mass - prior.lower,
        ]
    )
    return float(value), grad


def on_layout(kernel):
    """`kernel`, which takes (params, table, pair, data, prior, eps,
    z_score, tau), called the way `bounds._smoothed_bound` is: with a
    `model.CellLayout` in place of the table, the costs and the data.  The
    table is the layout's first two loss columns, the costs its flat costs
    reshaped, and the data stands in for the labeled atoms' count."""

    def on(params, layout, prior, eps, z_score, tau):
        n, n_l = layout.costs.shape[0], layout.n_labeled
        table = layout.losses[:, :N_CLASSES]
        pair = layout.costs.reshape(n, n_l, N_CLASSES)
        data = SimpleNamespace(n=n_l)
        return kernel(params, table, pair, data, prior, eps, z_score, tau)

    return on


def bits(array):
    """The bytes of a float array, so that +0.0 and -0.0 differ."""
    return np.asarray(array, dtype=float).tobytes()
