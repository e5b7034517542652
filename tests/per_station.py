"""The per-target-station forecast path that ``training.forecast`` and the
one-call scaler maps replaced, kept as a numpy reference.

Each function loops over the target stations and maps one column at a
time with the scaler's single-node formulas, and runs its own no-tape
forwards in batches of 256 windows, as the library did before. The
library's results must equal these bit for bit.
"""

import numpy as np

from mswavenet import autodiff as ad
from mswavenet.data import WIND_SPEED


def normalize(values, lo, hi):
    if hi == lo:
        return np.full_like(np.asarray(values, dtype=np.float64), 0.5)
    return (np.asarray(values, dtype=np.float64) - lo) / (hi - lo)


def invert(values, lo, hi):
    return np.asarray(values, dtype=np.float64) * (hi - lo) + lo


def _bounds(scaler, node):
    return scaler.mins[WIND_SPEED, node], scaler.maxs[WIND_SPEED, node]


def normalized_targets(dataset, scaler):
    out = np.empty_like(dataset.targets)
    for j, node in enumerate(dataset.target_nodes):
        out[:, j] = normalize(dataset.targets[:, j], *_bounds(scaler, node))
    return out


def eval_loss(net, inputs, norm_targets, batch_size=256):
    total_sq = 0.0
    n = 0
    for start in range(0, inputs.shape[0], batch_size):
        xb = inputs[start : start + batch_size]
        tb = norm_targets[start : start + batch_size]
        with ad.no_grad():
            pred = net.forward(xb).value
        total_sq += float(((pred - tb) ** 2).sum())
        n += tb.size
    return total_sq / n


def predict_physical(net, dataset, scaler, batch_size=256):
    preds = []
    for start in range(0, len(dataset), batch_size):
        xb = dataset.inputs[start : start + batch_size]
        with ad.no_grad():
            preds.append(net.forward(xb).value)
    pred = np.concatenate(preds, axis=0) if preds else np.zeros_like(dataset.targets)
    out = np.empty_like(pred)
    for j, node in enumerate(dataset.target_nodes):
        out[:, j] = invert(pred[:, j], *_bounds(scaler, node))
    return out


def persistence_forecast(dataset, scaler):
    pred = np.empty_like(dataset.targets)
    for j, node in enumerate(dataset.target_nodes):
        last = dataset.inputs[:, WIND_SPEED, node, -1]
        pred[:, j] = invert(last, *_bounds(scaler, node))
    return pred
