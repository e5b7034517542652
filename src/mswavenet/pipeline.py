"""End-to-end data preparation driven by a RunConfig.

Loads one CSV per station, aligns, splits by calendar year, fits the
scaler on the training years only, and windows each split. Validation and
test windows may reach back into the previous split's tail for their
inputs, but every target stays inside its own split.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .data import (
    FEATURE_ORDER,
    DatasetTensor,
    MinMaxScaler,
    assemble,
    load_station_csv,
    make_windows,
    split_by_years,
)


@dataclass
class PreparedData:
    train: DatasetTensor
    val: DatasetTensor
    test: DatasetTensor
    scaler: MinMaxScaler
    node_order: list


def station_path(data_dir, name) -> str:
    return os.path.join(data_dir, f"{name}.csv")


def load_stations(cfg: RunConfig):
    data_dir = cfg["data.dir"]
    series = []
    for name in cfg.node_order():
        path = station_path(data_dir, name)
        if not os.path.exists(path):
            raise FileNotFoundError(f"station file not found: {path}")
        series.append(load_station_csv(path, max_gap_hours=cfg["data.max_gap_hours"]))
    return series


def _windowed_split(norm, raw, ts, context, window, horizon, target_idx, node_order):
    """Window one split, optionally prepending tail rows of the previous
    split so the first target lands on the split's first hour."""
    if len(raw) == 0:
        return DatasetTensor(
            inputs=np.zeros((0, len(FEATURE_ORDER), len(node_order), window)),
            targets=np.zeros((0, len(target_idx))),
            horizon=horizon,
            feature_order=FEATURE_ORDER,
            node_order=list(node_order),
            target_nodes=list(target_idx),
        )
    if context is not None:
        c_norm, c_raw, c_ts = context
        need = window + horizon - 1
        if len(c_raw) > 0:
            take = min(need, len(c_raw))
            norm = np.concatenate([c_norm[-take:], norm], axis=0)
            raw = np.concatenate([c_raw[-take:], raw], axis=0)
            ts = list(c_ts[-take:]) + list(ts)
    return make_windows(norm, raw, window, horizon, target_idx, node_order, ts)


def prepare(cfg: RunConfig) -> PreparedData:
    series = load_stations(cfg)
    node_order = cfg.node_order()
    raw, timestamps = assemble(series, node_order)
    (tr_raw, tr_ts), (va_raw, va_ts), (te_raw, te_ts) = split_by_years(
        raw,
        timestamps,
        cfg.years("split.train_years"),
        cfg.years("split.val_years"),
        cfg.years("split.test_years"),
    )
    scaler = MinMaxScaler.fit(tr_raw)
    tr_norm = scaler.apply(tr_raw)
    va_norm = scaler.apply(va_raw) if len(va_raw) else va_raw
    te_norm = scaler.apply(te_raw) if len(te_raw) else te_raw

    window = cfg["model.window"]
    horizon = cfg["model.horizon"]
    target_idx = cfg.target_node_indices()

    train_ds = _windowed_split(
        tr_norm, tr_raw, tr_ts, None, window, horizon, target_idx, node_order
    )
    val_ds = _windowed_split(
        va_norm, va_raw, va_ts, (tr_norm, tr_raw, tr_ts), window, horizon, target_idx, node_order
    )
    test_context = (va_norm, va_raw, va_ts) if len(va_raw) else (tr_norm, tr_raw, tr_ts)
    test_ds = _windowed_split(
        te_norm, te_raw, te_ts, test_context, window, horizon, target_idx, node_order
    )
    return PreparedData(train_ds, val_ds, test_ds, scaler, node_order)
