"""End-to-end data preparation driven by a RunConfig.

Loads one CSV per station, aligns, fits the scaler on the training years
only, normalizes and windows the whole series once, and splits the samples
by calendar year: a split is the samples whose target hour falls in its
years. A sample's input window may reach back into earlier years.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .config import ConfigError, RunConfig
from .data import (
    DatasetTensor,
    MinMaxScaler,
    PipelineError,
    assemble,
    load_station_csv,
    make_windows,
    samples_targeting,
    split_by_years,
)


@dataclass
class PreparedData:
    train: DatasetTensor
    val: DatasetTensor
    test: DatasetTensor
    scaler: MinMaxScaler
    node_order: list


def load_stations(cfg: RunConfig):
    """One series per node, read from ``<data.dir>/<name>.csv``."""
    return [
        load_station_csv(os.path.join(cfg["data.dir"], f"{name}.csv"), cfg["data.max_gap_hours"])
        for name in cfg.node_order()
    ]


def prepare(cfg: RunConfig) -> PreparedData:
    if not cfg.years("split.train_years"):
        raise ConfigError("no training year, so no scaler can be fitted", "split.train_years")
    node_order = cfg.node_order()
    raw, timestamps = assemble(load_stations(cfg), node_order)
    splits = split_by_years(
        timestamps,
        cfg.years("split.train_years"),
        cfg.years("split.val_years"),
        cfg.years("split.test_years"),
    )
    scaler = MinMaxScaler.fit(raw[splits[0]])
    window = cfg["model.window"]
    horizon = cfg["model.horizon"]
    samples = make_windows(
        scaler.apply(raw), raw, window, horizon, cfg.target_node_indices(), node_order, timestamps
    )
    out = []
    for label, rows in zip(("train", "validation", "test"), splits):
        ds = samples_targeting(samples, rows)
        if rows.start < rows.stop and not len(ds):
            raise PipelineError(
                f"the {label} years yield no sample: each needs {window + horizon - 1} "
                f"hours before its target (W={window}, T={horizon})"
            )
        out.append(ds)
    return PreparedData(*out, scaler, node_order)
