"""Station CSV ingestion, normalization, windowing, and chronological splits.

CSV schema (one file per station): header exactly
``timestamp,temperature,pressure,wind_speed,wind_direction``, ISO-8601 UTC
timestamps at hourly cadence. Gaps up to ``max_gap_hours`` are filled by
linear interpolation; larger gaps, timestamps off the hourly grid and
non-finite readings are a hard error.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

FEATURE_ORDER = ("temperature", "pressure", "wind_speed", "wind_direction")
WIND_SPEED = FEATURE_ORDER.index("wind_speed")
HOUR = timedelta(hours=1)

EXPECTED_HEADER = ["timestamp", "temperature", "pressure", "wind_speed", "wind_direction"]


class PipelineError(Exception):
    pass


class CsvParseError(PipelineError):
    pass


class IngestionError(PipelineError):
    pass


class AlignmentError(PipelineError):
    pass


class SplitError(PipelineError):
    pass


@dataclass
class StationSeries:
    """Hourly weather records for one station, gap-free after ingestion."""

    station_name: str
    timestamps: list  # datetime, strictly increasing, hourly
    features: np.ndarray  # [L, 4] in FEATURE_ORDER

    def __len__(self):
        return len(self.timestamps)


@dataclass
class DatasetTensor:
    """Windowed samples ready for the model.

    inputs are normalized, [S, D, N, W]; targets are wind speeds in m/s
    (physical units) for each target node at the horizon time.
    """

    inputs: np.ndarray
    targets: np.ndarray
    horizon: int
    feature_order: tuple
    node_order: list
    target_nodes: list
    target_times: list = field(default_factory=list)

    def __len__(self):
        return self.inputs.shape[0]


def _parse_timestamp(text: str, line_no: int) -> datetime:
    try:
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise CsvParseError(f"line {line_no}: bad timestamp {text!r}: {exc}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def load_station_csv(path, max_gap_hours: int = 3) -> StationSeries:
    """Parse one station file, sort chronologically, fill short gaps."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file") from None
        if [h.strip() for h in header] != EXPECTED_HEADER:
            raise CsvParseError(f"{path}: bad header {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise CsvParseError(f"{path}: line {line_no}: expected 5 fields, got {len(row)}")
            ts = _parse_timestamp(row[0], line_no)
            try:
                vals = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise CsvParseError(f"{path}: line {line_no}: {exc}") from None
            if not all(map(math.isfinite, vals)):
                bad = next(i for i, v in enumerate(vals) if not math.isfinite(v))
                raise IngestionError(
                    f"{path}: line {line_no}: {FEATURE_ORDER[bad]} {vals[bad]} is not finite"
                )
            if not 0.0 <= vals[3] < 360.0:
                raise IngestionError(
                    f"{path}: line {line_no}: wind_direction {vals[3]} outside [0, 360)"
                )
            rows.append((ts, vals, line_no))
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])

    timestamps = [rows[0][0]]
    features = [rows[0][1]]
    for ts, vals, line_no in rows[1:]:
        prev = timestamps[-1]
        hours, rest = divmod(ts - prev, HOUR)
        if rest or not hours:
            problem = f"off the hourly grid of {prev.isoformat()}" if rest else "a duplicate"
            raise IngestionError(f"{path}: line {line_no}: timestamp {ts.isoformat()} is {problem}")
        gap = hours - 1
        if gap > 0:
            if gap > max_gap_hours:
                raise IngestionError(
                    f"{path}: line {line_no}: gap of {gap} h after {prev.isoformat()} exceeds "
                    f"max_gap_hours={max_gap_hours}"
                )
            prev_vals = np.asarray(features[-1])
            next_vals = np.asarray(vals)
            for step in range(1, gap + 1):
                frac = step / (gap + 1)
                timestamps.append(prev + step * HOUR)
                features.append(list(prev_vals + frac * (next_vals - prev_vals)))
        timestamps.append(ts)
        features.append(vals)
    return StationSeries(
        _station_name_from_path(path), timestamps, np.asarray(features, dtype=np.float64)
    )


def _station_name_from_path(path) -> str:
    return os.path.splitext(os.path.basename(str(path)))[0]


def assemble(series: list, node_order: list) -> tuple:
    """Align stations on their common time range into a [L, D, N] tensor.

    Returns (raw, timestamps). Feature order is FEATURE_ORDER, node order
    is the given node_order.
    """
    by_name = {s.station_name: s for s in series}
    missing = [n for n in node_order if n not in by_name]
    if missing:
        raise AlignmentError(f"missing stations: {missing}")
    ordered = [by_name[n] for n in node_order]
    start = max(s.timestamps[0] for s in ordered)
    end = min(s.timestamps[-1] for s in ordered)
    if end < start:
        raise AlignmentError("stations share no common time range")
    length = int((end - start) / HOUR) + 1
    raw = np.empty((length, len(FEATURE_ORDER), len(node_order)))
    for j, s in enumerate(ordered):
        offset = int((start - s.timestamps[0]) / HOUR)
        raw[:, :, j] = s.features[offset : offset + length]
    timestamps = [start + i * HOUR for i in range(length)]
    return raw, timestamps


def split_by_years(raw, timestamps, train_years, val_years, test_years):
    """Chronological split by calendar year; years must be disjoint and present.

    Returns ((train_raw, train_ts), (val_raw, val_ts), (test_raw, test_ts)).
    An empty val_years or test_years yields an empty split with a warning.
    """
    groups = [list(train_years), list(val_years), list(test_years)]
    flat = [y for g in groups for y in g]
    if len(set(flat)) != len(flat):
        raise SplitError("train/val/test years must be disjoint")
    present = {ts.year for ts in timestamps}
    missing = sorted(set(flat) - present)
    if missing:
        raise SplitError(f"requested years not in data: {missing}")
    years = np.array([ts.year for ts in timestamps])
    out = []
    for label, g in zip(("train", "validation", "test"), groups):
        if not g:
            warnings.warn(f"empty {label} split requested", RuntimeWarning, stacklevel=2)
            out.append((raw[:0], []))
            continue
        mask = np.isin(years, g)
        idx = np.nonzero(mask)[0]
        out.append((raw[idx], [timestamps[i] for i in idx]))
    return tuple(out)


class MinMaxScaler:
    """Per-(feature, node) min-max statistics fitted on the training split."""

    def __init__(self, mins: np.ndarray, maxs: np.ndarray):
        self.mins = np.asarray(mins, dtype=np.float64)  # [D, N]
        self.maxs = np.asarray(maxs, dtype=np.float64)
        if self.mins.shape != self.maxs.shape:
            raise PipelineError("scaler min/max shapes disagree")
        if np.any(self.maxs < self.mins):
            raise PipelineError("scaler has max < min")

    @classmethod
    def fit(cls, train_raw: np.ndarray) -> "MinMaxScaler":
        if train_raw.shape[0] == 0:
            raise PipelineError("cannot fit scaler on an empty split")
        return cls(train_raw.min(axis=0), train_raw.max(axis=0))

    def apply(self, raw: np.ndarray) -> np.ndarray:
        span = self.maxs - self.mins
        out = np.empty_like(raw, dtype=np.float64)
        const = span == 0.0
        safe = np.where(const, 1.0, span)
        out[:] = (raw - self.mins) / safe
        # constant features carry no information; park them at mid-range
        out[:, const] = 0.5
        return out

    def normalize_wind_speed(self, values: np.ndarray, node: int) -> np.ndarray:
        lo, hi = self.mins[WIND_SPEED, node], self.maxs[WIND_SPEED, node]
        if hi == lo:
            return np.full_like(np.asarray(values, dtype=np.float64), 0.5)
        return (np.asarray(values, dtype=np.float64) - lo) / (hi - lo)

    def invert_wind_speed(self, values: np.ndarray, node: int) -> np.ndarray:
        lo, hi = self.mins[WIND_SPEED, node], self.maxs[WIND_SPEED, node]
        return np.asarray(values, dtype=np.float64) * (hi - lo) + lo

    def state(self) -> dict:
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "MinMaxScaler":
        return cls(np.asarray(state["mins"]), np.asarray(state["maxs"]))


def sliding_windows(normalized: np.ndarray, window: int) -> np.ndarray:
    """Every W-hour model input window of a normalized [L, D, N] series.

    Returns a read-only [L-W+1, D, N, W] view sharing normalized's memory
    (no copy): window s is normalized[s : s+W] with time as the last axis.
    """
    return np.lib.stride_tricks.sliding_window_view(normalized, window, axis=0)


def make_windows(
    normalized: np.ndarray,
    raw: np.ndarray,
    window: int,
    horizon: int,
    target_nodes: list,
    node_order=None,
    timestamps=None,
) -> DatasetTensor:
    """Slide a W-hour window over the series; targets sit T hours past its end.

    Sample s covers normalized[s : s+W] (transposed to [D, N, W]); its target
    is the un-normalized wind speed at index s+W-1+T for each target node.
    inputs is a read-only view over normalized (see sliding_windows).
    """
    length = normalized.shape[0]
    if length < window + horizon:
        raise PipelineError(
            f"series of length {length} too short for W={window}, T={horizon}"
        )
    n_samples = length - window - horizon + 1
    inputs = sliding_windows(normalized, window)[:n_samples]
    target_idx = np.arange(n_samples) + window - 1 + horizon
    targets = raw[target_idx][:, WIND_SPEED][:, target_nodes]
    target_times = [timestamps[i] for i in target_idx] if timestamps else []
    if node_order is None:
        node_order = [f"node{i}" for i in range(normalized.shape[2])]
    return DatasetTensor(
        inputs=inputs,
        targets=targets,
        horizon=horizon,
        feature_order=FEATURE_ORDER,
        node_order=list(node_order),
        target_nodes=list(target_nodes),
        target_times=target_times,
    )


def batch_iter(dataset: DatasetTensor, batch_size: int = 64, shuffle: bool = False, seed: int = 0):
    """Yield (inputs, targets) batches; the final partial batch is kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(dataset)
    order = np.arange(n)
    if shuffle:
        np.random.default_rng(seed).shuffle(order)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        yield dataset.inputs[idx], dataset.targets[idx]
