"""Station CSV ingestion, normalization, windowing, and chronological splits.

CSV schema (one file per station): header exactly
``timestamp,temperature,pressure,wind_speed,wind_direction``, ISO-8601 UTC
timestamps at hourly cadence. Gaps up to ``max_gap_hours`` are filled by
linear interpolation; larger gaps, timestamps off the hourly grid and
non-finite readings are a hard error.

A file is read in C first: numpy's reader splits it and converts the
readings, and the checks, sort and gap fill work on whole columns. Any file
that path does not vouch for is read again row by row with ``csv``, which
accepts it or names the line at fault, so accepted files and error messages
are those of the row loop alone.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import os
import warnings
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from itertools import repeat
from operator import attrgetter

import numpy as np

from .config import read_utf8

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


def _to_utc(ts: datetime) -> datetime:
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _parse_timestamp(path, text: str, line_no: int) -> datetime:
    try:
        return _to_utc(datetime.fromisoformat(text.replace("Z", "+00:00")))
    except (ValueError, OverflowError) as exc:  # overflow: UTC falls outside years 1-9999
        raise CsvParseError(f"{path}: line {line_no}: bad timestamp {text!r}: {exc}") from None


def load_station_csv(path, max_gap_hours: int = 3) -> StationSeries:
    """Parse one station file, sort chronologically, fill short gaps.

    The file is read in C (``_read_columns``); one that path does not vouch
    for is read row by row (``_read_rows``), which accepts it or names the
    line at fault. Both give the same series for every file they accept.
    """
    text = read_utf8(path, CsvParseError)
    columns = _read_columns(text, max_gap_hours)
    if columns is None:
        columns = _read_rows(path, text, max_gap_hours)
    return StationSeries(_station_name_from_path(path), *columns)


# one body row: the timestamp as the str csv reads, then the readings
_ROW = np.dtype([("timestamp", object), ("readings", np.float64, (len(FEATURE_ORDER),))])
# str.splitlines also ends a line at these; csv does not, and csv rejects NUL
_NOT_CSV_LINE_ENDS = "\0\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _read_columns(text: str, max_gap_hours: int):
    """(timestamps, features) of a station file, with no Python code run per
    row, or None where ``_read_rows`` must decide.

    numpy's C reader splits the body with csv's quoting and converts the
    readings; it accepts a subset of the spellings Python's ``float`` does
    (not ``1_000`` or non-ASCII digits), and every reading it accepts has
    the value ``float`` gives. None stands for anything this path does not
    vouch for: a character that ends a line for ``str.splitlines`` but not
    for csv, a NUL, a header that is not one line, a field csv would find
    too long, a row numpy refuses, and every problem ``_read_rows`` names by
    line (bad timestamps or readings, duplicates, off-grid stamps, long
    gaps, no data rows).
    """
    if any(c in text for c in _NOT_CSV_LINE_ENDS):
        return None
    lines = text.splitlines(keepends=True)  # the lines csv reads
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
    except csv.Error:
        return None
    if header is None or reader.line_num != 1 or [h.strip() for h in header] != EXPECTED_HEADER:
        return None
    blank = lines.count("\n") + lines.count("\r\n") + lines.count("\r")
    if blank == len(lines) - 1:
        return None  # no data rows
    try:
        table = np.loadtxt(lines[1:], dtype=_ROW, delimiter=",", comments=None, quotechar='"', ndmin=1)
    except ValueError:
        return None
    if len(text) > csv.field_size_limit() and not _fields_fit(text, lines, len(table) + blank):
        return None
    features = np.ascontiguousarray(table["readings"])
    if not np.isfinite(features).all():
        return None
    direction = features[:, FEATURE_ORDER.index("wind_direction")]
    if not ((0.0 <= direction) & (direction < 360.0)).all():
        return None
    try:
        stamps = list(map(datetime.fromisoformat, map(
            str.replace, table["timestamp"].tolist(), repeat("Z"), repeat("+00:00")
        )))
        zoned = map(attrgetter("tzinfo"), stamps)
        for i in _where(map(operator.is_not, zoned, repeat(timezone.utc)), len(stamps)):
            stamps[i] = _to_utc(stamps[i])
    except (ValueError, OverflowError):
        return None
    steps = list(map(operator.sub, stamps[1:], stamps))
    if steps.count(HOUR) == len(steps):
        return stamps, features
    if min(steps) <= timedelta(0):  # unsorted, or a duplicate
        order = sorted(range(len(stamps)), key=stamps.__getitem__)
        stamps = list(map(stamps.__getitem__, order))
        features = features[order]
        steps = list(map(operator.sub, stamps[1:], stamps))
    return _fill_gaps(stamps, features, steps, max_gap_hours)


def _where(flags, count: int) -> list:
    """Indices of the true items of an iterable of count bools."""
    return np.flatnonzero(np.fromiter(flags, bool, count)).tolist()


def _fields_fit(text: str, lines: list, rows: int) -> bool:
    """Whether no csv field of a file split into ``lines`` can exceed
    ``csv.field_size_limit()``, which csv rejects, given that numpy read its
    body as ``rows`` rows and blank lines.

    A field within one line is no longer than the line. A quoted field that
    spans lines leaves fewer rows than lines, unless it runs to the end of
    the file over blank lines only; then it is no longer than the last line
    plus the line ends after it.
    """
    if rows != len(lines) - 1:  # the header is a line too
        return False
    trailing = len(text) - len(text.rstrip("\r\n"))
    return max(map(len, lines)) + trailing <= csv.field_size_limit()


def _fill_gaps(stamps: list, features: np.ndarray, steps: list, max_gap_hours: int):
    """(timestamps, features) of sorted rows with each gap of up to
    max_gap_hours hours filled as ``_read_rows`` fills it, or None if a step
    is not a positive whole number of hours or a gap is too long."""
    times, blocks, start = [], [], 0
    for i in _where(map(HOUR.__ne__, steps), len(steps)):
        hours, rest = divmod(steps[i], HOUR)
        if rest or not hours or hours - 1 > max_gap_hours:
            return None
        prev, nxt = features[i], features[i + 1]
        times += stamps[start : i + 1]
        times += [stamps[i] + step * HOUR for step in range(1, hours)]
        fracs = np.arange(1, hours) / hours
        blocks += [features[start : i + 1], prev + fracs[:, None] * (nxt - prev)]
        start = i + 1
    times += stamps[start:]
    blocks.append(features[start:])
    return times, np.concatenate(blocks)


def _read_rows(path, text: str, max_gap_hours: int):
    """(timestamps, features) of a station file read one row at a time, or
    an error naming the file and the line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = []
    try:
        header = next(reader, None)
        if header is None:
            raise CsvParseError(f"{path}: empty file")
        if [h.strip() for h in header] != EXPECTED_HEADER:
            raise CsvParseError(f"{path}: bad header {header!r}")
        for row in reader:
            line_no = reader.line_num
            if not row:
                continue
            if len(row) != 5:
                raise CsvParseError(f"{path}: line {line_no}: expected 5 fields, got {len(row)}")
            ts = _parse_timestamp(path, row[0], line_no)
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
    except csv.Error as exc:
        raise CsvParseError(f"{path}: line {reader.line_num}: {exc}") from None
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
    return timestamps, np.asarray(features, dtype=np.float64)


def _station_name_from_path(path) -> str:
    return os.path.splitext(os.path.basename(str(path)))[0]


def assemble(series: list, node_order: list) -> tuple:
    """Align stations on their common time range into a [L, D, N] tensor.

    Returns (raw, timestamps). Feature order is FEATURE_ORDER, node order
    is the given node_order. Every series is hourly and gap-free, so the
    timestamps are a slice of the latest-starting station's.
    """
    by_name = {s.station_name: s for s in series}
    missing = [n for n in node_order if n not in by_name]
    if missing:
        raise AlignmentError(f"missing stations: {missing}")
    ordered = [by_name[n] for n in node_order]
    latest = max(ordered, key=lambda s: s.timestamps[0])
    start = latest.timestamps[0]
    end = min(s.timestamps[-1] for s in ordered)
    if end < start:
        raise AlignmentError("stations share no common time range")
    length = int((end - start) / HOUR) + 1
    raw = np.empty((length, len(FEATURE_ORDER), len(node_order)))
    for j, s in enumerate(ordered):
        offset, rest = divmod(start - s.timestamps[0], HOUR)
        if rest:
            names = f"{s.station_name!r} and {latest.station_name!r}"
            raise AlignmentError(f"stations {names} sit on hourly grids {rest} apart")
        raw[:, :, j] = s.features[offset : offset + length]
    return raw, latest.timestamps[:length]


def split_by_years(timestamps, train_years, val_years, test_years):
    """Chronological split by calendar year: the row range of each split.

    Returns (train, val, test) slices over the series whose hours are
    ``timestamps``. Years must be disjoint and present, and each split's
    years one consecutive run of rows. An empty val_years or test_years
    yields an empty range with a warning.
    """
    groups = [list(train_years), list(val_years), list(test_years)]
    flat = [y for g in groups for y in g]
    if len(set(flat)) != len(flat):
        raise SplitError("train/val/test years must be disjoint")
    years = np.fromiter(map(attrgetter("year"), timestamps), int, len(timestamps))
    missing = sorted(set(flat) - set(np.unique(years).tolist()))
    if missing:
        raise SplitError(f"requested years not in data: {missing}")
    out = []
    for label, g in zip(("train", "validation", "test"), groups):
        if not g:
            warnings.warn(f"empty {label} split requested", RuntimeWarning, stacklevel=2)
            out.append(slice(0, 0))
            continue
        idx = np.flatnonzero(np.isin(years, g))
        if idx[-1] - idx[0] + 1 != len(idx):
            raise SplitError(
                f"{label} years {sorted(g)} are not one consecutive run of the data's years"
            )
        out.append(slice(int(idx[0]), int(idx[-1]) + 1))
    return tuple(out)


class MinMaxScaler:
    """Per-(feature, node) min-max statistics fitted on the training split."""

    def __init__(self, mins: np.ndarray, maxs: np.ndarray):
        self.mins = np.asarray(mins, dtype=np.float64)  # [D, N]
        self.maxs = np.asarray(maxs, dtype=np.float64)

    @classmethod
    def fit(cls, train_raw: np.ndarray) -> "MinMaxScaler":
        if train_raw.shape[0] == 0:
            raise PipelineError("cannot fit scaler on an empty split")
        return cls(train_raw.min(axis=0), train_raw.max(axis=0))

    def apply(self, raw: np.ndarray) -> np.ndarray:
        span = self.maxs - self.mins
        const = span == 0.0
        out = (raw - self.mins) / np.where(const, 1.0, span)
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
        """The scaler of a state() dict: exactly mins and maxs, finite numeric
        arrays of one shape with maxs >= mins, or PipelineError naming the key."""
        if set(state) != {"mins", "maxs"}:
            raise PipelineError(f"scaler keys are {sorted(state)}, expected ['maxs', 'mins']")
        bounds = []
        for key in ("mins", "maxs"):
            try:
                value = np.asarray(state[key])
                numeric = value.dtype.kind in "iuf"
            except ValueError:  # ragged nesting
                numeric = False
            if not numeric:
                raise PipelineError(f"scaler.{key}: not an array of numbers")
            if not np.all(np.isfinite(value)):
                raise PipelineError(f"scaler.{key}: non-finite value")
            bounds.append(value.astype(np.float64))
        mins, maxs = bounds
        if maxs.shape != mins.shape:
            raise PipelineError(f"scaler.maxs: shape {maxs.shape}, scaler.mins's is {mins.shape}")
        if np.any(maxs < mins):
            raise PipelineError("scaler.maxs: below scaler.mins")
        return cls(mins, maxs)


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
    lead = window - 1 + horizon  # sample s targets row s + lead
    inputs = sliding_windows(normalized, window)[: length - lead]
    targets = raw[lead:length, WIND_SPEED][:, target_nodes]
    target_times = list(timestamps[lead:length]) if timestamps else []
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


def samples_targeting(dataset: DatasetTensor, rows: slice) -> DatasetTensor:
    """The samples of a make_windows dataset whose target row lies in rows
    (a slice of the series), as views of its arrays."""
    lead = dataset.inputs.shape[-1] - 1 + dataset.horizon  # sample s targets row s + lead
    start, stop, _ = rows.indices(len(dataset) + lead)
    pick = slice(max(start - lead, 0), max(stop - lead, 0))
    return replace(
        dataset,
        inputs=dataset.inputs[pick],
        targets=dataset.targets[pick],
        target_times=dataset.target_times[pick],
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
