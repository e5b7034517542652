import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from mswavenet import pipeline
from mswavenet.config import RunConfig
from mswavenet.data import (
    FEATURE_ORDER,
    DatasetTensor,
    MinMaxScaler,
    PipelineError,
    SplitError,
    StationSeries,
    assemble,
    make_windows,
)

UTC = timezone.utc
NODES = ["A", "B", "C"]


def stations(start, end, seed=0):
    """Random hourly readings for NODES from start up to (not including) end."""
    rng = np.random.default_rng(seed)
    n = int((end - start) / timedelta(hours=1))
    ts = [start + timedelta(hours=i) for i in range(n)]
    series = []
    for name in NODES:
        feats = np.column_stack([
            rng.normal(10, 3, n), rng.normal(1000, 5, n), rng.uniform(0, 20, n), rng.uniform(0, 360, n)
        ])
        series.append(StationSeries(name, ts, feats))
    return series


def run_config(train, val, test, window, horizon):
    return RunConfig({
        "data.node_order": ",".join(NODES),
        "data.target_nodes": "A,C",
        "split.train_years": train,
        "split.val_years": val,
        "split.test_years": test,
        "model.window": window,
        "model.horizon": horizon,
    })


def prepare(series, cfg, monkeypatch):
    monkeypatch.setattr(pipeline, "load_stations", lambda _: series)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "empty validation split", RuntimeWarning)
        return pipeline.prepare(cfg)


# --- the split-by-copy path that prepare replaced, kept as the reference ---


def reference_split_by_years(raw, timestamps, groups):
    years = np.array([ts.year for ts in timestamps])
    out = []
    for g in groups:
        if not g:
            out.append((raw[:0], []))
            continue
        idx = np.nonzero(np.isin(years, g))[0]
        out.append((raw[idx], [timestamps[i] for i in idx]))
    return out


def reference_windowed_split(norm, raw, ts, context, window, horizon, target_idx, node_order):
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


def reference_prepare(series, cfg):
    node_order = cfg.node_order()
    raw, timestamps = assemble(series, node_order)
    keys = ("split.train_years", "split.val_years", "split.test_years")
    (tr_raw, tr_ts), (va_raw, va_ts), (te_raw, te_ts) = reference_split_by_years(
        raw, timestamps, [cfg.years(k) for k in keys]
    )
    scaler = MinMaxScaler.fit(tr_raw)
    tr_norm = scaler.apply(tr_raw)
    va_norm = scaler.apply(va_raw) if len(va_raw) else va_raw
    te_norm = scaler.apply(te_raw) if len(te_raw) else te_raw
    args = (cfg["model.window"], cfg["model.horizon"], cfg.target_node_indices(), node_order)
    train = reference_windowed_split(tr_norm, tr_raw, tr_ts, None, *args)
    val = reference_windowed_split(va_norm, va_raw, va_ts, (tr_norm, tr_raw, tr_ts), *args)
    test_context = (va_norm, va_raw, va_ts) if len(va_raw) else (tr_norm, tr_raw, tr_ts)
    test = reference_windowed_split(te_norm, te_raw, te_ts, test_context, *args)
    return train, val, test, scaler


def root(array):
    while array.base is not None:
        array = array.base
    return array


class TestPrepare:
    @pytest.mark.parametrize(
        "years, span, window, horizon",
        [
            (("2000", "2001", "2002"), (datetime(2000, 12, 29), datetime(2002, 1, 3)), 12, 6),
            (("2000", "", "2001"), (datetime(2000, 12, 29), datetime(2001, 1, 5)), 12, 6),
            (("2000", "2001", "2002"), (datetime(2000, 12, 29), datetime(2002, 1, 3)), 8, 24),
        ],
        ids=["train-val-test", "empty-val", "W8-T24"],
    )
    def test_bitwise_equal_to_split_by_copy(self, monkeypatch, years, span, window, horizon):
        series = stations(*(t.replace(tzinfo=UTC) for t in span))
        cfg = run_config(*years, window, horizon)
        got = prepare(series, cfg, monkeypatch)
        *ref_splits, ref_scaler = reference_prepare(series, cfg)
        assert got.scaler.mins.tobytes() == ref_scaler.mins.tobytes()
        assert got.scaler.maxs.tobytes() == ref_scaler.maxs.tobytes()
        for ds, ref in zip((got.train, got.val, got.test), ref_splits):
            assert ds.inputs.shape == ref.inputs.shape
            assert ds.inputs.tobytes() == ref.inputs.tobytes()
            assert ds.targets.tobytes() == ref.targets.tobytes()
            assert ds.target_times == ref.target_times
            for name in ("horizon", "feature_order", "node_order", "target_nodes"):
                assert getattr(ds, name) == getattr(ref, name)
        assert len(got.test) > 0

    def test_inputs_are_read_only_views_of_one_array(self, monkeypatch):
        series = stations(datetime(2000, 12, 29, tzinfo=UTC), datetime(2002, 1, 3, tzinfo=UTC))
        got = prepare(series, run_config("2000", "2001", "2002", 12, 6), monkeypatch)
        base = root(got.train.inputs)
        assert base.shape == (len(series[0]), len(FEATURE_ORDER), len(NODES))
        for ds in (got.train, got.val, got.test):
            assert root(ds.inputs) is base
            assert not ds.inputs.flags.writeable

    def test_gap_year_windows_end_horizon_before_target(self, monkeypatch):
        # no validation years and a year between train and test: the first
        # test window still holds the W hours ending T hours before its target
        window, horizon = 12, 6
        series = stations(datetime(2000, 12, 29, tzinfo=UTC), datetime(2002, 1, 3, tzinfo=UTC))
        got = prepare(series, run_config("2000", "", "2002", window, horizon), monkeypatch)
        target = datetime(2002, 1, 1, tzinfo=UTC)
        assert got.test.target_times[0] == target
        ts = series[0].timestamps
        last = ts.index(target - timedelta(hours=horizon))
        train = [i for i, t in enumerate(ts) if t.year == 2000]
        expect = np.empty((len(FEATURE_ORDER), len(NODES), window))
        for j, s in enumerate(series):
            lo = s.features[train].min(axis=0)
            hi = s.features[train].max(axis=0)
            expect[:, j, :] = ((s.features[last - window + 1 : last + 1] - lo) / (hi - lo)).T
        np.testing.assert_allclose(got.test.inputs[0], expect, rtol=0, atol=1e-12)
        row = ts.index(target)
        assert got.test.targets[0].tolist() == [series[j].features[row, 2] for j in (0, 2)]

    def test_non_consecutive_years_rejected(self, monkeypatch):
        series = stations(datetime(2000, 12, 29, tzinfo=UTC), datetime(2002, 1, 3, tzinfo=UTC))
        with pytest.raises(SplitError, match="train years"):
            prepare(series, run_config("2000,2002", "", "2001", 12, 6), monkeypatch)

    def test_split_without_a_sample_rejected(self, monkeypatch):
        # ten hours of 2000 cannot hold a target W+T-1 = 17 hours into the data
        series = stations(datetime(2000, 12, 31, 14, tzinfo=UTC), datetime(2001, 1, 5, tzinfo=UTC))
        with pytest.raises(PipelineError, match="the train years yield no sample"):
            prepare(series, run_config("2000", "", "2001", 12, 6), monkeypatch)
