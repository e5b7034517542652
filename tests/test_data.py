import calendar
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mswavenet import data
from mswavenet.data import (
    CsvParseError,
    IngestionError,
    MinMaxScaler,
    PipelineError,
    SplitError,
    StationSeries,
    assemble,
    batch_iter,
    load_station_csv,
    make_windows,
    split_by_years,
)

UTC = timezone.utc
HEADER = "timestamp,temperature,pressure,wind_speed,wind_direction\n"


def write_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER)
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")


def hourly_rows(start, n, value=5.0):
    out = []
    t = start
    for i in range(n):
        out.append((t.strftime("%Y-%m-%dT%H:00:00Z"), 10.0 + i, 1000.0, value + i, 180.0))
        t += timedelta(hours=1)
    return out


START = datetime(2005, 1, 1, tzinfo=UTC)


class TestLoadStationCsv:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "A.csv"
        write_csv(p, hourly_rows(START, 3))
        s = load_station_csv(p)
        assert len(s) == 3
        assert s.station_name == "A"
        assert s.timestamps[0] == START

    def test_gap_rejected_with_timestamp(self, tmp_path):
        rows = hourly_rows(START, 4)
        del rows[2]
        p = tmp_path / "A.csv"
        write_csv(p, rows)
        with pytest.raises(IngestionError, match="2005-01-01T01"):
            load_station_csv(p, max_gap_hours=0)

    def test_gap_interpolated(self, tmp_path):
        # drop hours 2 and 3 of a 6-row ramp; linear fill must restore them
        rows = hourly_rows(START, 6)
        del rows[2:4]
        p = tmp_path / "A.csv"
        write_csv(p, rows)
        s = load_station_csv(p, max_gap_hours=3)
        assert len(s) == 6
        # wind_speed ramp 5,6,7,8,9,10: filled rows interpolate between 6 and 9
        np.testing.assert_allclose(s.features[:, data.WIND_SPEED], [5, 6, 7, 8, 9, 10])

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "A.csv"
        rows = hourly_rows(START, 2)
        rows.append(("2005-01-01T02:00:00Z", "oops", 1000.0, 5.0, 180.0))
        write_csv(p, rows)
        with pytest.raises(CsvParseError, match="line 4"):
            load_station_csv(p)

    def test_wind_direction_range(self, tmp_path):
        p = tmp_path / "A.csv"
        write_csv(p, [("2005-01-01T00:00:00Z", 1.0, 1000.0, 5.0, 360.0)])
        with pytest.raises(IngestionError, match="wind_direction"):
            load_station_csv(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("feature", ["temperature", "pressure", "wind_speed"])
    def test_non_finite_rejected_with_line(self, tmp_path, feature, value):
        rows = [list(r) for r in hourly_rows(START, 3)]
        rows[1][1 + data.FEATURE_ORDER.index(feature)] = value
        p = tmp_path / "A.csv"
        write_csv(p, rows)
        with pytest.raises(IngestionError, match=rf"A\.csv: line 3: {feature} .* not finite"):
            load_station_csv(p)

    def test_off_grid_timestamp_rejected_with_line(self, tmp_path):
        # 00:30 between 00:00 and 02:00 is not a whole number of hours apart
        rows = hourly_rows(START, 3)
        rows[1] = ("2005-01-01T00:30:00Z",) + rows[1][1:]
        p = tmp_path / "A.csv"
        write_csv(p, rows)
        with pytest.raises(IngestionError, match=r"A\.csv: line 3: timestamp 2005-01-01T00:30"):
            load_station_csv(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "A.csv"
        p.write_text("time,temp\n1,2\n")
        with pytest.raises(CsvParseError, match="header"):
            load_station_csv(p)


def make_series(name, start, n, seed=0):
    rng = np.random.default_rng(seed)
    feats = np.column_stack(
        [
            rng.normal(10, 3, n),
            rng.normal(1000, 5, n),
            rng.uniform(0, 20, n),
            rng.uniform(0, 360, n),
        ]
    )
    ts = [start + timedelta(hours=i) for i in range(n)]
    return StationSeries(name, ts, feats)


class TestAssemble:
    def test_identical_ranges(self):
        raw, ts = assemble(
            [make_series("A", START, 10), make_series("B", START, 10, 1)], ["A", "B"]
        )
        assert raw.shape == (10, 4, 2)
        assert len(ts) == 10

    def test_partial_overlap(self):
        a = make_series("A", START, 10)
        b = make_series("B", START + timedelta(hours=5), 10, 1)
        raw, ts = assemble([a, b], ["A", "B"])
        assert raw.shape[0] == 5
        assert ts[0] == START + timedelta(hours=5)

    def test_five_stations(self):
        series = [make_series(f"S{i}", START, 8, i) for i in range(5)]
        raw, _ = assemble(series, [f"S{i}" for i in range(5)])
        assert raw.shape == (8, 4, 5)

    def test_empty_intersection(self):
        a = make_series("A", START, 5)
        b = make_series("B", START + timedelta(hours=100), 5)
        with pytest.raises(data.AlignmentError):
            assemble([a, b], ["A", "B"])


class TestSplitByYears:
    @staticmethod
    def eleven_years():
        start = datetime(2000, 1, 1, tzinfo=UTC)
        end = datetime(2011, 1, 1, tzinfo=UTC)
        n = int((end - start) / timedelta(hours=1))
        return make_series("A", start, n)

    def test_nine_one_one_calendar_exact(self):
        s = self.eleven_years()
        raw, ts = assemble([s], ["A"])
        (tr, tr_ts), (va, va_ts), (te, te_ts) = split_by_years(
            raw, ts, list(range(2000, 2009)), [2009], [2010]
        )
        # independent calendar oracle
        expect_train = sum(
            (8784 if calendar.isleap(y) else 8760) for y in range(2000, 2009)
        )
        assert len(tr) == expect_train
        assert len(va) == 8760
        assert len(te) == 8760
        assert tr_ts[-1] < va_ts[0] < te_ts[0]

    def test_disjointness_enforced(self):
        s = make_series("A", START, 100)
        raw, ts = assemble([s], ["A"])
        with pytest.raises(SplitError):
            split_by_years(raw, ts, [2005], [2005], [2005])

    def test_missing_year(self):
        s = make_series("A", START, 100)
        raw, ts = assemble([s], ["A"])
        with pytest.raises(SplitError):
            split_by_years(raw, ts, [2005], [2006], [2007])

    def test_empty_val_warns(self):
        s = make_series("A", datetime(2005, 12, 31, tzinfo=UTC), 100)
        raw, ts = assemble([s], ["A"])
        with pytest.warns(RuntimeWarning, match="validation"):
            (_, _), (va, _), (_, _) = split_by_years(raw, ts, [2005], [], [2006])
        assert len(va) == 0


class TestMinMaxScaler:
    def test_simple_scaling(self):
        raw = np.zeros((3, 4, 1))
        raw[:, 2, 0] = [0.0, 5.0, 10.0]
        sc = MinMaxScaler.fit(raw)
        np.testing.assert_allclose(sc.apply(raw)[:, 2, 0], [0.0, 0.5, 1.0])

    def test_wind_speed_round_trip(self, rng):
        raw = rng.uniform(0, 25, size=(50, 4, 3))
        sc = MinMaxScaler.fit(raw)
        vals = raw[:, data.WIND_SPEED, 1]
        norm = sc.normalize_wind_speed(vals, 1)
        back = sc.invert_wind_speed(norm, 1)
        np.testing.assert_allclose(back, vals, atol=1e-12)

    def test_constant_feature_maps_to_half(self):
        raw = np.full((5, 4, 2), 7.0)
        sc = MinMaxScaler.fit(raw)
        np.testing.assert_array_equal(sc.apply(raw), np.full((5, 4, 2), 0.5))

    def test_fit_on_train_only_changes_with_test(self, rng):
        train = rng.uniform(0, 10, size=(40, 4, 2))
        test = rng.uniform(20, 30, size=(10, 4, 2))  # outside train range
        sc_train = MinMaxScaler.fit(train)
        sc_both = MinMaxScaler.fit(np.concatenate([train, test]))
        assert not np.array_equal(sc_train.maxs, sc_both.maxs)

    def test_state_round_trip(self, rng):
        sc = MinMaxScaler.fit(rng.uniform(0, 10, size=(20, 4, 2)))
        sc2 = MinMaxScaler.from_state(sc.state())
        np.testing.assert_array_equal(sc.mins, sc2.mins)
        np.testing.assert_array_equal(sc.maxs, sc2.maxs)


class TestMakeWindows:
    def test_sample_count(self, rng):
        raw = rng.uniform(0, 10, size=(100, 4, 5))
        ds = make_windows(raw, raw, 48, 6, [0, 3, 4])
        assert len(ds) == 47

    def test_minimal(self, rng):
        raw = rng.uniform(0, 10, size=(2, 4, 2))
        ds = make_windows(raw, raw, 1, 1, [0])
        assert len(ds) == 1

    def test_paper_shapes(self, rng):
        raw = rng.uniform(0, 10, size=(60, 4, 5))
        ds = make_windows(raw, raw, 48, 6, [0, 3, 4])
        assert ds.inputs.shape[1:] == (4, 5, 48)
        assert ds.targets.shape[1] == 3

    def test_read_only_view_equals_copy_loop(self, rng):
        # every axis a different length, so a transposed layout cannot pass
        length, window, horizon = 37, 5, 2
        norm = rng.uniform(0, 1, size=(length, 4, 3))
        ds = make_windows(norm, norm, window, horizon, [1])
        n = length - window - horizon + 1
        reference = np.empty((n, 4, 3, window))
        for s in range(n):
            reference[s] = norm[s : s + window].transpose(1, 2, 0)
        assert ds.inputs.shape == reference.shape
        assert ds.inputs.tobytes() == reference.tobytes()
        assert np.shares_memory(ds.inputs, norm)
        assert not ds.inputs.flags.writeable

    def test_too_short(self, rng):
        with pytest.raises(PipelineError):
            make_windows(np.zeros((10, 4, 2)), np.zeros((10, 4, 2)), 8, 3, [0])

    def test_target_is_unnormalized_wind_speed(self, rng):
        raw = rng.uniform(0, 20, size=(30, 4, 3))
        sc = MinMaxScaler.fit(raw)
        ds = make_windows(sc.apply(raw), raw, 5, 2, [1])
        # sample 0 target: wind_speed of node 1 at index 0+5-1+2 = 6
        assert ds.targets[0, 0] == raw[6, data.WIND_SPEED, 1]

    def test_no_look_ahead(self, rng):
        raw = rng.uniform(0, 20, size=(30, 4, 2))
        start = datetime(2005, 1, 1, tzinfo=UTC)
        ts = [start + timedelta(hours=i) for i in range(30)]
        ds = make_windows(raw, raw, 6, 3, [0], timestamps=ts)
        for s in range(len(ds)):
            last_input_time = ts[s + 6 - 1]
            assert last_input_time < ds.target_times[s]

    @settings(max_examples=40, deadline=None)
    @given(
        window=st.integers(1, 10),
        horizon=st.integers(1, 6),
        extra=st.integers(0, 20),
    )
    def test_count_formula_property(self, window, horizon, extra):
        length = window + horizon + extra
        raw = np.zeros((length, 4, 2))
        ds = make_windows(raw, raw, window, horizon, [0])
        assert len(ds) == length - window - horizon + 1


class TestBatchIter:
    @staticmethod
    def dataset(n, rng):
        raw = rng.uniform(0, 10, size=(n + 10, 4, 2))
        return make_windows(raw, raw, 8, 3, [0, 1])

    def test_single_partial_batch(self, rng):
        raw = np.zeros((100, 4, 2))
        ds = make_windows(raw, raw, 48, 6, [0])
        batches = list(batch_iter(ds, 64))
        assert len(batches) == 1
        assert batches[0][0].shape[0] == 47

    def test_batch_sizes(self, rng):
        raw = rng.uniform(0, 1, size=(130 + 8 + 3 - 1, 4, 2))
        ds = make_windows(raw, raw, 8, 3, [0])
        sizes = [b[0].shape[0] for b in batch_iter(ds, 64)]
        assert sizes == [64, 64, 2]

    def test_seed_determinism(self, rng):
        ds = self.dataset(50, rng)
        a = [b[0] for b in batch_iter(ds, 16, shuffle=True, seed=9)]
        b = [b[0] for b in batch_iter(ds, 16, shuffle=True, seed=9)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_eval_order_chronological(self, rng):
        ds = self.dataset(40, rng)
        got = np.concatenate([b[0] for b in batch_iter(ds, 16)], axis=0)
        np.testing.assert_array_equal(got, ds.inputs)
