import calendar
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mswavenet import data
from mswavenet.config import read_utf8
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
    samples_targeting,
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

_zones = st.none() | st.builds(
    timezone, st.timedeltas(min_value=-timedelta(hours=23), max_value=timedelta(hours=23))
)
_stamps = st.one_of(
    *[
        st.builds(lambda t, zone: t.replace(tzinfo=zone).isoformat(), times, _zones)
        for times in (st.sampled_from([datetime.min, datetime.max]), st.datetimes())
    ],  # the first and last datetimes overflow when converted to UTC
    st.datetimes().map(lambda t: t.strftime("%Y-%m-%dT%H:00:00Z")),
    st.text(max_size=8),
)
_readings = st.one_of(
    st.floats().map(repr), st.integers(-400, 400).map(str), st.text(max_size=4)
)
_rows = st.one_of(
    st.tuples(_stamps, _readings, _readings, _readings, _readings).map(",".join),
    st.lists(_stamps | _readings, max_size=6).map(",".join),
)
_hourly = st.builds(
    lambda start, values: [
        ",".join([(start + i * timedelta(hours=1)).isoformat()] + [repr(v) for v in vs])
        for i, vs in enumerate(values)
    ],
    st.datetimes(max_value=datetime(9000, 1, 1), timezones=_zones),
    st.lists(st.tuples(*[st.floats(-1e3, 1e3)] * 3, st.floats(0, 359)), min_size=1, max_size=4),
)
_csv_files = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda tail: HEADER.encode() + tail),
    st.lists(_rows, max_size=5).map(lambda rows: (HEADER + "\n".join(rows)).encode()),
    _hourly.map(lambda rows: (HEADER + "\n".join(rows)).encode()),
)

# Station files as other writers spell them: line ends, blank lines, quoted
# and padded fields, stamps in UTC, naive or at an offset, unsorted rows and
# gaps of up to max_gap_hours (3 by default). Most files also draw from one
# kind of defect: longer gaps, duplicate or off-grid stamps, bad
# readings, readings spelled as only Python's float reads them, rows of 4 or 6
# fields, lines that are not blank but hold no field, and two rows joined by
# a character that ends a line for str.splitlines but not for csv.
_HOURS = [timedelta(hours=h) for h in (1, 1, 1, 1, 2, 3, 4)]
_stamp_styles = st.sampled_from([
    lambda t: t.strftime("%Y-%m-%dT%H:%M:%SZ"),
    lambda t: t.replace(tzinfo=None).isoformat(),  # naive: read as UTC
    lambda t: t.astimezone(timezone(timedelta(hours=-5, minutes=-30))).isoformat(),
    lambda t: t.isoformat(sep=" "),
])
_SPELLINGS = [repr, str, lambda v: f" {v!r}\t", lambda v: f"{v:.8f}", lambda v: f'"{v}"',
              lambda v: f'" {v} "']
_DEFECTS = {
    "steps": [timedelta(hours=5), timedelta(0), timedelta(minutes=30)],
    "readings": [lambda v: f'"{v}"x', lambda v: "nan", lambda v: "-inf", lambda v: "360"],
    "python": [lambda v: f"{v * 10:_.1f}", lambda v: f"{v}\u0660"],  # 1_234.5 and an Arabic 0
    "fields": [[":"], [], ["1.0"], ["", ""]],  # the tail of a row; ":" drops a field
    "blank": [" ", '""', ","],
    "breaks": list("\v\f\x1c\x1d\x1e\x85\u2028\u2029"),  # line ends to str, not to csv
}


@st.composite
def _dialect_files(draw):
    kinds = {draw(st.sampled_from(sorted(_DEFECTS) + [None]))}

    def pick(good, *defects):
        return draw(st.sampled_from(good + [d for k in defects if k in kinds for d in _DEFECTS[k]]))

    t = draw(st.datetimes(datetime(1990, 1, 1), datetime(2030, 1, 1), timezones=st.just(UTC)))
    stamp = draw(_stamp_styles)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        values = draw(st.tuples(*[st.floats(-1e3, 1e3)] * 3, st.floats(0, 360, exclude_max=True)))
        fields = [stamp(t)] + [pick(_SPELLINGS * 4, "readings", "python")(v) for v in values]
        if draw(st.booleans()):
            fields[0] = f'"{fields[0]}"'
        tail = pick([[]] * 4, "fields")
        rows.append(",".join(fields[:-1] if tail == [":"] else fields + tail))
        t += pick(_HOURS, "steps")
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    if "breaks" in kinds and len(rows) > 1:
        i = draw(st.integers(0, len(rows) - 2))
        rows[i : i + 2] = [pick([], "breaks").join(rows[i : i + 2])]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), pick([""], "blank"))
    header = draw(st.sampled_from([HEADER.strip(), '"timestamp",temperature,pressure, wind_speed ,'
                                   "wind_direction"]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (end.join([header] + rows) + draw(st.sampled_from(["", end, end * 2]))).encode()


def _outcome(read, path):
    """What a reader gives for a file: its timestamps (tzinfo included) and
    its features' bytes, or its error's class and message."""
    try:
        timestamps, features = read(path)
    except PipelineError as exc:
        return type(exc), str(exc)
    return repr(timestamps), features.dtype, features.shape, features.tobytes()


def _loaded(path):
    s = load_station_csv(path)
    return s.timestamps, s.features


def _row_loop(path):
    return data._read_rows(path, read_utf8(path, CsvParseError), 3)


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

    def test_overflowing_timestamp_rejected_with_line(self, tmp_path):
        # 00:00 at UTC+1 on 0001-01-01 is an hour before the first datetime
        rows = hourly_rows(START, 2) + [("0001-01-01T00:00:00+01:00", 1.0, 1000.0, 5.0, 180.0)]
        p = tmp_path / "A.csv"
        write_csv(p, rows)
        with pytest.raises(CsvParseError, match=r"A\.csv: line 4: bad timestamp '0001-01-01"):
            load_station_csv(p)

    def test_non_utf8_bytes_rejected_with_line(self, tmp_path):
        p = tmp_path / "A.csv"
        write_csv(p, hourly_rows(START, 3))
        lines = p.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"180.0", b"18\xff0.0")
        p.write_bytes(b"".join(lines))
        with pytest.raises(CsvParseError, match=r"A\.csv: line 3: not UTF-8"):
            load_station_csv(p)

    def test_oversized_field_rejected_with_line(self, tmp_path):
        p = tmp_path / "A.csv"
        write_csv(p, hourly_rows(START, 2) + [("x" * 200_000, 1.0, 1000.0, 5.0, 180.0)])
        with pytest.raises(CsvParseError, match=r"A\.csv: line 4: field larger"):
            load_station_csv(p)

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(blob=_csv_files)
    def test_any_bytes_parse_or_raise_pipeline_error(self, tmp_path, blob):
        p = tmp_path / "A.csv"
        p.write_bytes(blob)
        try:
            load_station_csv(p)
        except PipelineError as exc:
            assert str(p) in str(exc)

    @settings(
        max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(blob=_csv_files | _dialect_files())
    def test_reads_as_the_row_loop(self, tmp_path, blob):
        # the same series bit for bit, or the same error and message
        p = tmp_path / "A.csv"
        p.write_bytes(blob)
        assert _outcome(_loaded, p) == _outcome(_row_loop, p)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_common_spellings_read_in_c(self, tmp_path, end):
        # quoted stamps, padded readings, naive and offset stamps, a blank
        # line, unsorted rows and a 3-hour gap: all read in C
        rows = [
            '"2005-01-01T05:00:00Z", 10.5 ,1000,"4.25",180',
            "2005-01-01T00:00:00,10,1000.5,4,0",
            "",
            "2005-01-01T03:00:00+02:00,11,1001,5,359.5",
            "2005-01-01T06:00:00Z,12,1002,6,90",
        ]
        p = tmp_path / "A.csv"
        p.write_bytes(end.join([HEADER.strip()] + rows + [""]).encode())
        text = read_utf8(p, CsvParseError)
        assert data._read_columns(text, 3) is not None
        s = load_station_csv(p)
        assert s.timestamps[0] == START and len(s) == 7
        assert _outcome(_loaded, p) == _outcome(_row_loop, p)

    @pytest.mark.parametrize(
        "row",
        [
            "2005-01-01T02:00:00Z,1," + " " * 140_000 + "1000,5,180",
            '2005-01-01T02:00:00Z,1,"1000' + "\n" * 140_000 + '",5,180',
            '2005-01-01T02:00:00Z,1,1000,5,"180' + "\n" * 140_000,
        ],
        ids=["padded", "quoted-lines", "open-quote"],
    )
    def test_fields_over_csv_limit_rejected_as_by_the_row_loop(self, tmp_path, row):
        # numpy reads these; csv refuses a field over 131072 characters
        p = tmp_path / "A.csv"
        write_csv(p, hourly_rows(START, 2))
        with open(p, "a", encoding="utf-8") as fh:
            fh.write(row)
        with pytest.raises(CsvParseError, match=r"A\.csv: line \d+: field larger"):
            load_station_csv(p)
        assert _outcome(_loaded, p) == _outcome(_row_loop, p)


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

    def test_offset_hourly_grids_rejected(self):
        a = make_series("A", START, 5)
        b = make_series("B", START + timedelta(minutes=30), 5, 1)
        with pytest.raises(data.AlignmentError, match="'A' and 'B'.*0:30:00"):
            assemble([a, b], ["A", "B"])

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
        _, ts = assemble([s], ["A"])
        tr, va, te = split_by_years(ts, list(range(2000, 2009)), [2009], [2010])
        # independent calendar oracle
        expect_train = sum(
            (8784 if calendar.isleap(y) else 8760) for y in range(2000, 2009)
        )
        assert len(ts[tr]) == expect_train
        assert len(ts[va]) == 8760
        assert len(ts[te]) == 8760
        assert ts[tr][-1] < ts[va][0] < ts[te][0]
        assert {t.year for t in ts[va]} == {2009}

    def test_disjointness_enforced(self):
        s = make_series("A", START, 100)
        _, ts = assemble([s], ["A"])
        with pytest.raises(SplitError):
            split_by_years(ts, [2005], [2005], [2005])

    def test_missing_year(self):
        s = make_series("A", START, 100)
        _, ts = assemble([s], ["A"])
        with pytest.raises(SplitError):
            split_by_years(ts, [2005], [2006], [2007])

    def test_empty_val_warns(self):
        s = make_series("A", datetime(2005, 12, 31, tzinfo=UTC), 100)
        _, ts = assemble([s], ["A"])
        with pytest.warns(RuntimeWarning, match="validation"):
            _, va, _ = split_by_years(ts, [2005], [], [2006])
        assert len(ts[va]) == 0

    def test_non_consecutive_years_rejected_naming_split(self):
        s = make_series("A", datetime(2005, 12, 31, tzinfo=UTC), 400 * 24)
        _, ts = assemble([s], ["A"])
        with pytest.raises(SplitError, match="train years \\[2005, 2007\\]"):
            split_by_years(ts, [2005, 2007], [2006], [])


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

    def test_wind_speed_maps_take_one_node_per_column(self, rng):
        """One call on [S, 3] columns of nodes [2, 1, 0] gives, bit for bit,
        the three single-node calls; node 1 has a constant range."""
        raw = rng.uniform(0, 25, size=(50, 4, 3))
        raw[:, data.WIND_SPEED, 1] = 3.0
        sc = MinMaxScaler.fit(raw)
        nodes = [2, 1, 0]
        cols = raw[:, data.WIND_SPEED][:, nodes]
        norm = sc.normalize_wind_speed(cols, nodes)
        back = sc.invert_wind_speed(norm, nodes)
        for j, node in enumerate(nodes):
            assert norm[:, j].tobytes() == sc.normalize_wind_speed(cols[:, j], node).tobytes()
            assert back[:, j].tobytes() == sc.invert_wind_speed(norm[:, j], node).tobytes()
        np.testing.assert_array_equal(norm[:, 1], 0.5)
        np.testing.assert_array_equal(back[:, 1], 3.0)

    @pytest.mark.parametrize("value", [7.5, np.float64(7.5)], ids=["python", "numpy"])
    def test_wind_speed_maps_take_a_scalar(self, value):
        raw = np.zeros((2, 4, 2))
        raw[:, data.WIND_SPEED] = [[0.0, 3.0], [10.0, 3.0]]
        sc = MinMaxScaler.fit(raw)
        assert float(sc.normalize_wind_speed(value, 0)) == 0.75
        assert float(sc.normalize_wind_speed(value, 1)) == 0.5
        assert float(sc.invert_wind_speed(value, 0)) == 75.0
        assert float(sc.invert_wind_speed(value, 1)) == 3.0

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

    @pytest.mark.parametrize(
        "state, message",
        [
            ({"mins": [[0.0]]}, r"scaler keys are \['mins'\], expected \['maxs', 'mins'\]"),
            ({"mins": [[0.0]], "maxs": [[1.0]], "x": 1}, "scaler keys are"),
            ({"mins": [["0"]], "maxs": [[1.0]]}, "scaler.mins: not an array of numbers"),
            ({"mins": [[0.0], [1.0, 2.0]], "maxs": [[1.0]]}, "scaler.mins: not an array"),
            ({"mins": [[0.0]], "maxs": [[True]]}, "scaler.maxs: not an array of numbers"),
            ({"mins": [[0.0]], "maxs": None}, "scaler.maxs: not an array of numbers"),
            ({"mins": [[0.0]], "maxs": [[float("inf")]]}, "scaler.maxs: non-finite value"),
            ({"mins": [[0.0]], "maxs": [[1.0, 2.0]]}, r"scaler.maxs: shape \(1, 2\)"),
            ({"mins": [[0.0, 3.0]], "maxs": [[1.0, 2.0]]}, "scaler.maxs: below scaler.mins"),
        ],
        ids=["key-missing", "key-extra", "text", "ragged", "bool", "null", "inf", "shape",
             "max-below-min"],
    )
    def test_from_state_names_the_key(self, state, message):
        with pytest.raises(PipelineError, match=f"^{message}"):
            MinMaxScaler.from_state(state)


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


class TestSamplesTargeting:
    def test_picks_samples_by_target_row(self, rng):
        length, window, horizon = 40, 5, 3
        raw = rng.uniform(0, 20, size=(length, 4, 2))
        ts = [START + timedelta(hours=i) for i in range(length)]
        every = make_windows(raw, raw, window, horizon, [1], timestamps=ts)
        target_row = [ts.index(t) for t in every.target_times]
        for start, stop in ((0, 10), (7, 8), (10, 25), (30, 40), (0, 0), (0, 3)):
            part = samples_targeting(every, slice(start, stop))
            picked = [s for s, row in enumerate(target_row) if start <= row < stop]
            assert part.target_times == [every.target_times[s] for s in picked]
            assert part.inputs.tobytes() == every.inputs[picked].tobytes()
            assert part.targets.tobytes() == every.targets[picked].tobytes()
            assert np.shares_memory(part.inputs, raw) or not picked
            assert not part.inputs.flags.writeable


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
