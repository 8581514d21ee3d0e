import io
import math
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ingest_oracle

from timegrain import (
    DataError,
    IngestionSchema,
    ValidationError,
    augment,
    derive_descriptor,
    enumerate_cyclic,
    evaluate,
    export_table,
    ingest,
    pairwise_descriptor,
    table,
)


def make_csv(rows, header="timestamp,customer,kwh"):
    return io.StringIO(header + "\n" + "\n".join(rows) + "\n")


SCHEMA = IngestionSchema(
    timestamp_column="timestamp",
    timestamp_format="%Y-%m-%d %H:%M",
    origin="2012-01-01 00:00",
    bottom_duration="30m",
    key_columns=("customer",),
    measurement_columns=("kwh",),
)


def halfhour_stamp(i):
    day, rem = divmod(i, 48)
    return f"2012-01-{day + 1:02d} {rem // 2:02d}:{(rem % 2) * 30:02d}"


class TestIngest:
    def test_row_count_preserved(self, gregorian):
        rows = [f"{halfhour_stamp(i)},c{1 + i % 2},0.5" for i in range(100)]
        t = ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert len(t) == 100
        assert sorted(set(np.diff(sorted(t.index[np.array(t.keys['customer']) == 'c1'])))) == [2]

    def test_duplicate_rejected(self, gregorian):
        rows = ["2012-01-01 00:00,c1,0.5", "2012-01-01 00:00,c1,0.7"]
        with pytest.raises(DataError) as err:
            ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "duplicate-row"

    def test_same_stamp_different_key_ok(self, gregorian):
        rows = ["2012-01-01 00:00,c1,0.5", "2012-01-01 00:00,c2,0.7"]
        t = ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert len(t) == 2

    def test_pre_origin_rejected(self, gregorian):
        rows = ["2011-12-31 23:30,c1,0.5"]
        with pytest.raises(DataError) as err:
            ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "pre-origin"

    def test_unparseable_timestamp(self, gregorian):
        rows = ["yesterday,c1,0.5"]
        with pytest.raises(DataError) as err:
            ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "unparseable-timestamp"
        assert "row 2" in err.value.message

    @pytest.mark.parametrize("short", ["2012-01-01 00:30,c1", ""], ids=["truncated", "blank"])
    def test_short_row_rejected(self, gregorian, short):
        rows = ["2012-01-01 00:00,c1,0.5", short, "2012-01-01 01:00,c1,0.5"]
        with pytest.raises(DataError) as err:
            ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "short-row"
        assert err.value.message.startswith("row 3:")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
    def test_infinite_measurement_rejected(self, gregorian, cell):
        # the nan cell on row 3 is a missing value, not the fault
        rows = ["2012-01-01 00:00,c1,0.5", "2012-01-01 00:30,c1,nan", f"2012-01-01 01:00,c1,{cell}"]
        with pytest.raises(DataError) as err:
            ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "non-finite-measurement"
        assert err.value.message.startswith("row 4:")

    def test_non_utf8_file_rejected(self, gregorian, tmp_path):
        path = tmp_path / "meter.csv"
        path.write_bytes(b"timestamp,customer,kwh\n2012-01-01 00:00,c\xff,0.5\n")
        with pytest.raises(DataError) as err:
            ingest(path, SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "bad-encoding"
        assert str(path) in err.value.message

    @pytest.mark.parametrize("early_duplicate", [False, True])
    def test_rows_before_undecodable_text_checked_first(self, gregorian, tmp_path, early_duplicate):
        # the bad byte lies blocks after the start, so the rows before it are read first
        rows = [f"{halfhour_stamp(i)},c1,0.5" for i in range(1000)]
        if early_duplicate:
            rows[1] = rows[0]
        path = tmp_path / "meter.csv"
        path.write_bytes("\n".join(["timestamp,customer,kwh", *rows]).encode().replace(
            b"\n2012-01-19 10:00,c1", b"\n2012-01-19 10:00,c\xff"))
        with pytest.raises(DataError) as err:
            ingest(path, SCHEMA, gregorian.hierarchy)
        if early_duplicate:
            assert (err.value.kind, err.value.message[:6]) == ("duplicate-row", "row 3:")
        else:
            assert err.value.kind == "bad-encoding"

    def test_missing_column(self, gregorian):
        with pytest.raises(DataError) as err:
            ingest(make_csv(["2012-01-01 00:00,c1"], header="timestamp,customer"),
                   SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "unknown-column"

    def test_missing_measurement_becomes_nan(self, gregorian):
        rows = ["2012-01-01 00:00,c1,", "2012-01-01 00:30,c1,0.25"]
        t = ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert np.isnan(t.measurements["kwh"][0])
        assert t.measurements["kwh"][1] == 0.25

    @pytest.mark.parametrize("stamp", [
        "2012-01-01T00:30", "2012-01-01 00:30:00", "2012-01-01", " 2012-01-01 00:30",
        "2012-01-01 00:30 ", "+2012-01-01 00:30", "20120-01-01 00:30", "NaT",
        "2012-01-01 00:30Z",
    ])
    def test_numpy_only_spellings_rejected(self, gregorian, stamp):
        rows = ["2012-01-01 00:00,c1,0.5", f"{stamp},c1,0.5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as err:
                ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "unparseable-timestamp"
        assert err.value.message == f"row 3: {stamp!r} does not match '%Y-%m-%d %H:%M'"

    @pytest.mark.parametrize("fmt, origin, step", [
        ("%Y-%m-%d", "2012-01-01", "1d"),
        ("%Y-%m-%d %H", "2012-01-01 00", "1h"),
        ("%Y-%m-%dT%H:%M", "2012-01-01T00:00", "30m"),
        ("%Y-%m-%d %H:%M:%S", "2012-01-01 00:00:00", "15m"),
        ("index", "", ""),
    ])
    def test_clean_files_skip_the_row_loop(self, gregorian, monkeypatch, fmt, origin, step):
        monkeypatch.setattr(table, "_ingest_rows", None)
        schema = IngestionSchema("timestamp", fmt, origin, step, ("customer",), ("kwh",))
        zs = range(0, 3000, 7)
        stamps = [str(z) if fmt == "index" else
                  (ORIGIN + z * table.parse_duration(step)).strftime(fmt) for z in zs]
        lines = ["timestamp,customer,kwh"] + [
            f"{stamp},c{1 + z % 2},{z % 5 or ''}" for z, stamp in zip(zs, stamps)
        ]
        index, stamps, keys, measurements = ingest_oracle(lines, schema)
        t = ingest(io.StringIO("\n".join(lines)), schema, gregorian.hierarchy)
        assert t.index.tolist() == index == list(zs)
        assert t.timestamps == tuple(stamps)
        assert t.keys == {k: tuple(v) for k, v in keys.items()}
        assert np.array_equal(t.measurements["kwh"], measurements["kwh"], equal_nan=True)

    def test_strptime_only_spelling_accepted(self, gregorian):
        rows = ["2012-1-1 0:00,c1,0.5", "2012-01-01 00:00,c2,0.5", "2012-1-2 1:30,c1,0.5"]
        t = ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert t.index.tolist() == [0, 0, 51]
        assert t.timestamps == ("2012-1-1 0:00", "2012-01-01 00:00", "2012-1-2 1:30")

    def test_index_keeps_int_semantics(self, gregorian):
        schema = IngestionSchema("over", "index", key_columns=("ball",))
        t = ingest(make_csv([" 5,1", "+5,2", "1_000,1"], header="over,ball"),
                   schema, gregorian.hierarchy)
        assert t.index.tolist() == [5, 5, 1000]
        assert t.timestamps == (" 5", "+5", "1_000")

    @pytest.mark.parametrize("rows, kind, row", [
        (["2012-01-01 00:00,c1,0.5", "2012-01-01 00:30,c1,x", "2012-01-01 01:00,c1,0.5",
          "2012-01-01 01:30,c1"], "unparseable-measurement", 3),
        (["2012-01-01 00:00,c1,0.5", "2012-01-01 00:00,c1,0.5", "yesterday,c1,0.5"],
         "duplicate-row", 3),
        (["2012-01-01 00:00,c1,0.5", "2011-12-31 23:30,c1,inf", "2012-01-01 00:00,c1,0.5"],
         "pre-origin", 3),
    ], ids=["measurement-then-short", "duplicate-then-timestamp", "pre-origin-then-duplicate"])
    def test_earlier_of_two_faults_reported(self, gregorian, rows, kind, row):
        with pytest.raises(DataError) as err:
            ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert err.value.kind == kind
        assert err.value.message.startswith(f"row {row}:")

    def test_index_format(self, cricket, cricket_table):
        assert len(cricket_table) == (6 + 8 + 7 + 9) * 2 * 20 * 6
        assert cricket_table.index.min() == 0
        # six balls share each over index, disambiguated by the ball key
        assert cricket_table.index.max() == (6 + 8 + 7 + 9) * 2 * 20 - 1


ORIGIN = datetime(2012, 1, 1)
STAMP_SPELLINGS = {
    # strptime accepts these two; the second needs the row loop
    "iso": lambda t: t.strftime("%Y-%m-%d %H:%M"),
    "unpadded": lambda t: f"{t.year}-{t.month}-{t.day} {t.hour}:{t.minute}",
    # faults; NumPy reads the first five, which strptime rejects
    "T": lambda t: t.strftime("%Y-%m-%dT%H:%M"),
    "seconds": lambda t: t.strftime("%Y-%m-%d %H:%M:%S"),
    "zulu": lambda t: t.strftime("%Y-%m-%d %H:%MZ"),
    "padded": lambda t: t.strftime(" %Y-%m-%d %H:%M"),
    "bare-date": lambda t: t.strftime("%Y-%m-%d"),
    "no-such-day": lambda t: "2012-02-30 00:00",
    "pre-origin": lambda t: "2011-12-31 23:30",
}
INDEX_SPELLINGS = {
    "plain": str, "padded": lambda z: f" {z}", "signed": lambda z: f"+{z}",
    "underscored": lambda z: f"{z:_}", "negative": lambda z: f"-{z + 1}",
    "word": lambda z: "over", "arabic-indic": lambda z: "".join(chr(0x660 + int(c)) for c in str(z)),
}
CELLS = ["0.5", "1.25", "", "nan", " 0.75", "1_000", "inf", "-inf", "1e999", "abc", " "]


@st.composite
def meter_files(draw, by_index):
    """Lines of a half-hourly meter file: mostly sound rows, some perturbed ones."""
    spellings = INDEX_SPELLINGS if by_index else STAMP_SPELLINGS
    sound, base = draw(st.booleans()), draw(st.sampled_from(list(spellings)[:2]))
    start, stride = draw(st.integers(0, 20000)), draw(st.integers(1, 3))
    order = draw(st.permutations(["timestamp", "customer", "kwh"]))
    lines = [",".join(order)]
    for i in range(draw(st.integers(0, 25))):
        z = start + i * stride
        spelling, cell, shape = base, draw(st.sampled_from(CELLS[:6])), "full"
        perturb = "none" if sound else draw(st.sampled_from(["none"] * 6 + ["stamp", "cell", "row"]))
        if perturb == "stamp":
            spelling = draw(st.sampled_from(list(spellings)))
        elif perturb == "cell":
            cell = draw(st.sampled_from(CELLS))
        elif perturb == "row":
            shape = draw(st.sampled_from(["short", "blank", "duplicate"]))
        stamp = spellings[spelling](z if by_index else ORIGIN + timedelta(minutes=30 * z))
        fields = {"timestamp": stamp, "customer": draw(st.sampled_from(["c1", "c2", " c1"])),
                  "kwh": cell}
        if shape == "duplicate" and len(lines) > 1:
            lines.append(lines[-1])
        elif shape == "blank":
            lines.append("")
        else:
            kept = 3 - (shape == "short") * draw(st.integers(1, 2))
            lines.append(",".join(fields[c] for c in order[:kept]))
    return lines


def nan_as_none(measurements):
    return {m: [None if math.isnan(v) else v for v in col] for m, col in measurements.items()}


def outcome(source, schema, hierarchy):
    """What ``ingest`` gives, in the oracle's form."""
    try:
        t = ingest(source, schema, hierarchy)
    except DataError as err:
        return err.kind, err.message
    return (t.index.tolist(), list(t.timestamps), {k: list(v) for k, v in t.keys.items()},
            nan_as_none({m: col.tolist() for m, col in t.measurements.items()}))


class TestIngestMatchesOracle:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("differential") / "meter.csv"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("by_index", [False, True], ids=["strptime", "index"])
    def test_same_table_or_error(self, gregorian, path, by_index, data):
        lines = data.draw(meter_files(by_index))
        schema = IngestionSchema("timestamp", "index", key_columns=("customer",),
                                 measurement_columns=("kwh",)) if by_index else SCHEMA
        expected = ingest_oracle(lines, schema)
        if len(expected) == 4:
            expected = (*expected[:3], nan_as_none(expected[3]))
        text = "\n".join(lines) + "\n"
        path.write_text(text, encoding="utf-8", newline="")
        assert outcome(io.StringIO(text), schema, gregorian.hierarchy) == expected
        assert outcome(path, schema, gregorian.hierarchy) == expected


class TestEnumerate:
    def test_four_rungs_give_six(self, gregorian):
        ds = enumerate_cyclic(gregorian.hierarchy, rungs=("hour", "day", "week", "month"))
        assert [d.name for d in ds] == [
            "hour_day", "hour_week", "hour_month", "day_week", "day_month", "week_month",
        ]

    def test_two_rungs_give_one(self, mayan):
        ds = enumerate_cyclic(mayan.hierarchy, rungs=("kin", "uinal"))
        assert [d.name for d in ds] == ["kin_uinal"]

    def test_five_rungs_give_ten(self, gregorian):
        ds = enumerate_cyclic(gregorian.hierarchy, max_upper="month")
        assert len(ds) == 10

    def test_counts_are_triangular(self, gregorian):
        for n in range(2, 7):
            rungs = gregorian.hierarchy.rung_names[:n]
            assert len(enumerate_cyclic(gregorian.hierarchy, rungs=rungs)) == n * (n - 1) // 2

    def test_level_counts_match_screening_table(self, gregorian):
        ds = {d.name: d for d in enumerate_cyclic(
            gregorian.hierarchy, rungs=("hour", "day", "week", "month"))}
        assert ds["hour_day"].levels == 24
        assert ds["hour_week"].levels == 168
        assert ds["hour_month"].levels == 744
        assert ds["day_week"].levels == 7
        assert ds["day_month"].levels == 31
        assert ds["week_month"].levels == 5


class TestDerive:
    def test_weekend_weekday(self, gregorian):
        base = pairwise_descriptor(gregorian.hierarchy, "day", "week")
        d = derive_descriptor(base, {0: 1, 6: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}, "wknd_wday",
                              labels=("Weekday", "Weekend"))
        assert d.levels == 2

    def test_identity_remap(self, gregorian):
        h = gregorian.hierarchy
        base = pairwise_descriptor(h, "day", "week")
        same = derive_descriptor(base, list(range(7)), "day_week_copy")
        zs = np.arange(0, 48 * 100, dtype=np.int64)
        assert (evaluate(h, same, zs) == evaluate(h, base, zs)).all()

    def test_partial_remap_rejected(self, gregorian):
        base = pairwise_descriptor(gregorian.hierarchy, "day", "week")
        with pytest.raises(ValidationError) as err:
            derive_descriptor(base, {0: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}, "broken")
        assert err.value.kind == "partial-remap"


class TestAugment:
    @pytest.fixture()
    def small(self, gregorian):
        rows = [f"{halfhour_stamp(i)},c1,{0.1 * (i % 5):.1f}" for i in range(480)]
        return ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)

    def test_value_ranges(self, gregorian, small):
        h = gregorian.hierarchy
        hour_day = pairwise_descriptor(h, "hour", "day")
        halfhour_day = pairwise_descriptor(h, "halfhour", "day")
        t = augment(small, [hour_day, halfhour_day], gregorian)
        assert set(np.unique(t.cyclic_column("hour_day"))) == set(range(24))
        assert set(np.unique(t.cyclic_column("halfhour_day"))) == set(range(48))

    def test_derived_column_equals_remap(self, gregorian, small):
        h = gregorian.hierarchy
        base = pairwise_descriptor(h, "day", "week")
        wknd = derive_descriptor(base, {0: 1, 6: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}, "wknd_wday")
        t = augment(small, [base, wknd], gregorian)
        table = np.asarray([1, 0, 0, 0, 0, 0, 1])
        assert (t.cyclic_column("wknd_wday") == table[t.cyclic_column("day_week")]).all()

    def test_idempotent(self, gregorian, small):
        d = pairwise_descriptor(gregorian.hierarchy, "hour", "day")
        once = augment(small, [d], gregorian)
        twice = augment(once, [d], gregorian)
        assert list(twice.cyclic) == ["hour_day"]
        assert (twice.cyclic_column("hour_day") == once.cyclic_column("hour_day")).all()

    def test_recomputation_invariant(self, gregorian, small):
        h = gregorian.hierarchy
        ds = [pairwise_descriptor(h, "hour", "day"), pairwise_descriptor(h, "day", "month")]
        t = augment(small, ds, gregorian)
        for name, (d, col) in t.cyclic.items():
            recomputed = evaluate(h, d, t.index, gregorian.events)
            assert (col == recomputed).all(), name

    def test_rows_and_columns_untouched(self, gregorian, small):
        d = pairwise_descriptor(gregorian.hierarchy, "hour", "day")
        t = augment(small, [d], gregorian)
        assert (t.index == small.index).all()
        assert t.keys == small.keys
        assert t.timestamps == small.timestamps
        assert (t.measurements["kwh"] == small.measurements["kwh"]).all()

    def test_unknown_rung_rejected(self, gregorian, small, mayan):
        d = pairwise_descriptor(mayan.hierarchy, "kin", "uinal")
        with pytest.raises(ValidationError) as err:
            augment(small, [d], gregorian)
        assert err.value.kind == "unknown-rung"


def test_export_contains_cyclic_columns(gregorian):
    rows = [f"{halfhour_stamp(i)},c1,0.5" for i in range(4)]
    t = ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
    t = augment(t, [pairwise_descriptor(gregorian.hierarchy, "halfhour", "day")], gregorian)
    buf = io.StringIO()
    export_table(t, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "timestamp,customer,index,kwh,halfhour_day"
    assert lines[1] == "2012-01-01 00:00,c1,0,0.5,0"
    assert len(lines) == 5
