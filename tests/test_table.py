import csv
import io
import math
import tracemalloc
import warnings
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import export_table_oracle, ingest_oracle, traced_peak, write_csv_oracle

from timegrain import (
    DataError,
    GranularTable,
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
from timegrain.fixtures import cricket_calendar, write_cricket_csv, write_smart_meter_csv


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

    def test_oversize_field_is_a_row_error(self, gregorian):
        # a field over csv.field_size_limit() stops the reader; the row is named
        big = "x" * (csv.field_size_limit() + 1)
        rows = ["2012-01-01 00:00,c1,0.5", f"2012-01-01 00:30,c1,0.5{big}", "2012-01-01 01:00,c1,0.5"]
        with pytest.raises(DataError) as err:
            ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "unreadable-row"
        assert err.value.message.startswith("row 3: field larger than field limit")
        # an earlier faulty row is reported first, as for every row fault
        rows[0] = "yesterday,c1,0.5"
        with pytest.raises(DataError) as err:
            ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert (err.value.kind, err.value.message[:6]) == ("unparseable-timestamp", "row 2:")
        with pytest.raises(DataError) as err:
            ingest(make_csv(rows[1:], header=f"timestamp,customer,kwh{big}"), SCHEMA,
                   gregorian.hierarchy)
        assert err.value.kind == "unreadable-row"
        assert err.value.message.startswith("row 1: field larger than field limit")

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

    def test_column_named_twice_rejected(self, gregorian):
        # rejected before any row is read: the faulty row 2 is not reached
        with pytest.raises(DataError) as err:
            ingest(make_csv(["yesterday,c1,0.5,x"], header="timestamp,customer,kwh,timestamp"),
                   SCHEMA, gregorian.hierarchy)
        assert (err.value.kind, err.value.message) == (
            "ambiguous-column", "column 'timestamp' appears 2 times in header")

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

    @pytest.mark.parametrize("first", ["2012-01-01 00:00", "2012-1-1 0:0"],
                             ids=["fixed-width", "strptime"])
    def test_year_zero_rejected_on_both_paths(self, gregorian, first):
        rows = [f"{first},c1,0.5", "0000-01-01 00:00,c1,0.5"]
        with pytest.raises(DataError) as err:
            ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "unparseable-timestamp"
        assert err.value.message == "row 3: '0000-01-01 00:00' does not match '%Y-%m-%d %H:%M'"

    @pytest.mark.parametrize("stamp", ["2012-02-30 00:00", "2100-02-29 00:00", "2012-13-01 00:00",
                                       "2012-01-01 24:00"])
    @pytest.mark.parametrize("row", [2, 5, 9])
    def test_out_of_range_fixed_width_stamp_is_named_by_strptime(self, gregorian, stamp, row):
        # every stamp has the fixed-width form, so only NumPy's conversion finds the bad
        # field; the file is then read by strptime, which names the row
        stamps = [halfhour_stamp(i) for i in range(8)]
        stamps[row - 2] = stamp
        assert table._iso_offsets(table._Joined.of(stamps), "%Y-%m-%d %H:%M", ORIGIN,
                                  timedelta(minutes=30)) is None
        with pytest.raises(DataError) as err:
            ingest(make_csv([f"{s},c1,0.5" for s in stamps]), SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "unparseable-timestamp"
        assert err.value.message == f"row {row}: {stamp!r} does not match '%Y-%m-%d %H:%M'"

    @pytest.mark.parametrize("fmt, origin, step", [
        ("%Y-%m-%d", "2012-01-01", "1d"),
        ("%Y-%m-%d %H", "2012-01-01 00", "1h"),
        ("%Y-%m-%dT%H:%M", "2012-01-01T00:00", "30m"),
        ("%Y-%m-%d %H:%M:%S", "2012-01-01 00:00:00", "15m"),
        ("index", "", ""),
    ])
    def test_clean_files_skip_the_row_loop(self, gregorian, fmt, origin, step):
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

    def test_index_above_int64_rejected(self, gregorian):
        schema = IngestionSchema("over", "index", key_columns=("ball",))
        with pytest.raises(DataError) as err:
            ingest(make_csv(["99999999999999999999,1"], header="over,ball"),
                   schema, gregorian.hierarchy)
        assert err.value.kind == "row-index-overflow"
        assert err.value.message.startswith("row 2:")
        # the largest int64 index is kept
        t = ingest(make_csv([f"{2**63 - 1},1"], header="over,ball"), schema, gregorian.hierarchy)
        assert t.index.tolist() == [2**63 - 1]

    def test_index_overflow_row_is_named(self, gregorian, tmp_path):
        schema = IngestionSchema("over", "index", key_columns=("ball",))
        path = tmp_path / "overs.csv"
        rows = [f"{i},1" for i in range(40)] + [str(2**63), "7,2"]
        path.write_text("over,ball\n" + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            ingest(path, schema, gregorian.hierarchy)
        assert err.value.kind == "row-index-overflow"
        assert err.value.message == f"row 42: index {2**63} exceeds {2**63 - 1}"

    def test_origin_not_matching_format_rejected(self, gregorian):
        schema = IngestionSchema("timestamp", "%Y-%m-%d %H:%M", "2012-01-01", "30m",
                                 ("customer",), ("kwh",))
        with pytest.raises(ValidationError) as err:
            ingest(make_csv(["2012-01-01 00:00,c1,0.5"]), schema, gregorian.hierarchy)
        assert err.value.kind == "bad-schema"
        assert "origin '2012-01-01'" in err.value.message
        assert "'%Y-%m-%d %H:%M'" in err.value.message

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

    @pytest.mark.parametrize("rows, kind", [
        (["yesterday,c1,x"], "unparseable-timestamp"),
        (["2011-12-31 23:30,c1,x"], "pre-origin"),
        (["yesterday"], "unparseable-timestamp"),
        (["2012-01-01 00:00"], "short-row"),
        (["2012-01-01 00:00,c1,0.5", "2012-01-01 00:00,c1,x"], "duplicate-row"),
        (["2012-01-01 00:00,c1,0.5", "2012-01-01 00:00,c1"], "duplicate-row"),
    ], ids=["timestamp-then-measurement", "pre-origin-then-measurement", "timestamp-then-short",
            "short-key", "duplicate-then-measurement", "duplicate-then-short"])
    def test_faults_of_one_row_reported_in_check_order(self, gregorian, rows, kind):
        with pytest.raises(DataError) as err:
            ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert err.value.kind == kind
        assert (kind, err.value.message) == ingest_oracle(["timestamp,customer,kwh", *rows], SCHEMA)

    def test_index_format(self, cricket, cricket_table):
        assert len(cricket_table) == (6 + 8 + 7 + 9) * 2 * 20 * 6
        assert cricket_table.index.min() == 0
        # six balls share each over index, disambiguated by the ball key
        assert cricket_table.index.max() == (6 + 8 + 7 + 9) * 2 * 20 - 1


ORIGIN = datetime(2012, 1, 1)
STAMP_SPELLINGS = {
    # strptime accepts these two; the second fails the ISO shape check, so strptime reads it
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
    # fields out of range, which strptime rejects; NumPy reads only the year 0000
    "year-zero": lambda t: "0000-01-01 00:00",
    "month-zero": lambda t: "2012-00-01 00:00",
    "month-13": lambda t: "2012-13-01 00:00",
    "day-zero": lambda t: "2012-01-00 00:00",
    "no-leap-2100": lambda t: "2100-02-29 00:00",
    "hour-24": lambda t: "2012-01-01 24:00",
    "minute-60": lambda t: "2012-01-01 00:60",
}
DAY_FIRST_SPELLINGS = {
    # strptime accepts these two; no datetime64 conversion reads the pattern
    "day-first": lambda t: t.strftime("%d/%m/%Y %H:%M"),
    "unpadded": lambda t: f"{t.day}/{t.month}/{t.year} {t.hour}:{t.minute}",
    # faults
    "iso": lambda t: t.strftime("%Y-%m-%d %H:%M"),
    "seconds": lambda t: t.strftime("%d/%m/%Y %H:%M:%S"),
    "padded": lambda t: t.strftime(" %d/%m/%Y %H:%M"),
    "bare-date": lambda t: t.strftime("%d/%m/%Y"),
    "no-such-day": lambda t: "30/02/2012 00:00",
    "pre-origin": lambda t: "31/12/2011 23:30",
}
INDEX_SPELLINGS = {
    "plain": str, "padded": lambda z: f" {z}", "signed": lambda z: f"+{z}",
    "underscored": lambda z: f"{z:_}", "negative": lambda z: f"-{z + 1}",
    "word": lambda z: "over", "arabic-indic": lambda z: "".join(chr(0x660 + int(c)) for c in str(z)),
    "above-int64": lambda z: str(2**63 + z),
}
CELLS = ["0.5", "1.25", "", "nan", " 0.75", "1_000", "inf", "-inf", "1e999", "abc", " "]


FORMATS = {
    "strptime": (SCHEMA, STAMP_SPELLINGS),
    "index": (IngestionSchema("timestamp", "index", key_columns=("customer",),
                              measurement_columns=("kwh",)), INDEX_SPELLINGS),
    "day-first": (IngestionSchema("timestamp", "%d/%m/%Y %H:%M", "01/01/2012 00:00", "30m",
                                  ("customer",), ("kwh",)), DAY_FIRST_SPELLINGS),
}


@st.composite
def meter_files(draw, spellings, by_index):
    """Lines of a half-hourly meter file: mostly sound rows, some perturbed ones."""
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


def oracle_outcome(lines, schema):
    """What ``ingest_oracle`` gives, in the form of ``outcome``."""
    expected = ingest_oracle(lines, schema)
    return (*expected[:3], nan_as_none(expected[3])) if len(expected) == 4 else expected


class TestIngestMatchesOracle:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("differential") / "meter.csv"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("form", FORMATS)
    def test_same_table_or_error(self, gregorian, path, form, data):
        schema, spellings = FORMATS[form]
        lines = data.draw(meter_files(spellings, schema.timestamp_format == "index"))
        expected = ingest_oracle(lines, schema)
        if len(expected) == 4:
            expected = (*expected[:3], nan_as_none(expected[3]))
        text = "\n".join(lines) + "\n"
        path.write_text(text, encoding="utf-8", newline="")
        assert outcome(io.StringIO(text), schema, gregorian.hierarchy) == expected
        assert outcome(path, schema, gregorian.hierarchy) == expected


KEY_TEXT = st.sampled_from(["c", "naïve", "日曜日", " lead", "a\x00b", ""])
QUOTED = ['"a,b"', '"line\nbreak"', '"say ""hi"""', '"cr\r\nlf"', '"x"y', '"5"']


@st.composite
def block_texts(draw):
    """A header and delimited text: mostly plain lines, some that only csv reads."""
    header = draw(st.sampled_from([["over"], ["over", "ball", "runs"]]))
    if len(header) > 1:
        header = draw(st.permutations([*header, "note"]))
    lines = [",".join(header)]
    for i in range(draw(st.integers(0, 30))):
        fields = {"over": str(i // 2), "ball": draw(KEY_TEXT) + str(i % 2),
                  "runs": draw(st.sampled_from(["1", "2.5", "", "nan", "x"])),
                  "note": draw(KEY_TEXT)}
        shape = draw(st.sampled_from(["plain"] * 12 + ["quoted", "short", "long", "blank",
                                                        "oversize"]))
        row = [fields[c] for c in header]
        if shape == "quoted":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(QUOTED))
        elif shape == "short":
            row = row[: draw(st.integers(0, len(row) - 1))]
        elif shape == "long":
            row.append("extra")
        elif shape == "oversize":  # over the limit the test sets
            row[-1] += "x" * 41
        lines.append("" if shape == "blank" else ",".join(row))
    ends = [draw(st.sampled_from(["\n"] * 10 + ["\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):  # no final line end
        text = text[: -len(ends[-1])]
    return header, text


def block_schema(header):
    return IngestionSchema("over", "index", key_columns=("ball",) if "ball" in header else (),
                           measurement_columns=("runs",) if "runs" in header else ())


class TestIngestInBlocks:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("blocks") / "overs.csv"

    @settings(max_examples=300, deadline=None)
    @given(drawn=block_texts(), block=st.sampled_from([8, 16, 24, 48, 1 << 16]))
    @example(drawn=(["over"], "over\n1\n\n2\n"), block=16)  # a blank line is not one field
    def test_same_table_or_error(self, gregorian, path, drawn, block):
        header, text = drawn
        schema = block_schema(header)
        path.write_text(text, encoding="utf-8", newline="")
        limit = csv.field_size_limit(40)  # below the oversize rows
        try:
            expected = oracle_outcome(io.StringIO(text, newline=""), schema)
            with mock.patch.object(table, "TEXT_BLOCK", block):
                assert outcome(path, schema, gregorian.hierarchy) == expected
                source = io.StringIO(text, newline="")
                assert outcome(source, schema, gregorian.hierarchy) == expected
                # a handle that ends lines at "\n" only is read on by csv as it splits them
                assert outcome(io.StringIO(text), schema, gregorian.hierarchy) == oracle_outcome(
                    io.StringIO(text), schema)
        finally:
            csv.field_size_limit(limit)

    def test_text_file_after_next_is_read_by_csv(self, gregorian, tmp_path):
        # such a file cannot tell its position, so it is read as an iterable of lines
        path = tmp_path / "overs.csv"
        path.write_text("# preamble\nover,ball\n1,b\n2,b\n", encoding="utf-8")
        schema = block_schema(["over", "ball"])
        with open(path, encoding="utf-8", newline="") as handle:
            next(handle)
            with pytest.raises(OSError):
                handle.tell()
            assert ingest(handle, schema, gregorian.hierarchy).index.tolist() == [1, 2]

    @pytest.mark.parametrize("late, kind", [
        ('30,b,1,"a,b"', "duplicate-row"), ("30,b", "short-row"), ("", "short-row"),
    ], ids=["quoted", "short", "blank"])
    def test_rows_after_hand_over_numbered_on(self, gregorian, tmp_path, late, kind):
        # blocks of plain rows are split, then csv reads on from the block with row 32
        lines = ["over,ball,runs,note", *(f"{i},b,1,n" for i in range(40))]
        lines[31] = late
        lines[36] = "30,b,1,n"  # row 37, a duplicate of row 32 if that is whole
        path = tmp_path / "overs.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        plain = []
        split = table._plain_fields

        def spy(*args):
            fields = split(*args)
            plain.append(fields is not None)
            return fields

        schema = block_schema(lines[0].split(","))
        with mock.patch.object(table, "TEXT_BLOCK", 64), mock.patch.object(
                table, "_plain_fields", spy):
            got = outcome(path, schema, gregorian.hierarchy)
        assert plain[:2] == [True, True] and False in plain
        assert got == oracle_outcome(io.StringIO(path.read_text(encoding="utf-8"), newline=""),
                                     schema)
        assert got[0] == kind
        assert got[1].startswith("row 37:" if kind == "duplicate-row" else "row 32:")

    @pytest.mark.parametrize("block", [7, 64, 1 << 16])
    def test_crlf_rows_are_split(self, gregorian, tmp_path, block):
        # blocks of 7 end between "\r" and "\n"; csv reads no row of the file
        lines = ["over,ball,runs,note", *(f"{i},b,{i % 7},n" for i in range(40))]
        path = tmp_path / "overs.csv"
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        read = []
        fields = table._read_fields

        def spy(reader, positions, width, rows, first):
            short = fields(reader, positions, width, rows, first)
            read.append(len(rows))
            return short

        schema = block_schema(lines[0].split(","))
        with mock.patch.object(table, "TEXT_BLOCK", block), mock.patch.object(
                table, "_read_fields", spy):
            got = outcome(path, schema, gregorian.hierarchy)
        assert read == [0]
        assert got == oracle_outcome(io.StringIO("\n".join(lines) + "\n"), schema)
        assert got[0] == list(range(40))

    @pytest.mark.parametrize("second", ["hand-over", "re-read"])
    def test_duplicate_found_across_read_paths(self, gregorian, tmp_path, second):
        # row 3 is split from a plain block; csv reads row 401, its duplicate, on from the
        # block of the quoted row 301, or on from the block that fails to decode, where the
        # text of row 951 is not UTF-8
        lines = ["over,ball,runs,note", *(f"{i},b{i % 3},1,n" for i in range(1000))]
        lines[400] = lines[2]
        if second == "hand-over":
            lines[300] = '299,b2,1,"a,b"'
        data = ("\n".join(lines) + "\n").encode()
        if second == "re-read":
            data = data.replace(b"\n949,b1,", b"\n949,b\xff,")
        path = tmp_path / "overs.csv"
        path.write_bytes(data)
        plain, first = [], []
        split, fields = table._plain_fields, table._read_fields

        def split_spy(*args):
            got = split(*args)
            plain.append(got is not None)
            return got

        def read_spy(reader, positions, width, rows, start):
            first.append(start)
            return fields(reader, positions, width, rows, start)

        with mock.patch.object(table, "TEXT_BLOCK", 64), mock.patch.object(
                table, "_plain_fields", split_spy), mock.patch.object(table, "_read_fields", read_spy):
            got = outcome(path, block_schema(lines[0].split(",")), gregorian.hierarchy)
        # csv reads on from the start of the block holding row 301, or of the block that
        # fails to decode: a chunk decoded ahead of the characters read may hold row 951
        assert plain[0] and (3 < first[0] <= 301 if second == "hand-over" else 3 < first[0] <= 951)
        assert got == ("duplicate-row", "row 401: duplicate keys/index ('b1', 1)")


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


NAMES = st.text(max_size=4) | st.sampled_from(
    [",", ";", '"', "\r", "\n", "a\r\nb", " lead", "", "naïve", "日曜日", "tab\t", "x|y", "0",
     "-1.5e+20", "nan", "\x00"])
MEASUREMENTS = st.floats(allow_infinity=False) | st.sampled_from(
    [math.nan, -0.0, 1e-20, 1e300, 5e-324, 1e-310])
CYCLIC = st.integers(0, 40) | st.integers(2**16, 2**40)
INDEXES = st.integers(0, 2**63 - 1) | st.sampled_from([0, 1, 2**63 - 2, 2**63 - 1])
EXPORT_DELIMITERS = st.sampled_from([",", ";", "\t", "|", "0", "1", ".", "-", "e", "n"])


@st.composite
def granular_tables(draw):
    """Tables with text, index, measurement and cyclic columns of every kind csv quotes."""
    n = draw(st.integers(0, 12))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    return GranularTable(
        index=np.array(column(INDEXES), dtype=np.int64),
        timestamps=tuple(column(NAMES)),
        timestamp_column=draw(NAMES),
        keys={draw(NAMES): tuple(column(NAMES)) for _ in range(draw(st.integers(0, 2)))},
        measurements={draw(NAMES): np.array(column(MEASUREMENTS), dtype=np.float64)
                      for _ in range(draw(st.integers(0, 2)))},
        cyclic={draw(NAMES): (None, np.array(column(CYCLIC), dtype=np.int64))
                for _ in range(draw(st.integers(0, 3)))},
    )


class TestExportMatchesOracle:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        where = tmp_path_factory.mktemp("export")
        return where / "got.csv", where / "want.csv"

    @settings(max_examples=300, deadline=None)
    @given(t=granular_tables(), delimiter=EXPORT_DELIMITERS,
           block=st.sampled_from([8, 64, 1 << 16]))
    def test_same_bytes_as_row_by_row_csv_writer(self, paths, t, delimiter, block):
        got, want = io.StringIO(), io.StringIO()
        export_table_oracle(t, want, delimiter)
        with mock.patch.object(table, "TEXT_BLOCK", block):
            export_table(t, got, delimiter)
            export_table(t, paths[0], delimiter)
        assert got.getvalue() == want.getvalue()
        with open(paths[1], "w", encoding="utf-8", newline="") as handle:
            export_table_oracle(t, handle, delimiter)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_export_writes_signed_zeros_apart():
    # -0.0 and 0.0 are equal as values but not as bit patterns
    t = GranularTable(index=np.arange(3, dtype=np.int64), timestamps=("a", "b", "c"),
                      timestamp_column="z", measurements={"v": np.array([-0.0, 0.0, -0.0])})
    buf = io.StringIO()
    export_table(t, buf)
    assert buf.getvalue() == "z,index,v\na,0,-0\nb,1,0\nc,2,-0\n"


def test_export_memory_does_not_grow_with_rows(tmp_path):
    # several blocks of rows at 1x; the text is made a block at a time, so 4x peaks no higher
    def meter(n):
        rng = np.random.default_rng(7)
        return GranularTable(
            index=np.arange(n, dtype=np.int64) * 3,
            timestamps=tuple(f"2012-01-01 {i:08d}" for i in range(n)),
            timestamp_column="timestamp", keys={"customer": ("c1", "c2") * (n // 2)},
            measurements={"kwh": rng.random(n).round(3)},
            cyclic={"hour_day": (None, np.arange(n, dtype=np.int64) % 24)},
        )
    small, large = meter(20_000), meter(80_000)
    peaks = [traced_peak(lambda: export_table(t, tmp_path / "t.csv")) for t in (small, large)]
    assert peaks[1] < 1.5 * peaks[0]


def test_ingest_memory_holds_the_kept_columns(tmp_path):
    # seven columns, three kept: 21,600 rows, the cricket fixture three times over. The
    # row-by-row csv reader peaked at 4,722,049 bytes on it (CPython 3.11); splitting
    # blocks holds only the kept fields and one block
    path = tmp_path / "cricket.csv"
    write_cricket_csv(path, match_counts=(6, 8, 7, 9) * 3)
    schema = IngestionSchema("over_index", "index", key_columns=("ball",),
                             measurement_columns=("runs",))
    hierarchy = cricket_calendar().hierarchy
    assert len(ingest(path, schema, hierarchy)) == 21_600  # and the first call's imports are made
    assert traced_peak(lambda: ingest(path, schema, hierarchy)) <= 4_722_049


def test_ingest_memory_holds_the_kept_values(gregorian, tmp_path):
    # 17,568 half-hour rows of one customer. Holding every field as a string until the
    # file was read, with NumPy copies of the stamps, peaked at 4.98 MB (CPython 3.11)
    path = tmp_path / "smart.csv"
    write_smart_meter_csv(path, customers=1, days=366, seed=1)
    t = ingest(path, SCHEMA, gregorian.hierarchy)
    assert len(t) == 17_568
    assert len({id(k) for k in t.keys["customer"]}) == 1
    assert traced_peak(lambda: ingest(path, SCHEMA, gregorian.hierarchy)) <= 4_300_000


def test_ingest_keeps_compact_columns(gregorian, tmp_path):
    # 17,568 half-hour rows of one customer. A string per stamp and a pointer per key kept
    # 97.3 bytes a row (CPython 3.11); the stamps as one string and the key as int32 codes
    # keep the index, the kwh values, the stamp text with its offsets and the codes
    path = tmp_path / "smart.csv"
    write_smart_meter_csv(path, customers=1, days=366, seed=1)
    ingest(path, SCHEMA, gregorian.hierarchy)  # the first call's imports and caches are made
    tracemalloc.start()
    try:
        t = ingest(path, SCHEMA, gregorian.hierarchy)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(t) == 17_568
    assert t.keys["customer"] == ("c1",) * 17_568
    assert kept <= 50 * len(t)


DIGIT_FORMS = ["0123456789", "".join(map(chr, range(0x660, 0x66A))),
               "".join(map(chr, range(0xFF10, 0xFF1A)))]  # ASCII, Arabic-Indic, full-width
STAMP_PADS = ["", " ", "\n", "\r", "\r\n", "\t", "\u3000"]  # whitespace that int strips
KEY_PARTS = ["", "c", "naïve", "日曜日", ",", ";", "\t", '"', "\n", "\r", "\r\n", "\ufeff", " "]


@st.composite
def round_trip_files(draw):
    """A delimiter and the text of an ``index`` file whose stamps and keys hold what csv quotes.

    Most rows are plain, so blocks are split before csv reads on from a quoted field.
    """
    d = draw(st.sampled_from([",", ";", "\t"]))
    header = draw(st.permutations(["over", "ball", "runs", "note"]))
    rows = []
    for i in range(draw(st.integers(0, 40))):
        odd = draw(st.integers(0, 5)) == 0
        pads, parts = (STAMP_PADS, KEY_PARTS) if odd else (STAMP_PADS[:2], KEY_PARTS[:4])
        digits = draw(st.sampled_from(DIGIT_FORMS))
        number = "".join(digits[int(c)] for c in str(i).zfill(draw(st.integers(1, 4))))
        stamp = draw(st.sampled_from(pads)) + number + draw(st.sampled_from(pads))
        key = "".join(draw(st.lists(st.sampled_from(parts), max_size=3)))
        fields = {"over": stamp, "ball": key, "runs": str(i % 7), "note": draw(st.sampled_from(parts))}
        rows.append([fields[c] for c in header])
    if rows and draw(st.integers(0, 4)) == 0:  # a stamp that is no longer an index
        rows[draw(st.integers(0, len(rows) - 1))][header.index("over")] += draw(
            st.sampled_from([d, '"', "\ufeff"]))
    text = io.StringIO()
    write_csv_oracle(text, header, rows, d)
    return d, text.getvalue()


@settings(max_examples=100, deadline=None)
@given(drawn=round_trip_files(), bom=st.booleans(), block=st.sampled_from([16, 64, 1 << 16]))
def test_export_reads_back_the_ingested_stamps_and_keys(gregorian, drawn, bom, block):
    d, text = drawn
    schema = IngestionSchema("over", "index", key_columns=("ball",), measurement_columns=("runs",),
                             delimiter=d)
    expected = ingest_oracle(io.StringIO(text, newline=""), schema)  # which reads no mark
    with mock.patch.object(table, "TEXT_BLOCK", block):
        try:
            t = ingest(io.StringIO("\ufeff" * bom + text, newline=""), schema, gregorian.hierarchy)
        except DataError as err:
            assert (err.kind, err.message) == expected
            return
        out = io.StringIO()
        export_table(t, out, d)
    header, *rows = csv.reader(io.StringIO(out.getvalue(), newline=""), delimiter=d)
    assert header == ["over", "ball", "index", "runs"]
    assert [row[:2] for row in rows] == [list(pair) for pair in zip(expected[1], expected[2]["ball"])]


def test_byte_order_mark_is_not_part_of_the_header(gregorian):
    rows = ["2012-01-01 00:00,c1,0.5", "2012-01-01 00:30,c1,"]
    text = make_csv(rows).getvalue()
    expected = outcome(io.StringIO(text), SCHEMA, gregorian.hierarchy)
    assert outcome(io.StringIO("\ufeff" + text), SCHEMA, gregorian.hierarchy) == expected
    # one mark is dropped, from the header only
    with pytest.raises(DataError) as err:
        ingest(io.StringIO("\ufeff\ufeff" + text), SCHEMA, gregorian.hierarchy)
    assert err.value.kind == "unknown-column"
    with pytest.raises(DataError) as err:
        ingest(make_csv(["\ufeff" + row for row in rows]), SCHEMA, gregorian.hierarchy)
    assert err.value.message == "row 2: '\\ufeff2012-01-01 00:00' does not match '%Y-%m-%d %H:%M'"


ISO_FORMATS = ["%Y-%m-%d", "%Y-%m-%d %H", "%Y-%m-%d %H:%M", "%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M"]


@st.composite
def iso_stamps(draw, fmt):
    """A stamp in ``fmt``'s fixed-width form, with fields drawn past their ranges."""
    year = draw(st.one_of(st.sampled_from([1, 1900, 2000, 2100, 2400, 9999]), st.integers(0, 9999)))
    stamp = fmt.replace("%Y", f"{year:04d}")
    for code, high in (("%m", 13), ("%d", 32), ("%H", 24), ("%M", 60), ("%S", 60)):
        stamp = stamp.replace(code, f"{draw(st.integers(0, high)):02d}")
    return stamp


def strptime_offsets(stamps, fmt, origin, step):
    try:
        return [(datetime.strptime(s, fmt) - origin) // step for s in stamps]
    except ValueError:
        return None


@pytest.mark.parametrize("fmt", ISO_FORMATS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_iso_offsets_match_strptime(fmt, data):
    stamps = tuple(data.draw(st.lists(iso_stamps(fmt), min_size=1, max_size=6)))
    origin = data.draw(st.sampled_from([datetime(2012, 1, 1), datetime(1, 1, 1),
                                        datetime(2000, 2, 29, 13, 45, 30)]))
    step = data.draw(st.sampled_from([timedelta(seconds=1), timedelta(minutes=30),
                                      timedelta(hours=1), timedelta(days=1), timedelta(days=7)]))
    expected = strptime_offsets(stamps, fmt, origin, step)
    got = table._iso_offsets(table._Joined.of(stamps), fmt, origin, step)
    assert (None if got is None else got.tolist()) == expected


@pytest.mark.parametrize("delimiter", [";;", ""])
def test_bad_delimiter_rejected(gregorian, tmp_path, delimiter):
    with pytest.raises(ValidationError) as err:
        IngestionSchema("timestamp", "index", delimiter=delimiter)
    assert (err.value.kind, err.value.message) == (
        "bad-delimiter", f"delimiter {delimiter!r} is not one character")
    # a writer rejects it before it opens, so an existing file keeps its bytes
    t = ingest(make_csv(["2012-01-01 00:00,c1,0.5"]), SCHEMA, gregorian.hierarchy)
    out = tmp_path / "table.csv"
    out.write_text("kept\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        export_table(t, out, delimiter=delimiter)
    assert err.value.kind == "bad-delimiter"
    assert out.read_text(encoding="utf-8") == "kept\n"
