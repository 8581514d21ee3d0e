"""Indexed observational tables augmented with cyclic granularity columns.

A table holds an integer index column (bottom granules from the declared
origin), optional key columns defining observational units, one or more
numeric measurement columns, and any number of computed cyclic columns.
Cyclic columns are caches: their values always equal re-evaluation of
their descriptor at the row's index.
"""

from __future__ import annotations

import csv
import math
import re
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from itertools import takewhile
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .calfile import Calendar
from .cyclic import CyclicDescriptor, evaluate, pairwise_descriptor
from .errors import DataError, ValidationError
from .hierarchy import Hierarchy

_DURATION_UNITS = {
    "s": 1,
    "m": 60,
    "min": 60,
    "h": 3600,
    "d": 86400,
    "day": 86400,
    "w": 604800,
}


def parse_duration(text: str) -> timedelta:
    """Parse durations like ``30m``, ``1h``, ``1d`` into a timedelta."""
    text = text.strip().lower()
    for suffix in sorted(_DURATION_UNITS, key=len, reverse=True):
        if text.endswith(suffix):
            head = text[: -len(suffix)].strip()
            if head.isdigit() and int(head) > 0:
                return timedelta(seconds=int(head) * _DURATION_UNITS[suffix])
    raise ValidationError("bad-duration", f"cannot parse duration {text!r}")


@dataclass(frozen=True)
class IngestionSchema:
    """How to turn a delimited file into an indexed table.

    ``timestamp_format`` is a strptime pattern, or the special value
    ``index`` when the timestamp column already holds non-negative
    bottom-granule indexes (then ``origin``/``bottom_duration`` are unused).
    ``index`` and the ISO 8601 patterns ``%Y-%m-%d``, ``%Y-%m-%d %H``,
    ``%Y-%m-%d %H:%M`` and ``%Y-%m-%d %H:%M:%S`` (or with ``T`` for the
    space) are read column-wise by ``ingest``; other patterns row by row,
    with the same results and errors.
    """

    timestamp_column: str
    timestamp_format: str
    origin: str = ""
    bottom_duration: str = ""
    key_columns: tuple[str, ...] = ()
    measurement_columns: tuple[str, ...] = ()
    delimiter: str = ","


@dataclass(frozen=True)
class GranularTable:
    """Immutable column store; augment() returns a new table."""

    index: np.ndarray
    timestamps: tuple[str, ...]
    timestamp_column: str
    keys: dict[str, tuple[str, ...]] = field(default_factory=dict)
    measurements: dict[str, np.ndarray] = field(default_factory=dict)
    cyclic: dict[str, tuple[CyclicDescriptor, np.ndarray]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.index)

    def cyclic_column(self, name: str) -> np.ndarray:
        if name not in self.cyclic:
            raise ValidationError(
                "missing-column", f"cyclic column {name!r} not present; augment first"
            )
        return self.cyclic[name][1]

    def measurement(self, name: str) -> np.ndarray:
        if name not in self.measurements:
            raise ValidationError("unknown-measurement", f"no measurement column {name!r}")
        return self.measurements[name]


def ingest(
    source: str | Path | Iterable[str],
    schema: IngestionSchema,
    hierarchy: Hierarchy,
) -> GranularTable:
    """Read a delimited text stream into a GranularTable.

    Timestamps become bottom-granule indexes relative to the schema's
    origin; the original strings are retained as a presentation column.
    Rows are rejected (with their line number) on missing fields (blank
    lines included), unparseable timestamps, timestamps before the origin,
    duplicate (keys, index) pairs, or infinite measurements. Blank cells
    and ``nan`` are missing measurements. A path that cannot be opened
    (a directory, say), or a file that is not UTF-8, is rejected as a whole.

    The needed fields are read in one pass and checked a column at a
    time: ``index`` cells by ``int``, and timestamps in one of the ISO 8601
    patterns listed on ``IngestionSchema`` by one NumPy ``datetime64``
    conversion, once every cell has the pattern's fixed-width form. Other
    patterns, and any file with a row those checks flag, are read by a
    row-by-row loop. Both give the same table, and the loop raises the
    error of the first faulty row in file order.
    """
    if isinstance(source, (str, Path)):
        try:
            handle: Iterable[str] = open(source, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise DataError("unreadable-file", f"cannot read {source}: {exc.strerror}") from None
        close = True
    else:
        handle, close = source, False
    rows: list[tuple[str, ...]] = []
    origin = step = None
    try:
        reader = csv.reader(handle, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty-file", "source has no header row") from None
        names = (schema.timestamp_column, *schema.key_columns, *schema.measurement_columns)
        for col in names:
            if col not in header:
                raise DataError("unknown-column", f"column {col!r} missing from header")

        if schema.timestamp_format != "index":
            if not schema.origin or not schema.bottom_duration:
                raise ValidationError(
                    "bad-schema", "timestamp ingestion needs both origin and bottom_duration"
                )
            origin = datetime.strptime(schema.origin, schema.timestamp_format)
            step = parse_duration(schema.bottom_duration)
        fault = _read_fields(reader, [header.index(c) for c in names], len(header), rows)
    except UnicodeDecodeError as exc:
        # decoded in blocks ahead of the rows, so no row number is known; the rows
        # read before the bad block are checked first
        fault = DataError("bad-encoding", f"{source} is not UTF-8 text: {exc.reason}")
    finally:
        if close:
            handle.close()

    columns = None if fault else _ingest_columns(rows, schema, origin, step)
    if columns is None:
        try:
            columns = _ingest_rows(rows, schema, origin, step)
        except IndexError:  # only the fields of a short row run out
            raise fault from None
        if fault:
            raise fault
    stamps, zs, keys, numbers = columns

    measurements = {
        m: np.asarray(v, dtype=np.float64) for m, v in zip(schema.measurement_columns, numbers)
    }
    for m, values in measurements.items():
        # nan stays "missing"; an infinity has no quantile and no JSON form
        bad = np.flatnonzero(np.isinf(values))
        if len(bad):
            raise DataError(
                "non-finite-measurement",
                f"row {bad[0] + 2}: {m} value {values[bad[0]]} is not finite",
            )
    return GranularTable(
        index=np.asarray(zs, dtype=np.int64),
        timestamps=tuple(stamps),
        timestamp_column=schema.timestamp_column,
        keys={k: tuple(v) for k, v in zip(schema.key_columns, keys)},
        measurements=measurements,
    )


def _read_fields(reader, positions: list[int], width: int, rows: list) -> DataError | None:
    """Append the fields at ``positions`` of each row to ``rows``, in order.

    Reading stops at the first row too short for ``positions``: its fields
    up to the first one it lacks end ``rows``, and its error is returned,
    to be raised only when the rows before it are sound.
    """
    pick = itemgetter(*positions) if len(positions) > 1 else lambda row: (row[positions[0]],)
    append = rows.append
    try:
        for row in reader:
            append(pick(row))
    except IndexError:
        append(tuple(row[p] for p in takewhile(len(row).__gt__, positions)))
        return DataError(
            "short-row",
            f"row {len(rows) + 1}: {len(row)} fields, fewer than the header's {width}",
        )
    return None


# strptime patterns with a fixed-width ISO 8601 form, which NumPy reads to the same instant
_ISO_PATTERN = re.compile(r"%Y-%m-%d(?:[ T]%H(?::%M(?::%S)?)?)?")


def _ingest_columns(rows: list[tuple[str, ...]], schema: IngestionSchema, origin, step):
    """The columns of ``rows`` with whole-column checks, or None where the row loop must decide.

    None means a format without a column path, or a row that the row loop
    may reject or read differently.
    """
    if not rows:
        return None
    stamps, *rest = zip(*rows)
    nkeys = len(schema.key_columns)
    keys, cells = rest[:nkeys], rest[nkeys:]
    if origin is None:
        try:
            zs = np.array(list(map(int, stamps)), dtype=np.int64)
        except (ValueError, OverflowError):
            return None
    else:
        zs = _iso_offsets(stamps, schema.timestamp_format, origin, step)
    if zs is None or (zs < 0).any() or _has_duplicates(keys, zs):
        return None
    try:
        values = [np.array([float(c) if c else math.nan for c in col]) for col in cells]
    except ValueError:  # includes whitespace-only cells, which the row loop reads as missing
        return None
    return stamps, zs, keys, values


def _iso_offsets(stamps: tuple[str, ...], fmt: str, origin: datetime, step: timedelta):
    """Bottom-granule indexes of ``stamps`` by one ``datetime64`` conversion, or None.

    None unless ``fmt`` has a fixed-width ISO 8601 form and every stamp
    has exactly that form: NumPy also reads spellings that strptime
    rejects (``T`` for the space, seconds, bare dates, ``Z``, 5-digit
    years), and warns on some of them.
    """
    if not _ISO_PATTERN.fullmatch(fmt):
        return None
    template = re.sub(r"%[mdHMS]", "##", fmt.replace("%Y", "####"))
    text = np.array(stamps)
    if text.dtype.itemsize != 4 * len(template):
        return None
    codes = text.view(np.uint32).reshape(len(text), len(template))
    for j, ch in enumerate(template):
        ok = codes[:, j] - ord("0") <= 9 if ch == "#" else codes[:, j] == ord(ch)
        if not ok.all():
            return None
    try:
        moments = text.astype("datetime64[s]")
    except ValueError:  # a field out of range, such as 2012-02-30
        return None
    start = np.datetime64(origin, "s")
    return (moments - start) // np.timedelta64(int(step.total_seconds()), "s")


def _has_duplicates(keys: list[tuple[str, ...]], zs: np.ndarray) -> bool:
    """Whether two rows share their keys and index."""
    columns = [zs]
    for col in keys:
        codes = {v: i for i, v in enumerate(dict.fromkeys(col))}
        columns.append(np.fromiter(map(codes.__getitem__, col), dtype=np.int64, count=len(col)))
    order = np.lexsort(columns)
    same = np.ones(len(zs) - 1, dtype=bool)
    for c in columns:
        c = c[order]
        same &= c[1:] == c[:-1]
    return bool(same.any())


def _ingest_rows(rows: list[tuple[str, ...]], schema: IngestionSchema, origin, step):
    """The columns of ``rows``, read one row at a time; the first faulty row raises.

    Each row holds the timestamp, key and measurement fields in schema
    order; a short row's fields stop before the first it lacks, and
    reading past them raises ``IndexError``.
    """
    fmt = schema.timestamp_format
    key_at = range(1, 1 + len(schema.key_columns))
    cell_at = range(key_at.stop, key_at.stop + len(schema.measurement_columns))
    stamps: list[str] = []
    zs: list[int] = []
    keys: list[list[str]] = [[] for _ in key_at]
    values: list[list[float]] = [[] for _ in cell_at]
    seen: set[tuple] = set()
    for lineno, row in enumerate(rows, start=2):
        raw = row[0]
        if origin is None:
            try:
                z = int(raw)
            except ValueError:
                raise DataError(
                    "unparseable-timestamp", f"row {lineno}: {raw!r} is not an index"
                ) from None
            if z < 0:
                raise DataError("pre-origin", f"row {lineno}: index {z} is negative")
        else:
            try:
                ts = datetime.strptime(raw, fmt)
            except ValueError:
                raise DataError(
                    "unparseable-timestamp", f"row {lineno}: {raw!r} does not match {fmt!r}"
                ) from None
            if ts < origin:
                raise DataError(
                    "pre-origin", f"row {lineno}: {raw!r} predates origin {schema.origin!r}"
                )
            z = int((ts - origin) // step)
        fingerprint = tuple(row[i] for i in key_at) + (z,)
        if fingerprint in seen:
            raise DataError("duplicate-row", f"row {lineno}: duplicate keys/index {fingerprint}")
        seen.add(fingerprint)
        stamps.append(raw)
        zs.append(z)
        for col, i in zip(keys, key_at):
            col.append(row[i])
        for col, i in zip(values, cell_at):
            cell = row[i].strip()
            if not cell:
                col.append(math.nan)
                continue
            try:
                col.append(float(cell))
            except ValueError:
                raise DataError(
                    "unparseable-measurement", f"row {lineno}: {cell!r} is not numeric"
                ) from None
    return stamps, zs, keys, values


def enumerate_cyclic(
    h: Hierarchy,
    max_upper: str | None = None,
    rungs: Sequence[str] | None = None,
) -> list[CyclicDescriptor]:
    """All (lower, upper) descriptors over the considered rungs.

    Yields n(n-1)/2 descriptors for n considered rungs, in ladder order.
    """
    names = list(rungs) if rungs is not None else list(h.rung_names)
    positions = sorted(h.position(n) for n in names)
    if max_upper is not None:
        cap = h.position(max_upper)
        positions = [p for p in positions if p <= cap]
    out = []
    for i, lo in enumerate(positions):
        for hi in positions[i + 1 :]:
            out.append(pairwise_descriptor(h, h.rungs[lo].name, h.rungs[hi].name))
    return out


def augment(
    t: GranularTable,
    descriptors: Sequence[CyclicDescriptor],
    cal: Calendar,
) -> GranularTable:
    """Return a new table with one cyclic column per descriptor.

    Re-augmenting with an already-present descriptor recomputes that
    single column; rows are never reordered and existing columns are
    untouched.
    """
    cyclic = dict(t.cyclic)
    for d in descriptors:
        values = evaluate(cal.hierarchy, d, t.index, cal.events)
        cyclic[d.name] = (d, np.asarray(values, dtype=np.int64))
    return replace(t, cyclic=cyclic)


@contextmanager
def csv_writer(out, delimiter: str = ","):
    """A ``csv.writer`` on ``out``: a path, opened here and closed on exit, or an open handle."""
    own = isinstance(out, (str, Path))
    with open(out, "w", encoding="utf-8", newline="") if own else nullcontext(out) as handle:
        yield csv.writer(handle, delimiter=delimiter, lineterminator="\n")


def _format_measurement(v: float) -> str:
    if math.isnan(v):
        return ""
    return format(v, ".12g")


def export_table(t: GranularTable, out, delimiter: str = ",") -> None:
    """Write the table (including cyclic columns) as delimited text."""
    with csv_writer(out, delimiter) as writer:
        header = [t.timestamp_column, *t.keys, "index", *t.measurements, *t.cyclic]
        writer.writerow(header)
        columns = [
            t.timestamps,
            *t.keys.values(),
            t.index.tolist(),
            *([_format_measurement(v) for v in col.tolist()] for col in t.measurements.values()),
            *(col.tolist() for _, col in t.cyclic.values()),
        ]
        writer.writerows(zip(*columns))
