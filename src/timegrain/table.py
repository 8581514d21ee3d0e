"""Indexed observational tables augmented with cyclic granularity columns.

A table holds an integer index column (bottom granules from the declared
origin), its stamps' text, optional key columns defining observational units
(both kept compactly by ``ingest``), numeric measurement columns, and computed
cyclic columns. Cyclic columns are caches: their values always equal
re-evaluation of their descriptor at the row's index.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from itertools import chain, count, islice, takewhile
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

# characters of text read and split at a time by ``ingest``; ``write_csv``
# makes an eighth as many fields at a time
TEXT_BLOCK = 1 << 16


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
    ``index`` when the timestamp column already holds bottom-granule
    indexes in [0, 2**63) (then ``origin``/``bottom_duration`` are unused).
    ``ingest`` reads ``index`` cells by ``int``; stamps in the ISO 8601
    patterns ``%Y-%m-%d``, ``%Y-%m-%d %H``, ``%Y-%m-%d %H:%M`` and
    ``%Y-%m-%d %H:%M:%S`` (or ``T`` for the space) from their ASCII digits
    if all have its fixed-width form with fields in range, else by
    ``strptime``; every other check is shared. ``delimiter`` is one
    character; with an ASCII one other than ``"`` and line ends, quote-free
    text is split a block at a time (see ``ingest``).
    """

    timestamp_column: str
    timestamp_format: str
    origin: str = ""
    bottom_duration: str = ""
    key_columns: tuple[str, ...] = ()
    measurement_columns: tuple[str, ...] = ()
    delimiter: str = ","

    def __post_init__(self) -> None:
        check_delimiter(self.delimiter)


def check_delimiter(delimiter: str) -> None:
    """Reject a field delimiter that is not one character, which ``csv`` cannot use."""
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ValidationError("bad-delimiter", f"delimiter {delimiter!r} is not one character")


@dataclass(frozen=True)
class GranularTable:
    """Immutable column store; augment() returns a new table.

    ``timestamps`` and each of ``keys`` is a sequence of text; ``ingest`` gives
    the stamps as one ``_Joined`` string, a key as ``Labelled`` int32 codes into
    its values in first-seen order. ``cyclic`` maps a column name to the
    descriptor it was made from and its values. Screens (``cross_tab``,
    ``harmony_table``) read a column in place of evaluating a descriptor when
    the stored descriptor equals it, and evaluate one whose name another holds.
    """

    index: np.ndarray
    timestamps: Sequence[str]
    timestamp_column: str
    keys: dict[str, Sequence[str]] = field(default_factory=dict)
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
    origin; the stamps are kept as one string, the keys as int32 codes (see
    ``GranularTable``). One leading U+FEFF (a byte order mark) is dropped
    from the header's first name, for paths and handles alike. A path that
    cannot be opened (a directory, say), or a file that is not UTF-8, is
    rejected as a whole; an ``origin`` that ``timestamp_format`` cannot read
    is a ``ValidationError``. A row that ``csv`` cannot read (a field over
    ``csv.field_size_limit()``) is a row fault like the others below,
    ``unreadable-row``.

    The needed fields are read in one pass and checked a column at a time,
    in the order a row is checked: its timestamp (unparseable, before the
    origin, or an index of 2**63 or more), its keys (missing from a short
    row or a blank line), its (keys, index) pair (an earlier row's), then
    each measurement (missing, or not a number; blank cells and ``nan``
    are missing values). Each check looks only at the rows before the first
    fault found so far, so the error raised is the first faulty row's, in
    file order, with its line number. Infinite measurements are rejected
    last, column by column. A header that lacks a schema column, or names
    one twice, is rejected before any row is read.

    A text file that can seek (a path is opened into one; ``io.StringIO``
    too) is read ``TEXT_BLOCK`` characters at a time, completed to whole
    lines. A block is plain when it holds no ``"`` and no ``\\r`` but in
    ``\\r\\n``, each of its lines has the header's number of fields, and no
    field is longer than ``csv.field_size_limit()``; a plain block is split
    at the delimiter and line ends, which reads it as ``csv`` does, and
    kept as it is split (see ``_keep``). From the start of the first block
    that is not plain or does not decode, ``csv.reader`` reads the rest of
    the file, numbering rows on from the split ones (so it meets bad text
    after the rows before it). Any other iterable of lines, and a delimiter
    that is ``"``, a line end or not ASCII, are read by ``csv.reader``
    throughout.
    """
    if isinstance(source, (str, Path)):
        try:
            handle: Iterable[str] = open(source, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise DataError("unreadable-file", f"cannot read {source}: {exc.strerror}") from None
        close = True
    else:
        handle, close = source, False
    d = schema.delimiter
    start = None  # where a handle read in blocks starts; None if csv reads it all
    if d.isascii() and d not in '"\r\n' and isinstance(handle, io.IOBase) and handle.seekable():
        try:
            start = handle.tell()
        except OSError:  # a text file after ``next`` cannot tell
            pass
    names = (schema.timestamp_column, *schema.key_columns, *schema.measurement_columns)
    split: list[list] = [[] for _ in names]
    codes = [defaultdict(count().__next__) for _ in schema.key_columns]  # 0, 1, … as first seen
    rows: list[tuple[str, ...]] = []
    origin = step = short = fault = None
    try:
        # ``readline`` keeps a text file able to tell, which ``next`` stops
        reader = csv.reader(handle if start is None else iter(handle.readline, ""), delimiter=d)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty-file", "source has no header row") from None
        except csv.Error as exc:
            raise DataError("unreadable-row", f"row 1: {exc}") from None
        header[:1] = [name.removeprefix("\ufeff") for name in header[:1]]
        for col in names:
            if col not in header:
                raise DataError("unknown-column", f"column {col!r} missing from header")
            if header.count(col) > 1:
                raise DataError("ambiguous-column",
                                f"column {col!r} appears {header.count(col)} times in header")

        if schema.timestamp_format != "index":
            if not schema.origin or not schema.bottom_duration:
                raise ValidationError(
                    "bad-schema", "timestamp ingestion needs both origin and bottom_duration"
                )
            try:
                origin = datetime.strptime(schema.origin, schema.timestamp_format)
            except ValueError:
                raise ValidationError(
                    "bad-schema",
                    f"origin {schema.origin!r} does not match timestamp_format "
                    f"{schema.timestamp_format!r}",
                ) from None
            step = parse_duration(schema.bottom_duration)
        positions, width = [header.index(c) for c in names], len(header)
        if start is not None:
            _read_blocks(handle, d, positions, width, split, codes)
            reader = csv.reader(handle, delimiter=d)
        short = _read_fields(reader, positions, width, rows, 2 + len(split[0]))
    except UnicodeDecodeError as exc:
        # decoded in blocks ahead of the rows, so no row number is known; the rows
        # read before the bad block are checked first
        fault = DataError("bad-encoding", f"{source} is not UTF-8 text: {exc.reason}")
    finally:
        if close:
            handle.close()

    _keep(split, codes, list(zip(*rows)))
    del rows
    if short:  # the short row's fields, up to the first it lacks, end their columns
        fields, fault = short
        _keep(split, codes, [[f] for f in fields])
    stamps, zs, keys, values = _checked(split, codes, fault, schema, origin, step)
    measurements = dict(zip(schema.measurement_columns, values))
    for m, values in measurements.items():
        # nan stays "missing"; an infinity has no quantile and no JSON form
        bad = np.flatnonzero(np.isinf(values))
        if len(bad):
            raise DataError(
                "non-finite-measurement",
                f"row {bad[0] + 2}: {m} value {values[bad[0]]} is not finite",
            )
    return GranularTable(
        index=zs,
        timestamps=stamps,
        timestamp_column=schema.timestamp_column,
        keys=dict(zip(schema.key_columns, keys)),
        measurements=measurements,
    )


def _read_blocks(handle, d: str, positions: list[int], width: int, *kept: list):
    """``_keep`` in ``kept`` the fields at ``positions`` of the rows of ``handle``'s plain blocks.

    A block is ``TEXT_BLOCK`` characters completed to whole lines. Reading
    stops at the end, or at the first block that is not plain or does not
    decode, with ``handle`` put back at that block's start.
    """
    limit, at = csv.field_size_limit(), handle.tell()
    while True:
        try:
            block = handle.read(TEXT_BLOCK) + handle.readline()
        except UnicodeDecodeError:  # left to csv, which meets it after the rows before it
            block = None
        fields = _plain_fields(block, d, positions, width, limit) if block else None
        if fields is None:
            handle.seek(at)
            return
        _keep(*kept, fields)
        at = handle.tell()


def _keep(columns: list[list], codes: list[defaultdict], cells: list) -> None:
    """Extend ``columns`` (stamps, keys, measurements) by ``cells``, a sequence of fields a column.

    Keys are kept as int32 arrays of ``codes``' code for each value; a measurement as float64
    arrays (nan for a blank field) up to its first field ``float`` rejects, then that field's
    text, for ``_checked`` to name the row; the column is not extended after it.
    """
    k = 1 + len(codes)
    for col, new in zip(columns[:1], cells):
        col.extend(new)
    for col, new, code in zip(columns[1:k], cells[1:k], codes):
        col.append(np.fromiter(map(code.__getitem__, new), dtype=np.int32, count=len(new)))
    for col, new in zip(columns[k:], cells[k:]):
        if col and isinstance(col[-1], str):
            continue
        values, bad = _convert(float, new, blank=math.nan)
        col.append(np.array(values, dtype=np.float64))
        if bad is not None:
            col.append(new[bad])


def _plain_fields(block: str, d: str, positions: list[int], width: int,
                  limit: int) -> list[list[str]] | None:
    """The fields at ``positions`` of ``block``'s lines, a list a position, or None unless plain.

    Plain: no ``"``, no ``\\r`` but in ``\\r\\n`` (a line end, to ``csv``), and
    ``width`` fields on every line (so no blank line), none longer than
    ``limit``. ``csv`` then reads the lines as ``split`` does. Checked and cut
    on the UTF-8 bytes, where ``\\n`` and the ASCII ``d`` never occur inside a character.
    """
    if "\r" in block:  # replace scans the whole block even when nothing matches
        block = block.replace("\r\n", "\n")
    if '"' in block or "\r" in block:
        return None
    if not block.endswith("\n"):  # the file's last line
        block += "\n"
    raw = np.frombuffer(block.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    seps = np.flatnonzero((raw == ord(d)) | (raw == ord("\n")))
    if len(seps) % width:
        return None
    ends = (raw[seps] == ord("\n")).reshape(-1, width)
    lengths = np.diff(seps, prepend=-1) - 1  # in bytes, at least the characters
    if (ends[:, :-1].any() or not ends[:, -1].all() or lengths.max() > limit
            or (width == 1 and not lengths.all())):
        return None
    kept = sorted(set(positions))
    if len(kept) < width:  # each kept field's bytes, with the separator after it
        keep = np.repeat(np.tile(np.isin(np.arange(width), kept), len(ends)), lengths + 1)
        block = raw[keep].tobytes().decode("utf-8", "surrogatepass")
    fields = block[:-1].replace("\n", d).split(d)
    return [fields[kept.index(p) :: len(kept)] for p in positions]


def _read_fields(reader, positions: list[int], width: int, rows: list, first: int):
    """Append the fields at ``positions`` of each row to ``rows``, in order.

    Reading stops at the first row too short for ``positions``, which is
    not appended: its fields up to the first one it lacks are returned
    with its error. Reading also stops at a row that ``csv`` cannot read
    (a field over ``csv.field_size_limit()``, say): no fields and its
    error are returned. None when every row is read. ``first`` is the
    row number of the first row read.
    """
    pick = itemgetter(*positions) if len(positions) > 1 else lambda row: (row[positions[0]],)
    append = rows.append
    try:
        for row in reader:
            append(pick(row))
    except IndexError:
        return tuple(row[p] for p in takewhile(len(row).__gt__, positions)), DataError(
            "short-row",
            f"row {first + len(rows)}: {len(row)} fields, fewer than the header's {width}",
        )
    except csv.Error as exc:
        return (), DataError("unreadable-row", f"row {first + len(rows)}: {exc}")


_INDEX_MAX = 2**63 - 1  # np.iinfo(np.int64).max


def _checked(columns: list[list], codes: list[dict], fault: DataError | None,
             schema: IngestionSchema, origin: datetime | None, step: timedelta | None):
    """The stamps, indexes, keys and measurements of ``columns``, or the first faulty row's error.

    ``columns`` hold the rows' fields in schema order, the keys and measurements as ``_keep``
    holds them with ``codes``; ``fault`` is the error of a short last row, whose missing
    fields leave their columns one short, or of undecodable text after the rows. Each stage
    checks only the rows before the first fault found so far.
    """
    stamps = columns[0]  # a short row's fields are a prefix in schema order: the longest column
    count, joined = len(stamps), _Joined.of(stamps)

    def flag(row, kind: str, message: str) -> None:
        nonlocal count, fault
        count, fault = int(row), DataError(kind, f"row {row + 2}: {message}")

    fmt = schema.timestamp_format
    if origin is None:
        try:
            zs = np.fromiter(map(int, stamps), dtype=np.int64, count=len(stamps))
        except (ValueError, OverflowError):  # a faulty row, flagged here or below
            values, bad = _convert(int, stamps)
            if bad is not None:
                flag(bad, "unparseable-timestamp", f"{stamps[bad]!r} is not an index")
            zs = np.array(values, dtype=object)
    else:
        stamps = columns[0] = joined  # the rows' strings are freed before their digits are read
        zs = _iso_offsets(stamps, fmt, origin, step)
        if zs is None:
            moments, bad = _convert(lambda s: datetime.strptime(s, fmt), stamps)
            if bad is not None:
                flag(bad, "unparseable-timestamp", f"{stamps[bad]!r} does not match {fmt!r}")
            zs = np.array([(t - origin) // step for t in moments], dtype=np.int64)
    out = np.flatnonzero((zs < 0) | (zs > _INDEX_MAX))
    if len(out):
        i, z = out[0], zs[out[0]]
        if z > _INDEX_MAX:
            flag(i, "row-index-overflow", f"index {z} exceeds {_INDEX_MAX}")
        elif origin is None:
            flag(i, "pre-origin", f"index {z} is negative")
        else:
            flag(i, "pre-origin", f"{stamps[i]!r} predates origin {schema.origin!r}")

    nkeys = len(codes)
    keys = [Labelled(np.concatenate([np.empty(0, np.int32), *col]), tuple(code))
            for col, code in zip(columns[1 : 1 + nkeys], codes)]
    count = min([count, *map(len, keys)])  # a short row's key column is short, its error pending
    zs = np.asarray(zs[:count], dtype=np.int64)
    dup = _first_duplicate([zs, *(k.codes[:count] for k in keys)])
    if dup is not None:
        fingerprint = (*(k[dup] for k in keys), int(zs[dup]))
        flag(dup, "duplicate-row", f"duplicate keys/index {fingerprint}")

    numbers = []
    for col in columns[1 + nkeys :]:
        arrays = [a for a in col if isinstance(a, np.ndarray)]
        values = np.concatenate([*arrays, []])
        count = min(count, len(values) + len(col) - len(arrays))  # and the rejected field's row
        if len(values) < count:
            flag(len(values), "unparseable-measurement", f"{col[-1].strip()!r} is not numeric")
        numbers.append(values)
    if fault:
        raise fault
    return joined, zs, keys, numbers


def _convert(convert, cells: Sequence[str], blank=None) -> tuple[list, int | None]:
    """``convert`` of each cell up to the first that raises ``ValueError``.

    Returns the results and that cell's position, or None when there is
    none. With ``blank``, an empty or whitespace cell gives ``blank``.
    """
    out, rest = [], iter(cells)
    while True:
        try:
            out.extend(map(convert, rest))  # keeps the results before the cell that raises
            return out, None
        except ValueError:
            if blank is None or cells[len(out)].strip():
                return out, len(out)
            out.append(blank)


# strptime patterns with a fixed-width ISO 8601 form, read from their digits
_ISO_PATTERN = re.compile(r"%Y-%m-%d(?:[ T]%H(?::%M(?::%S)?)?)?")
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])  # in a common year


def _iso_offsets(stamps: _Joined, fmt: str, origin: datetime, step: timedelta):
    """Bottom-granule offsets of ``stamps`` from their ASCII digits, or None.

    None, for strptime to name the row, unless ``fmt`` has a fixed-width ISO 8601 form and
    every stamp has it, with year 0001 on, month 1-12, a day of that month, hour below 24,
    minute and second below 60. Days are Dershowitz and Reingold's fixed-from-gregorian.
    """
    if not _ISO_PATTERN.fullmatch(fmt):
        return None
    template = re.sub(r"%[mdHMS]", "##", fmt.replace("%Y", "####")) + "\n"
    # the "\n" after each stamp falls in the last column only if all have the template's width
    text = stamps.text.encode("ascii", "replace")
    if len(text) != len(stamps) * len(template):
        return None
    codes = np.frombuffer(text, dtype=np.uint8).reshape(len(stamps), len(template))
    for j, ch in enumerate(template):
        ok = codes[:, j] - ord("0") <= 9 if ch == "#" else codes[:, j] == ord(ch)
        if not ok.all():
            return None
    fields = (sum((codes[:, j] - ord("0")).astype(np.int64) * 10 ** (run.end() - 1 - j)
                  for j in range(*run.span())) for run in re.finditer("#+", template))
    year, month, day = islice(fields, 3)  # int64 vectors, each made as it is read; then the clock
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    last = _MONTH_DAYS.take(month, mode="clip") + (leap & (month == 2))  # month checked next
    if ((year < 1) | (month < 1) | (month > 12) | (day < 1) | (day > last)).any():
        return None
    year -= 1
    day += (365 * year + year // 4 - year // 100 + year // 400 + (367 * month - 362) // 12
            + (month > 2) * (leap - 2) - origin.toordinal())
    seconds = day * 86400 - (origin.hour * 3600 + origin.minute * 60 + origin.second)
    del year, month, day, leap, last
    for value, unit, limit in zip(fields, (3600, 60, 1), (24, 60, 60)):
        if (value >= limit).any():
            return None
        seconds += value * unit
    return seconds // (step // timedelta(seconds=1))


def _first_duplicate(columns: list[np.ndarray]) -> int | None:
    """The first row, in file order, whose values in all ``columns`` an earlier row has, or None."""
    order = np.lexsort(columns)  # stable, so equal rows stay in file order
    same = np.logical_and.reduce([np.diff(c[order]) == 0 for c in columns])
    later = order[1:][same]  # each row after the first of its group
    return int(later.min()) if len(later) else None


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
def text_out(out):
    """``out`` for writing text: a path, opened here as UTF-8 and closed on exit, or an open handle."""
    own = isinstance(out, (str, Path))
    with open(out, "w", encoding="utf-8", newline="") if own else nullcontext(out) as handle:
        yield handle


def _csv_quoter(delimiter: str):
    """A function giving fields of a row of several, ``delimiter`` between, as ``csv.writer`` writes
    them: passed through it one by one only when a character that csv quotes occurs in them."""
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\r\n")  # so it quotes a lone "\r"

    def quote(field: str) -> str:
        if not field:  # csv quotes an empty field only when it is the whole row
            return field
        buf.seek(0)
        buf.truncate()
        writer.writerow((field,))
        return buf.getvalue()[:-2]

    def quoted(fields: Sequence[str]) -> Sequence[str]:
        joined = "".join(fields)
        if any(c in joined for c in (delimiter, '"', "\r", "\n")):
            return list(map(quote, fields))
        return fields

    return quoted


def _objects(items: Iterable) -> np.ndarray:
    """A 1-d object array of ``items`` (strings or numbers), for placing them by index."""
    return np.array(list(items), dtype=object)


def _distinct(col: np.ndarray) -> tuple[list[float], np.ndarray]:
    """The distinct floats of ``col`` by bit pattern, and the place of each entry's among them."""
    bits, inverse = np.unique(np.asarray(col, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    return bits.view(np.float64).tolist(), inverse


class _Rows:
    """A column of text rows: ``col[i]``, ``col[a:b]`` (a list), iteration and ``==`` a sequence."""

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (tuple, list, _Rows)) else NotImplemented


@dataclass(frozen=True, eq=False)
class Labelled(_Rows):
    """Text rows, row ``i`` being ``labels[codes[i]]`` for an int array ``codes``: a key, a csv column."""

    codes: np.ndarray
    labels: Sequence[str]

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        at = self.codes[i]
        return list(map(self.labels.__getitem__, at.tolist())) if isinstance(i, slice) else self.labels[at]


@dataclass(frozen=True, eq=False)
class _Joined(_Rows):
    """Text rows in one string, each followed by a ``\\n`` that a row may hold too: row ``i`` is
    ``text[starts[i] : starts[i + 1] - 1]``. A slice of rows that hold none is one ``split``."""

    text: str
    starts: np.ndarray  # int64, one more than the rows

    @classmethod
    def of(cls, rows: Sequence[str]) -> _Joined:
        starts = np.fromiter(map(len, chain([""], rows)), dtype=np.int64, count=len(rows) + 1)
        starts[1:] += 1  # each row's "\n"
        return cls("\n".join(chain(rows, [""])), np.cumsum(starts, out=starts))

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, i):
        rows = range(len(self))[i]  # an int, or a range for a slice
        if isinstance(rows, int):
            return self.text[self.starts[rows] : self.starts[rows + 1] - 1]
        if rows.step == 1 and rows:  # one split, unless a row of the slice holds a "\n"
            block = self.text[self.starts[rows.start] : self.starts[rows.stop] - 1]
            if block.count("\n") == len(rows) - 1:
                return block.split("\n")
        return [self[j] for j in rows]


def write_csv(out, header: Sequence[str], columns: Sequence, delimiter: str = ",") -> None:
    """Write ``header`` and the rows of ``columns`` to ``text_out(out)`` as ``csv.writer`` does.

    That is minimal quoting, ``delimiter`` between fields and ``\\n`` ending
    each row. A column is a sequence of text, an int array, a float array
    (``format(v, ".12g")``, blank for nan) or ``Labelled`` codes. The text
    is made a block of rows at a time, a column at a time: each distinct
    float of a block is formatted once, labels are looked up, and the fields
    of a block or a label set are quoted one by one only when a character
    that csv quotes occurs in them.
    """
    check_delimiter(delimiter)  # before ``out`` is opened
    quoted = _csv_quoter(delimiter)
    rows = len(columns[0])
    step = max(1, TEXT_BLOCK // 8 // len(columns))
    ends = [delimiter] * (len(columns) - 1) + ["\n"]
    row = [text for end in ends for text in (None, end)]  # each field, then the text after it
    texts = [_column_text(col, quoted, step) for col in columns]
    with text_out(out) as handle:
        handle.write(delimiter.join(quoted(header)) + "\n")
        for a in range(0, rows, step):
            block = row * min(step, rows - a)
            for j, text in enumerate(texts):
                block[2 * j :: len(row)] = text(a, a + step)
            handle.write("".join(block))


def export_table(t: GranularTable, out, delimiter: str = ",") -> None:
    """``write_csv`` of the timestamp, key, index, measurement and cyclic columns."""
    write_csv(out, [t.timestamp_column, *t.keys, "index", *t.measurements, *t.cyclic],
              [t.timestamps, *t.keys.values(), t.index, *t.measurements.values(),
               *(col for _, col in t.cyclic.values())], delimiter)


def _column_text(col, quoted, step: int):
    """A function of ``(start, stop)`` giving the csv fields of ``col``'s rows.

    An int array of values below ``step`` (a block's rows) and its length
    is labelled codes, with labels ``str(i)``.
    """
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        def text(a, b):
            values, inverse = _distinct(col[a:b])
            cells = quoted(["" if v != v else "%.12g" % v for v in values])  # format(v, ".12g")
            return _objects(cells)[inverse].tolist()
        return text
    if isinstance(col, np.ndarray):
        if not (len(col) and 0 <= col.min() and col.max() < min(step, len(col))):
            return lambda a, b: quoted(list(map(str, col[a:b].tolist())))
        col = Labelled(col, [str(c) for c in range(col.max() + 1)])
    if not isinstance(col, Labelled):
        return lambda a, b: quoted(col[a:b])
    codes, names = col.codes, _objects(quoted(col.labels))
    return lambda a, b: names[codes[a:b]].tolist()
