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
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
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
    and ``nan`` are missing measurements. A file that is not UTF-8 is
    rejected as a whole.
    """
    if isinstance(source, (str, Path)):
        handle: Iterable[str] = open(source, "r", encoding="utf-8", newline="")
        close = True
    else:
        handle, close = source, False
    try:
        reader = csv.reader(handle, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty-file", "source has no header row") from None
        positions: dict[str, int] = {}
        for col in (schema.timestamp_column, *schema.key_columns, *schema.measurement_columns):
            if col not in header:
                raise DataError("unknown-column", f"column {col!r} missing from header")
            positions[col] = header.index(col)

        by_index = schema.timestamp_format == "index"
        if not by_index:
            if not schema.origin or not schema.bottom_duration:
                raise ValidationError(
                    "bad-schema", "timestamp ingestion needs both origin and bottom_duration"
                )
            origin = datetime.strptime(schema.origin, schema.timestamp_format)
            step = parse_duration(schema.bottom_duration)

        stamps: list[str] = []
        zs: list[int] = []
        key_cols: dict[str, list[str]] = {k: [] for k in schema.key_columns}
        meas_cols: dict[str, list[float]] = {m: [] for m in schema.measurement_columns}
        seen: set[tuple] = set()
        for lineno, row in enumerate(reader, start=2):
            try:
                raw = row[positions[schema.timestamp_column]]
                if by_index:
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
                        ts = datetime.strptime(raw, schema.timestamp_format)
                    except ValueError:
                        raise DataError(
                            "unparseable-timestamp",
                            f"row {lineno}: {raw!r} does not match {schema.timestamp_format!r}",
                        ) from None
                    if ts < origin:
                        raise DataError(
                            "pre-origin",
                            f"row {lineno}: {raw!r} predates origin {schema.origin!r}",
                        )
                    z = int((ts - origin) // step)
                fingerprint = tuple(row[positions[k]] for k in schema.key_columns) + (z,)
                if fingerprint in seen:
                    raise DataError(
                        "duplicate-row", f"row {lineno}: duplicate keys/index {fingerprint}"
                    )
                seen.add(fingerprint)
                stamps.append(raw)
                zs.append(z)
                for k in schema.key_columns:
                    key_cols[k].append(row[positions[k]])
                for m in schema.measurement_columns:
                    cell = row[positions[m]].strip()
                    if not cell:
                        meas_cols[m].append(math.nan)
                        continue
                    try:
                        meas_cols[m].append(float(cell))
                    except ValueError:
                        raise DataError(
                            "unparseable-measurement", f"row {lineno}: {cell!r} is not numeric"
                        ) from None
            except IndexError:
                raise DataError(
                    "short-row",
                    f"row {lineno}: {len(row)} fields, fewer than the header's {len(header)}",
                ) from None
    except UnicodeDecodeError as exc:
        # decoded in blocks ahead of the rows, so no row number is known
        raise DataError("bad-encoding", f"{source} is not UTF-8 text: {exc.reason}") from None
    finally:
        if close:
            handle.close()

    measurements = {m: np.asarray(v, dtype=np.float64) for m, v in meas_cols.items()}
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
        keys={k: tuple(v) for k, v in key_cols.items()},
        measurements=measurements,
    )


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
        key_cols = list(t.keys.values())
        meas_cols = list(t.measurements.values())
        cyc_cols = [col for _, col in t.cyclic.values()]
        for i in range(len(t)):
            row = [t.timestamps[i]]
            row += [col[i] for col in key_cols]
            row.append(int(t.index[i]))
            row += [_format_measurement(float(col[i])) for col in meas_cols]
            row += [int(col[i]) for col in cyc_cols]
            writer.writerow(row)
