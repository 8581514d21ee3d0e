"""Independent brute-force oracles for differential testing.

These enumerate granule counters directly (wall-calendar style ticking,
or stdlib datetime arithmetic) and share no code with the engine under
test.
"""

from __future__ import annotations

import csv
import math
from datetime import date, datetime, timedelta


def days_in_month(year: int, month: int) -> int:
    nxt = date(year + 1, 1, 1) if month == 12 else date(year, month + 1, 1)
    return (nxt - date(year, month, 1)).days


def gregorian_hour_counters(origin_year: int, n_hours: int) -> list[dict[str, int]]:
    """Tick hour/day/month/year counters one hour at a time."""
    out = []
    hour = day = month = year = 0
    for _ in range(n_hours):
        out.append({"hour": hour, "day": day, "month": month, "year": year})
        hour += 1
        if hour == 24:
            hour = 0
            day += 1
            if day == days_in_month(origin_year + year, month + 1):
                day = 0
                month += 1
                if month == 12:
                    month = 0
                    year += 1
    return out


def gregorian_pair_value(c: dict[str, int], origin_year: int, lower: str, upper: str) -> int:
    """Offset of the lower unit within the upper unit, from raw counters."""
    year = origin_year + c["year"]
    days_before_month = sum(days_in_month(year, m) for m in range(1, c["month"] + 1))
    day_of_year = days_before_month + c["day"]
    table = {
        ("hour", "day"): c["hour"],
        ("hour", "month"): c["hour"] + 24 * c["day"],
        ("hour", "year"): c["hour"] + 24 * day_of_year,
        ("day", "month"): c["day"],
        ("day", "year"): day_of_year,
        ("month", "year"): c["month"],
    }
    return table[(lower, upper)]


MAYAN_RUNGS = ("kin", "uinal", "tun", "katun", "baktun")
MAYAN_BASES = {"kin": 20, "uinal": 18, "tun": 20, "katun": 20}


def mayan_counters(n_kin: int) -> list[dict[str, int]]:
    """Tick kin/uinal/tun/katun counters one kin at a time."""
    out = []
    c = {"kin": 0, "uinal": 0, "tun": 0, "katun": 0}
    for _ in range(n_kin):
        out.append(dict(c))
        c["kin"] += 1
        for name, nxt in (("kin", "uinal"), ("uinal", "tun"), ("tun", "katun")):
            if c[name] == MAYAN_BASES[name]:
                c[name] = 0
                c[nxt] += 1
    return out


def mayan_pair_value(c: dict[str, int], lower: str, upper: str) -> int:
    """Positional value of the counters from lower (exclusive of upper)."""
    lo, hi = MAYAN_RUNGS.index(lower), MAYAN_RUNGS.index(upper)
    value, scale = 0, 1
    for r in range(lo, hi):
        name = MAYAN_RUNGS[r]
        value += scale * c[name]
        scale *= MAYAN_BASES[name]
    return value


def ladder_boundaries(rules: list, n: int) -> list[list[int]]:
    """Granule starts of every rung in [0, n], ticking a ladder one index at a time.

    ``rules`` holds each non-top rung's rule, bottom first: an int period,
    or a tuple of cardinalities (sizes of the next rung's granules in
    granules of this rung, repeating). One start list per rung, top last.
    """
    starts = [[0] for _ in range(len(rules) + 1)]
    elapsed = [0] * len(rules)  # granules of rung k since rung k + 1 last started
    made = [0] * len(rules)  # granules of rung k + 1 started after its first
    for z in range(1, n + 1):
        starts[0].append(z)
        for k, rule in enumerate(rules):
            elapsed[k] += 1
            size = rule if isinstance(rule, int) else rule[made[k] % len(rule)]
            if elapsed[k] < size:
                break
            elapsed[k] = 0
            made[k] += 1
            starts[k + 1].append(z)
    return starts


def complete_granules(starts: list[int], end: int) -> list[tuple[int, int]]:
    """(start, end) of each granule that ends at or before ``end``."""
    return [(s, e) for s, e in zip(starts, starts[1:]) if e <= end]


def finer_than_oracle(fine: list[int], coarse: list[int], end: int) -> bool:
    """No coarse boundary falls strictly inside a complete fine granule."""
    bounds = set(coarse)
    return not any(
        z in bounds for s, e in complete_granules(fine, end) for z in range(s + 1, e)
    )


def groups_into_oracle(fine: list[int], coarse: list[int], end: int) -> bool:
    """Both ends of every complete coarse granule are fine boundaries."""
    bounds = set(fine)
    return all(s in bounds and e in bounds for s, e in complete_granules(coarse, end))


def periodical_oracle(fine: list[int], coarse: list[int], end: int):
    """Smallest (R, P) with every coarse granule's fine run shifted by P after R granules.

    Returns the error kind instead when the coarse granules are not
    groupings of fine ones, or when fewer than two are complete.
    """
    position = {z: i for i, z in enumerate(fine)}
    granules = complete_granules(coarse, end)
    if any(s not in position or e not in position for s, e in granules):
        return "not-a-grouping"
    if len(granules) < 2:
        return "insufficient-span"
    runs = [(position[s], position[e]) for s, e in granules]
    for r in range(1, len(runs)):
        p = runs[r][0] - runs[0][0]
        if all(
            runs[i + r][0] - runs[i][0] == p and runs[i + r][1] - runs[i][1] == p
            for i in range(len(runs) - r)
        ):
            return (r, p)
    return None


def largest_count(lower: list[int], upper: list[int]) -> int:
    """Most lower granules starting inside one complete upper granule."""
    counts = [0] * (len(upper) - 1)
    g = 0
    for z in lower:
        while g < len(counts) and upper[g + 1] <= z:
            g += 1
        if g == len(counts):
            break
        counts[g] += 1
    return max(counts)


def date_of_index(origin_year: int, z_days: int) -> date:
    return date(origin_year, 1, 1) + timedelta(days=z_days)


def quantile_oracle(values, p: float) -> float:
    """Sort-based linear interpolation of order statistics (type 7)."""
    data = sorted(float(v) for v in values)
    n = len(data)
    if n == 1:
        return data[0]
    h = (n - 1) * p
    lo = int(h)
    hi = min(lo + 1, n - 1)
    frac = h - lo
    return data[lo] + frac * (data[hi] - data[lo])


def pair_verdict_oracle(counts: list[list[int]], near_threshold: float, near_floor: int):
    """(verdict, evidence, cutoff) of a K x L count table, cell by cell.

    Clash when a cell is empty, citing the empty cells with cutoff 0.
    Otherwise a cell is rare below max(near_floor, near_threshold x mean
    count); near-clash citing the rare cells if there are any, else
    harmony. Cells are (row, column, count) in row-major order.
    """
    cells = [(k, l, c) for k, row in enumerate(counts) for l, c in enumerate(row)]
    empty = [cell for cell in cells if cell[2] == 0]
    if empty:
        return "clash", empty, 0.0
    cutoff = float(max(near_floor, near_threshold * (sum(c for *_, c in cells) / len(cells))))
    rare = [cell for cell in cells if cell[2] < cutoff]
    return ("near-clash" if rare else "harmony"), rare, cutoff


def ingest_oracle(lines: list[str], schema):
    """Row-by-row reading of a delimited table, as ``ingest`` documents it.

    ``lines`` are the file's lines, header first; ``schema`` has the
    attributes of an ``IngestionSchema``. Returns ``(index, stamps, keys,
    measurements)`` (keys and measurements map column names to lists; a
    missing measurement is nan), or ``(kind, message)`` of the first fault:
    the first faulty row in file order, then the first infinite
    measurement, column by column.
    """
    rows = list(csv.reader(lines, delimiter=schema.delimiter))
    header = rows[0]
    pos = {c: header.index(c) for c in (schema.timestamp_column, *schema.key_columns,
                                         *schema.measurement_columns)}
    fmt = schema.timestamp_format
    if fmt != "index":
        origin = datetime.strptime(schema.origin, fmt)
        amount, unit = int(schema.bottom_duration[:-1]), schema.bottom_duration[-1]
        step = timedelta(seconds=amount * {"s": 1, "m": 60, "h": 3600, "d": 86400}[unit])
    index, stamps, seen = [], [], set()
    keys = {k: [] for k in schema.key_columns}
    measurements = {m: [] for m in schema.measurement_columns}
    for lineno, row in enumerate(rows[1:], start=2):
        short = ("short-row", f"row {lineno}: {len(row)} fields, fewer than the header's {len(header)}")
        if pos[schema.timestamp_column] >= len(row):
            return short
        raw = row[pos[schema.timestamp_column]]
        if fmt == "index":
            try:
                z = int(raw)
            except ValueError:
                return "unparseable-timestamp", f"row {lineno}: {raw!r} is not an index"
            if z < 0:
                return "pre-origin", f"row {lineno}: index {z} is negative"
        else:
            try:
                moment = datetime.strptime(raw, fmt)
            except ValueError:
                return "unparseable-timestamp", f"row {lineno}: {raw!r} does not match {fmt!r}"
            if moment < origin:
                return "pre-origin", f"row {lineno}: {raw!r} predates origin {schema.origin!r}"
            z = (moment - origin) // step
        if any(pos[k] >= len(row) for k in schema.key_columns):
            return short
        fingerprint = tuple(row[pos[k]] for k in schema.key_columns) + (z,)
        if fingerprint in seen:
            return "duplicate-row", f"row {lineno}: duplicate keys/index {fingerprint}"
        seen.add(fingerprint)
        values = []
        for m in schema.measurement_columns:
            if pos[m] >= len(row):
                return short
            cell = row[pos[m]].strip()
            if not cell:
                values.append(math.nan)
                continue
            try:
                values.append(float(cell))
            except ValueError:
                return "unparseable-measurement", f"row {lineno}: {cell!r} is not numeric"
        index.append(z)
        stamps.append(raw)
        for k in schema.key_columns:
            keys[k].append(row[pos[k]])
        for m, v in zip(schema.measurement_columns, values):
            measurements[m].append(v)
    for m, values in measurements.items():
        for lineno, v in enumerate(values, start=2):
            if math.isinf(v):
                return "non-finite-measurement", f"row {lineno}: {m} value {v} is not finite"
    return index, stamps, keys, measurements
