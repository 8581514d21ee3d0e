"""Independent brute-force oracles for differential testing.

These enumerate granule counters directly (wall-calendar style ticking,
or stdlib datetime arithmetic) and share no code with the engine under
test. ``traced_peak`` measures the memory the code under test takes.
"""

from __future__ import annotations

import csv
import io
import math
import tracemalloc
from datetime import date, datetime, timedelta
from itertools import chain

import numpy as np


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


def positional_counters(bases: list[int], n: int) -> list[list[int]]:
    """Tick one counter per non-top rung of a constant ladder, one index at a time.

    ``bases[k]`` granules of rung k make one granule of rung k + 1, so
    counter k is the position of the current rung-k granule inside its
    rung-(k + 1) granule: it wraps to 0 at ``bases[k]`` and carries one.
    """
    out = []
    c = [0] * len(bases)
    for _ in range(n):
        out.append(list(c))
        for k, base in enumerate(bases):
            c[k] += 1
            if c[k] < base:
                break
            c[k] = 0
    return out


def positional_value(counters: list[int], bases: list[int], lo: int, hi: int) -> int:
    """Offset of the rung-``lo`` granule inside its rung-``hi`` granule, from the counters."""
    value, scale = 0, 1
    for r in range(lo, hi):
        value += scale * counters[r]
        scale *= bases[r]
    return value


MAYAN_RUNGS = ("kin", "uinal", "tun", "katun", "baktun")
MAYAN_BASES = [20, 18, 20, 20]


def mayan_counters(n_kin: int) -> list[list[int]]:
    """Tick kin/uinal/tun/katun counters one kin at a time."""
    return positional_counters(MAYAN_BASES, n_kin)


def mayan_pair_value(c: list[int], lower: str, upper: str) -> int:
    """Positional value of the counters from lower (exclusive of upper)."""
    return positional_value(c, MAYAN_BASES, MAYAN_RUNGS.index(lower), MAYAN_RUNGS.index(upper))


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


def constant_block(h, d) -> int:
    """Bottom units of the aligned blocks on which ``d``'s value is constant.

    A circular value moves only with its lower granule; a quasi-circular
    one also where its upper granules start, which a sliding lower rung
    (weeks inside months) does not line up with; an aperiodic value can
    change at any index.
    """
    while d.base is not None:
        d = d.base
    if d.kind == "aperiodic":
        return 1
    if d.kind == "circular":
        return h.anchor_block(d.lower)
    return math.gcd(h.anchor_block(d.lower), h.anchor_block(d.upper))


def blocked_structural_scan(evaluate, h, ci, cj, start: int, length: int, stride: int,
                            events=None, block: int = 1 << 16):
    """(counts, points) of a pair at every ``stride``-th index of [start, start + length).

    The reference for structural ``cross_tab``: each point is evaluated
    and tallied, ``block`` points at a time. It uses the engine's
    ``evaluate`` for single values, not its product rule for nested pairs.
    """
    n = -(-length // stride)
    counts = np.zeros(ci.levels * cj.levels, dtype=np.int64)
    for k in range(0, n, block):
        zs = start + stride * np.arange(k, min(k + block, n), dtype=np.int64)
        vi, vj = evaluate(h, ci, zs, events), evaluate(h, cj, zs, events)
        counts += np.bincount(vi * cj.levels + vj, minlength=counts.size)
    return counts.reshape(ci.levels, cj.levels), n


class OracleError(Exception):
    """A span an oracle does not cover; ``kind`` names why."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


def label_starts(linear_granule, h, rung: str, end: int) -> list[int]:
    """Starts of the granules of ``rung`` in [0, end]: granule 0 starts at 0, and
    another wherever the label that ``linear_granule`` gives an index changes."""
    if end <= 0:
        raise OracleError("empty-span", "span must cover at least one bottom granule")
    labels = linear_granule(h, np.arange(end + 1, dtype=np.int64), rung)
    return [0, *(np.flatnonzero(np.diff(labels)) + 1).tolist()]


def relativity_oracle(check, linear_granule, h, fine: str, coarse: str, end: int):
    """``check`` between two rungs of the ladder ``h`` over [0, end), on their labels.

    The relativities between granularities (finer-than, groups-into and
    periodical, after Bettini et al., *Time Granularities in Databases,
    Data Mining, and Temporal Reasoning*, 2000): ``check`` is
    ``finer_than_oracle``, ``groups_into_oracle`` or ``periodical_oracle``,
    fed the granule starts of both rungs that ``label_starts`` reads from
    the engine's ``linear_granule``. An error kind the check returns is
    raised as ``OracleError``.
    """
    verdict = check(label_starts(linear_granule, h, fine, end),
                    label_starts(linear_granule, h, coarse, end), end)
    if isinstance(verdict, str):
        raise OracleError(verdict, f"{fine!r} into {coarse!r} over [0, {end})")
    return verdict


def _constant_period(h, lo: int, hi: int) -> int:
    """Product of the constant periods of rungs ``lo`` to ``hi - 1``."""
    rules = [r.rule for r in h.rungs[lo:hi]]
    if any(hasattr(rule, "cardinalities") for rule in rules):
        raise OracleError("irregular-span", f"rungs {lo}..{hi} cross an irregular rung")
    return math.prod(rule.period for rule in rules)


def _effective_steps(h, lo: int, hi: int):
    """Chain of (from_pos, to_pos, rule) steps with sliding rungs collapsed out."""
    seq = [lo]
    steps: list[tuple[int, int, object]] = []
    for pos in range(lo, hi):
        rule = h.rungs[pos].rule
        if not hasattr(rule, "cardinalities"):
            steps.append((pos, pos + 1, rule))
            seq.append(pos + 1)
            continue
        upos = h.position(rule.unit) if rule.unit else pos
        if upos not in seq:
            raise OracleError(
                "unsupported-span",
                f"{h.rungs[lo].name!r} slides across {h.rungs[pos + 1].name!r} boundaries; "
                "no chain composition exists",
            )
        while seq[-1] != upos:
            seq.pop()
            steps.pop()
        steps.append((upos, pos + 1, rule))
        seq.append(pos + 1)
    return steps


def compose_up_oracle(linear_granule, granule_start, h, lower: str, upper: str, z: int) -> int:
    """Multi-order-up value assembled from single-order-up values (the order-up algebra).

    The reference for ``evaluate`` of a ``pairwise_descriptor`` on chains
    with at most one irregular rung once sliding rungs are collapsed out.
    It locates granules through the engine's ``linear_granule`` and
    ``granule_start`` only, one scalar at a time.
    """
    lo, hi = h.position(lower), h.position(upper)
    if lo >= hi:
        raise OracleError("bad-span", f"{lower!r} must sit below {upper!r}")
    steps = _effective_steps(h, lo, hi)
    irregular = [k for k, s in enumerate(steps) if hasattr(s[2], "cardinalities")]
    if len(irregular) > 1:
        raise OracleError(
            "unsupported-span",
            f"span {lower}..{upper} crosses {len(irregular)} irregular rungs; only one is supported",
        )
    names = h.rung_names

    def idx(pos: int, at: int) -> int:
        return int(linear_granule(h, at, names[pos]))

    def start(pos: int, i: int) -> int:
        return int(granule_start(h, names[pos], i))

    # circular single-order values below the irregular step, each scaled by
    # the lower-unit size of its rung; all of them when there is none
    k = irregular[0] if irregular else len(steps)
    value, coeff = 0, 1
    for frm, _, rule in steps[:k]:
        value += coeff * (idx(frm, z) % rule.period)
        coeff *= rule.period
    if not irregular:
        return value
    frm, to, rule = steps[k]
    # offset of z's frm-granule within its to-granule (irregular single-order)
    value += coeff * (idx(frm, z) - idx(frm, start(to, idx(to, z))))
    if to == hi:
        return value
    # circular granularities above the irregular rung: add the sizes of the
    # to-granules already completed inside the current upper granule
    above = idx(to, z) % math.prod(s[2].period for s in steps[k + 1 :])
    to_at_upper_start = idx(to, start(hi, idx(hi, z)))
    cards = rule.cardinalities
    for w in range(above):
        value += coeff * cards[(to_at_upper_start + w) % len(cards)]
    return value


def reduce_to_single_oracle(h, known: tuple[str, str, int], target: tuple[str, str]) -> int:
    """Narrower cyclic value recovered from a wider one, on all-constant spans only."""
    l2, m2, value = known
    l1, m1 = target
    p_l2, p_m2 = h.position(l2), h.position(m2)
    p_l1, p_m1 = h.position(l1), h.position(m1)
    if not (p_l2 <= p_l1 < p_m1 <= p_m2):
        raise OracleError("bad-span", f"target {l1}..{m1} must nest inside known {l2}..{m2}")
    _constant_period(h, p_l2, p_m2)  # raises irregular-span when the chain is not constant
    return (value // _constant_period(h, p_l2, p_l1)) % _constant_period(h, p_l1, p_m1)


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
    measurement, column by column. A row that ``csv`` cannot read is a
    fault after the rows before it.
    """
    rows, unreadable = [], None
    try:
        for row in csv.reader(lines, delimiter=schema.delimiter):
            rows.append(row)
    except csv.Error as exc:  # reported after the faults of the rows before it
        unreadable = "unreadable-row", f"row {len(rows) + 1}: {exc}"
    if not rows:
        return unreadable
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
            if z >= 2**63:
                return "row-index-overflow", f"row {lineno}: index {z} exceeds {2**63 - 1}"
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
    if unreadable:
        return unreadable
    for m, values in measurements.items():
        for lineno, v in enumerate(values, start=2):
            if math.isinf(v):
                return "non-finite-measurement", f"row {lineno}: {m} value {v} is not finite"
    return index, stamps, keys, measurements


def write_csv_oracle(out, header, rows, delimiter: str = ",") -> None:
    """Row-by-row reference for ``table.write_csv``, to an open text handle.

    One ``csv.writer`` row, ``\\n`` ending it, for ``header`` and for each of ``rows``. The
    writer ends a row with ``\\r\\n``, replaced by ``\\n``: a writer whose line end is ``\\n``
    quotes a field holding a lone ``\\r`` on Python 3.13 on but not before.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\r\n")
    for row in chain([header], rows):
        buf.seek(0)
        buf.truncate()
        writer.writerow(row)
        out.write(buf.getvalue()[:-2] + "\n")


def export_table_oracle(t, out, delimiter: str = ",") -> None:
    """Row-by-row reference for ``table.export_table``, to an open text handle.

    One ``csv.writer`` row for the header and per table row; a measurement
    is ``format(v, ".12g")``, blank for nan.
    """
    columns = [
        t.timestamps,
        *t.keys.values(),
        t.index.tolist(),
        *(["" if math.isnan(v) else format(v, ".12g") for v in col.tolist()]
          for col in t.measurements.values()),
        *(col.tolist() for _, col in t.cyclic.values()),
    ]
    header = [t.timestamp_column, *t.keys, "index", *t.measurements, *t.cyclic]
    write_csv_oracle(out, header, zip(*columns), delimiter)


def write_summaries_oracle(summaries, out, delimiter: str = ",") -> None:
    """Row-by-row reference for ``distill.write_summaries``, to an open text handle.

    One ``csv.writer`` row per quantile of each cell record that
    iterating over ``summaries`` yields, and one row with blank
    probability and value per empty cell.
    """
    rows = []
    for s in summaries:
        if s.n == 0:
            rows.append([s.facet_label, s.x_label, "", "", 0])
            continue
        for p, v in s.quantiles:
            rows.append([s.facet_label, s.x_label, format(p, "g"), format(v, ".12g"), s.n])
    write_csv_oracle(out, ["facet", "x", "prob", "value", "n"], rows, delimiter)


def plot_spec_document(spec) -> dict:
    """A plot spec as one dict: ``spec.head``, then a "cells" entry per cell record."""
    return {
        **spec.head,
        "cells": [
            {
                "facet_level": s.facet_level,
                "facet_label": s.facet_label,
                "x_level": s.x_level,
                "x_label": s.x_label,
                "n": s.n,
                "mean": s.mean,
                "min": s.minimum,
                "max": s.maximum,
                "quantiles": list(map(list, s.quantiles)),
            }
            for s in spec.cells
        ],
    }


def traced_peak(run) -> int:
    """The ``tracemalloc`` peak in bytes while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
