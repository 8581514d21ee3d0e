"""Pairwise screening of cyclic granularities: harmonies, clashes, near-clashes.

A pair is cross-tabulated into a K x L occupancy table, either over the
rows of a data table (observed mode) or over a synthetic index span
(structural mode). A pair with an empty cell is a clash; a pair whose
smallest cells fall below the rarity cutoff is a near-clash; anything
else is a harmony.

Structural scans sample the span at the coarsest stride on which both
granularities are constant, so counts mean "distinct joint granules" and
verdicts do not depend on how fine the bottom granularity happens to be.

A structural pair whose one side is circular with a regular upper rung
(hour-of-day, half-hour-of-hour, or a granularity derived from one) is
not scanned point by point when that upper rung's length U divides the
other side's anchor block B (the block on which that side is constant):
U groups into B (Bettini et al. 2000), so every whole B-block holds the
circular side's levels in the same multiplicities, and those blocks
count as the outer product of the multiplicities with a histogram of the
other side taken at one point per block. This is the paper's nested
ordering made exact. The grid points in the partial blocks at the two
ends of the span are scanned.

Periodic granularities repeat exactly (periodical, Bettini et al. 2000):
a pair's values at z + P are those at z, and its stride grid shifted by P
is the same grid, when P (its joint period) is a multiple of the repeats
of both rungs of both sides, and between the exceptions of their
sub-periods so does a shorter p (1,461 days for Gregorian months and
years): a stretch of q >= 2 periods counts its first q times, plus the rest.

A screen counts all of its pairs together, one block of points at a
time: each block gets the values of each descriptor once, and each pair
is one ``bincount`` over them. A table's cyclic columns are read for the
descriptors they were made from, and only the others are evaluated. A
span's pairs leave weighted ranges of their stride's grid to scan, and
each stride is scanned once. A block holds at most ``2 * SCAN_BLOCK``
values: ``SCAN_BLOCK`` points for one pair, ``2 * SCAN_BLOCK // n`` for a
screen of n descriptors, so the memory a screen needs does not grow with
the span, the table or the number of descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, pairwise
from math import gcd, lcm
from typing import Sequence

import numpy as np

from .calfile import Calendar
from .cyclic import APERIODIC, CIRCULAR, CyclicDescriptor, evaluate
from .errors import ComputationError, ValidationError
from .hierarchy import granule_start, linear_granule
from .table import GranularTable, csv_writer

DEFAULT_NEAR_THRESHOLD = 0.05
DEFAULT_NEAR_FLOOR = 2
DEFAULT_MAX_LEVELS = 31
SCAN_BLOCK = 1 << 16  # points of one pair evaluated and counted at a time


@dataclass(frozen=True)
class IndexSpan:
    """Half-open synthetic index range [start, start + length); never empty, and
    never past the int64 index."""

    length: int
    start: int = 0

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ComputationError("empty-span", "span must cover at least one bottom granule")
        if self.start + self.length > 2**63:
            raise ValidationError("index-overflow", f"span [{self.start}, {self.start + self.length}) "
                                  f"runs past the largest index {2**63 - 1}")


@dataclass(frozen=True)
class OccupancyTable:
    """Counts of observations (or joint granules) per level combination."""

    ci: CyclicDescriptor
    cj: CyclicDescriptor
    counts: np.ndarray
    mode: str
    total: int


@dataclass(frozen=True)
class PairClassification:
    """Verdict plus the cells that drove it and the cutoff used."""

    verdict: str
    evidence: tuple[tuple[int, int, int], ...]
    mode: str
    threshold: float
    occupancy: OccupancyTable


def _anchor(cal: Calendar, d: CyclicDescriptor) -> int:
    """Block size (bottom units) on which d's value is constant.

    A quasi-circular value moves when its lower granule changes and when
    its upper granule starts; a sliding lower rung (weeks inside months)
    is not constant between upper starts, so both rungs' blocks count.
    """
    d = d.root
    if d.kind == "aperiodic":
        return 1
    h = cal.hierarchy
    if d.kind == CIRCULAR:
        return h.anchor_block(d.lower)
    return gcd(h.anchor_block(d.lower), h.anchor_block(d.upper))


def _cycle(cal: Calendar, d: CyclicDescriptor) -> int | None:
    """Exact repeat length of d over the index, bottom units; None if irregular."""
    d = d.root
    if d.kind != CIRCULAR:
        return None
    return cal.hierarchy.bottom_units(d.upper)


def _count(
    ds: Sequence[CyclicDescriptor], pairs: Sequence[tuple[int, int]], ranges: Sequence[list],
    cal: Calendar, points, held: dict[int, np.ndarray] | None = None,
) -> list[np.ndarray]:
    """K x L counts of each pair ``(i, j)`` of ``ds``: over each of its ``ranges``
    ``(w, k, m)``, w times its counts over points ``k`` to ``m - 1``.

    The ranges' ends cut the points into stretches that a range covers
    entirely or not at all. A stretch is read a block at a time: each
    descriptor of its covering ranges is evaluated once at the block's
    points, or sliced from ``held[i]`` (its values at every point), and each
    covering range adds a ``bincount``. A block has ``2 * SCAN_BLOCK //
    len(ds)`` points, so it holds at most ``2 * SCAN_BLOCK`` values.
    """
    held, step = held or {}, max(1, 2 * SCAN_BLOCK // len(ds))
    counts = [np.zeros(ds[i].levels * ds[j].levels, dtype=np.int64) for i, j in pairs]
    h, events = cal.hierarchy, cal.events
    for a, b in pairwise(sorted({end for rs in ranges for _, k, m in rs for end in (k, m)})):
        covering = [(p, w) for p, rs in enumerate(ranges) for w, k, m in rs if k <= a and b <= m]
        used = {i for p, _ in covering for i in pairs[p]}
        for lo in range(a, b, step) if covering else ():
            hi = min(lo + step, b)
            zs = points(lo, hi)
            values = {i: held[i][lo:hi] if i in held else evaluate(h, ds[i], zs, events) for i in used}
            for p, w in covering:
                (i, j), c = pairs[p], counts[p]
                c += w * np.bincount(values[i] * ds[j].levels + values[j], minlength=c.size)
            del zs, values  # before the next block's are made
    return [c.reshape(ds[i].levels, ds[j].levels) for c, (i, j) in zip(counts, pairs)]


def _grid(span: IndexSpan, stride: int):
    """Points ``k`` to ``m - 1`` of the span sampled at ``stride``, as a function of k, m."""
    return lambda k, m: span.start + stride * np.arange(k, m, dtype=np.int64)


def _nested(
    a: CyclicDescriptor, b: CyclicDescriptor, cal: Calendar,
    span: IndexSpan, stride: int, cycle: int, block: int,
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Structural counts of ``a`` repeating every ``cycle`` units against ``b``
    constant on ``block``-aligned blocks, where ``cycle`` divides ``block``.

    Every whole block holds ``a``'s levels in the same multiplicities and
    one value of ``b``, so those blocks count as their outer product. It is
    returned with the grid ranges ``(k, m)`` of the partial blocks at the
    two ends, left to scan: the whole span when it holds no whole block.
    """
    n, points = -(-span.length // stride), _grid(span, stride)
    first, stop = -(-span.start // block), (span.start + span.length) // block
    if stop <= first:
        return np.zeros((a.levels, b.levels), dtype=np.int64), [(0, n)]
    head = -(-(first * block - span.start) // stride)  # first grid point of block `first`
    tail = head + (stop - first) * (block // stride)
    h, events = cal.hierarchy, cal.events
    # a depends on the index modulo `cycle` only: one cycle's points, repeated
    mult = np.bincount(evaluate(h, a, points(head, head + cycle // stride), events),
                       minlength=a.levels) * (block // cycle)
    hist = np.zeros(b.levels, dtype=np.int64)
    for q in range(first, stop, SCAN_BLOCK):
        starts = block * np.arange(q, min(q + SCAN_BLOCK, stop), dtype=np.int64)
        hist += np.bincount(evaluate(h, b, starts, events), minlength=b.levels)
    return np.outer(mult, hist), [(0, head), (tail, n)]


def _plan(ci: CyclicDescriptor, cj: CyclicDescriptor, cal: Calendar, span: IndexSpan):
    """(stride, nesting) of a structural pair, after checking its span.

    The stride is the ``gcd`` of both anchors. ``nesting`` is
    ``(cycle, block, flipped)`` when one side repeats every ``cycle``
    units, a divisor of the other side's anchor ``block``, for
    ``_nested``; ``flipped`` when that side is ``cj``. None for a scan.
    """
    anchor_i, anchor_j = _anchor(cal, ci), _anchor(cal, cj)
    cyc_i, cyc_j = _cycle(cal, ci), _cycle(cal, cj)
    if cyc_i is not None and cyc_j is not None:
        common = lcm(cyc_i, cyc_j)
        if span.length < common:
            raise ComputationError(
                "insufficient-span",
                f"span of {span.length} covers less than one common period ({common}) "
                f"of {ci.name} and {cj.name}",
            )
    stride = gcd(anchor_i, anchor_j)
    if cyc_i is not None and anchor_j % cyc_i == 0:
        return stride, (cyc_i, anchor_j, False)
    if cyc_j is not None and anchor_i % cyc_j == 0:
        return stride, (cyc_j, anchor_i, True)
    return stride, None


def _joint_period(cal: Calendar, descriptors: Sequence[CyclicDescriptor]) -> int | None:
    """Bottom units after which all ``descriptors`` repeat, None if one is aperiodic: the lcm
    of their lower- and upper-rung repeats (a lower rung may slide across the upper)."""
    roots = [d.root for d in descriptors]
    if any(d.kind == APERIODIC for d in roots):
        return None
    return lcm(*(cal.hierarchy.repeat(rung) for d in roots for rung in (d.lower, d.upper)))


def _folds(cal: Calendar, pair: Sequence[CyclicDescriptor],
           span: IndexSpan) -> tuple[tuple[int, IndexSpan], ...]:
    """(weight, part)s of the span whose weighted counts of ``pair`` are the span's.

    A span of q >= 2 joint periods is its first, split in turn and weighted
    q, plus the rest. In a shorter one, from a point, the rungs of both sides
    are looked up (``local_repeat``) at the earliest start of the sides'
    upper granules holding it: a stretch of q >= 2 periods p, the lcm of
    their local repeats, before their first exception is its first p
    weighted q, and the search goes on one p past that exception. Parts
    start on the span's grid, as p is a multiple of both anchors.
    """
    period, roots, end = _joint_period(cal, pair), [d.root for d in pair], span.start + span.length
    if period is None:  # an aperiodic side
        return ((1, span),)
    h, rungs = cal.hierarchy, dict.fromkeys(rung for d in roots for rung in (d.lower, d.upper))
    q, rest = divmod(span.length, period)
    if q >= 2:
        return (*((q * w, part) for w, part in _folds(cal, pair, IndexSpan(period, span.start))),
                *(_folds(cal, pair, IndexSpan(rest, end - rest)) if rest else ()))
    out, pos, done = [], span.start, span.start
    while pos < end:
        at = min(granule_start(h, d.upper, linear_granule(h, pos, d.upper)) for d in roots)
        looked = [h.local_repeat(rung, at) for rung in rungs]
        p = lcm(*(repeat for repeat, _ in looked))
        stop = min((stop for _, stop in looked if stop is not None), default=end)
        q = (min(stop, end) - pos) // p
        if q >= 2:
            out += [(1, IndexSpan(pos - done, done))] if done < pos else []
            out.append((q, IndexSpan(p, pos)))
            pos = done = pos + q * p
        pos = end if stop >= end else pos + (max(stop - pos, 0) // p + 1) * p
    return (*out, *([(1, IndexSpan(end - done, done))] if done < end else []))


def _occupancy(
    data: GranularTable | IndexSpan, ds: Sequence[CyclicDescriptor],
    pairs: Sequence[tuple[int, int]], cal: Calendar,
) -> list[tuple[np.ndarray, int]]:
    """(counts, points counted) of each pair ``(i, j)`` of ``ds``, in order.

    A table is counted in one pass, reading the cyclic columns it holds
    for a descriptor. A span's pairs are all planned first, so the first
    pair too short for its span raises before anything is counted; then
    each pair's span is folded (``_folds``), nested pairs count as
    products, and the parts (or partial blocks) left are weighted ranges
    counted in one ``_count`` per stride. No pairs count nothing.
    """
    if not pairs:
        return []
    if not isinstance(data, IndexSpan):
        # a column of that name made from another descriptor is not read
        held = {i: data.cyclic[d.name][1] for i, d in enumerate(ds)
                if d.name in data.cyclic and data.cyclic[d.name][0] == d}
        n = len(data.index)
        return [(c, n) for c in _count(ds, pairs, [[(1, 0, n)]] * len(pairs), cal,
                                    lambda k, m: data.index[k:m], held)]
    out: list = [None] * len(pairs)
    groups: dict[int, list] = {}  # stride: (position in ``pairs``, weighted grid ranges)
    for p, (stride, nesting) in enumerate([_plan(ds[i], ds[j], cal, data) for i, j in pairs]):
        i, j = pairs[p]
        out[p], ranges = 0, []  # a product only for a nested pair
        for w, part in _folds(cal, [ds[i], ds[j]], data):
            edges = [(0, -(-part.length // stride))]
            if nesting is not None:
                cycle, block, flipped = nesting
                a, b = (j, i) if flipped else (i, j)
                counts, edges = _nested(ds[a], ds[b], cal, part, stride, cycle, block)
                out[p] += w * (counts.T if flipped else counts)
            at = (part.start - data.start) // stride  # parts start on the span's grid
            ranges += [(w, at + k, at + m) for k, m in edges]
        groups.setdefault(stride, []).append((p, ranges))
    for stride, group in groups.items():
        counts = _count(ds, [pairs[p] for p, _ in group], [r for _, r in group], cal, _grid(data, stride))
        for (p, _), c in zip(group, counts):
            c += out[p]
            out[p] = (c, -(-data.length // stride))
    return out


def cross_tab(
    data: GranularTable | IndexSpan,
    ci: CyclicDescriptor,
    cj: CyclicDescriptor,
    cal: Calendar,
) -> OccupancyTable:
    """K x L occupancy of the pair over table rows or a synthetic span.

    The one-pair case of the screen in ``harmony_table``. Over a table,
    a descriptor's values are its cyclic column when the table holds one
    made from that same descriptor, and are evaluated at the rows' index
    otherwise; each is evaluated once per block.

    A span is sampled at the stride ``gcd`` of both anchors, from its
    start. When one side is circular with a regular upper rung whose
    length divides the other side's anchor block, the whole blocks count
    as the product of that side's per-block level multiplicities and a
    histogram of the other side, one sample per block; the grid points of
    the partial blocks at the two ends are scanned, and a span without a
    whole block is scanned throughout. Every other pair is scanned.

    A span is split where a rung of either side breaks its sub-period,
    and a stretch of q >= 2 periods of the pair (the lcm of the local
    repeats of both rungs of both sides; none if a side is aperiodic)
    counts its first period q times, plus the rest (``_folds``); the parts
    are scanned in one pass, weighted. ``total`` is the whole span's.

    A span samples at least one point: ``IndexSpan`` rejects empty spans
    with ``empty-span`` when it is built.
    """
    mode = "structural" if isinstance(data, IndexSpan) else "observed"
    [(counts, n)] = _occupancy(data, [ci, cj], [(0, 1)], cal)
    return OccupancyTable(ci, cj, counts, mode, n)


def _verdict(counts: np.ndarray, near_threshold: float, near_floor: int) -> tuple[str, float]:
    """The verdict on a K x L count table and the rarity cutoff it used."""
    if not counts.all():
        return "clash", 0.0
    cutoff = max(float(near_floor), near_threshold * float(counts.mean()))
    return ("near-clash" if (counts < cutoff).any() else "harmony"), cutoff


def classify_pair(
    occ: OccupancyTable,
    near_threshold: float = DEFAULT_NEAR_THRESHOLD,
    near_floor: int = DEFAULT_NEAR_FLOOR,
) -> PairClassification:
    """Clash on any empty cell; near-clash on rare cells; harmony otherwise.

    A cell is rare when its count falls below
    ``max(near_floor, near_threshold * mean count)``: the relative term
    catches gross imbalance in dense tables, the floor catches
    combinations seen at most once however long the span. The evidence
    lists the empty cells of a clash and the rare cells of a near-clash,
    as (row, column, count) in row-major order.
    """
    verdict, cutoff = _verdict(occ.counts, near_threshold, near_floor)
    # a clash has cutoff 0, so only its empty cells fall below 1
    cells = np.argwhere(occ.counts < max(cutoff, 1.0))
    evidence = tuple((int(k), int(l), int(occ.counts[k, l])) for k, l in cells)
    return PairClassification(verdict, evidence, occ.mode, cutoff, occ)


@dataclass(frozen=True)
class HarmonyRow:
    """One retained ordered pair: facet role, x role, and level counts."""

    facet: str
    x: str
    facet_levels: int
    x_levels: int


def harmony_table(
    descriptors: Sequence[CyclicDescriptor],
    data: GranularTable | IndexSpan,
    cal: Calendar,
    max_levels: int = DEFAULT_MAX_LEVELS,
    near_threshold: float = DEFAULT_NEAR_THRESHOLD,
    near_floor: int = DEFAULT_NEAR_FLOOR,
    keep_near_clashes: bool = False,
) -> list[HarmonyRow]:
    """Screen all ordered pairs, dropping oversized descriptors and clashes.

    Verdicts are computed once per unordered pair (occupancy transposes);
    both orderings of each surviving pair are emitted, sorted by name.

    All pairs are counted together, with ``cross_tab``'s counts. Over a
    table that is one pass, evaluating each kept descriptor once per
    block (or reading its cyclic column). Over a span, every pair is
    checked against the span before any is counted, so the error names
    the first pair in screen order whose common period the span misses;
    each pair's span is split and folded by its sub-periods and joint
    period (``_folds``), as in ``cross_tab``; nested pairs count as
    products, and all pairs of one stride scan their weighted ranges in one
    pass. A block has ``2 * SCAN_BLOCK // n`` points for n kept descriptors,
    so it holds at most ``2 * SCAN_BLOCK`` values and memory does not grow
    with the number of descriptors, the span or the table.
    """
    kept = [d for d in descriptors if d.levels <= max_levels]
    pairs = list(combinations(range(len(kept)), 2))
    rows: list[HarmonyRow] = []
    for (i, j), (counts, _) in zip(pairs, _occupancy(data, kept, pairs, cal)):
        verdict, _ = _verdict(counts, near_threshold, near_floor)
        if verdict == "clash" or (verdict == "near-clash" and not keep_near_clashes):
            continue
        a, b = kept[i], kept[j]
        rows.append(HarmonyRow(a.name, b.name, a.levels, b.levels))
        rows.append(HarmonyRow(b.name, a.name, b.levels, a.levels))
    rows.sort(key=lambda r: (r.facet, r.x))
    return rows


def write_harmony_table(rows: Sequence[HarmonyRow], out, delimiter: str = ",") -> None:
    """Export with the facet/x/levels column layout."""
    with csv_writer(out, delimiter) as writer:
        writer.writerow(["facet_variable", "x_variable", "facet_levels", "x_levels"])
        for r in rows:
            writer.writerow([r.facet, r.x, r.facet_levels, r.x_levels])
