"""Pairwise screening of cyclic granularities: harmonies, clashes, near-clashes.

A pair is cross-tabulated into a K x L occupancy table, either over the
rows of a data table (observed mode) or over a synthetic index span
(structural mode). A pair with an empty cell is a clash; a pair whose
smallest cells fall below the rarity cutoff is a near-clash; anything
else is a harmony. How a structural pair is counted is ``_plan``'s.

A screen counts all of its pairs together, one block of points at a
time: each block gets the values of each descriptor once, and each pair
is one ``bincount`` over them. A table's cyclic columns are read for the
descriptors they were made from, and only the others are evaluated. The
ranges that a span's pairs leave to scan are scanned once per stride. A
block holds at most ``2 * SCAN_BLOCK`` values: ``SCAN_BLOCK`` points for
one pair, ``2 * SCAN_BLOCK // n`` for a screen of n descriptors, so the
memory a screen needs does not grow with the span, the table or the
number of descriptors.
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
from .table import GranularTable, write_csv

DEFAULT_NEAR_THRESHOLD = 0.05
DEFAULT_NEAR_FLOOR = 2
DEFAULT_MAX_LEVELS = 31
SCAN_BLOCK = 1 << 16  # points of one pair evaluated and counted at a time


@dataclass(frozen=True)
class IndexSpan:
    """Half-open synthetic index range [start, start + length); never empty, and
    never outside the int64 index."""

    length: int
    start: int = 0

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ComputationError("empty-span", "span must cover at least one bottom granule")
        if not -(2**63) <= self.start <= 2**63 - self.length:
            raise ValidationError("index-overflow", f"span [{self.start}, {self.start + self.length}) "
                                  f"reaches past the int64 index [{-(2**63)}, {2**63})")


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

    A value moves when its lower granule changes and when its upper
    granule starts; a sliding lower rung (weeks inside months) is not
    constant between upper starts, so both rungs' blocks count.
    """
    d = d.root
    if d.kind == APERIODIC:
        return 1
    return gcd(cal.hierarchy.anchor_block(d.lower), cal.hierarchy.anchor_block(d.upper))


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
    n = -(-span.length // stride)
    first, stop = -(-span.start // block), (span.start + span.length) // block
    if stop <= first:
        return np.zeros((a.levels, b.levels), dtype=np.int64), [(0, n)]
    head = -(-(first * block - span.start) // stride)  # first grid point of block `first`
    tail = head + (stop - first) * (block // stride)
    h, events = cal.hierarchy, cal.events
    # a depends on the index modulo `cycle` only: one cycle's points, repeated
    points = span.start + stride * np.arange(head, head + cycle // stride, dtype=np.int64)
    mult = np.bincount(evaluate(h, a, points, events), minlength=a.levels) * (block // cycle)
    hist = np.zeros(b.levels, dtype=np.int64)
    for q in range(first, stop, SCAN_BLOCK):
        starts = block * np.arange(q, min(q + SCAN_BLOCK, stop), dtype=np.int64)
        hist += np.bincount(evaluate(h, b, starts, events), minlength=b.levels)
    return np.outer(mult, hist), [(0, head), (tail, n)]


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


def _check_span(ci: CyclicDescriptor, cj: CyclicDescriptor, cal: Calendar, span: IndexSpan) -> None:
    """Raise ``insufficient-span`` when both sides are circular with regular upper
    rungs and ``span`` is shorter than their common period."""
    roots = ci.root, cj.root
    if all(d.kind == CIRCULAR and cal.hierarchy.bottom_units(d.upper) for d in roots):
        common = _joint_period(cal, roots)
        if span.length < common:
            raise ComputationError(
                "insufficient-span",
                f"span of {span.length} covers less than one common period ({common}) "
                f"of {ci.name} and {cj.name}",
            )


def _plan(ci: CyclicDescriptor, cj: CyclicDescriptor, cal: Calendar, span: IndexSpan):
    """How a structural pair is counted over ``span``: ``(stride, product, ranges)``.

    The span is sampled at ``stride``, the ``gcd`` of both anchors: the
    coarsest grid on which both sides are constant, so counts mean
    distinct joint granules however fine the bottom rung is. The pair's
    counts are ``product`` (K x L) plus, for each of ``ranges``
    ``(w, k, m)``, w times its counts over grid points k to m - 1.

    The span is first folded by its sub-periods and the pair's joint
    period (``_folds``: periodicity, Bettini et al. 2000), each part
    weighted. When one side repeats every ``_joint_period`` U, a divisor
    of the other side's anchor block B, U groups into B, and a part's
    whole B-blocks count as ``_nested``'s product: the paper's nested
    ordering (hour-of-day inside any day-constant granularity) made exact.
    Only the partial blocks at its two ends are then left to scan; any
    other part is scanned whole. Parts start on the span's grid, as a
    period is a multiple of both anchors.
    """
    sides = ci, cj
    anchors = [_anchor(cal, d) for d in sides]
    periods = [_joint_period(cal, [d]) for d in sides]
    stride = gcd(*anchors)
    # the side, ci first, that repeats within the other's anchor block (an aperiodic one never does)
    nest = next((s for s in (0, 1) if periods[s] and anchors[1 - s] % periods[s] == 0), None)
    product, ranges = np.zeros((ci.levels, cj.levels), dtype=np.int64), []
    for w, part in _folds(cal, sides, span):
        edges = [(0, -(-part.length // stride))]
        if nest is not None:
            counts, edges = _nested(sides[nest], sides[1 - nest], cal, part, stride,
                                    periods[nest], anchors[1 - nest])
            product += w * (counts.T if nest else counts)
        at = (part.start - span.start) // stride
        ranges += [(w, at + k, at + m) for k, m in edges]
    return stride, product, ranges


def _occupancy(
    data: GranularTable | IndexSpan, ds: Sequence[CyclicDescriptor],
    pairs: Sequence[tuple[int, int]], cal: Calendar,
) -> list[tuple[np.ndarray, int]]:
    """(counts, points counted) of each pair ``(i, j)`` of ``ds``, in order.

    A table is counted in one pass, reading the cyclic columns it holds
    for a descriptor. A span's pairs are all checked (``_check_span``)
    before any is counted, then each is planned (``_plan``), and one
    ``_count`` per stride scans the ranges left. No pairs count nothing.
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
    for i, j in pairs:
        _check_span(ds[i], ds[j], cal, data)
    groups: dict[int, list] = {}  # stride: (position in ``pairs``, product, ranges)
    for p, (i, j) in enumerate(pairs):
        stride, product, ranges = _plan(ds[i], ds[j], cal, data)
        groups.setdefault(stride, []).append((p, product, ranges))
    out: list = [None] * len(pairs)
    for stride, group in groups.items():
        counts = _count(ds, [pairs[p] for p, _, _ in group], [r for _, _, r in group], cal,
                        lambda k, m: data.start + stride * np.arange(k, m, dtype=np.int64))
        for (p, product, _), c in zip(group, counts):
            out[p] = (c + product, -(-data.length // stride))
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
    otherwise; the counts are of rows, and ``total`` is the row count.

    Over a span, the counts are of distinct joint granules: the span's
    points at the coarsest stride on which both sides are constant, from
    its start (``_plan``), and ``total`` is the number of those points. A
    span shorter than the common period of two circular sides with regular
    upper rungs raises ``insufficient-span``; ``IndexSpan`` rejects an
    empty span with ``empty-span`` when it is built.
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
    span, every pair is checked before any is counted, so
    ``insufficient-span`` names the first pair in screen order whose
    common period the span misses. A block has ``2 * SCAN_BLOCK // n``
    points for n kept descriptors, so memory does not grow with the number
    of descriptors, the span or the table.
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
    """Export with ``write_csv``: facet_variable, x_variable, facet_levels, x_levels, a row each."""
    write_csv(out, ["facet_variable", "x_variable", "facet_levels", "x_levels"],
              [[r.facet for r in rows], [r.x for r in rows],
               np.array([r.facet_levels for r in rows], dtype=np.int64),
               np.array([r.x_levels for r in rows], dtype=np.int64)], delimiter)
