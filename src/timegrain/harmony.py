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

Scans count in fixed blocks of ``SCAN_BLOCK`` points, evaluating and
tallying one block at a time, so the memory a scan needs does not grow
with the span or the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Sequence

import numpy as np

from .calfile import Calendar
from .cyclic import CIRCULAR, CyclicDescriptor, evaluate
from .errors import ComputationError
from .table import GranularTable, csv_writer

DEFAULT_NEAR_THRESHOLD = 0.05
DEFAULT_NEAR_FLOOR = 2
DEFAULT_MAX_LEVELS = 31
SCAN_BLOCK = 1 << 16  # points evaluated and counted at a time by cross_tab


@dataclass(frozen=True)
class IndexSpan:
    """Half-open synthetic index range [start, start + length); never empty."""

    length: int
    start: int = 0

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ComputationError("empty-span", "span must cover at least one bottom granule")


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


def _tally(ci: CyclicDescriptor, cj: CyclicDescriptor, cal: Calendar, points, k: int, m: int):
    """K x L counts of points ``k`` to ``m - 1``, evaluated ``SCAN_BLOCK`` at a time."""
    counts = np.zeros(ci.levels * cj.levels, dtype=np.int64)
    for lo in range(k, m, SCAN_BLOCK):
        zs = points(lo, min(lo + SCAN_BLOCK, m))
        vi = evaluate(cal.hierarchy, ci, zs, cal.events)
        vj = evaluate(cal.hierarchy, cj, zs, cal.events)
        counts += np.bincount(vi * cj.levels + vj, minlength=counts.size)
    return counts.reshape(ci.levels, cj.levels)


def _grid(span: IndexSpan, stride: int):
    """Points ``k`` to ``m - 1`` of the span sampled at ``stride``, as a function of k, m."""
    return lambda k, m: span.start + stride * np.arange(k, m, dtype=np.int64)


def _nested(
    a: CyclicDescriptor, b: CyclicDescriptor, cal: Calendar,
    span: IndexSpan, stride: int, cycle: int, block: int,
) -> np.ndarray:
    """Structural counts of ``a`` repeating every ``cycle`` units against ``b``
    constant on ``block``-aligned blocks, where ``cycle`` divides ``block``.

    Every whole block holds ``a``'s levels in the same multiplicities and
    one value of ``b``, so those blocks count as their outer product; the
    grid points of the partial blocks at the two ends are scanned.
    """
    n, points = (span.length + stride - 1) // stride, _grid(span, stride)
    first, stop = -(-span.start // block), (span.start + span.length) // block
    if stop <= first:
        return _tally(a, b, cal, points, 0, n)
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
    ends = _tally(a, b, cal, points, 0, head) + _tally(a, b, cal, points, tail, n)
    return np.outer(mult, hist) + ends


def cross_tab(
    data: GranularTable | IndexSpan,
    ci: CyclicDescriptor,
    cj: CyclicDescriptor,
    cal: Calendar,
) -> OccupancyTable:
    """K x L occupancy of the pair over table rows or a synthetic span.

    A span is sampled at the stride ``gcd`` of both anchors, from its
    start. When one side is circular with a regular upper rung whose
    length divides the other side's anchor block, the whole blocks count
    as the product of that side's per-block level multiplicities and a
    histogram of the other side, one sample per block; the grid points of
    the partial blocks at the two ends are scanned, and a span without a
    whole block is scanned throughout. Every other pair is scanned.

    A span samples at least one point: ``IndexSpan`` rejects empty spans
    with ``empty-span`` when it is built.
    """
    if isinstance(data, IndexSpan):
        mode = "structural"
        anchor_i, anchor_j = _anchor(cal, ci), _anchor(cal, cj)
        stride = gcd(anchor_i, anchor_j)
        cyc_i, cyc_j = _cycle(cal, ci), _cycle(cal, cj)
        if cyc_i is not None and cyc_j is not None:
            common = lcm(cyc_i, cyc_j)
            if data.length < common:
                raise ComputationError(
                    "insufficient-span",
                    f"span of {data.length} covers less than one common period ({common}) "
                    f"of {ci.name} and {cj.name}",
                )
        n = (data.length + stride - 1) // stride
        if cyc_i is not None and anchor_j % cyc_i == 0:
            counts = _nested(ci, cj, cal, data, stride, cyc_i, anchor_j)
        elif cyc_j is not None and anchor_i % cyc_j == 0:
            counts = _nested(cj, ci, cal, data, stride, cyc_j, anchor_i).T.copy()
        else:
            counts = _tally(ci, cj, cal, _grid(data, stride), 0, n)
    else:
        mode = "observed"
        n = len(data.index)
        counts = _tally(ci, cj, cal, lambda k, m: data.index[k:m], 0, n)
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
    """
    kept = [d for d in descriptors if d.levels <= max_levels]
    rows: list[HarmonyRow] = []
    for i, a in enumerate(kept):
        for b in kept[i + 1 :]:
            counts = cross_tab(data, a, b, cal).counts
            verdict, _ = _verdict(counts, near_threshold, near_floor)
            if verdict == "clash" or (verdict == "near-clash" and not keep_near_clashes):
                continue
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
