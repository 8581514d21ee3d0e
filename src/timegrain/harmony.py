"""Pairwise screening of cyclic granularities: harmonies, clashes, near-clashes.

A pair is cross-tabulated into a K x L occupancy table, either over the
rows of a data table (observed mode) or over a synthetic index span
(structural mode). A pair with an empty cell is a clash; a pair whose
smallest cells fall below the rarity cutoff is a near-clash; anything
else is a harmony.

Structural scans sample the span at the coarsest stride on which both
granularities are constant, so counts mean "distinct joint granules" and
verdicts do not depend on how fine the bottom granularity happens to be.
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


@dataclass(frozen=True)
class IndexSpan:
    """Half-open synthetic index range [start, start + length)."""

    length: int
    start: int = 0


@dataclass(frozen=True)
class OccupancyTable:
    """Counts of observations (or joint granules) per level combination."""

    ci: CyclicDescriptor
    cj: CyclicDescriptor
    counts: np.ndarray
    mode: str
    total: int

    @property
    def k(self) -> int:
        return self.ci.levels

    @property
    def l(self) -> int:
        return self.cj.levels


@dataclass(frozen=True)
class PairClassification:
    """Verdict plus the cells that drove it and the cutoff used."""

    verdict: str
    evidence: tuple[tuple[int, int, int], ...]
    mode: str
    threshold: float
    occupancy: OccupancyTable


def _anchor(cal: Calendar, d: CyclicDescriptor) -> int:
    """Block size (bottom units) on which d's value is constant."""
    d = d.root
    if d.kind == "aperiodic":
        return 1
    return cal.hierarchy.anchor_block(d.lower)


def _cycle(cal: Calendar, d: CyclicDescriptor) -> int | None:
    """Exact repeat length of d over the index, bottom units; None if irregular."""
    d = d.root
    if d.kind != CIRCULAR:
        return None
    return cal.hierarchy.bottom_units(d.upper)


def cross_tab(
    data: GranularTable | IndexSpan,
    ci: CyclicDescriptor,
    cj: CyclicDescriptor,
    cal: Calendar,
) -> OccupancyTable:
    """K x L occupancy of the pair over table rows or a synthetic span."""
    if isinstance(data, IndexSpan):
        mode = "structural"
        stride = gcd(_anchor(cal, ci), _anchor(cal, cj))
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
        zs = data.start + stride * np.arange(n, dtype=np.int64)
    else:
        mode = "observed"
        zs = data.index
    vi = evaluate(cal.hierarchy, ci, zs, cal.events)
    vj = evaluate(cal.hierarchy, cj, zs, cal.events)
    counts = np.bincount(vi * cj.levels + vj, minlength=ci.levels * cj.levels)
    counts = counts.reshape(ci.levels, cj.levels)
    return OccupancyTable(ci, cj, counts, mode, int(len(zs)))


def classify_pair(
    occ: OccupancyTable,
    near_threshold: float = DEFAULT_NEAR_THRESHOLD,
    near_floor: int = DEFAULT_NEAR_FLOOR,
) -> PairClassification:
    """Clash on any empty cell; near-clash on rare cells; harmony otherwise.

    A cell is rare when its count falls below
    ``max(near_floor, near_threshold * mean nonzero count)``: the relative
    term catches gross imbalance in dense tables, the floor catches
    combinations seen at most once however long the span.
    """
    counts = occ.counts
    empty = np.argwhere(counts == 0)
    if len(empty):
        cells = tuple((int(k), int(l), 0) for k, l in empty)
        return PairClassification("clash", cells, occ.mode, 0.0, occ)
    nonzero = counts[counts > 0]
    cutoff = max(float(near_floor), near_threshold * float(nonzero.mean()))
    rare = np.argwhere(counts < cutoff)
    if len(rare):
        cells = tuple((int(k), int(l), int(counts[k, l])) for k, l in rare)
        return PairClassification("near-clash", cells, occ.mode, cutoff, occ)
    return PairClassification("harmony", (), occ.mode, cutoff, occ)


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
            verdict = classify_pair(
                cross_tab(data, a, b, cal), near_threshold, near_floor
            ).verdict
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
