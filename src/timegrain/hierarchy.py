"""Linear granularities, conversion rules, and hierarchy ladders.

A hierarchy is an ordered ladder of linear granularities over a single
integer index. Granule 0 of every rung starts at index 0 (the declared
origin instant), so all cyclic counters are zero at the origin. Each
rung carries the conversion rule to the rung above it: either a constant
period or an irregular cardinality table that repeats after a fixed
number of granules.

An irregular rule may declare a ``unit`` rung below its carrier. The
cardinalities then count granules of that unit rung, and the rungs
strictly between the unit and the rule's target do not nest into the
target (they "slide" across its boundaries). This is how a ladder such
as hour/day/week/month can hold both origin-aligned weeks (for
day-of-week) and true calendar months (for day-of-month) at once.

Each rung has a granule locator that maps an index to its granule and a
granule to its first index. The relativity checks between rungs
(finer-than, groups-into and periodical, after Bettini et al., *Time
Granularities in Databases, Data Mining, and Temporal Reasoning*, 2000)
are computed from these locators over a finite span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, prod
from typing import Union

import numpy as np

from .errors import ComputationError, ValidationError


@dataclass(frozen=True)
class ConstantPeriod:
    """Exactly ``period`` granules of this rung per granule of the next."""

    period: int


@dataclass(frozen=True)
class IrregularMapping:
    """Granule sizes of the next rung, repeating after the whole table.

    ``cardinalities[w]`` is the size of the next rung's granule ``w``,
    measured in granules of ``unit`` (the carrying rung itself when
    ``unit`` is None). The table repeats with period ``repetition``.
    """

    cardinalities: tuple[int, ...]
    unit: str | None = None

    @property
    def repetition(self) -> int:
        return len(self.cardinalities)


ConversionRule = Union[ConstantPeriod, IrregularMapping]


@dataclass(frozen=True)
class Rung:
    """A linear granularity plus its conversion rule to the rung above."""

    name: str
    rule: ConversionRule


@dataclass(frozen=True)
class Hierarchy:
    """Ordered ladder of rungs, bottom first; top rung carries period 1.

    ``labels`` maps cyclic granularity names (e.g. ``day_week``) to either
    an explicit label tuple or an integer presentation offset.
    """

    name: str
    rungs: tuple[Rung, ...]
    origin: str = ""
    origin_note: str = ""
    labels: dict[str, object] = field(default_factory=dict)

    def position(self, rung: str) -> int:
        for i, r in enumerate(self.rungs):
            if r.name == rung:
                return i
        raise ValidationError("unknown-rung", f"no rung named {rung!r} in hierarchy {self.name!r}")

    @property
    def rung_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rungs)

    @property
    def bottom(self) -> str:
        return self.rungs[0].name

    def bottom_units(self, rung: str) -> int | None:
        """Index-set size of one granule of ``rung``, or None if variable."""
        rep = self._reps[self.position(rung)]
        return rep.block if isinstance(rep, _Regular) else None

    def anchor_block(self, rung: str) -> int:
        """Finest constant block (in bottom units) on which ``rung``'s granule index is constant."""
        return _anchor_block(self._reps[self.position(rung)])

    @cached_property
    def _reps(self) -> tuple["_Rep", ...]:
        """Per-rung granule locators, built bottom-up along the ladder."""
        reps: list[_Rep] = [_Regular(1)]
        for pos, rung in enumerate(self.rungs[:-1]):
            rule = rung.rule
            if isinstance(rule, ConstantPeriod):
                reps.append(reps[pos].grouped(rule.period))
            else:
                unit = rule.unit or rung.name
                upos = self.position(unit)
                if upos > pos:
                    raise ValidationError(
                        "bad-unit", f"unit {unit!r} is above the rung {rung.name!r} carrying the rule"
                    )
                reps.append(_Irregular(reps[upos], rule.cardinalities))
        return tuple(reps)


class _Regular:
    """Granules are fixed blocks of ``block`` bottom units."""

    __slots__ = ("block",)
    period = 1  # granules after which their sizes in bottom units repeat

    def __init__(self, block: int):
        self.block = block

    def idx(self, z):
        return z // self.block

    def start(self, i):
        return i * self.block

    def grouped(self, p: int) -> "_Regular":
        return _Regular(self.block * p)


class _Irregular:
    """Granules sized by a repeating cardinality table over anchor granules."""

    __slots__ = ("anchor", "prefix", "cycle", "repetition", "period")

    def __init__(self, anchor, cardinalities):
        self.anchor = anchor
        cards = np.asarray(cardinalities, dtype=np.int64)
        self.prefix = np.concatenate(([0], np.cumsum(cards)))
        self.cycle = int(self.prefix[-1])
        self.repetition = len(cards)
        # sizes in bottom units repeat once the anchor's own sizes are back in phase
        self.period = self.repetition * (anchor.period // gcd(self.cycle, anchor.period))

    def idx(self, z):
        a = self.anchor.idx(z)
        cyc, within = np.divmod(a, self.cycle)
        j = np.searchsorted(self.prefix, within, side="right") - 1
        return cyc * self.repetition + j

    def start(self, i):
        cyc, j = np.divmod(i, self.repetition)
        return self.anchor.start(cyc * self.cycle + self.prefix[j])

    def grouped(self, p: int) -> "_Irregular":
        """Groups of ``p`` consecutive granules, on the same anchor.

        The table holds one cycle of group sizes, ``repetition // gcd``
        entries read from the prefix sums; it is never tiled to the lcm.
        """
        k = np.arange(self.repetition // gcd(self.repetition, p) + 1) * p
        cyc, j = np.divmod(k, self.repetition)
        return _Irregular(self.anchor, np.diff(cyc * self.cycle + self.prefix[j]))


_Rep = Union[_Regular, _Irregular]


def _anchor_block(rep: _Rep) -> int:
    while isinstance(rep, _Irregular):
        rep = rep.anchor
    return rep.block


def validate_hierarchy(h: Hierarchy) -> Hierarchy:
    """Check ladder well-formedness; return ``h`` unchanged if sound."""
    if len(h.rungs) < 2:
        raise ValidationError("empty-hierarchy", f"hierarchy {h.name!r} needs at least 2 rungs")
    seen: set[str] = set()
    for rung in h.rungs:
        if rung.name in seen:
            raise ValidationError("duplicate-rung", f"rung {rung.name!r} declared twice")
        seen.add(rung.name)
    top = h.rungs[-1]
    if not (isinstance(top.rule, ConstantPeriod) and top.rule.period == 1):
        raise ValidationError(
            "bad-sentinel", f"top rung {top.name!r} must carry the sentinel period 1"
        )
    for rung in h.rungs[:-1]:
        rule = rung.rule
        if isinstance(rule, ConstantPeriod):
            if rule.period < 2:
                raise ValidationError(
                    "bad-period",
                    f"rung {rung.name!r} has period {rule.period}; non-top rungs need a period of 2 or more",
                )
        else:
            if not rule.cardinalities:
                raise ValidationError("bad-cardinality", f"rung {rung.name!r} has an empty cardinality table")
            if min(rule.cardinalities) < 1:
                raise ValidationError(
                    "bad-cardinality", f"rung {rung.name!r} has a non-positive cardinality"
                )
            if rule.unit is not None and rule.unit not in {r.name for r in h.rungs}:
                raise ValidationError("bad-unit", f"rung {rung.name!r} references unknown unit {rule.unit!r}")
    h._reps  # force locator construction; raises on inconsistent units
    return h


def period_length(h: Hierarchy, lower: str, upper: str) -> int:
    """Product of the constant periods of the rungs spanning lower..upper."""
    lo, hi = h.position(lower), h.position(upper)
    if lo > hi:
        raise ValidationError("bad-span", f"{lower!r} is above {upper!r}")
    for rung in h.rungs[lo:hi]:
        if isinstance(rung.rule, IrregularMapping):
            raise ComputationError(
                "irregular-span",
                f"span {lower}..{upper} crosses the irregular rung {rung.name!r}",
            )
    return prod(rung.rule.period for rung in h.rungs[lo:hi])


def linear_granule(h: Hierarchy, z, rung: str):
    """Index of the granule of ``rung`` containing bottom granule ``z``.

    Accepts a scalar or a numpy integer array; total on the index set.
    """
    rep = h._reps[h.position(rung)]
    out = rep.idx(z)
    return int(out) if np.isscalar(z) or isinstance(z, int) else out


def granule_start(h: Hierarchy, rung: str, index):
    """First bottom granule of granule ``index`` of ``rung``."""
    rep = h._reps[h.position(rung)]
    out = rep.start(index)
    return int(out) if np.isscalar(index) or isinstance(index, int) else out


def _granule_bounds(h: Hierarchy, rung: str, span_end: int) -> np.ndarray:
    """Bounds of the complete granules of ``rung`` in [0, span_end); bound k starts granule k."""
    if span_end <= 0:
        raise ComputationError("empty-span", "span must cover at least one bottom granule")
    rep = h._reps[h.position(rung)]
    return rep.start(np.arange(rep.idx(span_end) + 1))


def finer_than(h: Hierarchy, fine: str, coarse: str, span_end: int) -> bool:
    """True iff every complete granule of ``fine`` sits inside one granule of ``coarse``."""
    bounds = _granule_bounds(h, fine, span_end)
    c = h._reps[h.position(coarse)]
    return bool((c.idx(bounds[:-1]) == c.idx(bounds[1:] - 1)).all())


def groups_into(h: Hierarchy, fine: str, coarse: str, span_end: int) -> bool:
    """True iff every complete granule of ``coarse`` is exactly tiled by granules of ``fine``."""
    bounds = _granule_bounds(h, coarse, span_end)
    g = h._reps[h.position(fine)]
    return bool((g.start(g.idx(bounds)) == bounds).all())


def is_periodical(h: Hierarchy, fine: str, coarse: str, span_end: int) -> tuple[int, int] | None:
    """Smallest (R, P) such that shifting ``coarse`` by R granules shifts its tiling by P granules of ``fine``.

    Verdicts are relative to the span [0, span_end); None means no
    repetition within the span was detected.
    """
    if not groups_into(h, fine, coarse, span_end):
        raise ValidationError(
            "not-a-grouping", f"{fine!r} does not group into {coarse!r} on this span"
        )
    bounds = _granule_bounds(h, coarse, span_end)
    n = len(bounds) - 1
    if n < 2:
        raise ComputationError(
            "insufficient-span", "need at least two complete coarse granules to detect a period"
        )
    # fine index at each coarse bound: granule i spans fine granules [at[i], at[i + 1])
    at = h._reps[h.position(fine)].idx(bounds)
    for r in range(1, n):
        shift = at[r:] - at[:-r]
        if (shift == shift[0]).all():
            return (r, int(shift[0]))
    return None


@dataclass(frozen=True)
class EventCategory:
    """One labelled category of an aperiodic calendar, as index intervals."""

    index: int
    label: str
    intervals: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class AperiodicEventCalendar:
    """Recurring but non-periodic categorization of the bottom index.

    Category 0 is implicit and means "none of the events". Intervals are
    half-open over the bottom granularity and pairwise disjoint.
    """

    name: str
    categories: tuple[EventCategory, ...]

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        triples = sorted(
            (s, e, c.index) for c in self.categories for s, e in c.intervals
        )
        starts = np.asarray([t[0] for t in triples], dtype=np.int64)
        ends = np.asarray([t[1] for t in triples], dtype=np.int64)
        cats = np.asarray([t[2] for t in triples], dtype=np.int64)
        return starts, ends, cats

    @property
    def n_levels(self) -> int:
        return max((c.index for c in self.categories), default=0) + 1

    def category_of(self, z):
        """Category index at z (0 outside all intervals); scalar or array."""
        starts, ends, cats = self._lookup
        zz = np.asarray(z, dtype=np.int64)
        pos = np.searchsorted(starts, zz, side="right") - 1
        valid = pos >= 0
        pos_c = np.clip(pos, 0, None)
        hit = valid & (zz < ends[pos_c])
        out = np.where(hit, cats[pos_c], 0)
        return int(out) if np.isscalar(z) or isinstance(z, int) else out


def validate_event_calendar(cal: AperiodicEventCalendar) -> AperiodicEventCalendar:
    """Check interval sanity and pairwise disjointness across categories."""
    all_intervals = []
    for cat in cal.categories:
        if cat.index < 1:
            raise ValidationError(
                "bad-category", f"category index {cat.index} in {cal.name!r}; 0 is reserved for none"
            )
        for s, e in cat.intervals:
            if s < 0 or e <= s:
                raise ValidationError(
                    "bad-interval", f"interval [{s}, {e}) in {cal.name!r} is not a half-open range"
                )
            all_intervals.append((s, e))
    all_intervals.sort()
    for (s1, e1), (s2, _) in zip(all_intervals, all_intervals[1:]):
        if s2 < e1:
            raise ValidationError(
                "overlapping-intervals", f"intervals overlap at index {s2} in {cal.name!r}"
            )
    return cal
