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
granule to its first index. An irregular locator whose table cycle spans
at most ``DENSE_CYCLE_CAP`` anchor granules (146,097 days for the exact
Gregorian months) holds a dense table of the granule of every anchor
granule in the cycle, so locating an index is one gather; above the cap
it keeps only the prefix sums and locates by binary search, so memory
stays bounded on long coprime tables. The ladder alone decides which.

An irregular locator on a regular anchor also finds its sub-period when
built, in about 0.3 ms for the 4,800 Gregorian months, which repeat every
48 (years every 4) but for 6 exceptions in 400 years: periodicity with a
finite set of exceptions (Bettini et al., *Time Granularities in
Databases, Data Mining, and Temporal Reasoning*, 2000), which
``local_repeat`` looks up by bisection.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
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

    Construction checks the ladder and builds its granule locators, so an
    ill-formed ladder raises ``ValidationError`` and never exists. That
    includes a rung whose sizes repeat only after 2^63 bottom units or
    more (``index-overflow``), which the int64 index cannot address.

    ``labels`` maps cyclic granularity names (e.g. ``day_week``) to either
    an explicit label tuple or an integer presentation offset.
    """

    name: str
    rungs: tuple[Rung, ...]
    origin: str = ""
    origin_note: str = ""
    labels: dict[str, object] = field(default_factory=dict)

    def position(self, rung: str) -> int:
        pos = self._positions.get(rung)
        if pos is None:
            raise ValidationError("unknown-rung", f"no rung named {rung!r} in hierarchy {self.name!r}")
        return pos

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

    def repeat(self, rung: str) -> int:
        """Bottom units after which ``rung``'s granule sizes repeat; its block when regular."""
        rep = self._reps[self.position(rung)]
        return _bottom_start(rep, rep.period)

    def local_repeat(self, rung: str, z: int) -> tuple[int, int | None]:
        """(repeat, stop) of ``rung`` from the granule holding index ``z``: its granules
        repeat every ``repeat`` bottom units from there up to ``stop``, the start of
        the next exception of its sub-period; without one, ``repeat(rung)`` and None."""
        rep = self._reps[self.position(rung)]
        if rep.sub is None:
            return self.repeat(rung), None
        (s, exceptions), r, i = rep.sub, rep.repetition, _granule(rep, z)
        at = bisect_left(exceptions, i % r)  # else the first exception of the next cycle
        stop = i - i % r + (exceptions[at] if at < len(exceptions) else r + exceptions[0])
        return _bottom_start(rep, i + s) - _bottom_start(rep, i), _bottom_start(rep, stop)

    def __post_init__(self) -> None:
        """Check ladder well-formedness, then build the granule locators."""
        if len(self.rungs) < 2:
            raise ValidationError("empty-hierarchy", f"hierarchy {self.name!r} needs at least 2 rungs")
        positions: dict[str, int] = {}
        for rung in self.rungs:
            if rung.name in positions:
                raise ValidationError("duplicate-rung", f"rung {rung.name!r} declared twice")
            positions[rung.name] = len(positions)
        object.__setattr__(self, "_positions", positions)
        top = self.rungs[-1]
        if not (isinstance(top.rule, ConstantPeriod) and top.rule.period == 1):
            raise ValidationError(
                "bad-sentinel", f"top rung {top.name!r} must carry the sentinel period 1"
            )
        for rung in self.rungs[:-1]:
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
                if rule.unit is not None and rule.unit not in positions:
                    raise ValidationError("bad-unit", f"rung {rung.name!r} references unknown unit {rule.unit!r}")
        # per-rung granule locators, built bottom-up along the ladder; one
        # cycle of each rung must fit the int64 index before numpy sees it
        reps: list[_Rep] = [_Regular(1)]
        for pos, rung in enumerate(self.rungs[:-1]):
            rule, below = rung.rule, reps[pos]
            if isinstance(rule, ConstantPeriod):
                # one cycle of the groups, counted in granules of their anchor
                anchor, units = (below, rule.period) if isinstance(below, _Regular) else (
                    below.anchor, rule.period // gcd(below.repetition, rule.period) * below.cycle)
            else:
                unit = rule.unit or rung.name
                upos = self.position(unit)
                if upos > pos:
                    raise ValidationError(
                        "bad-unit", f"unit {unit!r} is above the rung {rung.name!r} carrying the rule"
                    )
                anchor, units = reps[upos], sum(rule.cardinalities)
            if _bottom_start(anchor, units) >= 2**63:
                raise ValidationError(
                    "index-overflow",
                    f"one cycle of rung {self.rungs[pos + 1].name!r} spans 2^63 or more "
                    "bottom units; indices are int64",
                )
            reps.append(below.grouped(rule.period) if isinstance(rule, ConstantPeriod)
                        else _Irregular(anchor, rule.cardinalities))
        object.__setattr__(self, "_reps", tuple(reps))


# largest table cycle, in anchor granules, given a dense granule table (at most 4 MB)
DENSE_CYCLE_CAP = 1 << 20


class _Regular:
    """Granules are fixed blocks of ``block`` bottom units."""

    __slots__ = ("block",)
    period = 1  # granules after which their sizes in bottom units repeat
    sub = None  # no sub-period: every granule is alike

    def __init__(self, block: int):
        self.block = block

    def idx(self, z):
        return z // self.block

    def start(self, i):
        return i * self.block

    def grouped(self, p: int) -> "_Regular":
        return _Regular(self.block * p)


class _Irregular:
    """Granules sized by a repeating cardinality table over anchor granules.

    ``prefix`` holds the first anchor granule of each granule in the
    cycle. When the cycle is at most ``DENSE_CYCLE_CAP`` anchor granules,
    ``dense`` maps each anchor granule of the cycle to its granule
    (``np.repeat(np.arange(repetition), cards)`` in the narrowest
    unsigned type) and ``idx`` gathers from it; otherwise ``dense`` is
    None and ``idx`` binary-searches ``prefix``. ``sub`` is its ``_sub_period``.
    """

    __slots__ = ("anchor", "prefix", "cycle", "repetition", "period", "dense", "sub")

    def __init__(self, anchor, cardinalities):
        self.anchor = anchor
        cards = np.asarray(cardinalities, dtype=np.int64)
        self.prefix = np.concatenate(([0], np.cumsum(cards)))
        self.cycle = int(self.prefix[-1])
        self.repetition = len(cards)
        # sizes in bottom units repeat once the anchor's own sizes are back in phase
        self.period = self.repetition * (anchor.period // gcd(self.cycle, anchor.period))
        self.dense = None
        if self.cycle <= DENSE_CYCLE_CAP:
            granules = np.arange(self.repetition, dtype=np.min_scalar_type(self.repetition - 1))
            self.dense = np.repeat(granules, cards)
        self.sub = _sub_period(cards) if isinstance(anchor, _Regular) else None

    def _split(self, z):
        """Table cycle of ``z`` and its granule's position in the table."""
        cyc, within = np.divmod(np.asarray(self.anchor.idx(z), dtype=np.int64), self.cycle)
        if self.dense is None:
            return cyc, np.searchsorted(self.prefix, within, side="right") - 1
        return cyc, self.dense[within]

    def idx(self, z):
        cyc, j = self._split(z)
        return cyc * self.repetition + j

    def start(self, i):
        cyc, j = np.divmod(i, self.repetition)
        return self.anchor.start(cyc * self.cycle + self.prefix[j])

    def floor(self, z):
        """First index of the granule containing ``z``, from one table lookup."""
        cyc, j = self._split(z)
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


def _sub_period(cards: np.ndarray) -> tuple[int, list[int]] | None:
    """(s, exceptions): the divisor s < R of the table length R whose longest run of
    granules i with ``cards[i] == cards[(i + s) % R]`` holds the most periods s, two
    or more, and the sorted positions of the other granules. A divisor with no
    exception, or with more than one per two periods (each costs the fold a lookup),
    is passed over; None if no other has such a run."""
    r, best, most, twice = len(cards), None, 1, np.concatenate((cards, cards))
    for s in range(1, r // 2 + 1):
        if r // s <= most:  # a run shorter than the table holds fewer periods
            break
        if r % s:
            continue
        differs = twice[s : s + r] != cards
        if bytes((most + 1) * s) in differs.tobytes() * 2 and differs.any():
            exceptions = np.flatnonzero(differs)  # and the run across the table's end
            run = max(int((exceptions[1:] - exceptions[:-1]).max(initial=0)),
                      int(exceptions[0]) + r - int(exceptions[-1])) - 1
            if run // s > most and 2 * len(exceptions) <= r // s:
                best, most = (s, exceptions.tolist()), run // s
    return best


def _bottom_start(rep: _Rep, i: int) -> int:
    """First bottom index of granule ``i`` of ``rep``, in exact integers."""
    while isinstance(rep, _Irregular):
        cyc, j = divmod(i, rep.repetition)
        i = cyc * rep.cycle + int(rep.prefix[j])
        rep = rep.anchor
    return i * rep.block


def _granule(rep: _Rep, z: int) -> int:
    """Granule of ``rep`` holding bottom index ``z``, in exact integers."""
    if isinstance(rep, _Regular):
        return z // rep.block
    cyc, w = divmod(_granule(rep.anchor, z), rep.cycle)
    j = rep.prefix.searchsorted(w, "right") - 1 if rep.dense is None else rep.dense[w]
    return cyc * rep.repetition + int(j)


def _anchor_block(rep: _Rep) -> int:
    while isinstance(rep, _Irregular):
        rep = rep.anchor
    return rep.block


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


def is_scalar(z) -> bool:
    """Whether ``z`` is one index rather than an array of them."""
    return np.isscalar(z) or isinstance(z, int)


def linear_granule(h: Hierarchy, z, rung: str):
    """Index of the granule of ``rung`` containing bottom granule ``z``.

    Accepts a scalar or a numpy integer array; total on the index set.
    """
    rep = h._reps[h.position(rung)]
    return _granule(rep, int(z)) if is_scalar(z) else rep.idx(z)


def granule_start(h: Hierarchy, rung: str, index):
    """First bottom granule of granule ``index`` of ``rung``."""
    rep = h._reps[h.position(rung)]
    return _bottom_start(rep, int(index)) if is_scalar(index) else rep.start(index)


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
    half-open over the bottom granularity and pairwise disjoint;
    construction raises ``ValidationError`` otherwise.
    """

    name: str
    categories: tuple[EventCategory, ...]

    def __post_init__(self) -> None:
        """Check interval sanity and pairwise disjointness, then build the lookup."""
        for cat in self.categories:
            if cat.index < 1:
                raise ValidationError(
                    "bad-category", f"category index {cat.index} in {self.name!r}; 0 is reserved for none"
                )
            for s, e in cat.intervals:
                if s < 0 or e <= s:
                    raise ValidationError(
                        "bad-interval", f"interval [{s}, {e}) in {self.name!r} is not a half-open range"
                    )
        triples = sorted((s, e, c.index) for c in self.categories for s, e in c.intervals)
        for (_, e1, _), (s2, _, _) in zip(triples, triples[1:]):
            if s2 < e1:
                raise ValidationError(
                    "overlapping-intervals", f"intervals overlap at index {s2} in {self.name!r}"
                )
        # starts, ends and categories in start order, after an empty interval
        # that starts before every index, so each index has a preceding interval
        first = np.iinfo(np.int64).min
        try:
            lookup = np.array([(first, first, 0), *triples], dtype=np.int64).T.copy()
        except OverflowError:
            raise ValidationError(
                "index-overflow", f"an interval or category index in {self.name!r} exceeds {2**63 - 1}"
            ) from None
        object.__setattr__(self, "_lookup", lookup)

    @property
    def n_levels(self) -> int:
        return max((c.index for c in self.categories), default=0) + 1

    def category_of(self, z):
        """Category index at z (0 outside all intervals); scalar or array."""
        starts, ends, cats = self._lookup
        zz = np.asarray(z, dtype=np.int64)
        pos = np.searchsorted(starts, zz, side="right") - 1
        out = np.where(zz < ends[pos], cats[pos], 0)
        return int(out) if is_scalar(z) else out
