"""Cyclic granularity descriptors and their evaluation over the index set.

A cyclic granularity names a (lower, upper) rung pair of a hierarchy and
assigns every index the offset of its lower-granule within its containing
upper-granule. Regular pairs reduce to modular arithmetic; pairs crossing
an irregular rung count whole lower units elapsed since the upper granule
started. Aperiodic granularities categorize the index through an event
calendar instead of a rung pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Mapping, Sequence

import numpy as np

from .errors import ComputationError, ValidationError
from .hierarchy import (
    AperiodicEventCalendar,
    Hierarchy,
    IrregularMapping,
    is_scalar,
    period_length,
)

CIRCULAR = "circular"
QUASI_CIRCULAR = "quasi_circular"
APERIODIC = "aperiodic"
LEVEL_WALK_CAP = 1 << 22  # most upper granules a quasi-circular level count walks


@dataclass(frozen=True)
class CyclicDescriptor:
    """A named cyclic granularity plus everything needed to evaluate it.

    ``labels`` is either an explicit tuple (one entry per level), an int
    presentation offset, or None for plain decimal labels. Derived
    descriptors carry a ``base`` descriptor and a total ``remap`` table.
    """

    name: str
    kind: str
    levels: int
    lower: str | None = None
    upper: str | None = None
    labels: object = None
    calendar: str | None = None
    base: "CyclicDescriptor | None" = None
    remap: tuple[int, ...] | None = None

    @property
    def root(self) -> "CyclicDescriptor":
        """The descriptor that derivation starts from: follows ``base`` to its end."""
        d = self
        while d.base is not None:
            d = d.base
        return d


def _check_labels(labels: object, levels: int, name: str) -> None:
    if isinstance(labels, (tuple, list)):
        if len(labels) != levels or len(set(labels)) != len(labels):
            raise ValidationError(
                "bad-labels",
                f"label map for {name!r} must be a bijection onto {levels} levels",
            )


def pairwise_descriptor(
    h: Hierarchy, lower: str, upper: str, labels: object = None
) -> CyclicDescriptor:
    """Descriptor for the rung pair, with kind and level count inferred."""
    lo, hi = h.position(lower), h.position(upper)
    if lo >= hi:
        raise ValidationError("bad-span", f"{lower!r} must sit below {upper!r}")
    irregular = any(isinstance(r.rule, IrregularMapping) for r in h.rungs[lo:hi])
    name = f"{lower}_{upper}"
    if labels is None:
        labels = h.labels.get(name)
    if irregular:
        kind, levels = QUASI_CIRCULAR, _quasi_levels(h, lo, hi)
    else:
        kind, levels = CIRCULAR, period_length(h, lower, upper)
    _check_labels(labels, levels, name)
    return CyclicDescriptor(name, kind, levels, lower=lower, upper=upper, labels=labels)


def aperiodic_descriptor(
    cal: AperiodicEventCalendar, labels: object = None
) -> CyclicDescriptor:
    """Descriptor evaluating to the calendar's category index (0 = none)."""
    levels = cal.n_levels
    _check_labels(labels, levels, cal.name)
    return CyclicDescriptor(cal.name, APERIODIC, levels, labels=labels, calendar=cal.name)


def _quasi_levels(h: Hierarchy, lo: int, hi: int) -> int:
    """Largest value plus one over one joint period of both rungs, 65,536 upper
    granules at a time (at most ``LEVEL_WALK_CAP``, else ``unsupported-span``): a
    sliding lower rung meets the upper one in another phase in each granule."""
    lower, upper = h.rungs[lo].name, h.rungs[hi].name
    urep, lidx, bu = h._reps[hi], h._reps[lo].idx, h.bottom_units(lower)
    n = urep.period * lcm(h.repeat(lower), h.repeat(upper)) // h.repeat(upper)
    if n > LEVEL_WALK_CAP:
        raise ComputationError("unsupported-span", f"{lower!r} and {upper!r} repeat together only "
                               f"after {n} {upper!r} granules; levels are counted over {LEVEL_WALK_CAP}")
    most = 0
    for k in range(0, n, 1 << 16):
        bounds = urep.start(np.arange(k, min(k + (1 << 16), n) + 1))
        top = (np.diff(bounds) - 1) // bu if bu else lidx(bounds[1:] - 1) - lidx(bounds[:-1])
        most = max(most, int(top.max()))
    return most + 1


def evaluate(
    h: Hierarchy,
    d: CyclicDescriptor,
    z,
    events: Mapping[str, AperiodicEventCalendar] | None = None,
):
    """Level of descriptor ``d`` at index ``z`` (scalar or integer array)."""
    if d.base is not None:
        base = evaluate(h, d.base, z, events)
        table = np.asarray(d.remap, dtype=np.int64)
        out = table[base]
    elif d.kind == APERIODIC:
        if events is None or d.calendar not in events:
            raise ValidationError(
                "unknown-calendar", f"no event calendar {d.calendar!r} available"
            )
        return events[d.calendar].category_of(z)
    elif d.kind == CIRCULAR:
        idx = h._reps[h.position(d.lower)].idx(z)
        out = idx % period_length(h, d.lower, d.upper)
    else:
        # upper reps of quasi-circular pairs are irregular
        ustart = h._reps[h.position(d.upper)].floor(z)
        bu = h.bottom_units(d.lower)
        if bu is not None:
            out = (z - ustart) // bu
        else:
            lrep = h._reps[h.position(d.lower)]
            out = lrep.idx(z) - lrep.idx(ustart)
    return int(out) if is_scalar(z) else np.asarray(out, dtype=np.int64)


def apply_labels(d: CyclicDescriptor, v: int) -> str:
    """Display string for level ``v``; decimal index when no map is declared."""
    if v < 0 or v >= d.levels:
        raise ValidationError(
            "label-domain", f"level {v} outside [0, {d.levels}) for {d.name!r}"
        )
    if d.labels is None:
        return str(v)
    if isinstance(d.labels, int):
        return str(v + d.labels)
    return d.labels[v]


def label_list(d: CyclicDescriptor) -> list[str]:
    return [apply_labels(d, v) for v in range(d.levels)]


def derive_descriptor(
    base: CyclicDescriptor,
    remap: Mapping[int, int] | Sequence[int],
    name: str,
    labels: object = None,
) -> CyclicDescriptor:
    """Descriptor whose value is ``remap(base value)``; remap must be total."""
    if isinstance(remap, Mapping):
        missing = [v for v in range(base.levels) if v not in remap]
        if missing:
            raise ValidationError(
                "partial-remap",
                f"remap for {name!r} misses base levels {missing}",
            )
        table = tuple(int(remap[v]) for v in range(base.levels))
    else:
        if len(remap) != base.levels:
            raise ValidationError(
                "partial-remap",
                f"remap for {name!r} covers {len(remap)} of {base.levels} base levels",
            )
        table = tuple(int(x) for x in remap)
    if any(t < 0 for t in table):
        raise ValidationError("partial-remap", f"remap for {name!r} contains negative levels")
    levels = max(table) + 1
    if set(table) != set(range(levels)):
        raise ValidationError(
            "partial-remap", f"remap for {name!r} must be a surjection onto 0..{levels - 1}"
        )
    _check_labels(labels, levels, name)
    return CyclicDescriptor(
        name, base.kind, levels, lower=base.lower, upper=base.upper,
        labels=labels, base=base, remap=table,
    )
