"""Cyclic granularity descriptors and their evaluation over the index set.

A cyclic granularity names a (lower, upper) rung pair of a hierarchy and
assigns every index the offset of its lower-granule within its containing
upper-granule. Regular pairs reduce to modular arithmetic; pairs crossing
an irregular rung count whole lower units elapsed since the upper granule
started. Aperiodic granularities categorize the index through an event
calendar instead of a rung pair.

``compose_up`` and ``reduce_to_single`` implement the order-up algebra on
proper chains: multi-order values assembled from single-order ones, and
narrower single-order values recovered from a known multi-order value
without revisiting the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ComputationError, ValidationError
from .hierarchy import (
    AperiodicEventCalendar,
    ConstantPeriod,
    Hierarchy,
    IrregularMapping,
    period_length,
)

CIRCULAR = "circular"
QUASI_CIRCULAR = "quasi_circular"
APERIODIC = "aperiodic"


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
    """Largest count of whole lower units in any upper granule."""
    urep = h._reps[hi]
    bounds = urep.start(np.arange(urep.period + 1))
    bu = h.bottom_units(h.rungs[lo].name)
    if bu is not None:
        counts = (np.diff(bounds) - 1) // bu + 1
    else:
        counts = np.diff(h._reps[lo].idx(bounds))
    return int(counts.max())


def _scalar(z) -> bool:
    return np.isscalar(z) or isinstance(z, int)


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
        urep = h._reps[h.position(d.upper)]
        ustart = urep.start(urep.idx(z))
        bu = h.bottom_units(d.lower)
        if bu is not None:
            out = (z - ustart) // bu
        else:
            lrep = h._reps[h.position(d.lower)]
            out = lrep.idx(z) - lrep.idx(ustart)
    return int(out) if _scalar(z) else np.asarray(out, dtype=np.int64)


def _effective_steps(h: Hierarchy, lo: int, hi: int):
    """Chain of (from_pos, to_pos, rule) steps with sliding rungs collapsed out."""
    seq = [lo]
    steps: list[tuple[int, int, object]] = []
    pos = lo
    while pos < hi:
        rule = h.rungs[pos].rule
        if isinstance(rule, ConstantPeriod):
            steps.append((pos, pos + 1, rule))
            seq.append(pos + 1)
        else:
            upos = h.position(rule.unit) if rule.unit else pos
            if upos not in seq:
                raise ComputationError(
                    "unsupported-span",
                    f"{h.rungs[lo].name!r} slides across {h.rungs[pos + 1].name!r} boundaries; "
                    "no chain composition exists",
                )
            while seq[-1] != upos:
                seq.pop()
                steps.pop()
            steps.append((upos, pos + 1, rule))
            seq.append(pos + 1)
        pos += 1
    return steps


def compose_up(h: Hierarchy, lower: str, upper: str, z: int) -> int:
    """Multi-order-up value assembled recursively from single-order-up values.

    Supports chains with at most one irregular rung; spans needing more
    raise ``unsupported-span``.
    """
    lo, hi = h.position(lower), h.position(upper)
    if lo >= hi:
        raise ValidationError("bad-span", f"{lower!r} must sit below {upper!r}")
    steps = _effective_steps(h, lo, hi)
    irregular = [k for k, s in enumerate(steps) if isinstance(s[2], IrregularMapping)]
    if len(irregular) > 1:
        raise ComputationError(
            "unsupported-span",
            f"span {lower}..{upper} crosses {len(irregular)} irregular rungs; only one is supported",
        )
    reps = h._reps

    def single_circular(step) -> int:
        frm, to, rule = step
        return int(reps[frm].idx(z)) % rule.period

    if not irregular:
        # all-circular recursion: sum of single-order values scaled by
        # the lower-unit size of each intermediate rung
        total, coeff = 0, 1
        for step in steps:
            total += coeff * single_circular(step)
            coeff *= step[2].period
        return total

    k = irregular[0]
    frm, to, rule = steps[k]
    below, coeff = 0, 1
    for step in steps[:k]:
        below += coeff * single_circular(step)
        coeff *= step[2].period
    # offset of z's frm-granule within its to-granule (irregular single-order)
    to_idx = int(reps[to].idx(z))
    frm_at_start = int(reps[frm].idx(reps[to].start(to_idx)))
    quasi = int(reps[frm].idx(z)) - frm_at_start
    value = below + coeff * quasi
    if to == hi:
        return value
    # circular granularities above the irregular rung: add the sizes of the
    # to-granules already completed inside the current upper granule
    p_above = 1
    for step in steps[k + 1 :]:
        p_above *= step[2].period
    above = int(reps[to].idx(z)) % p_above
    hi_idx = int(reps[hi].idx(z))
    to_at_upper_start = int(reps[to].idx(reps[hi].start(hi_idx)))
    cards = rule.cardinalities
    rep_len = len(cards)
    for w in range(above):
        value += coeff * cards[(to_at_upper_start + w) % rep_len]
    return value


def reduce_to_single(
    h: Hierarchy,
    known: tuple[str, str, int],
    target: tuple[str, str],
) -> int:
    """Narrower cyclic value recovered from a wider one, all-circular spans only."""
    l2, m2, value = known
    l1, m1 = target
    p_l2, p_m2 = h.position(l2), h.position(m2)
    p_l1, p_m1 = h.position(l1), h.position(m1)
    if not (p_l2 <= p_l1 < p_m1 <= p_m2):
        raise ValidationError(
            "bad-span", f"target {l1}..{m1} must nest inside known {l2}..{m2}"
        )
    period_length(h, l2, m2)  # raises irregular-span when the chain is not constant
    return (value // period_length(h, l2, l1)) % period_length(h, l1, m1)


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
