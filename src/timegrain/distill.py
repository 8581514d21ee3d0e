"""Distribution summaries over granularity cells and declarative plot specs.

Each (facet level, x level) cell of a measurement gets a count, mean,
extremes, and quantiles at configured probabilities (linear interpolation
of order statistics, the common type-7 rule). Summaries feed a plotting
recommendation and a self-contained plot-spec document; rendering
geometry to pixels is explicitly someone else's job.

Summaries are columns, not records: ``summarize_cells`` returns one
``CellSummaries`` (layout in its docstring). ``emit_plot_spec`` reads
empty and small cells off the count column and checks each distinct
quantile grid once. ``PlotSpec.to_json`` formats whole columns: each
label is JSON-encoded once per level, each distinct number (by bit
pattern) is formatted once and its text placed by index, and the document
is one ``join``. ``write_summaries`` hands ``table.write_csv`` its columns
as labelled codes. Iterating over a ``CellSummaries`` yields
``CellSummary`` records, made on demand; no function here does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, islice, pairwise
from json.encoder import encode_basestring_ascii
from statistics import NormalDist
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .calfile import Calendar
from .cyclic import CyclicDescriptor, label_list
from .errors import ComputationError, ValidationError
from .harmony import PairClassification
from .table import GranularTable, Labelled, _distinct, _objects, write_csv

# quantile bands: 1-99, 10-90, and 25-75 around the median
DEFAULT_PROBS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)

GEOMETRIES = ("quantile-area", "box", "violin-like-density", "letter-value-counts")

SMALL_CELL_N = 30

# largest level counts of the low, medium and high categories
LEVEL_BOUNDS = (7, 14, 31)

# trustworthy letter-value screening in ``recommend`` (rule in its docstring)
_LV_Z = NormalDist().inv_cdf(0.975)
_LV_DEPTH = 4


class CellSummary(NamedTuple):
    """Distribution statistics for one (facet level, x level) cell."""

    facet_level: int
    facet_label: str
    x_level: int
    x_label: str
    n: int
    mean: float | None
    minimum: float | None
    maximum: float | None
    quantiles: tuple[tuple[float, float], ...]


@dataclass(frozen=True, eq=False)
class CellSummaries:
    """Statistics of every (facet level, x level) cell, as columns.

    The label tuples give the level counts. Cell ``c`` is facet level
    ``c // len(x_labels)`` and x level ``c % len(x_labels)``; ``n`` has
    one count per cell, empty cells included.
    The occupied cells (``n > 0``), in cell order, have one entry each in
    ``mean``, ``minimum`` and ``maximum``, and the ``i``-th of them has its
    quantiles at ``probs[offsets[i]:offsets[i + 1]]``, ascending, with
    their values at the same places in ``values``.
    """

    facet_labels: tuple[str, ...]
    x_labels: tuple[str, ...]
    n: np.ndarray
    mean: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    probs: np.ndarray
    values: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.n)

    def __iter__(self) -> Iterator[CellSummary]:
        flabels, xlabels = self.facet_labels, self.x_labels
        kx = len(xlabels)
        # the quantiles are read off the columns a cell at a time
        probs, values = iter(memoryview(self.probs)), iter(memoryview(self.values))
        stats = zip(self.mean.tolist(), self.minimum.tolist(), self.maximum.tolist(),
                    np.diff(self.offsets).tolist())
        for c, count in enumerate(self.n.tolist()):
            f, x = divmod(c, kx)
            if count == 0:
                yield CellSummary(f, flabels[f], x, xlabels[x], 0, None, None, None, ())
                continue
            mean, lo, hi, width = next(stats)
            yield CellSummary(f, flabels[f], x, xlabels[x], count, mean, lo, hi,
                              tuple(zip(islice(probs, width), islice(values, width))))

    def grids(self) -> set[tuple[float, ...]]:
        """The distinct probability grids of the occupied cells."""
        probs = self.probs.tolist()
        return {tuple(probs[a:b]) for a, b in pairwise(self.offsets.tolist())}


@dataclass(frozen=True)
class Recommendation:
    """Plotting advice for an (x, facet) pair given its classification."""

    x_descriptor: str
    facet_descriptor: str
    status: str
    x_levels_category: str
    facet_levels_category: str
    geometries: tuple[str, ...]
    notes: tuple[str, ...]
    refused: bool
    evidence: tuple[tuple[int, int, int], ...]

    def to_text(self) -> str:
        lines = [
            f"pair: x={self.x_descriptor} facet={self.facet_descriptor}",
            f"status: {self.status}",
            f"levels: x={self.x_levels_category} facet={self.facet_levels_category}",
        ]
        if self.refused:
            lines.append(f"refused: {len(self.evidence)} empty level combinations")
            for k, l, c in self.evidence[:10]:
                lines.append(f"  empty cell: x_level={k} facet_level={l} count={c}")
        else:
            lines.append("geometries: " + ", ".join(self.geometries))
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines) + "\n"


# the text after slots n, mean, min and max of an occupied plot-spec cell, and after
# a quantile pair's probability and value, as ``json.dumps(indent=2)`` writes it
_STATS_AFTER = (',\n      "mean": ', ',\n      "min": ', ',\n      "max": ',
                ',\n      "quantiles": [\n        [\n          ')
_PAIR_AFTER = (",\n          ", "\n        ],\n        [\n          ")
# the text after a cell's last slot, by slot count: 2 (an empty cell's x part), 6 (an
# occupied cell's max when it has no quantile pair), more (its last value)
_CELL_END = np.array(['0,\n      "mean": null,\n      "min": null,\n      "max": null,'
                      '\n      "quantiles": []\n    },',
                      ',\n      "quantiles": []\n    },', "\n        ]\n      ]\n    },"], dtype=object)


@dataclass(frozen=True, eq=False)
class PlotSpec:
    """Declarative visualization document with the summarized data embedded.

    ``head`` holds every key of the document but the last, "cells", whose
    entries ``cells`` holds as columns: one entry per cell, in cell order,
    with its levels, labels, n, mean, min, max and [probability, value]
    quantile pairs (null statistics and no pairs for an empty cell).
    """

    head: dict
    cells: CellSummaries

    def to_json(self) -> str:
        """The document as ``json.dumps(indent=2, allow_nan=False)`` writes it, plus a newline.

        The head goes through ``json.dumps``; the cells are slots, each the
        text placed there and the constant text after it, and the document
        is one ``join``. Each level's part of a cell is made once, and each
        distinct float (by bit pattern) written once by ``repr``, as ``json``
        writes it. A non-finite number raises ``json.dumps``'s ``ValueError``,
        naming the first in document order: the one with the smallest slot.
        """
        s = self.cells
        head = json.dumps({**self.head, "cells": []}, indent=2, allow_nan=False)
        # only a top-level key sits at indent 2 after a raw newline
        at = head.index('\n  "cells": []') + len('\n  "cells": ')
        before, after = head[:at], head[at + 2 :] + "\n"
        if not len(s):
            return before + "[]" + after
        facet_parts = _objects(
            f'\n    {{\n      "facet_level": {f},\n      "facet_label": {encode_basestring_ascii(label)},'
            '\n      "x_level": '
            for f, label in enumerate(s.facet_labels)
        )
        x_parts = _objects(
            f'{x},\n      "x_label": {encode_basestring_ascii(label)},\n      "n": '
            for x, label in enumerate(s.x_labels)
        )
        occupied = np.flatnonzero(s.n)
        width = np.diff(s.offsets)
        slots = np.full(len(s), 2)
        slots[occupied] += 4 + 2 * width
        first = np.cumsum(slots) - slots
        # a slot's text, then the constant text up to the next slot
        pieces = np.full((int(slots.sum()), 2), "", dtype=object)
        f, x = np.divmod(np.arange(len(s)), len(s.x_labels))
        pieces[first, 0] = facet_parts[f]
        pieces[first + 1, 0] = x_parts[x]
        at = first[occupied]
        pieces[at + 2, 0] = _objects(map(str, s.n[occupied].tolist()))
        pieces[at[:, None] + np.arange(2, 6), 1] = _STATS_AFTER
        # quantile j of occupied cell i fills slots at[i] + 6 + 2 j and the next
        pair = np.repeat(at + 6 - 2 * s.offsets[:-1], width) + 2 * np.arange(len(s.values))
        pieces[pair, 1], pieces[pair + 1, 1] = _PAIR_AFTER
        pieces[first + slots - 1, 1] = _CELL_END[np.sign(slots - 6) + 1]
        numbers = np.concatenate((s.mean, s.minimum, s.maximum, s.probs, s.values))
        place = np.concatenate((at + 3, at + 4, at + 5, pair, pair + 1))
        bad = np.flatnonzero(~np.isfinite(numbers))
        if len(bad):
            first_bad = float(numbers[bad[np.argmin(place[bad])]])
            raise ValueError(f"Out of range float values are not JSON compliant: {first_bad!r}")
        distinct, inverse = _distinct(numbers)
        pieces[place, 0] = _objects(map(repr, distinct))[inverse]
        # memory peaks in the ``join``: free what it does not read
        del numbers, place, pair, distinct, inverse
        texts = pieces.ravel().tolist()
        del pieces
        texts[0] = before + "[" + texts[0]
        texts[-1] = texts[-1][:-1] + "\n  ]" + after  # the last cell takes no ","
        return "".join(texts)


def letter_value_probabilities(n: int) -> tuple[float, ...]:
    """Nested letter-value probabilities to depth ceil(log2 n) - 1.

    This Tukey full depth sets the summary grid; it is not the smaller
    trustworthy depth that ``recommend`` screens cells on.
    """
    if n < 1:
        raise ValidationError("empty-cell", "letter values need at least one observation")
    depth = max(1, math.ceil(math.log2(n)) - 1)
    probs = {0.5}
    for d in range(2, depth + 1):
        probs.add(2.0**-d)
        probs.add(1.0 - 2.0**-d)
    return tuple(sorted(probs))


def _check_probs(probs: Sequence[float]) -> tuple[float, ...]:
    if not probs:
        raise ValidationError("empty-probabilities", "need at least one probability")
    if any(not (0.0 < p < 1.0) for p in probs):
        raise ValidationError("bad-probabilities", "probabilities must lie strictly in (0, 1)")
    return tuple(sorted(map(float, probs)))


def summarize_cells(
    t: GranularTable,
    x: CyclicDescriptor,
    facet: CyclicDescriptor,
    response: str,
    probs: Sequence[float] = DEFAULT_PROBS,
    letter_values: bool = False,
) -> CellSummaries:
    """The statistics of every (facet level, x level) cell, as columns.

    Requires the x and facet columns, each made from the descriptor passed
    (augment first). Missing responses drop out of their cell's count. With
    ``letter_values`` the probability grid adapts per cell to its n.

    The kept rows are ordered once by (cell, value), so each cell is a
    sorted segment: its extremes are the segment ends, and its quantiles
    are read at segment offsets with NumPy's own type-7 arithmetic
    (virtual index (n - 1) * p, floor, clamp at n - 1, and ``_lerp``'s
    ``b - diff * (1 - t)`` form for t >= 0.5). Each mean is one
    ``np.add.reduce`` over the segment (``np.add.reduceat`` sums in
    another order, so not bit for bit). Every statistic equals per-cell
    ``np.sort`` / ``np.quantile`` / ``mean`` bit for bit, except a
    quantile whose neighbours differ by more than the float64 range: it
    is ``a * (1 - t) + b * t``, where NumPy's overflows. A -0.0 is read
    as 0.0, so no statistic depends on row order.
    """
    probs = _check_probs(probs)
    for d in (x, facet):  # a column of that name made from another descriptor is not read
        if d.name in t.cyclic and t.cyclic[d.name][0] != d:
            raise ValidationError("missing-column", f"column {d.name!r} is of another descriptor; augment first")
    xs, fs = t.cyclic_column(x.name), t.cyclic_column(facet.name)
    values = t.measurement(response)
    keep = ~np.isnan(values)
    code = fs[keep] * x.levels + xs[keep]
    vals = values[keep] + 0.0  # -0.0 + 0.0 == +0.0
    # by value, then stably by cell; codes of 16 bits or less sort by radix
    order = np.argsort(vals)
    narrow = code[order].astype(np.min_scalar_type(facet.levels * x.levels - 1))
    order = order[np.argsort(narrow, kind="stable")]
    code, vals = code[order], vals[order]
    bounds = np.searchsorted(code, np.arange(facet.levels * x.levels + 1))
    counts = np.diff(bounds)
    occupied = np.flatnonzero(counts)
    start, n = bounds[occupied], counts[occupied]
    end = start + n

    # each occupied cell reads one of a few grids: ``grids[which[i]]``
    if letter_values:
        # the grid depends on n only through its depth, max(1, ceil(log2 n) - 1)
        depth = np.maximum(np.frexp(n - 1)[1] - 1, 1)
        _, first, which = np.unique(depth, return_index=True, return_inverse=True)
        grids = [letter_value_probabilities(m) for m in n[first].tolist()]
    else:
        grids, which = [probs], np.zeros(len(n), dtype=np.intp)
    sizes = np.fromiter(map(len, grids), dtype=np.intp, count=len(grids))
    width = sizes[which]
    offsets = np.concatenate(([0], np.cumsum(width)))
    # one flat entry per (occupied cell, probability)
    cell = np.repeat(np.arange(len(n)), width)
    at = (np.cumsum(sizes) - sizes)[which] - offsets[:-1]
    p = np.fromiter(chain(*grids), dtype=np.float64)[np.repeat(at, width) + np.arange(len(cell))]
    m = n[cell]
    virtual = (m - 1) * p
    floor = np.floor(virtual)
    frac = virtual - floor
    below = start[cell] + floor.astype(np.intp)
    a = vals[below]
    b = vals[below + (floor < m - 1)]
    segments = map(vals.__getitem__, map(slice, start.tolist(), end.tolist()))
    # values near the float64 limits may sum to inf or nan, silently: ``emit_plot_spec``
    # names such a cell; where ``b - a`` overflows, ``a (1 - t) + b t`` interpolates
    with np.errstate(over="ignore", invalid="ignore"):
        diff = b - a
        sums = np.fromiter(map(np.add.reduce, segments), dtype=np.float64, count=len(n))
        values = np.where(frac >= 0.5, b - diff * (1 - frac), a + diff * frac)
    wide = np.flatnonzero(~np.isfinite(diff))
    values[wide] = a[wide] * (1 - frac[wide]) + b[wide] * frac[wide]
    return CellSummaries(
        facet_labels=tuple(label_list(facet)),
        x_labels=tuple(label_list(x)),
        n=counts,
        mean=sums / n,
        minimum=vals[start],
        maximum=vals[end - 1],
        probs=p,
        values=values,
        offsets=offsets,
    )


def categorize_levels(n_levels: int) -> str:
    """low, medium or high up to the matching ``LEVEL_BOUNDS`` entry; very-high beyond."""
    if n_levels < 1:
        raise ValidationError("bad-levels", "a cyclic granularity has at least one level")
    for category, bound in zip(("low", "medium", "high"), LEVEL_BOUNDS):
        if n_levels <= bound:
            return category
    return "very-high"


_SWAP_NOTE = (
    "swapping the x and facet roles shifts the comparison: x levels are read "
    "against each other within a facet, facet levels against each other across panels"
)


def recommend(
    x: CyclicDescriptor,
    facet: CyclicDescriptor,
    classification: PairClassification,
) -> Recommendation:
    """Suggest display geometries, or refuse outright for a clash.

    - A clash (some level combination is empty) is refused: no geometry,
      with the empty cells as evidence.
    - The x levels category decides the base geometry: ``high`` or
      ``very-high`` gets quantile-area, ``low`` or ``medium`` gets box and
      violin-like-density.
    - ``letter-value-counts`` is added when the smallest cell supports
      trustworthy letter values down to the sixteenths. After Hofmann,
      Kafadar & Wickham, "Letter-value plots: boxplots for large data"
      (JCGS 2017), the letter value at tail probability 2**-d is
      trustworthy when n * 2**-d >= 2 * z**2, z = z_0.975 ~ 1.96. Depth
      d = 4 is a policy choice, not fixed by that paper; it puts the
      cut-off at n >= 16 * 2 * z**2 ~ 122.9, that is 123 rows.
    - A near-clash keeps its geometries and gains a note naming the rare
      cells.
    """
    x_cat = categorize_levels(x.levels)
    f_cat = categorize_levels(facet.levels)
    notes = [_SWAP_NOTE]
    if classification.verdict == "clash":
        return Recommendation(x.name, facet.name, "clash", x_cat, f_cat, (), tuple(notes), True,
                              classification.evidence)
    if x_cat in ("high", "very-high"):
        geometries = ["quantile-area"]
    else:
        geometries = ["box", "violin-like-density"]
    # outside a clash no cell is empty
    if int(classification.occupancy.counts.min()) * 2.0**-_LV_DEPTH >= 2 * _LV_Z**2:
        geometries.append("letter-value-counts")
    if classification.verdict == "near-clash":
        cells = ", ".join(
            f"({k},{l})={c}" for k, l, c in classification.evidence[:8]
        )
        notes.insert(0, f"near-clash: rarely occurring combinations {cells}; summaries there are unreliable")
    return Recommendation(
        x.name, facet.name, classification.verdict, x_cat, f_cat,
        tuple(geometries), tuple(notes), False, classification.evidence,
    )


def _require_probs(grids, needed, geometry):
    for probs in grids:
        if any(all(abs(p - q) > 1e-12 for q in probs) for p in needed):
            raise ComputationError(
                "unsupported-geometry",
                f"{geometry} needs quantiles at {needed}; recompute summaries with them",
            )


def emit_plot_spec(
    summaries: CellSummaries,
    x: CyclicDescriptor,
    facet: CyclicDescriptor,
    response: str,
    geometry: str,
    force: bool = False,
    warnings: Sequence[str] = (),
) -> PlotSpec:
    """Build the self-contained plot-spec document.

    Refuses when empty cells are present (clash structure) unless
    ``force`` is set; refuses geometries whose statistics are not
    computed here (density estimation is out of scope), and refuses
    summaries with a mean, min, max or quantile that is not finite (an
    overflow), naming the first such cell. The quantile checks run once
    per distinct probability grid; the empty and small cells are read off
    the count column.
    """
    if not len(summaries):
        raise ValidationError("empty-summaries", "nothing to plot")
    if geometry not in GEOMETRIES:
        raise ValidationError("unknown-geometry", f"geometry {geometry!r} not in {GEOMETRIES}")
    if geometry == "violin-like-density":
        raise ComputationError(
            "unsupported-geometry",
            "violin-like-density needs density estimates, which are not computed here",
        )
    if geometry == "box":
        _require_probs(summaries.grids(), (0.25, 0.5, 0.75), geometry)
    if geometry == "letter-value-counts":
        for probs in summaries.grids():
            symmetric = all(any(abs((1 - p) - q) < 1e-12 for q in probs) for p in probs)
            if 0.5 not in probs or not symmetric:
                raise ComputationError(
                    "unsupported-geometry",
                    "letter-value-counts needs nested symmetric quantile pairs "
                    "(summarize with letter_values=True)",
                )
    flabels, xlabels = summaries.facet_labels, summaries.x_labels
    kx = len(xlabels)
    n = summaries.n
    empties = np.flatnonzero(n == 0).tolist()
    if empties and not force:
        cells = ", ".join(f"(x={xlabels[c % kx]}, facet={flabels[c // kx]})" for c in empties[:8])
        raise ComputationError(
            "clash-refusal",
            f"{len(empties)} empty level combinations (e.g. {cells}); "
            "pick a harmony pair or force emission",
        )
    numbers = {"mean": summaries.mean, "min": summaries.minimum, "max": summaries.maximum,
               "quantile": summaries.values}
    bad = {stat: np.flatnonzero(~np.isfinite(v))[:1] for stat, v in numbers.items()}
    if any(map(len, bad.values())):
        # a quantile's occupied cell is the one whose offsets hold its entry
        bad["quantile"] = np.searchsorted(summaries.offsets, bad["quantile"], side="right") - 1
        i, _, stat = min((int(at[0]), k, stat) for k, (stat, at) in enumerate(bad.items()) if len(at))
        c = int(np.flatnonzero(n)[i])
        raise ComputationError(
            "non-finite-statistic",
            f"the {stat} of cell (x={xlabels[c % kx]}, facet={flabels[c // kx]}) is not finite, "
            "which a plot spec cannot hold",
        )
    all_warnings = list(warnings)
    small = np.flatnonzero((n > 0) & (n < SMALL_CELL_N))
    all_warnings.extend(
        f"small cell: facet={flabels[c // kx]} x={xlabels[c % kx]} n={count}"
        for c, count in zip(small.tolist(), n[small].tolist())
    )
    if empties:
        all_warnings.append(f"forced emission with {len(empties)} empty cells")

    head = {
        "plot_spec_version": 1,
        "response": response,
        "geometry": geometry,
        "x": {
            "descriptor": x.name,
            "kind": x.kind,
            "levels": x.levels,
            "labels": label_list(x),
        },
        "facet": {
            "descriptor": facet.name,
            "kind": facet.kind,
            "levels": facet.levels,
            "labels": label_list(facet),
        },
        "quantile_probabilities": sorted(set(summaries.probs.tolist())),
        "warnings": all_warnings,
    }
    return PlotSpec(head, summaries)


def write_summaries(summaries: CellSummaries, out, delimiter: str = ",") -> None:
    """Long-format export with ``write_csv``: facet, x, prob, value, n.

    One row per quantile of each occupied cell, the probability as
    ``format(p, "g")`` and the value as ``format(v, ".12g")``, and one row
    with blank probability and value and n 0 per empty cell. Every column
    is labelled codes: facet and x by level, n by cell, and probability
    and value by distinct bit pattern across the whole summary (so each is
    formatted once), with a last label ``""`` for an empty cell's row.
    """
    s = summaries
    # one row per quantile of an occupied cell, one row for an empty cell
    lines = np.ones(len(s), dtype=np.intp)
    lines[s.n > 0] = np.diff(s.offsets)
    row_cell = np.repeat(np.arange(len(s)), lines)
    filled = s.n[row_cell] > 0

    def numbers(col: np.ndarray, spec: str) -> Labelled:
        values, inverse = _distinct(col)
        codes = np.full(len(row_cell), len(values))
        codes[filled] = inverse
        return Labelled(codes, [format(v, spec) for v in values] + [""])

    f, x = np.divmod(row_cell, len(s.x_labels))
    columns = [Labelled(f, s.facet_labels), Labelled(x, s.x_labels), numbers(s.probs, "g"),
               numbers(s.values, ".12g"), Labelled(row_cell, list(map(str, s.n.tolist())))]
    write_csv(out, ("facet", "x", "prob", "value", "n"), columns, delimiter)
