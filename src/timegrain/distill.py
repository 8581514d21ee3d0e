"""Distribution summaries over granularity cells and declarative plot specs.

Each (facet level, x level) cell of a measurement gets a count, mean,
extremes, and quantiles at configured probabilities (linear interpolation
of order statistics, the common type-7 rule). Summaries feed a plotting
recommendation and a self-contained plot-spec document; rendering
geometry to pixels is explicitly someone else's job.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .calfile import Calendar
from .cyclic import CyclicDescriptor, label_list
from .errors import ComputationError, ValidationError
from .harmony import PairClassification
from .table import GranularTable, csv_writer

# quantile bands: 1-99, 10-90, and 25-75 around the median
DEFAULT_PROBS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)

GEOMETRIES = ("quantile-area", "box", "violin-like-density", "letter-value-counts")

SMALL_CELL_N = 30

# largest level counts of the low, medium and high categories
LEVEL_BOUNDS = (7, 14, 31)

# trustworthy letter-value screening in ``recommend`` (rule in its docstring)
_LV_Z = NormalDist().inv_cdf(0.975)
_LV_DEPTH = 4


@dataclass(frozen=True)
class CellSummary:
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


@dataclass(frozen=True)
class LevelsCategory:
    category: str


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


# one entry of a plot spec's "cells" list as ``json.dumps(indent=2)`` writes it,
# up to its quantile pairs
_CELL_JSON = (
    "\n    {"
    '\n      "facet_level": %s,'
    '\n      "facet_label": %s,'
    '\n      "x_level": %s,'
    '\n      "x_label": %s,'
    '\n      "n": %s,'
    '\n      "mean": %s,'
    '\n      "min": %s,'
    '\n      "max": %s,'
    '\n      "quantiles": '
)
_PAIR_JSON = "\n        [\n          %s,\n          %s\n        ]"


def _cells_json(cells: list[dict]) -> str:
    """The "cells" list of a plot spec, byte for byte as ``json.dumps(indent=2)``.

    Each cell has the keys, key order and value types that
    ``emit_plot_spec`` writes: ints, strings, floats or None, and
    [probability, value] pairs. Numbers are written with ``int.__repr__``
    and ``float.__repr__`` as ``json`` does, so a non-finite one comes out
    as ``inf`` or ``nan``, for the caller to refuse.
    """
    templates: dict[int, str] = {}  # by number of quantile pairs
    parts = []
    for c in cells:
        pairs, mean, lo, hi = c["quantiles"], c["mean"], c["min"], c["max"]
        k = len(pairs)
        if k not in templates:
            quantiles = "[" + ",".join([_PAIR_JSON] * k) + "\n      ]" if k else "[]"
            templates[k] = _CELL_JSON + quantiles + "\n    }"
        parts.append(templates[k] % (
            int.__repr__(c["facet_level"]), encode_basestring_ascii(c["facet_label"]),
            int.__repr__(c["x_level"]), encode_basestring_ascii(c["x_label"]),
            int.__repr__(c["n"]),
            "null" if mean is None else float.__repr__(mean),
            "null" if lo is None else float.__repr__(lo),
            "null" if hi is None else float.__repr__(hi),
            *map(float.__repr__, chain.from_iterable(pairs)),
        ))
    return "[" + ",".join(parts) + "\n  ]" if parts else "[]"


@dataclass(frozen=True)
class PlotSpec:
    """Declarative visualization document with the summarized data embedded."""

    document: dict

    def to_json(self) -> str:
        """``json.dumps(document, indent=2, allow_nan=False)`` plus a newline.

        The fixed-shape "cells" list is written from templates; the rest of
        the document goes through ``json.dumps``. A non-finite number raises
        the ``ValueError`` that ``json.dumps`` raises.
        """
        head = json.dumps({**self.document, "cells": []}, indent=2, allow_nan=False)
        cells = self.document["cells"]
        text = _cells_json(cells)
        if "inf" in text or "nan" in text:  # a float's repr holds neither unless non-finite
            for c in cells:
                for v in (c["mean"], c["min"], c["max"], *chain.from_iterable(c["quantiles"])):
                    if v is not None and not math.isfinite(v):
                        raise ValueError(
                            f"Out of range float values are not JSON compliant: {v!r}"
                        )
        # only a top-level key sits at indent 2 after a raw newline
        at = head.index('\n  "cells": []') + len('\n  "cells": ')
        return "".join((head[:at], text, head[at + 2 :], "\n"))


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
) -> list[CellSummary]:
    """One CellSummary per (facet level, x level), empty cells included.

    Requires the x and facet columns to be present (augment first).
    Missing responses drop out of their cell's count. With
    ``letter_values`` the probability grid adapts per cell to its n.

    The kept rows are ordered once by (cell, value), so each cell is a
    sorted segment: its extremes are the segment ends, and its quantiles
    are read at segment offsets with NumPy's own type-7 arithmetic
    (virtual index (n - 1) * p, floor, clamp at n - 1, and ``_lerp``'s
    ``b - diff * (1 - t)`` form for t >= 0.5). Each mean is one
    ``np.add.reduce`` over the segment. Every statistic equals per-cell
    ``np.sort`` / ``np.quantile`` / ``mean`` bit for bit. A -0.0 is read
    as 0.0, so no statistic depends on row order.
    """
    probs = _check_probs(probs)
    xs = t.cyclic_column(x.name)
    fs = t.cyclic_column(facet.name)
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

    if letter_values:
        # the grid depends on n only through its depth, max(1, ceil(log2 n) - 1)
        depth = np.maximum(np.frexp(n - 1)[1] - 1, 1)
        _, first, which = np.unique(depth, return_index=True, return_inverse=True)
        by_depth = [letter_value_probabilities(m) for m in n[first].tolist()]
        grids = [by_depth[d] for d in which.tolist()]
    else:
        grids = [probs] * len(n)
    # one flat entry per (occupied cell, probability)
    width = np.fromiter(map(len, grids), dtype=np.intp, count=len(grids))
    cell = np.repeat(np.arange(len(n)), width)
    p = np.fromiter(chain.from_iterable(grids), dtype=np.float64, count=len(cell))
    m = n[cell]
    virtual = (m - 1) * p
    floor = np.floor(virtual)
    frac = virtual - floor
    below = start[cell] + floor.astype(np.intp)
    a = vals[below]
    b = vals[below + (floor < m - 1)]
    diff = b - a
    qs = np.where(frac >= 0.5, b - diff * (1 - frac), a + diff * frac).tolist()

    stats = zip(start.tolist(), vals[start].tolist(), vals[start + n - 1].tolist(), grids)
    flabels, xlabels = label_list(facet), label_list(x)
    out: list[CellSummary] = []
    at = 0
    for c, count in enumerate(counts.tolist()):
        f, xv = divmod(c, x.levels)
        if count == 0:
            out.append(CellSummary(f, flabels[f], xv, xlabels[xv], 0, None, None, None, ()))
            continue
        s, lo, hi, grid = next(stats)
        out.append(
            CellSummary(
                f, flabels[f], xv, xlabels[xv], count,
                float(np.add.reduce(vals[s : s + count])) / count, lo, hi,
                tuple(zip(grid, qs[at : at + len(grid)])),
            )
        )
        at += len(grid)
    return out


def categorize_levels(n_levels: int) -> LevelsCategory:
    """low, medium or high up to the matching ``LEVEL_BOUNDS`` entry; very-high beyond."""
    if n_levels < 1:
        raise ValidationError("bad-levels", "a cyclic granularity has at least one level")
    for category, bound in zip(("low", "medium", "high"), LEVEL_BOUNDS):
        if n_levels <= bound:
            return LevelsCategory(category)
    return LevelsCategory("very-high")


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
        return Recommendation(
            x.name, facet.name, "clash", x_cat.category, f_cat.category,
            (), tuple(notes), True, classification.evidence,
        )
    if x_cat.category in ("high", "very-high"):
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
        x.name, facet.name, classification.verdict, x_cat.category, f_cat.category,
        tuple(geometries), tuple(notes), False, classification.evidence,
    )


def _probs_of(summaries: Sequence[CellSummary]) -> list[tuple[float, ...]]:
    return [tuple(p for p, _ in s.quantiles) for s in summaries if s.n > 0]


def _require_probs(summaries, needed, geometry):
    for probs in set(_probs_of(summaries)):
        if any(all(abs(p - q) > 1e-12 for q in probs) for p in needed):
            raise ComputationError(
                "unsupported-geometry",
                f"{geometry} needs quantiles at {needed}; recompute summaries with them",
            )


def emit_plot_spec(
    summaries: Sequence[CellSummary],
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
    computed here (density estimation is out of scope).
    """
    if not summaries:
        raise ValidationError("empty-summaries", "nothing to plot")
    if geometry not in GEOMETRIES:
        raise ValidationError("unknown-geometry", f"geometry {geometry!r} not in {GEOMETRIES}")
    if geometry == "violin-like-density":
        raise ComputationError(
            "unsupported-geometry",
            "violin-like-density needs density estimates, which are not computed here",
        )
    if geometry == "box":
        _require_probs(summaries, (0.25, 0.5, 0.75), geometry)
    if geometry == "letter-value-counts":
        for probs in set(_probs_of(summaries)):
            symmetric = all(any(abs((1 - p) - q) < 1e-12 for q in probs) for p in probs)
            if 0.5 not in probs or not symmetric:
                raise ComputationError(
                    "unsupported-geometry",
                    "letter-value-counts needs nested symmetric quantile pairs "
                    "(summarize with letter_values=True)",
                )
    empties = [s for s in summaries if s.n == 0]
    if empties and not force:
        cells = ", ".join(f"(x={s.x_label}, facet={s.facet_label})" for s in empties[:8])
        raise ComputationError(
            "clash-refusal",
            f"{len(empties)} empty level combinations (e.g. {cells}); "
            "pick a harmony pair or force emission",
        )
    all_warnings = list(warnings)
    for s in summaries:
        if 0 < s.n < SMALL_CELL_N:
            all_warnings.append(
                f"small cell: facet={s.facet_label} x={s.x_label} n={s.n}"
            )
    if empties:
        all_warnings.append(f"forced emission with {len(empties)} empty cells")

    document = {
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
        "quantile_probabilities": sorted(
            {p for s in summaries for p, _ in s.quantiles}
        ),
        "warnings": all_warnings,
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
            for s in summaries
        ],
    }
    return PlotSpec(document)


def write_summaries(summaries: Sequence[CellSummary], out, delimiter: str = ",") -> None:
    """Long-format export: facet, x, prob, value, n (one empty row per empty cell)."""
    with csv_writer(out, delimiter) as writer:
        writer.writerow(["facet", "x", "prob", "value", "n"])
        for s in summaries:
            if s.n == 0:
                writer.writerow([s.facet_label, s.x_label, "", "", 0])
                continue
            for p, v in s.quantiles:
                writer.writerow(
                    [s.facet_label, s.x_label, format(p, "g"), format(v, ".12g"), s.n]
                )
