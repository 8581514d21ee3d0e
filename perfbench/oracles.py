"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports ``timegrain``. Gregorian columns come from calendar
arithmetic (``datetime`` on the timestamp strings, ``numpy.datetime64``
on synthetic indexes), cricket columns from the CSV's own
``match``/``inning``/``over`` columns or from the match counts, and
semester categories from the documented semester layout. Quantiles use
``tests/oracles.py::quantile_oracle``, the repository's type-7 reference.
"""

from __future__ import annotations

import importlib.util
import math
from datetime import date, datetime
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "_timegrain_test_oracles", Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
)
_test_oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_test_oracles)
quantile_oracle = _test_oracles.quantile_oracle

WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
MONTHS = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)

# Level counts: the largest value a descriptor can take, plus one.
GREGORIAN_LEVELS = {
    "halfhour_hour": 2, "halfhour_day": 48, "halfhour_week": 336, "halfhour_month": 1488,
    "halfhour_year": 17568, "hour_day": 24, "hour_week": 168, "hour_month": 744,
    "hour_year": 8784, "day_week": 7, "day_month": 31, "day_year": 366, "week_month": 5,
    "week_year": 53, "month_year": 12, "wknd_wday": 2,
}
# Block of half-hours on which each rung's granule index is constant:
# months and years start on day boundaries.
GREGORIAN_BLOCK = {"halfhour": 1, "hour": 2, "day": 48, "week": 336, "month": 48, "year": 48}


def gregorian_fields(t: np.ndarray, origin: np.datetime64, names) -> dict[str, np.ndarray]:
    """The named Gregorian cyclic columns at minute-resolution instants ``t``.

    Weeks are the 7-day blocks counted from ``origin``, as in the ladder.
    """
    day = t.astype("M8[D]")
    month = t.astype("M8[M]")
    year = t.astype("M8[Y]")
    hh = (t - day).astype(np.int64) // 30
    dom = (day - month.astype("M8[D]")).astype(np.int64)
    doy = (day - year.astype("M8[D]")).astype(np.int64)
    weekday = (day.astype(np.int64) + 3) % 7  # 1970-01-01 was a Thursday
    dow = (weekday - (origin.astype("M8[D]").astype(np.int64) + 3) % 7) % 7
    formulas = {
        "halfhour_hour": lambda: hh % 2,
        "halfhour_day": lambda: hh,
        "halfhour_week": lambda: dow * 48 + hh,
        "halfhour_month": lambda: dom * 48 + hh,
        "halfhour_year": lambda: doy * 48 + hh,
        "hour_day": lambda: hh // 2,
        "hour_week": lambda: dow * 24 + hh // 2,
        "hour_month": lambda: dom * 24 + hh // 2,
        "hour_year": lambda: doy * 24 + hh // 2,
        "day_week": lambda: dow,
        "day_month": lambda: dom,
        "day_year": lambda: doy,
        "week_month": lambda: dom // 7,
        "week_year": lambda: doy // 7,
        "month_year": lambda: (month - year.astype("M8[M]")).astype(np.int64),
        "wknd_wday": lambda: (weekday >= 5).astype(np.int64),
    }
    return {name: formulas[name]() for name in names}


def smart_meter_columns(stamps, origin: str, names) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Half-hour index and cyclic columns parsed from ``YYYY-MM-DD HH:MM`` strings."""
    o = datetime.fromisoformat(origin)
    parsed = [datetime.fromisoformat(s) for s in stamps]
    index = np.array([int((p - o).total_seconds()) // 1800 for p in parsed], dtype=np.int64)
    t = np.array(parsed, dtype="datetime64[m]")
    return index, gregorian_fields(t, np.datetime64(o, "m"), names)


def gregorian_span_columns(z: np.ndarray, origin: str, names) -> dict[str, np.ndarray]:
    """Cyclic columns at half-hour indexes counted from ``origin``."""
    o = np.datetime64(datetime.fromisoformat(origin), "m")
    return gregorian_fields(o + z * np.timedelta64(30, "m"), o, names)


def gregorian_labels(name: str, levels: int, origin_year: int) -> list[str]:
    if name == "day_week":
        first = date(origin_year, 1, 1).weekday()
        return [WEEKDAYS[(first + i) % 7] for i in range(levels)]
    if name == "month_year":
        return list(MONTHS)
    if name == "wknd_wday":
        return ["Weekday", "Weekend"]
    offset = 1 if name in ("day_month", "day_year", "week_month") else 0
    return [str(v + offset) for v in range(levels)]


CRICKET_BLOCK = {"over": 1, "inning": 20, "match": 40, "season": 40}


def cricket_columns(match, inning, over) -> dict[str, np.ndarray]:
    """Cyclic columns from 1-based match, inning and over numbers."""
    m, i, o = (np.asarray(c, dtype=np.int64) - 1 for c in (match, inning, over))
    return {
        "over_inning": o, "over_match": i * 20 + o, "over_season": (m * 2 + i) * 20 + o,
        "inning_match": i, "inning_season": m * 2 + i, "match_season": m,
    }


def cricket_span_columns(z: np.ndarray, match_counts) -> dict[str, np.ndarray]:
    """Cyclic columns at global over indexes; the season table repeats."""
    firsts = np.concatenate(([0], np.cumsum(match_counts)))
    game = (z // 40) % firsts[-1]
    season = np.searchsorted(firsts, game, side="right") - 1
    match = game - firsts[season] + 1
    inning = (z // 20) % 2 + 1
    over = z % 20 + 1
    return cricket_columns(match, inning, over)


def cricket_levels(match_counts) -> dict[str, int]:
    most = max(match_counts)
    return {
        "over_inning": 20, "over_match": 40, "over_season": 40 * most,
        "inning_match": 2, "inning_season": 2 * most, "match_season": most,
    }


def cricket_labels(name: str, levels: int) -> list[str]:
    if name == "inning_match":
        return ["first", "second"]
    offset = 1 if name in ("over_inning", "match_season") else 0
    return [str(v + offset) for v in range(levels)]


SEMESTER_LEVELS = {"day_week": 7, "semester_type": 5}
SEMESTER_BLOCK = {"day": 1, "week": 7}


def semester_span_columns(z: np.ndarray, starts) -> dict[str, np.ndarray]:
    """Day of week and semester category (0 none, 1 in session, 2 orientation,
    3 break, 4 exam) for each day index.

    A semester runs 128 days from its start: orientation week, six weeks in
    session, a break week, seven weeks in session, a study week counted as
    a break, then 16 days of exams.
    """
    layout = ((0, 7, 2), (7, 49, 1), (49, 56, 3), (56, 105, 1), (105, 112, 3), (112, 128, 4))
    kind = np.zeros(len(z), dtype=np.int64)
    for s in starts:
        for lo, hi, category in layout:
            kind[(z >= s + lo) & (z < s + hi)] = category
    return {"day_week": z % 7, "semester_type": kind}


def occupancy(a: np.ndarray, b: np.ndarray, ka: int, kb: int) -> np.ndarray:
    """ka x kb counts of the value pairs (a, b)."""
    if len(a) and (a.min() < 0 or a.max() >= ka or b.min() < 0 or b.max() >= kb):
        raise ValueError("oracle column outside its level range")
    return np.bincount(a * kb + b, minlength=ka * kb).reshape(ka, kb)


def rare_cells(counts: np.ndarray, near_threshold: float, near_floor: int):
    """Cells below max(floor, threshold x mean), row-major, as (k, l, count)."""
    cutoff = max(float(near_floor), near_threshold * float(counts.mean()))
    return [(int(k), int(l), int(counts[k, l])) for k, l in np.argwhere(counts < cutoff)]


def verdict(counts: np.ndarray, near_threshold: float, near_floor: int) -> str:
    """Clash on an empty cell; near-clash when a cell is rare."""
    if (counts == 0).any():
        return "clash"
    return "near-clash" if rare_cells(counts, near_threshold, near_floor) else "harmony"


def harmony_rows(levels, verdicts, max_levels, keep_near):
    """Expected (facet, x, facet_levels, x_levels) rows of a harmony table.

    ``levels`` maps names to level counts in catalog order; ``verdicts``
    maps each unordered pair (a, b), in that order, to its verdict.
    """
    kept = {"harmony", "near-clash"} if keep_near else {"harmony"}
    rows = []
    for (a, b), v in verdicts.items():
        if v in kept and levels[a] <= max_levels and levels[b] <= max_levels:
            rows += [(a, b, levels[a], levels[b]), (b, a, levels[b], levels[a])]
    return sorted(rows)


def screened_pairs(names, levels, max_levels):
    kept = [n for n in names if levels[n] <= max_levels]
    return [(a, b) for i, a in enumerate(kept) for b in kept[i + 1 :]]


def letter_value_grid(n: int) -> tuple[float, ...]:
    """Median plus the letter-value tails down to depth ceil(log2 n) - 1."""
    depth = max(1, math.ceil(math.log2(n)) - 1)
    tails = [2.0**-d for d in range(2, depth + 1)]
    return tuple(sorted({0.5, *tails, *(1.0 - t for t in tails)}))


def recommends_letter_values(counts: np.ndarray) -> bool:
    """Smallest occupied cell of at least 123 rows (trustworthy sixteenths)."""
    occupied = counts[counts > 0]
    return len(occupied) > 0 and int(occupied.min()) >= 123


def cell_summaries(x_col, f_col, values, kx, kf, probs=None):
    """Expected (n, mean, min, max, [(p, q)]) per cell, facet-major.

    ``probs`` None means the letter-value grid of each cell's n.
    """
    keep = ~np.isnan(values)
    code = f_col[keep] * kx + x_col[keep]
    vals = values[keep]
    order = np.argsort(code, kind="stable")
    code, vals = code[order], vals[order]
    bounds = np.searchsorted(code, np.arange(kx * kf + 1))
    out = []
    for c in range(kx * kf):
        cell = vals[bounds[c] : bounds[c + 1]].tolist()
        if not cell:
            out.append((0, None, None, None, []))
            continue
        grid = letter_value_grid(len(cell)) if probs is None else probs
        out.append(
            (len(cell), math.fsum(cell) / len(cell), min(cell), max(cell),
             [(p, quantile_oracle(cell, p)) for p in grid])
        )
    return out


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
