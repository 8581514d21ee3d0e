"""Bundled calendars and seeded synthetic datasets.

The Gregorian ladders are generated from the standard leap rule at
construction time rather than shipping centuries of cardinalities; the
month table is the exact 400-year Gregorian cycle, so it repeats without
drift. The smart-meter dataset carries injected daily and weekly
structure plus skewed noise; the cricket dataset carries a mild
late-innings scoring drift.
"""

from __future__ import annotations

import csv
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .calfile import Calendar, save_calendar
from .errors import ValidationError
from .hierarchy import (
    AperiodicEventCalendar,
    ConstantPeriod,
    EventCategory,
    Hierarchy,
    IrregularMapping,
    Rung,
)

WEEKDAY_NAMES = (
    "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday",
)
MONTH_NAMES = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)


def month_lengths(origin_year: int, years: int) -> tuple[int, ...]:
    """Days per month for ``years`` consecutive years from January 1."""
    out = []
    for y in range(origin_year, origin_year + years):
        for m in range(1, 13):
            nxt = date(y + 1, 1, 1) if m == 12 else date(y, m + 1, 1)
            out.append((nxt - date(y, m, 1)).days)
    return tuple(out)


def _weekday_labels(origin_year: int) -> tuple[str, ...]:
    first = date(origin_year, 1, 1).weekday()
    return tuple(WEEKDAY_NAMES[(first + i) % 7] for i in range(7))


def gregorian_calendar(bottom: str = "halfhour", origin_year: int = 2012) -> Calendar:
    """Gregorian ladder anchored at January 1 of ``origin_year``.

    The month table covers the exact 400-year Gregorian cycle and then
    repeats, so the ladder never drifts from the calendar.

    With a sub-day bottom (``halfhour`` or ``minute``) the ladder carries
    a 7-day week rung; its irregular rule to month is anchored on days,
    since weeks slide across month boundaries. The ``hour`` and ``day``
    bottoms yield the plain chain, in which day nests straight into month.
    """
    months = month_lengths(origin_year, 400)  # 4,800 months, 146,097 days, 20,871 weeks
    if bottom in ("halfhour", "minute"):
        head = [
            Rung(bottom, ConstantPeriod(2 if bottom == "halfhour" else 60)),
            Rung("hour", ConstantPeriod(24)),
            Rung("day", ConstantPeriod(7)),
            Rung("week", IrregularMapping(months, unit="day")),
        ]
    elif bottom == "hour":
        head = [Rung("hour", ConstantPeriod(24)), Rung("day", IrregularMapping(months))]
    elif bottom == "day":
        head = [Rung("day", IrregularMapping(months))]
    else:
        raise ValidationError(
            "unknown-bottom", f"unsupported bottom {bottom!r}; use halfhour, minute, hour or day"
        )
    rungs = (*head, Rung("month", ConstantPeriod(12)), Rung("year", ConstantPeriod(1)))
    labels: dict[str, object] = {
        "month_year": MONTH_NAMES,
        "day_month": 1,
        "day_year": 1,
    }
    if any(r.name == "week" for r in rungs):
        labels["day_week"] = _weekday_labels(origin_year)
        labels["week_month"] = 1
    origin_weekday = WEEKDAY_NAMES[date(origin_year, 1, 1).weekday()]
    return Calendar(
        Hierarchy(
            name="gregorian",
            rungs=rungs,
            origin=f"{origin_year}-01-01 00:00",
            origin_note=(
                f"midnight, {origin_weekday} 1 January {origin_year}; month table "
                "covers 400 years and repeats (400 is the exact Gregorian cycle)"
            ),
            labels=labels,
        )
    )


def mayan_calendar() -> Calendar:
    return Calendar(
        Hierarchy(
            name="mayan",
            rungs=(
                Rung("kin", ConstantPeriod(20)),
                Rung("uinal", ConstantPeriod(18)),
                Rung("tun", ConstantPeriod(20)),
                Rung("katun", ConstantPeriod(20)),
                Rung("baktun", ConstantPeriod(1)),
            ),
            origin="long count 0.0.0.0.0",
            origin_note="all counters zero at the long-count epoch",
        )
    )


def cricket_calendar(match_counts: tuple[int, ...] = (6, 8, 7, 9)) -> Calendar:
    """Over/inning/match/season ladder for Twenty20 data."""
    return Calendar(
        Hierarchy(
            name="cricket",
            rungs=(
                Rung("over", ConstantPeriod(20)),
                Rung("inning", ConstantPeriod(2)),
                Rung("match", IrregularMapping(match_counts)),
                Rung("season", ConstantPeriod(1)),
            ),
            origin="first over of the first match of season 1",
            labels={
                "over_inning": 1,
                "inning_match": ("first", "second"),
                "match_season": 1,
            },
        )
    )


SEMESTER_STARTS = (58, 211, 422, 579)


def semester_calendar(starts: tuple[int, ...] = SEMESTER_STARTS) -> Calendar:
    """Day/week ladder plus the semester-structure event calendar.

    Each semester spans 128 days: one orientation week, six in-session
    weeks, a one-week break, seven more in-session weeks, a study week,
    then 16 days of exams. Start days vary from year to year, which is
    what makes the categorization aperiodic.
    """
    in_session, orientation, breaks, exams = [], [], [], []
    for s in starts:
        orientation.append((s, s + 7))
        in_session += [(s + 7, s + 49), (s + 56, s + 105)]
        breaks += [(s + 49, s + 56), (s + 105, s + 112)]
        exams.append((s + 112, s + 128))
    events = AperiodicEventCalendar(
        "semester_type",
        (
            EventCategory(1, "in_session", tuple(in_session)),
            EventCategory(2, "orientation", tuple(orientation)),
            EventCategory(3, "break", tuple(breaks)),
            EventCategory(4, "exam", tuple(exams)),
        ),
    )
    return Calendar(
        Hierarchy(
            name="semester",
            rungs=(Rung("day", ConstantPeriod(7)), Rung("week", ConstantPeriod(1))),
            origin="day 0 of the academic record",
            labels={"semester_type": ("none", "in_session", "orientation", "break", "exam")},
        ),
        events={"semester_type": events},
    )


# The bundled calendars by file name; ``load_calendar`` builds them from here.
BUNDLED = {
    "gregorian.cal": gregorian_calendar,
    "mayan.cal": mayan_calendar,
    "cricket.cal": cricket_calendar,
    "semester.cal": semester_calendar,
}


def write_smart_meter_csv(
    path: str | Path,
    seed: int = 42,
    customers: int = 2,
    origin_year: int = 2012,
    days: int = 731,
) -> int:
    """Half-hourly consumption for simulated customers; returns row count.

    The signal mixes a morning and an evening peak, a weekend shift, a
    seasonal swing, and gamma noise, so daily and weekly periodicities
    are recoverable from the output.
    """
    rng = np.random.default_rng(seed)
    n = days * 48
    t = np.arange(n)
    hour = (t % 48) / 2.0
    dow = (t // 48) % 7  # 0 = weekday name of Jan 1 alignment handled by labels
    weekend = (dow == 0) | (dow == 6)
    season = 0.06 * np.cos(2 * np.pi * (t / 48.0 - 172) / 365.25)
    start = date(origin_year, 1, 1)
    stamps = []
    for d in range(days):
        day_str = (start + timedelta(days=d)).strftime("%Y-%m-%d")
        for hh in range(48):
            stamps.append(f"{day_str} {hh // 2:02d}:{(hh % 2) * 30:02d}")
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["timestamp", "customer", "kwh"])
        for c in range(customers):
            morning = (0.45 + 0.15 * c) * np.exp(-((hour - 7.0 - 0.5 * c) ** 2) / 3.0)
            evening = (0.65 - 0.1 * c) * np.exp(-((hour - 19.0 + 0.5 * c) ** 2) / 6.0)
            lift = np.where(weekend & (hour > 8) & (hour < 22), 0.12 + 0.04 * c, 0.0)
            base = 0.22 + 0.05 * c
            noise = rng.gamma(2.0, 0.045, size=n)
            kwh = np.maximum(base + morning + evening + lift + season + noise, 0.001)
            name = f"c{c + 1}"
            for i in range(n):
                writer.writerow([stamps[i], name, format(kwh[i], ".3f")])
                rows += 1
    return rows


def write_cricket_csv(
    path: str | Path,
    seed: int = 42,
    match_counts: tuple[int, ...] = (6, 8, 7, 9),
    first_season: int = 2008,
) -> int:
    """Ball-by-ball rows with a precomputed global over index."""
    rng = np.random.default_rng(seed)
    outcomes = np.array([0, 1, 2, 3, 4, 6])
    rows = 0
    over_index = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["season", "match", "inning", "over", "ball", "runs", "over_index"])
        for s, n_matches in enumerate(match_counts):
            for match in range(1, n_matches + 1):
                for inning in (1, 2):
                    for over in range(1, 21):
                        drift = (over - 1) / 19.0
                        p = np.array([0.34, 0.29, 0.16, 0.04, 0.11, 0.06])
                        p[0] -= 0.08 * drift
                        p[4] += 0.05 * drift
                        p[5] += 0.03 * drift
                        p /= p.sum()
                        runs = rng.choice(outcomes, size=6, p=p)
                        for ball in range(1, 7):
                            writer.writerow(
                                [first_season + s, match, inning, over, ball,
                                 int(runs[ball - 1]), over_index]
                            )
                            rows += 1
                        over_index += 1
    return rows


SMART_METER_CONFIG = """\
# Session for the synthetic smart-meter dataset.
[session]
calendar = gregorian.cal
dataset = synthetic_smart_meter.csv
rungs = hour day week month
max_levels = 31
near_threshold = 0.05
near_floor = 2
quantile_probs = 0.01 0.1 0.25 0.5 0.75 0.9 0.99

[schema]
timestamp_column = timestamp
timestamp_format = %Y-%m-%d %H:%M
origin = 2012-01-01 00:00
bottom_duration = 30m
keys = customer
measurements = kwh

[derive wknd_wday]
base = day_week
map = 0:1 6:1 rest:0
labels = Weekday, Weekend
"""

CRICKET_CONFIG = """\
# Session for the Twenty20 ball-by-ball sample.
[session]
calendar = cricket.cal
dataset = cricket_sample.csv
rungs = over inning match season

[schema]
timestamp_column = over_index
timestamp_format = index
keys = ball
measurements = runs
"""


def write_fixtures(out_dir: str | Path, seed: int = 42) -> list[Path]:
    """Emit the four calendars, both datasets, and ready-made session configs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, build in BUNDLED.items():
        save_calendar(build(), out / name)
        written.append(out / name)
    write_smart_meter_csv(out / "synthetic_smart_meter.csv", seed=seed)
    written.append(out / "synthetic_smart_meter.csv")
    write_cricket_csv(out / "cricket_sample.csv", seed=seed)
    written.append(out / "cricket_sample.csv")
    (out / "smart_meter.ini").write_text(SMART_METER_CONFIG, encoding="utf-8")
    written.append(out / "smart_meter.ini")
    (out / "cricket.ini").write_text(CRICKET_CONFIG, encoding="utf-8")
    written.append(out / "cricket.ini")
    return written
