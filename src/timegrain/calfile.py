"""Calendar definition files: a sectioned key/value text format.

A ``.cal`` file declares the hierarchy ladder (one ``[rung NAME]``
section per rung, bottom first), optional label maps for cyclic
granularities, and optional aperiodic event calendars::

    [calendar]
    name = mayan
    origin = day 0 of the long count
    bottom = kin

    [rung kin]
    period = 20

    [rung baktun]
    period = 1            # sentinel top rung

    [labels inning_match]
    values = first, second

    [events semester_type]
    category.1 = in_session | 65-107 114-163

Constant rules use ``period`` (granules of this rung per granule of the
next). Irregular rules use ``cardinalities`` (sizes of the next rung's
granules, repeating) plus an optional ``unit`` rung the sizes are
measured in. Event intervals are half-open ``start-end`` ranges over the
bottom granularity.

The bundled calendars (``gregorian.cal``, ``mayan.cal``, ``cricket.cal``
and ``semester.cal``) are not shipped as files: ``load_calendar`` builds
them with the generators in ``timegrain.fixtures``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .hierarchy import (
    AperiodicEventCalendar,
    ConstantPeriod,
    EventCategory,
    Hierarchy,
    IrregularMapping,
    Rung,
)

@dataclass(frozen=True)
class Calendar:
    """A hierarchy plus any aperiodic event calendars, both checked when built."""

    hierarchy: Hierarchy
    events: dict[str, AperiodicEventCalendar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Every label map must name a rung pair or an event calendar."""
        names = self.hierarchy.rung_names
        known = {f"{lo}_{hi}" for k, lo in enumerate(names) for hi in names[k + 1 :]}
        for name in self.hierarchy.labels:
            if name not in known and name not in self.events:
                raise ValidationError(
                    "unknown-labels", f"[labels {name}] names no rung pair or event calendar"
                )


def read_ini(text: str | Path, error, source: str = "<string>") -> configparser.ConfigParser:
    """Parse ``text``, or the UTF-8 file at a ``Path``, as the INI of a calendar or session file.

    A file that cannot be read as UTF-8 text, or text that is not INI,
    raises ``error(message)``, the caller's error; the message names
    ``source`` (a path's own text).
    """
    if isinstance(text, Path):
        source = str(text)
        try:
            text = text.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise error(f"{source}: cannot read as UTF-8 text: {exc}") from None
    cp = configparser.ConfigParser(
        delimiters=("=",), interpolation=None, comment_prefixes=("#", ";")
    )
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise error(f"{source}: {exc}") from None
    return cp


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(
            "bad-calendar-file", f"[{section}] {key} = {raw!r} is not an integer"
        ) from None


def parse_calendar(text: str, source: str = "<string>") -> Calendar:
    """Parse and validate a calendar definition."""
    return _calendar(text, source)


def _calendar(text: str | Path, source: str) -> Calendar:
    """The validated calendar of ``text``, or of the file at a ``Path``, named ``source``."""
    cp = read_ini(text, lambda message: ValidationError("bad-calendar-file", message), source)
    if "calendar" not in cp:
        raise ValidationError("bad-calendar-file", f"{source}: missing [calendar] section")
    meta = cp["calendar"]
    name = meta.get("name", Path(source).stem)

    rungs: list[Rung] = []
    labels: dict[str, object] = {}
    events: dict[str, AperiodicEventCalendar] = {}
    for section in cp.sections():
        if section == "calendar":
            continue
        kind, _, arg = section.partition(" ")
        body = cp[section]
        if kind == "rung":
            rungs.append(_parse_rung(arg, body, source))
        elif kind == "labels":
            labels[arg] = _parse_labels(section, body, source)
        elif kind == "events":
            events[arg] = _parse_events(arg, body)
        else:
            raise ValidationError(
                "bad-calendar-file", f"{source}: unknown section [{section}]"
            )

    hierarchy = Hierarchy(
        name=name,
        rungs=tuple(rungs),
        origin=meta.get("origin", ""),
        origin_note=meta.get("origin_note", ""),
        labels=labels,
    )
    declared_bottom = meta.get("bottom")
    if declared_bottom and declared_bottom != hierarchy.bottom:
        raise ValidationError(
            "bad-calendar-file",
            f"{source}: declared bottom {declared_bottom!r} but first rung is {hierarchy.bottom!r}",
        )
    return Calendar(hierarchy=hierarchy, events=events)


def _parse_rung(name: str, body, source: str) -> Rung:
    if not name:
        raise ValidationError("bad-calendar-file", f"{source}: [rung] section without a name")
    if "period" in body and "cardinalities" in body:
        raise ValidationError(
            "bad-calendar-file", f"{source}: rung {name!r} declares both period and cardinalities"
        )
    if "period" in body:
        return Rung(name, ConstantPeriod(_parse_int(f"rung {name}", "period", body["period"])))
    if "cardinalities" in body:
        tokens = body["cardinalities"].split()
        try:
            cards = tuple(map(int, tokens))
        except ValueError:
            for tok in tokens:  # raises for the first token that is not an integer
                _parse_int(f"rung {name}", "cardinalities", tok)
        unit = body.get("unit") or None
        return Rung(name, IrregularMapping(cards, unit=unit))
    raise ValidationError(
        "bad-calendar-file", f"{source}: rung {name!r} declares neither period nor cardinalities"
    )


def _parse_labels(section: str, body, source: str) -> object:
    if "values" in body:
        return tuple(v.strip() for v in body["values"].split(","))
    if "offset" in body:
        return _parse_int(section, "offset", body["offset"])
    raise ValidationError(
        "bad-calendar-file", f"{source}: [{section}] needs either values or offset"
    )


def _parse_events(name: str, body) -> AperiodicEventCalendar:
    categories = []
    for key, raw in body.items():
        if not key.startswith("category."):
            raise ValidationError(
                "bad-calendar-file", f"[events {name}] unknown key {key!r}"
            )
        index = _parse_int(f"events {name}", key, key.split(".", 1)[1])
        label, _, spans = raw.partition("|")
        intervals = []
        for token in spans.split():
            s, _, e = token.partition("-")
            intervals.append(
                (
                    _parse_int(f"events {name}", key, s),
                    _parse_int(f"events {name}", key, e),
                )
            )
        categories.append(EventCategory(index, label.strip(), tuple(intervals)))
    return AperiodicEventCalendar(name, tuple(categories))


def load_calendar(path: str | Path) -> Calendar:
    """Load from a filesystem path, falling back to a bundled calendar.

    A path that is not an existing file but whose name is bundled, such as
    ``gregorian.cal`` or ``work/gregorian.cal``, is built by its generator
    in ``timegrain.fixtures``.
    """
    p = Path(path)
    if p.exists():
        return _calendar(p, str(p))
    # imported here: fixtures imports this module
    from .fixtures import BUNDLED

    if p.name in BUNDLED:
        return BUNDLED[p.name]()
    raise ValidationError("file-not-found", f"calendar file {path!r} does not exist")


def format_calendar(cal: Calendar) -> str:
    """Serialize a calendar back to the file format (stable layout)."""
    h = cal.hierarchy
    out = ["[calendar]", f"name = {h.name}"]
    if h.origin:
        out.append(f"origin = {h.origin}")
    if h.origin_note:
        out.append(f"origin_note = {h.origin_note}")
    out.append(f"bottom = {h.bottom}")
    for rung in h.rungs:
        out += ["", f"[rung {rung.name}]"]
        if isinstance(rung.rule, ConstantPeriod):
            out.append(f"period = {rung.rule.period}")
        else:
            out.append("cardinalities =")
            cards = rung.rule.cardinalities
            for i in range(0, len(cards), 16):
                out.append("    " + " ".join(str(c) for c in cards[i : i + 16]))
            if rung.rule.unit:
                out.append(f"unit = {rung.rule.unit}")
    for name, labels in h.labels.items():
        out += ["", f"[labels {name}]"]
        if isinstance(labels, int):
            out.append(f"offset = {labels}")
        else:
            out.append("values = " + ", ".join(labels))
    for name, ev in cal.events.items():
        out += ["", f"[events {name}]"]
        for c in ev.categories:
            spans = " ".join(f"{s}-{e}" for s, e in c.intervals)
            out.append(f"category.{c.index} = {c.label} | {spans}")
    return "\n".join(out) + "\n"


def save_calendar(cal: Calendar, path: str | Path) -> None:
    Path(path).write_text(format_calendar(cal), encoding="utf-8")
