from dataclasses import replace

import pytest

from timegrain import Calendar, ValidationError, cli, load_calendar, parse_calendar
from timegrain.calfile import format_calendar
from timegrain.fixtures import BUNDLED

MINIMAL = """\
[calendar]
name = toy
bottom = tick

[rung tick]
period = 10

[rung block]
period = 1
"""


def test_parse_minimal():
    cal = parse_calendar(MINIMAL)
    assert cal.hierarchy.rung_names == ("tick", "block")
    assert cal.hierarchy.rungs[0].rule.period == 10


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_files_load(name):
    cal = load_calendar(name)
    assert len(cal.hierarchy.rungs) >= 2


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_calendars_round_trip(name):
    cal = load_calendar(name)
    text = format_calendar(cal)
    again = parse_calendar(text)
    assert again == cal
    assert format_calendar(again) == text


def test_round_trip(gregorian):
    text = format_calendar(gregorian)
    again = parse_calendar(text)
    assert again.hierarchy == gregorian.hierarchy
    assert format_calendar(again) == text


def test_round_trip_events(semester):
    again = parse_calendar(format_calendar(semester))
    assert again.events == semester.events
    assert again.hierarchy.labels == semester.hierarchy.labels


def test_missing_calendar_section():
    with pytest.raises(ValidationError) as err:
        parse_calendar("[rung x]\nperiod = 2\n")
    assert err.value.kind == "bad-calendar-file"


def test_rule_conflict_rejected():
    text = MINIMAL.replace("period = 10", "period = 10\ncardinalities = 3 4")
    with pytest.raises(ValidationError) as err:
        parse_calendar(text)
    assert err.value.kind == "bad-calendar-file"


def test_non_integer_period():
    with pytest.raises(ValidationError) as err:
        parse_calendar(MINIMAL.replace("period = 10", "period = ten"))
    assert err.value.kind == "bad-calendar-file"


def test_unknown_section():
    with pytest.raises(ValidationError) as err:
        parse_calendar(MINIMAL + "\n[wat hello]\nx = 1\n")
    assert err.value.kind == "bad-calendar-file"


def test_declared_bottom_mismatch():
    with pytest.raises(ValidationError) as err:
        parse_calendar(MINIMAL.replace("bottom = tick", "bottom = block"))
    assert err.value.kind == "bad-calendar-file"


def test_missing_file():
    with pytest.raises(ValidationError) as err:
        load_calendar("no_such_calendar.cal")
    assert err.value.kind == "file-not-found"


@pytest.mark.parametrize("unreadable", ["directory", "utf-16-bom"])
def test_unreadable_file(tmp_path, unreadable):
    path = tmp_path / "broken.cal"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe" + MINIMAL.encode("utf-16-le"))
    with pytest.raises(ValidationError) as err:
        load_calendar(path)
    assert err.value.kind == "bad-calendar-file"
    assert err.value.message.startswith(str(path))


EVENT_FAULTS = {
    "bad-category": ("category.0 = none | 5-8", "category index 0 in 'e'; 0 is reserved for none"),
    "bad-interval": ("category.1 = late | 5-3", "interval [5, 3) in 'e' is not a half-open range"),
    "overlapping-intervals": (
        "category.1 = a | 0-5\ncategory.2 = b | 8-9 3-6",
        "intervals overlap at index 3 in 'e'",
    ),
}


@pytest.mark.parametrize("kind", EVENT_FAULTS)
def test_event_faults_exit_3(tmp_path, capsys, kind):
    section, message = EVENT_FAULTS[kind]
    path = tmp_path / "events.cal"
    path.write_text(f"{MINIMAL}\n[events e]\n{section}\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        parse_calendar(path.read_text(encoding="utf-8"))
    assert (err.value.kind, err.value.message) == (kind, message)
    assert cli.run(["calendar", "validate", str(path)]) == 3
    assert capsys.readouterr().err == f"error kind={kind} exit=3: {message}\n"


def test_semester_structure(semester):
    ev = semester.events["semester_type"]
    sizes = {c.label: sum(e - s for s, e in c.intervals) for c in ev.categories}
    # per semester: 7 orientation, 42 + 49 in session, 7 + 7 breaks, 16 exams
    assert sizes["orientation"] == 7 * 4
    assert sizes["in_session"] == (42 + 49) * 4
    assert sizes["break"] == 14 * 4
    assert sizes["exam"] == 16 * 4
    spans = [e - s for c in ev.categories for s, e in c.intervals]
    assert all(x > 0 for x in spans)


def test_bad_cardinality_named_in_long_table():
    tokens = ["30", "31"] * 2400
    tokens[4000] = "3l"
    text = MINIMAL.replace("period = 10", "cardinalities = " + " ".join(tokens))
    with pytest.raises(ValidationError) as err:
        parse_calendar(text)
    assert err.value.kind == "bad-calendar-file"
    assert err.value.message == "[rung tick] cardinalities = '3l' is not an integer"


CALENDAR_FAULTS = {
    "huge-period": (
        MINIMAL.replace("period = 10", "period = 99999999999999999999"), "index-overflow",
        "one cycle of rung 'block' spans 2^63 or more bottom units; indices are int64",
    ),
    "huge-cardinalities": (
        MINIMAL.replace("period = 10", f"cardinalities = {2**62} {2**62}"), "index-overflow",
        "one cycle of rung 'block' spans 2^63 or more bottom units; indices are int64",
    ),
    "labels-typo": (
        MINIMAL + "\n[labels tick_blok]\noffset = 1\n", "unknown-labels",
        "[labels tick_blok] names no rung pair or event calendar",
    ),
}


@pytest.mark.parametrize("name", CALENDAR_FAULTS)
def test_calendar_faults_exit_3(tmp_path, capsys, name):
    text, kind, message = CALENDAR_FAULTS[name]
    with pytest.raises(ValidationError) as err:
        parse_calendar(text)
    assert (err.value.kind, err.value.message) == (kind, message)
    path = tmp_path / "faulty.cal"
    path.write_text(text, encoding="utf-8")
    assert cli.run(["calendar", "validate", str(path)]) == 3
    assert capsys.readouterr().err == f"error kind={kind} exit=3: {message}\n"


def test_labels_for_rung_pairs_and_events_accepted(semester):
    text = MINIMAL + "\n[labels tick_block]\noffset = 1\n"
    h = parse_calendar(text).hierarchy
    assert h.labels == {"tick_block": 1}
    with pytest.raises(ValidationError) as err:
        Calendar(replace(h, labels={"tick_blok": 1}))
    assert err.value.kind == "unknown-labels"
    assert parse_calendar(format_calendar(semester)).hierarchy.labels == semester.hierarchy.labels
