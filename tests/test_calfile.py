import pytest

from timegrain import ValidationError, load_calendar, parse_calendar
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
