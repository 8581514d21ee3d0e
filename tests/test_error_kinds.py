"""Directed tests for error kinds, each reached where a user meets it.

Kinds the CLI can reach go through ``cli.run`` and check the one stderr
line and the exit code; the others go through the public function that
raises them.
"""

import numpy as np
import pytest

from test_cli import SMART_CSV, edited, error_lines, session  # session: the CLI fixture
from timegrain import (
    ValidationError,
    aperiodic_descriptor,
    categorize_levels,
    cli,
    evaluate,
    format_calendar,
    letter_value_probabilities,
)
from timegrain.fixtures import gregorian_calendar


def test_empty_dataset_is_empty_file(session, tmp_path, capsys):
    config = edited(session, tmp_path)
    (tmp_path / SMART_CSV).write_bytes(b"")
    assert cli.run(["harmony", "--config", str(config), "--out", str(tmp_path / "h.csv")]) == 4
    assert error_lines(capsys) == ["error kind=empty-file exit=4: source has no header row"]
    assert not (tmp_path / "h.csv").exists()


def test_unparseable_bottom_duration_is_bad_duration(session, tmp_path, capsys):
    config = edited(session, tmp_path, ini=("bottom_duration = 30m", "bottom_duration = 30x"))
    assert cli.run(["harmony", "--config", str(config), "--out", str(tmp_path / "h.csv")]) == 3
    assert error_lines(capsys) == ["error kind=bad-duration exit=3: cannot parse duration '30x'"]
    assert not (tmp_path / "h.csv").exists()


def test_unknown_unit_in_calendar_is_bad_unit(tmp_path, capsys):
    text = format_calendar(gregorian_calendar())
    assert text.count("unit = day\n") == 1
    path = tmp_path / "gregorian.cal"
    path.write_text(text.replace("unit = day\n", "unit = nosuch\n"), encoding="utf-8")
    assert cli.run(["calendar", "validate", str(path)]) == 3
    lines = error_lines(capsys)
    assert len(lines) == 1
    assert lines[0].startswith("error kind=bad-unit exit=3: ")
    assert "'nosuch'" in lines[0]


def test_aperiodic_descriptor_without_events_is_unknown_calendar(semester):
    semester_type = aperiodic_descriptor(semester.events["semester_type"])
    z = np.arange(10, dtype=np.int64)
    assert evaluate(semester.hierarchy, semester_type, z, semester.events).shape == z.shape
    with pytest.raises(ValidationError) as err:
        evaluate(semester.hierarchy, semester_type, z)
    assert err.value.kind == "unknown-calendar"
    assert "semester_type" in str(err.value)


def test_letter_values_of_no_observation_are_empty_cell():
    assert letter_value_probabilities(1) == (0.5,)
    with pytest.raises(ValidationError) as err:
        letter_value_probabilities(0)
    assert err.value.kind == "empty-cell"


def test_no_levels_are_bad_levels():
    assert categorize_levels(1) == "low"
    with pytest.raises(ValidationError) as err:
        categorize_levels(0)
    assert err.value.kind == "bad-levels"
