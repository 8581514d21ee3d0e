"""The table of error kinds, and directed tests for kinds, each reached where a user meets it.

``docs/errors.md`` lists every kind with its class and exit code; the
first tests check it against the source and the tests. Kinds the CLI can
reach go through ``cli.run`` and check the one stderr line and the exit
code; the others go through the public function that raises them.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from test_cli import SMART_CSV, edited, error_lines, session  # session: the CLI fixture
from timegrain import (
    CellSummaries,
    ComputationError,
    CyclicDescriptor,
    DataError,
    GranularTable,
    ValidationError,
    aperiodic_descriptor,
    categorize_levels,
    cli,
    emit_plot_spec,
    evaluate,
    format_calendar,
    letter_value_probabilities,
    summarize_cells,
)
from timegrain.fixtures import gregorian_calendar

ROOT = Path(__file__).resolve().parent.parent
EXIT_CODES = {cls.__name__: cls.exit_code for cls in (ValidationError, DataError, ComputationError)}


def raised_kinds() -> tuple[set, set, list]:
    """(kind, class) pairs raised in ``src/``: by a literal first argument of an error class,
    and by a kind passed to ``flag`` in ``table._checked`` (a ``DataError``); then any other
    kind argument, as (file, source)."""
    literal, flagged, other = set(), set(), []
    for path in sorted((ROOT / "src" / "timegrain").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            if node.func.id == "flag":
                found, cls, arg = flagged, "DataError", node.args[1]
            elif node.func.id in EXIT_CODES:
                found, cls, arg = literal, node.func.id, node.args[0]
            else:
                continue
            if isinstance(arg, ast.Constant):
                found.add((arg.value, cls))
            else:
                other.append((path.name, ast.unparse(arg)))
    return literal, flagged, other


def documented_kinds() -> dict:
    """{(kind, class): exit code} of each row of the kind table in ``docs/errors.md``."""
    rows = {}
    for line in (ROOT / "docs" / "errors.md").read_text(encoding="utf-8").splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[2].isdigit():
            rows[cells[0], cells[1]] = int(cells[2])
    return rows


def test_every_literal_kind_is_documented_with_its_exit_code():
    literal, flagged, other = raised_kinds()
    # ``flag`` raises its kind argument; no other kind is computed
    assert other == [("table.py", "kind")]
    documented = documented_kinds()
    assert len(literal) > 40
    assert {key: EXIT_CODES[key[1]] for key in literal}.items() <= documented.items()
    # and the table names nothing that is not raised, with no exit code but its class's
    assert set(documented) == literal | flagged
    assert all(code == EXIT_CODES[cls] for (_, cls), code in documented.items())


def test_every_flagged_kind_is_documented_with_its_exit_code():
    _, flagged, _ = raised_kinds()
    assert ("unparseable-timestamp", "DataError") in flagged and len(flagged) >= 5
    assert {key: EXIT_CODES[key[1]] for key in flagged}.items() <= documented_kinds().items()


def test_every_kind_is_raised_by_one_class():
    # a script matching on the kind can then tell the exit code from it
    literal, flagged, _ = raised_kinds()
    classes = {}
    for kind, cls in literal | flagged:
        classes.setdefault(kind, set()).add(cls)
    assert {kind: found for kind, found in classes.items() if len(found) > 1} == {}


def test_every_kind_is_named_by_a_test():
    strings = [node.value for path in sorted((ROOT / "tests").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    unnamed = sorted(
        kind for kind, _ in documented_kinds()
        if not any(re.search(rf"(?<![\w-]){re.escape(kind)}(?![\w-])", s) for s in strings)
    )
    assert unnamed == []


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


def two_level_table():
    x = CyclicDescriptor("x", "circular", 2)
    t = GranularTable(index=np.arange(4, dtype=np.int64), timestamps=("",) * 4, timestamp_column="z",
                      measurements={"v": np.arange(4.0)}, cyclic={"x": (x, np.array([0, 1, 0, 1]))})
    return t, x


def test_probability_of_one_is_bad_probabilities():
    t, x = two_level_table()
    assert len(summarize_cells(t, x, x, "v", probs=(0.5, 0.99))) == 4
    with pytest.raises(ValidationError) as err:
        summarize_cells(t, x, x, "v", probs=(0.5, 1.0))
    assert err.value.kind == "bad-probabilities"


def test_plot_spec_of_no_cell_is_empty_summaries():
    t, x = two_level_table()
    summaries = summarize_cells(t, x, x, "v")
    assert emit_plot_spec(summaries, x, x, "v", "quantile-area", force=True).head["response"] == "v"
    none = CellSummaries(
        facet_labels=(), x_labels=("a",), n=np.zeros(0, dtype=np.int64), mean=np.zeros(0),
        minimum=np.zeros(0), maximum=np.zeros(0), probs=np.zeros(0), values=np.zeros(0),
        offsets=np.zeros(1, dtype=np.int64),
    )
    with pytest.raises(ValidationError) as err:
        emit_plot_spec(none, x, x, "v", "quantile-area")
    assert err.value.kind == "empty-summaries"
