import shutil

import pytest

from timegrain import cli
from timegrain.fixtures import write_smart_meter_csv

SMART_CSV = "synthetic_smart_meter.csv"
PAIR = ["--x", "hour_day", "--facet", "wknd_wday", "--response", "kwh"]


@pytest.fixture(scope="module")
def session(workdir, tmp_path_factory):
    """The generated smart-meter session over 28 days instead of two years.

    The config names ``gregorian.cal``, which is not copied, so the
    commands load the bundled calendar.
    """
    out = tmp_path_factory.mktemp("cli")
    shutil.copy(workdir / "smart_meter.ini", out)
    write_smart_meter_csv(out / SMART_CSV, days=28)
    return out


def edited(session, tmp_path, ini=None, row=None):
    """Copy of ``session`` in ``tmp_path``; returns the config path.

    ``ini`` is an (old, new) replacement in the config; ``row`` is a
    (line number, text) replacement in the dataset.
    """
    text = (session / "smart_meter.ini").read_text(encoding="utf-8")
    if ini is not None:
        assert ini[0] in text
        text = text.replace(*ini)
    (tmp_path / "smart_meter.ini").write_text(text, encoding="utf-8")
    lines = (session / SMART_CSV).read_text(encoding="utf-8").splitlines()
    if row is not None:
        lines[row[0] - 1] = row[1]
    (tmp_path / SMART_CSV).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tmp_path / "smart_meter.ini"


def error_lines(capsys):
    return [ln for ln in capsys.readouterr().err.splitlines() if ln]


@pytest.mark.parametrize("bundled", [True, False], ids=["bundled", "file"])
def test_calendar_validate(workdir, tmp_path, monkeypatch, capsys, bundled):
    monkeypatch.chdir(tmp_path)  # no gregorian.cal file here
    target = "gregorian.cal" if bundled else str(workdir / "cricket.cal")
    assert cli.run(["calendar", "validate", target]) == 0
    out = capsys.readouterr().out
    assert out.startswith("calendar gregorian: valid (6 rungs)" if bundled else "calendar cricket:")


COMMANDS = {
    "granularity-list": ["granularity", "list"],
    "granularity-compute": ["granularity", "compute", "hour_day", "day_month", "wknd_wday"],
    "harmony-observed": ["harmony"],
    "harmony-structural": ["harmony", "--mode", "structural", "--span", str(366 * 48)],
    "summarize": ["summarize", *PAIR],
    "summarize-letter-values": ["summarize", *PAIR, "--letter-values"],
    "plot-spec": ["plot-spec", *PAIR, "--geometry", "quantile-area"],
}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_command_output_is_repeatable(session, tmp_path, argv):
    written = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert cli.run([*argv, "--config", str(session / "smart_meter.ini"), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0]
    assert written[0] == written[1]


def test_granularity_list_uses_delimiter(session, tmp_path):
    out = tmp_path / "list.csv"
    argv = ["granularity", "list", "--config", str(session / "smart_meter.ini")]
    assert cli.run([*argv, "--delimiter", ";", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("name;kind;levels;lower;upper\n")


def test_fixtures_generate_is_repeatable(tmp_path):
    for run in ("first", "second"):
        assert cli.run(["fixtures", "generate", "--out-dir", str(tmp_path / run)]) == 0
    names = sorted(p.name for p in (tmp_path / "first").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "second").iterdir())
    assert "gregorian.cal" in names
    for name in names:
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()


def test_usage_error_exits_2():
    assert cli.run(["harmony", "--mode", "sideways"]) == 2


def test_unknown_descriptor_exits_3(session, tmp_path, capsys):
    argv = ["summarize", "--config", str(session / "smart_meter.ini"), "--out", str(tmp_path / "s")]
    assert cli.run([*argv, "--x", "minute_day", "--facet", "wknd_wday", "--response", "kwh"]) == 3
    assert error_lines(capsys)[0].startswith("error kind=unknown-descriptor exit=3:")


FAULTS = {
    "short-row": (
        {"row": (3, "2012-01-01 00:30,c1")}, ["harmony"], 4, "short-row exit=4: row 3:"
    ),
    "inf-measurement": (
        {"row": (5, "2012-01-01 01:30,c1,inf")},
        ["plot-spec", *PAIR, "--geometry", "quantile-area"],
        4,
        "non-finite-measurement exit=4: row 5:",
    ),
    "near-threshold": (
        {"ini": ("near_threshold = 0.05", "near_threshold = abc")},
        ["harmony"],
        3,
        "bad-config exit=3: [session] near_threshold",
    ),
    "derive-map": (
        {"ini": ("map = 0:1 6:1 rest:0", "map = 0:1 6:x rest:0")},
        ["granularity", "list"],
        3,
        "bad-config exit=3: [derive wknd_wday] map",
    ),
}


@pytest.mark.parametrize("edit,argv,code,error", FAULTS.values(), ids=FAULTS.keys())
def test_fault_is_one_typed_error(session, tmp_path, capsys, edit, argv, code, error):
    config = edited(session, tmp_path, **edit)
    assert cli.run([*argv, "--config", str(config), "--out", str(tmp_path / "out")]) == code
    lines = error_lines(capsys)
    assert len(lines) == 1
    assert lines[0].startswith(f"error kind={error}")
    assert not (tmp_path / "out").exists()
