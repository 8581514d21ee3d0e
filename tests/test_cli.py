import hashlib
import io
import shutil

import pytest

from oracles import write_csv_oracle
from timegrain import cli, load_calendar
from timegrain.config import build_catalog, load_config
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


def test_config_calendar_is_not_read_from_the_working_directory(workdir, tmp_path, monkeypatch,
                                                                 capsys):
    # the config names the bundled ladder and lies where no such file is; the working
    # directory holds the cricket ladder under that name, which is not read
    shutil.copy(workdir / "cricket.cal", tmp_path / "gregorian.cal")
    (tmp_path / "session").mkdir()
    (tmp_path / "session" / "plain.ini").write_text("[session]\ncalendar = gregorian.cal\n",
                                                    encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.run(["granularity", "list", "--config", "session/plain.ini"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "total: 15 (15 pairwise, 0 derived, 0 aperiodic)"
    assert "hour_day,circular,24,hour,day" in lines


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


def test_spreadsheet_export_gives_the_same_table(session, tmp_path):
    # a spreadsheet's "CSV UTF-8" export: a byte order mark, and "\r\n" line ends
    config = edited(session, tmp_path)
    text = (tmp_path / SMART_CSV).read_text(encoding="utf-8")
    (tmp_path / SMART_CSV).write_bytes(("\ufeff" + text.replace("\n", "\r\n")).encode("utf-8"))
    written = []
    for ini in (session / "smart_meter.ini", config):
        out = tmp_path / f"computed-{len(written)}.csv"
        argv = ["granularity", "compute", "hour_day", "day_week", "--config", str(ini)]
        assert cli.run([*argv, "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


# sha256 of the outputs over the generated fixtures (seed 42), the full
# two-year smart-meter dataset and the generated gregorian.cal
PINNED = {
    "computed": (
        ["granularity", "compute", "hour_day", "day_week", "wknd_wday"],
        "4e238f65fea326f95245c6bb1049e917f5b9d12ac0f6ac3056f6fdd8d0f822f5",
    ),
    "harmony-observed": (
        ["harmony"],
        "44797d6c4b14b6071ca1d4fd53852e34243c06cbd698b16792b1a5fbbb4b567d",
    ),
    "harmony-structural": (
        ["harmony", "--mode", "structural", "--span", "490896"],
        "44797d6c4b14b6071ca1d4fd53852e34243c06cbd698b16792b1a5fbbb4b567d",
    ),
    "summary": (
        ["summarize", *PAIR],
        "55baeeb8597645980d7ad6ac3b40d68e2c5abf0716701b7c9bed97f47547a933",
    ),
    "summary-letter-values": (
        ["summarize", *PAIR, "--letter-values"],
        "46c11963d642f0185d10b7e9a4394c6028dcd4f4ce7b51e495533eb13b6235d4",
    ),
    "plot-spec": (
        ["plot-spec", *PAIR, "--geometry", "quantile-area"],
        "f8aced27ab22497d3a43a41ce647e3ade7fb0fccd2fd407402eb479dd3faf084",
    ),
}


@pytest.mark.parametrize("argv,digest", PINNED.values(), ids=PINNED.keys())
def test_output_bytes_are_pinned(workdir, tmp_path, argv, digest):
    out = tmp_path / "out"
    assert cli.run([*argv, "--config", str(workdir / "smart_meter.ini"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_granularity_list_uses_delimiter(session, tmp_path):
    out = tmp_path / "nodir" / "list.csv"  # the parent is made, as for every --out
    argv = ["granularity", "list", "--config", str(session / "smart_meter.ini")]
    assert cli.run([*argv, "--delimiter", ";", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("name;kind;levels;lower;upper\n")


@pytest.mark.parametrize("delimiter", [",", ";", "\t", "1", "e", ".", '"'])
def test_granularity_list_equals_row_by_row_csv_writer(session, tmp_path, delimiter):
    config, out = session / "smart_meter.ini", tmp_path / "list.csv"
    argv = ["granularity", "list", "--config", str(config), "--delimiter", delimiter]
    assert cli.run([*argv, "--out", str(out)]) == 0
    cfg = load_config(config)
    catalog = build_catalog(cfg, load_calendar(cfg.calendar_path()))
    want = io.StringIO()
    write_csv_oracle(want, ["name", "kind", "levels", "lower", "upper"],
                     [(d.name, d.kind, d.levels, d.lower or "", d.upper or "") for d in catalog.values()],
                     delimiter)
    assert out.read_bytes().decode("utf-8") == want.getvalue()


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
    "oversize-field": (
        {"row": (3, "2012-01-01 00:30,c1,0.5" + "x" * 200_000)}, ["harmony"], 4,
        "unreadable-row exit=4: row 3: field larger than field limit",
    ),
    "ambiguous-column": (
        {"row": (1, "timestamp,customer,kwh,timestamp")}, ["harmony"], 4,
        "ambiguous-column exit=4: column 'timestamp' appears 2 times in header",
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
    "dataset-directory": (
        {"ini": ("dataset = synthetic_smart_meter.csv", "dataset = .")},
        ["harmony"],
        4,
        "unreadable-file exit=4: cannot read ",
    ),
    "derive-map": (
        {"ini": ("map = 0:1 6:1 rest:0", "map = 0:1 6:x rest:0")},
        ["granularity", "list"],
        3,
        "bad-config exit=3: [derive wknd_wday] map",
    ),
    "origin-format": (
        {"ini": ("origin = 2012-01-01 00:00", "origin = 2012-01-01")},
        ["harmony"],
        3,
        "bad-schema exit=3: origin '2012-01-01' does not match timestamp_format '%Y-%m-%d %H:%M'",
    ),
    **{
        f"delimiter-{name}": (
            {}, ["harmony", "--delimiter", delimiter], 3,
            f"bad-delimiter exit=3: delimiter {delimiter!r} is not one character",
        )
        for name, delimiter in (("double", ";;"), ("empty", ""))
    },
    "schema-delimiter": (
        {"ini": ("measurements = kwh", "measurements = kwh\ndelimiter = ;;")},
        ["harmony"],
        3,
        "bad-delimiter exit=3: delimiter ';;' is not one character",
    ),
    **{
        f"out-directory-{name}": (
            {"out": "directory"}, COMMANDS[name], 3, "bad-output exit=3: output path "
        )
        for name in ("granularity-list", "granularity-compute", "harmony-observed", "summarize",
                     "plot-spec")
    },
    **{
        f"out-under-file-{name}": (
            {"out": "under-file"}, COMMANDS[name], 3, "bad-output exit=3: output path "
        )
        for name in ("harmony-observed", "summarize", "plot-spec")
    },
    **{
        f"span-{span}": (
            {},
            ["harmony", "--mode", "structural", "--span", span],
            3,
            "bad-config exit=3: structural mode needs a positive --span",
        )
        for span in ("0", "-4800")
    },
    **{
        f"span-past-index-{span}": (
            {},
            ["harmony", "--mode", "structural", "--span", span, "--start", start],
            3,
            "index-overflow exit=3: span ",
        )
        for span, start in (("100000", "9223372036854775000"), ("100002", "9223372036854675807"),
                            ("20000", "-9223372036854775809"))
    },
}


@pytest.mark.parametrize("edit,argv,code,error", FAULTS.values(), ids=FAULTS.keys())
def test_fault_is_one_typed_error(session, tmp_path, capsys, edit, argv, code, error):
    edit, out = dict(edit), tmp_path / "out"
    where = edit.pop("out", None)
    if where == "directory":
        out.mkdir()
    elif where == "under-file":  # --out names a path inside an existing file
        (tmp_path / "afile").write_bytes(b"")
        out = tmp_path / "afile" / "h.csv"
    config = edited(session, tmp_path, **edit)
    assert cli.run([*argv, "--config", str(config), "--out", str(out)]) == code
    lines = error_lines(capsys)
    assert len(lines) == 1
    assert lines[0].startswith(f"error kind={error}")
    # nothing is written: no file, no entry in a directory named by --out, and
    # the file above --out is left empty
    if where == "directory":
        assert not any(out.iterdir())
    elif where == "under-file":
        assert (tmp_path / "afile").read_bytes() == b""
    else:
        assert not out.exists()


def test_overflowing_statistic_is_one_typed_error(session, tmp_path, capsys):
    # every kwh at 1e308: each cell's sum overflows, so its mean is inf
    config = edited(session, tmp_path)
    data = tmp_path / SMART_CSV
    header, *rows = data.read_text(encoding="utf-8").splitlines()
    data.write_text("\n".join([header, *(r.rsplit(",", 1)[0] + ",1e308" for r in rows)]) + "\n",
                    encoding="utf-8")
    argv = [*PAIR, "--config", str(config), "--out"]
    # summaries hold the overflow quietly: exit 0, nothing on stderr
    assert cli.run(["summarize", *argv, str(tmp_path / "summary.csv")]) == 0
    assert error_lines(capsys) == []
    out = tmp_path / "spec.json"
    assert cli.run(["plot-spec", *argv, str(out), "--geometry", "quantile-area"]) == 5
    lines = error_lines(capsys)
    assert len(lines) == 1
    assert lines[0].startswith("error kind=non-finite-statistic exit=5: the mean of cell (x=0, facet=")
    assert not out.exists()
