import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from timegrain import load_calendar
from timegrain.config import build_catalog, load_config
from timegrain.fixtures import (
    cricket_calendar,
    gregorian_calendar,
    mayan_calendar,
    semester_calendar,
    write_fixtures,
)
from timegrain.table import ingest


@pytest.fixture(scope="session")
def gregorian():
    """Shipped half-hour ladder: halfhour/hour/day/week/month/year, 400-year month table."""
    return load_calendar("gregorian.cal")


@pytest.fixture(scope="session")
def gregorian_hours():
    """Proper chain hour/day/month/year from 2012 for the order-up algebra."""
    return gregorian_calendar(bottom="hour")


@pytest.fixture(scope="session")
def gregorian_days():
    return gregorian_calendar(bottom="day")


@pytest.fixture(scope="session")
def gregorian_2013_days():
    """Day-bottom ladder anchored at the non-leap year 2013."""
    return gregorian_calendar(bottom="day", origin_year=2013)


@pytest.fixture(scope="session")
def mayan():
    return mayan_calendar()


@pytest.fixture(scope="session")
def cricket():
    return cricket_calendar()


@pytest.fixture(scope="session")
def semester():
    return semester_calendar()


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """Generated fixture files (calendars, datasets, session configs)."""
    out = tmp_path_factory.mktemp("fixtures")
    write_fixtures(out, seed=42)
    return out


@pytest.fixture(scope="session")
def smart_config(workdir):
    return load_config(workdir / "smart_meter.ini")


@pytest.fixture(scope="session")
def smart_calendar(smart_config):
    return load_calendar(smart_config.calendar_path())


@pytest.fixture(scope="session")
def smart_table(smart_config, smart_calendar):
    return ingest(smart_config.dataset_path(), smart_config.schema, smart_calendar.hierarchy)


@pytest.fixture(scope="session")
def smart_catalog(smart_config, smart_calendar):
    """The seven working descriptors: six rung pairs plus wknd_wday."""
    return build_catalog(smart_config, smart_calendar)


@pytest.fixture(scope="session")
def cricket_config(workdir):
    return load_config(workdir / "cricket.ini")


@pytest.fixture(scope="session")
def cricket_table(cricket_config):
    cal = load_calendar(cricket_config.calendar_path())
    return ingest(cricket_config.dataset_path(), cricket_config.schema, cal.hierarchy)
