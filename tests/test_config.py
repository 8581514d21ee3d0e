import pytest

from timegrain import ValidationError
from timegrain.config import load_config

BAD_VALUES = {
    "near_threshold": ("near_threshold = 0.05", "near_threshold = abc", "[session] near_threshold"),
    "near_floor": ("near_floor = 2", "near_floor = two", "[session] near_floor"),
    "max_levels": ("max_levels = 31", "max_levels = 3.5", "[session] max_levels"),
    "quantile_probs": (
        "quantile_probs = 0.01 0.1", "quantile_probs = 0.01 tenth", "[session] quantile_probs"
    ),
    "derive_map": ("map = 0:1 6:1 rest:0", "map = 0:1 6:x rest:0", "[derive wknd_wday] map"),
}


@pytest.mark.parametrize("old,new,where", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_bad_value_names_section_and_key(workdir, tmp_path, old, new, where):
    text = (workdir / "smart_meter.ini").read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "smart_meter.ini"
    path.write_text(text.replace(old, new), encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_config(path)
    assert err.value.kind == "bad-config"
    assert err.value.message.startswith(where)


@pytest.mark.parametrize("unreadable", ["directory", "utf-16-bom"])
def test_unreadable_file(workdir, tmp_path, unreadable):
    path = tmp_path / "smart_meter.ini"
    if unreadable == "directory":
        path.mkdir()
    else:
        text = (workdir / "smart_meter.ini").read_text(encoding="utf-8")
        path.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
    with pytest.raises(ValidationError) as err:
        load_config(path)
    assert err.value.kind == "bad-config"
    assert err.value.message.startswith(str(path))
