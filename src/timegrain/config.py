"""Session configuration files: one place to name the calendar, dataset,
ingestion schema, derived granularities, and screening thresholds."""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .calfile import Calendar, ini_parser
from .cyclic import CyclicDescriptor, aperiodic_descriptor, derive_descriptor
from .distill import DEFAULT_PROBS
from .errors import ValidationError
from .fixtures import BUNDLED
from .harmony import DEFAULT_MAX_LEVELS, DEFAULT_NEAR_FLOOR, DEFAULT_NEAR_THRESHOLD
from .table import IngestionSchema, enumerate_cyclic


@dataclass(frozen=True)
class DeriveSpec:
    """A derived granularity: base descriptor plus a level remap."""

    name: str
    base: str
    mapping: dict[int, int]
    rest: int | None = None
    labels: object = None


@dataclass(frozen=True)
class SessionConfig:
    base_dir: Path
    calendar: str
    dataset: str | None = None
    rungs: tuple[str, ...] | None = None
    max_upper: str | None = None
    max_levels: int = DEFAULT_MAX_LEVELS
    near_threshold: float = DEFAULT_NEAR_THRESHOLD
    near_floor: int = DEFAULT_NEAR_FLOOR
    probs: tuple[float, ...] = DEFAULT_PROBS
    out_dir: str | None = None
    schema: IngestionSchema | None = None
    derives: tuple[DeriveSpec, ...] = ()

    def calendar_path(self) -> str | Path:
        p = self.base_dir / self.calendar
        if p.exists():
            return p
        if self.calendar in BUNDLED:
            return self.calendar
        return p  # load_calendar reports file-not-found with the full path

    def dataset_path(self) -> Path:
        if not self.dataset:
            raise ValidationError("bad-config", "this command needs a dataset in [session]")
        p = self.base_dir / self.dataset
        if not p.exists():
            raise ValidationError("file-not-found", f"dataset {p} does not exist")
        return p


def _number(parse, section: str, key: str, raw):
    """``parse(raw)`` with ``parse`` int or float; a bad value names its key."""
    try:
        return parse(raw)
    except ValueError:
        raise ValidationError(
            "bad-config", f"[{section}] {key} = {raw!r} is not a valid {parse.__name__}"
        ) from None


def _parse_derive(name: str, body) -> DeriveSpec:
    if "base" not in body or "map" not in body:
        raise ValidationError("bad-config", f"[derive {name}] needs base and map")
    mapping: dict[int, int] = {}
    rest: int | None = None
    section = f"derive {name}"
    for token in body["map"].split():
        src, _, dst = token.partition(":")
        if not dst:
            raise ValidationError("bad-config", f"[derive {name}] bad map token {token!r}")
        if src == "rest":
            rest = _number(int, section, "map", dst)
        else:
            mapping[_number(int, section, "map", src)] = _number(int, section, "map", dst)
    labels = None
    if "labels" in body:
        labels = tuple(v.strip() for v in body["labels"].split(","))
    return DeriveSpec(name, body["base"], mapping, rest, labels)


def load_config(path: str | Path) -> SessionConfig:
    p = Path(path)
    if not p.exists():
        raise ValidationError("file-not-found", f"config file {p} does not exist")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError("bad-config", f"{p}: cannot read as UTF-8 text: {exc}") from None
    cp = ini_parser()
    try:
        cp.read_string(text, source=str(p))
    except configparser.Error as exc:
        raise ValidationError("bad-config", f"{p}: {exc}") from None
    if "session" not in cp:
        raise ValidationError("bad-config", f"{p}: missing [session] section")
    session = cp["session"]
    if "calendar" not in session:
        raise ValidationError("bad-config", f"{p}: [session] needs a calendar")

    schema = None
    if "schema" in cp:
        body = cp["schema"]
        if "timestamp_column" not in body or "timestamp_format" not in body:
            raise ValidationError(
                "bad-config", f"{p}: [schema] needs timestamp_column and timestamp_format"
            )
        schema = IngestionSchema(
            timestamp_column=body["timestamp_column"],
            timestamp_format=body["timestamp_format"],
            origin=body.get("origin", ""),
            bottom_duration=body.get("bottom_duration", ""),
            key_columns=tuple(body.get("keys", "").split()),
            measurement_columns=tuple(body.get("measurements", "").split()),
            delimiter=body.get("delimiter", ","),
        )

    derives = tuple(
        _parse_derive(section.split(" ", 1)[1], cp[section])
        for section in cp.sections()
        if section.startswith("derive ")
    )

    near_threshold = _number(
        float, "session", "near_threshold", session.get("near_threshold", DEFAULT_NEAR_THRESHOLD)
    )
    if not 0.0 <= near_threshold <= 1.0:
        raise ValidationError("bad-config", "near_threshold must lie in [0, 1]")
    near_floor = _number(
        int, "session", "near_floor", session.get("near_floor", DEFAULT_NEAR_FLOOR)
    )
    if near_floor < 0:
        raise ValidationError("bad-config", "near_floor must be non-negative")
    max_levels = _number(
        int, "session", "max_levels", session.get("max_levels", DEFAULT_MAX_LEVELS)
    )
    if max_levels < 1:
        raise ValidationError("bad-config", "max_levels must be at least 1")
    probs = tuple(
        _number(float, "session", "quantile_probs", x)
        for x in session.get("quantile_probs", "").split()
    ) or DEFAULT_PROBS
    if any(not (0.0 < q < 1.0) for q in probs):
        raise ValidationError("bad-config", "quantile_probs must lie strictly in (0, 1)")

    return SessionConfig(
        base_dir=p.parent,
        calendar=session["calendar"],
        dataset=session.get("dataset") or None,
        rungs=tuple(session["rungs"].split()) if "rungs" in session else None,
        max_upper=session.get("max_upper") or None,
        max_levels=max_levels,
        near_threshold=near_threshold,
        near_floor=near_floor,
        probs=probs,
        out_dir=session.get("out_dir") or None,
        schema=schema,
        derives=derives,
    )


def build_catalog(cfg: SessionConfig, cal: Calendar) -> dict[str, CyclicDescriptor]:
    """Pairwise descriptors for the considered rungs, plus events and derives."""
    catalog = {
        d.name: d
        for d in enumerate_cyclic(cal.hierarchy, max_upper=cfg.max_upper, rungs=cfg.rungs)
    }
    for ev in cal.events.values():
        catalog[ev.name] = aperiodic_descriptor(
            ev, labels=cal.hierarchy.labels.get(ev.name)
        )
    for spec in cfg.derives:
        if spec.base not in catalog:
            raise ValidationError(
                "unknown-descriptor", f"[derive {spec.name}] base {spec.base!r} not in catalog"
            )
        base = catalog[spec.base]
        if spec.rest is None:
            remap: dict[int, int] = spec.mapping
        else:
            remap = {v: spec.mapping.get(v, spec.rest) for v in range(base.levels)}
        catalog[spec.name] = derive_descriptor(base, remap, spec.name, labels=spec.labels)
    return catalog
