"""Command-line front end.

Subcommands wire the library into a scriptable workflow:

    timegrain fixtures generate --out work
    timegrain calendar validate work/gregorian.cal
    timegrain granularity list --config work/smart_meter.ini
    timegrain granularity compute hour_day day_week --config work/smart_meter.ini
    timegrain harmony --config work/smart_meter.ini
    timegrain summarize --config work/smart_meter.ini --x hour_day --facet wknd_wday --response kwh
    timegrain plot-spec --config work/smart_meter.ini --x hour_day --facet wknd_wday \
        --response kwh --geometry quantile-area

All outputs are files; repeated runs over identical inputs are
byte-identical. Exit codes: 0 success, 2 usage, 3 validation, 4 data,
5 computation. Errors print one machine-readable line on stderr.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from pathlib import Path

from .calfile import Calendar, load_calendar
from .config import SessionConfig, build_catalog, load_config
from .cyclic import CyclicDescriptor
from .distill import (
    GEOMETRIES,
    emit_plot_spec,
    recommend,
    summarize_cells,
    write_summaries,
)
from .errors import TimegrainError, ValidationError
from .harmony import IndexSpan, classify_pair, cross_tab, harmony_table, write_harmony_table
from .hierarchy import ConstantPeriod
from .table import GranularTable, augment, export_table, ingest, text_out, write_csv

WRITE_SLICE = 1 << 20  # characters of a large text output encoded at a time


def _out_dir(args, cfg: SessionConfig | None) -> Path:
    if getattr(args, "out_dir", None):
        return Path(args.out_dir)
    env = os.environ.get("TIMEGRAIN_OUT")
    if env:
        return Path(env)
    if cfg is not None and cfg.out_dir:
        return cfg.base_dir / cfg.out_dir
    return Path(".")


def _output_path(args, cfg: SessionConfig, default: str) -> Path:
    """``--out``, else ``default`` in the output directory; makes its parent."""
    out = Path(args.out) if args.out else _out_dir(args, cfg) / default
    if out.is_dir():
        raise ValidationError("bad-output", f"output path {out} is a directory")
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ValidationError("bad-output", f"output path {out} lies under a file") from None
    return out


def _load_session(args) -> tuple[SessionConfig, Calendar, dict[str, CyclicDescriptor]]:
    if not getattr(args, "config", None):
        raise ValidationError("bad-config", "this command needs --config")
    cfg = load_config(args.config)
    cal = load_calendar(cfg.calendar_path())
    return cfg, cal, build_catalog(cfg, cal)


def _load_table(cfg: SessionConfig, cal: Calendar) -> GranularTable:
    if cfg.schema is None:
        raise ValidationError("bad-config", "config has no [schema] section")
    return ingest(cfg.dataset_path(), cfg.schema, cal.hierarchy)


def _resolve(catalog, name: str):
    if name not in catalog:
        raise ValidationError(
            "unknown-descriptor",
            f"{name!r} is not in the catalog ({', '.join(sorted(catalog))})",
        )
    return catalog[name]


def cmd_calendar_validate(args) -> int:
    cal = load_calendar(args.file)
    h = cal.hierarchy
    print(f"calendar {h.name}: valid ({len(h.rungs)} rungs)")
    for rung, nxt in zip(h.rungs, h.rungs[1:]):
        if isinstance(rung.rule, ConstantPeriod):
            print(f"  rung {rung.name}: period {rung.rule.period} per {nxt.name}")
        else:
            unit = rung.rule.unit or rung.name
            print(
                f"  rung {rung.name}: k({rung.name}, {nxt.name}) irregular, "
                f"{rung.rule.repetition} sizes in {unit} units"
            )
    print(f"  rung {h.rungs[-1].name}: top")
    for name in cal.events:
        print(f"  events {name}: {len(cal.events[name].categories)} categories")
    return 0


def cmd_granularity_list(args) -> int:
    cfg, _, catalog = _load_session(args)
    buffer, ds = io.StringIO(), list(catalog.values())
    write_csv(buffer, ["name", "kind", "levels", "lower", "upper"],
              [[d.name for d in ds], [d.kind for d in ds], [str(d.levels) for d in ds],
               [d.lower or "" for d in ds], [d.upper or "" for d in ds]], args.delimiter)
    text = buffer.getvalue()
    if args.out:
        _output_path(args, cfg, "").write_text(text, encoding="utf-8")
    print(text, end="")
    n_pairs = sum(1 for d in catalog.values() if d.base is None and d.kind != "aperiodic")
    n_derived = sum(1 for d in catalog.values() if d.base is not None)
    n_events = sum(1 for d in catalog.values() if d.base is None and d.kind == "aperiodic")
    print(f"total: {len(catalog)} ({n_pairs} pairwise, {n_derived} derived, {n_events} aperiodic)")
    return 0


def cmd_granularity_compute(args) -> int:
    cfg, cal, catalog = _load_session(args)
    descriptors = [_resolve(catalog, n) for n in args.names]
    table = augment(_load_table(cfg, cal), descriptors, cal)
    out = _output_path(args, cfg, "computed.csv")
    export_table(table, out, delimiter=args.delimiter)
    print(f"wrote {out} ({len(table)} rows, {len(descriptors)} cyclic columns)")
    return 0


def cmd_harmony(args) -> int:
    cfg, cal, catalog = _load_session(args)
    if args.mode == "structural":
        if args.span is None or args.span <= 0:
            raise ValidationError("bad-config", "structural mode needs a positive --span")
        data: GranularTable | IndexSpan = IndexSpan(length=args.span, start=args.start)
    else:
        data = _load_table(cfg, cal)
    rows = harmony_table(
        list(catalog.values()),
        data,
        cal,
        max_levels=args.max_levels if args.max_levels is not None else cfg.max_levels,
        near_threshold=cfg.near_threshold,
        near_floor=cfg.near_floor,
        keep_near_clashes=args.keep_near_clashes,
    )
    out = _output_path(args, cfg, "harmony.csv")
    write_harmony_table(rows, out, delimiter=args.delimiter)
    print(f"wrote {out} ({len(rows)} harmony pairs)")
    return 0


def cmd_summarize(args) -> int:
    cfg, cal, catalog = _load_session(args)
    x, facet = _resolve(catalog, args.x), _resolve(catalog, args.facet)
    table = augment(_load_table(cfg, cal), [x, facet], cal)
    summaries = summarize_cells(
        table, x, facet, args.response, probs=cfg.probs, letter_values=args.letter_values
    )
    out = _output_path(args, cfg, "summary.csv")
    write_summaries(summaries, out, delimiter=args.delimiter)
    print(f"wrote {out} ({len(summaries.mean)} occupied cells)")
    return 0


def cmd_plot_spec(args) -> int:
    cfg, cal, catalog = _load_session(args)
    x, facet = _resolve(catalog, args.x), _resolve(catalog, args.facet)
    table = augment(_load_table(cfg, cal), [x, facet], cal)
    classification = classify_pair(
        cross_tab(table, x, facet, cal), cfg.near_threshold, cfg.near_floor
    )
    advice = recommend(x, facet, classification)
    print(advice.to_text(), end="")
    warnings = [n for n in advice.notes if n.startswith("near-clash")]
    letter = args.geometry == "letter-value-counts"
    summaries = summarize_cells(
        table, x, facet, args.response, probs=cfg.probs, letter_values=letter
    )
    spec = emit_plot_spec(
        summaries, x, facet, args.response, args.geometry,
        force=args.force, warnings=warnings,
    )
    out, text = _output_path(args, cfg, "plot_spec.json"), spec.to_json()
    with text_out(out) as handle:
        for k in range(0, len(text), WRITE_SLICE):  # encoded a slice at a time, not in one copy
            handle.write(text[k : k + WRITE_SLICE])
    print(f"wrote {out}")
    return 0


def cmd_fixtures_generate(args) -> int:
    from .fixtures import write_fixtures  # imported here, as sessions need none of it

    out = _out_dir(args, None)
    for path in write_fixtures(out, seed=args.seed):
        print(f"wrote {path}")
    return 0


def _add_common(p, config=True):
    if config:
        p.add_argument("--config", help="session configuration file")
    p.add_argument("--out", help="output file path")
    p.add_argument("--out-dir", help="output directory (overrides TIMEGRAIN_OUT)")
    p.add_argument("--delimiter", default=",", help="output field delimiter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timegrain",
        description="cyclic granularities, harmony screening, and distribution summaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cal = sub.add_parser("calendar", help="calendar definition files")
    cal_sub = p_cal.add_subparsers(dest="subcommand", required=True)
    p_val = cal_sub.add_parser("validate", help="parse and validate a calendar file")
    p_val.add_argument("file")
    p_val.set_defaults(func=cmd_calendar_validate)

    p_gran = sub.add_parser("granularity", help="enumerate or compute cyclic granularities")
    gran_sub = p_gran.add_subparsers(dest="subcommand", required=True)
    p_list = gran_sub.add_parser("list", help="list the descriptor catalog")
    _add_common(p_list)
    p_list.set_defaults(func=cmd_granularity_list)
    p_comp = gran_sub.add_parser("compute", help="augment the dataset and export it")
    p_comp.add_argument("names", nargs="+", help="descriptor names to compute")
    _add_common(p_comp)
    p_comp.set_defaults(func=cmd_granularity_compute)

    p_harm = sub.add_parser("harmony", help="screen descriptor pairs into a harmony table")
    _add_common(p_harm)
    p_harm.add_argument("--mode", choices=["observed", "structural"], default="observed")
    p_harm.add_argument("--span", type=int, help="structural span length in bottom granules")
    p_harm.add_argument("--start", type=int, default=0)
    p_harm.add_argument("--max-levels", type=int, default=None)
    p_harm.add_argument("--keep-near-clashes", action="store_true")
    p_harm.set_defaults(func=cmd_harmony)

    p_sum = sub.add_parser("summarize", help="per-cell distribution summaries")
    _add_common(p_sum)
    p_sum.add_argument("--x", required=True)
    p_sum.add_argument("--facet", required=True)
    p_sum.add_argument("--response", required=True)
    p_sum.add_argument("--letter-values", action="store_true")
    p_sum.set_defaults(func=cmd_summarize)

    p_spec = sub.add_parser("plot-spec", help="emit a declarative plot specification")
    _add_common(p_spec)
    p_spec.add_argument("--x", required=True)
    p_spec.add_argument("--facet", required=True)
    p_spec.add_argument("--response", required=True)
    p_spec.add_argument("--geometry", required=True, choices=GEOMETRIES)
    p_spec.add_argument("--force", action="store_true", help="emit despite empty cells")
    p_spec.set_defaults(func=cmd_plot_spec)

    p_fix = sub.add_parser("fixtures", help="bundled calendars and synthetic datasets")
    fix_sub = p_fix.add_subparsers(dest="subcommand", required=True)
    p_gen = fix_sub.add_parser("generate", help="write calendars, datasets, and configs")
    p_gen.add_argument("--out-dir", "--out", dest="out_dir", help="target directory")
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.set_defaults(func=cmd_fixtures_generate)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TimegrainError as exc:
        print(f"error kind={exc.kind} exit={exc.exit_code}: {exc.message}", file=sys.stderr)
        return exc.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
