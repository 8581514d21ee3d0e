"""The benchmark's workloads: inputs, set-up, one pass of operations, checks.

A workload object makes its inputs from the seed when it is built, before
any timing. ``setup`` loads what a session needs from a freshly imported
program; ``run_pass`` performs one round of operations and returns one
``Op`` per operation; ``check`` compares the first round's outputs with
the reference computations in ``oracles``. The program is reached only
through its public functions and ``timegrain.cli.run``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracles as O

MODULES = ("calfile", "config", "table", "harmony", "distill", "cli")

NEAR_THRESHOLD = 0.05
NEAR_FLOOR = 2
PROBS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
HARMONY_HEADER = ["facet_variable", "x_variable", "facet_levels", "x_levels"]
ORIGIN = "2012-01-01 00:00"

SMART_NAMES = ("hour_day", "hour_week", "hour_month", "day_week", "day_month", "week_month",
               "wknd_wday")
GREGORIAN_NAMES = tuple(
    f"{lo}_{hi}"
    for i, lo in enumerate(("halfhour", "hour", "day", "week", "month", "year"))
    for hi in ("halfhour", "hour", "day", "week", "month", "year")[i + 1 :]
)
CRICKET_NAMES = ("over_inning", "over_match", "over_season", "inning_match", "inning_season",
                 "match_season")

SMART_INI = f"""[session]
calendar = gregorian.cal
dataset = {{dataset}}
rungs = hour day week month
max_levels = {{max_levels}}
near_threshold = {{near_threshold}}
near_floor = {NEAR_FLOOR}
quantile_probs = {" ".join(map(str, PROBS))}

[schema]
timestamp_column = timestamp
timestamp_format = %Y-%m-%d %H:%M
origin = {ORIGIN}
bottom_duration = 30m
keys = customer
measurements = kwh

[derive wknd_wday]
base = day_week
map = 0:1 6:1 rest:0
labels = Weekday, Weekend
"""

CRICKET_INI = f"""[session]
calendar = cricket.cal
dataset = cricket.csv
rungs = over inning match season
near_threshold = {NEAR_THRESHOLD}
near_floor = {NEAR_FLOOR}
quantile_probs = {" ".join(map(str, PROBS))}

[schema]
timestamp_column = over_index
timestamp_format = index
keys = ball
measurements = runs
"""

SPAN_INI = f"""[session]
calendar = {{calendar}}
max_levels = {{max_levels}}
near_threshold = {NEAR_THRESHOLD}
near_floor = {NEAR_FLOOR}
"""


def import_program() -> SimpleNamespace:
    """Import ``timegrain`` afresh, so that each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "timegrain" or m.startswith("timegrain.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"timegrain.{m}") for m in MODULES}
    )


@dataclass
class Op:
    """One operation of a pass: what it wrote, what must repeat, what to check."""

    name: str
    files: list[Path] = field(default_factory=list)
    key: object = None
    detail: object = None
    error: str | None = None


def _attempt(op: Op, fn) -> Op:
    """Run ``fn(op)``; a raised exception marks the operation as failed."""
    try:
        fn(op)
    except Exception as exc:  # the benchmark keeps going and counts the failure
        op.error = f"{type(exc).__name__}: {exc}"
    return op


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


class Failures:
    """Collects check failures per operation name."""

    def __init__(self):
        self.by_op: dict[str, str] = {}

    def expect(self, op: str, ok: bool, what: str) -> None:
        if not ok and op not in self.by_op:
            self.by_op[op] = what

    @contextlib.contextmanager
    def checking(self, op: str):
        """Output that cannot be read or parsed fails the operation."""
        try:
            yield
        except Exception as exc:
            self.expect(op, False, f"{type(exc).__name__}: {exc}")


def _digest_array(a: np.ndarray, dtype: str | None = None) -> tuple[str, str]:
    """(dtype, SHA-256 of the bytes) of ``a``, cast to ``dtype`` if given."""
    a = np.ascontiguousarray(a, dtype=dtype)
    return a.dtype.str, hashlib.sha256(a.tobytes()).hexdigest()


def _check_summary_rows(fails, op, rows, expected, f_labels, x_labels, non_missing):
    """``write_summaries`` output against expected cell summaries."""
    kx = len(x_labels)
    want = []
    for c, (n, _, _, _, qs) in enumerate(expected):
        f, x = f_labels[c // kx], x_labels[c % kx]
        want += [(f, x, None, None, 0)] if n == 0 else [(f, x, p, q, n) for p, q in qs]
    fails.expect(op, rows[0] == ["facet", "x", "prob", "value", "n"], "summary header")
    body = rows[1:]
    fails.expect(op, len(body) == len(want), f"{len(body)} summary rows, expected {len(want)}")
    for got, (f, x, p, q, n) in zip(body, want):
        ok = got[0] == f and got[1] == x and int(got[4]) == n
        if p is not None:  # the file gives probabilities to six significant digits
            ok = ok and got[2] == format(p, "g") and O.close(float(got[3]), q)
        fails.expect(op, ok, f"summary row {got} differs from {(f, x, p, q, n)}")
    # every occupied cell has exactly one median row; empty cells have one blank row
    fails.expect(op, sum(int(r[4]) for r in body if r[2] in ("", "0.5")) == non_missing,
                 "cell counts do not sum to the non-missing rows")


def _check_spec_cells(fails, op, cells, expected):
    """Plot-spec cells: counts and quantiles, monotone in p, within [min, max]."""
    fails.expect(op, len(cells) == len(expected), "plot-spec cell count")
    for cell, (n, mean, lo, hi, qs) in zip(cells, expected):
        ok = cell["n"] == n
        if n:
            got = [tuple(pq) for pq in cell["quantiles"]]
            ok = ok and len(got) == len(qs) and all(
                O.close(p, ep) and O.close(q, eq) for (p, q), (ep, eq) in zip(got, qs)
            )
            ok = ok and O.close(cell["mean"], mean) and cell["min"] == lo and cell["max"] == hi
            ok = ok and all(a[0] < b[0] and a[1] <= b[1] for a, b in zip(got, got[1:]))
            ok = ok and all(cell["min"] <= q <= cell["max"] for _, q in got)
        fails.expect(op, ok, f"plot-spec cell {cell['facet_level']},{cell['x_level']} is wrong")


# --------------------------------------------------------------------------
# cli-session


class CliSession:
    """Analyst's CLI session on a smart-meter and a cricket dataset.

    Every command ingests its CSV again, so ``ingest`` and ``export_table``
    dominate. The smart-meter timestamps go through ``strptime``; the
    cricket ones are ``index`` values, the other path through ``ingest``.
    """

    SMART = {"customers": 1, "days": 366}
    MATCH_COUNTS = (6, 8, 7, 9) * 3
    KNOWN_FAULTS = ()

    def __init__(self, work: Path, seed: int, fixtures):
        self.work = work
        self.out = work / "out"
        self.out.mkdir(parents=True)
        fixtures.save_calendar(fixtures.gregorian_calendar(), work / "gregorian.cal")
        fixtures.write_smart_meter_csv(work / "smart.csv", seed=seed, **self.SMART)
        (work / "smart.ini").write_text(SMART_INI.format(
            dataset="smart.csv", max_levels=31, near_threshold=NEAR_THRESHOLD))
        fixtures.save_calendar(fixtures.cricket_calendar(self.MATCH_COUNTS), work / "cricket.cal")
        fixtures.write_cricket_csv(work / "cricket.csv", seed=seed, match_counts=self.MATCH_COUNTS)
        (work / "cricket.ini").write_text(CRICKET_INI)
        self.sessions = (
            ("smart", SMART_NAMES, "kwh", ("hour_day", "day_week"), ("hour_day", "wknd_wday")),
            ("cricket", CRICKET_NAMES, "runs", ("over_inning", "inning_match"),
             ("over_inning", "inning_match")),
        )

    def setup(self, tg):
        state = {}
        for name, *_ in self.sessions:
            cfg = tg.config.load_config(self.work / f"{name}.ini")
            cal = tg.calfile.load_calendar(cfg.calendar_path())
            state[name] = tg.config.build_catalog(cfg, cal)
        return state

    def _commands(self):
        for name, names, response, (sx, sf), (px, pf) in self.sessions:
            cfg = ["--config", str(self.work / f"{name}.ini")]
            out = self.out / name
            yield name, "granularity_compute", "compute", [
                "granularity", "compute", *names, *cfg, "--out", f"{out}-computed.csv"]
            yield name, "harmony", "harmony", ["harmony", *cfg, "--out", f"{out}-harmony.csv"]
            pair = ["--x", sx, "--facet", sf, "--response", response]
            yield name, "summarize", "summarize", [
                "summarize", *cfg, *pair, "--out", f"{out}-summary.csv"]
            yield name, "summarize", "summarize-lv", [
                "summarize", *cfg, *pair, "--letter-values", "--out", f"{out}-summary-lv.csv"]
            yield name, "plot_spec", "plot-spec", [
                "plot-spec", *cfg, "--x", px, "--facet", pf, "--response", response,
                "--geometry", "quantile-area", "--out", f"{out}-plot_spec.json"]

    def run_pass(self, tg, state, tracer):
        ops, screen = [], 0.0
        for dataset, command, label, argv in self._commands():
            op = Op(f"{dataset}:{label}", files=[Path(argv[-1])])
            stdout = io.StringIO()

            def do_command(op, argv=argv):
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
                    code = tg.cli.run(argv)
                if code != 0:
                    raise RuntimeError(f"exit code {code}: {stdout.getvalue().strip()}")

            t0 = time.perf_counter()
            span = tracer.open(f"cli.{command}") if tracer else None
            _attempt(op, do_command)
            if tracer:
                tracer.close(span)
            if command == "harmony":
                screen += time.perf_counter() - t0
            op.key = op.detail = stdout.getvalue()
            ops.append(op)
        return ops, screen

    def check(self, state, ops) -> dict[str, str]:
        fails = Failures()
        by_name = {op.name: op for op in ops}
        for dataset, names, response, (sx, sf), (px, pf) in self.sessions:
            rows = _read_csv(self.work / f"{dataset}.csv")
            header, body = rows[0], rows[1:]
            col = {h: [r[i] for r in body] for i, h in enumerate(header)}
            if dataset == "smart":
                index, cyc = O.smart_meter_columns(col["timestamp"], ORIGIN, names)
                levels = O.GREGORIAN_LEVELS
                labels = {n: O.gregorian_labels(n, levels[n], 2012) for n in (sx, sf, px, pf)}
                stamp, keys = "timestamp", ["customer"]
            else:
                index = np.array(col["over_index"], dtype=np.int64)
                cyc = O.cricket_columns(*(np.array(col[c], dtype=np.int64)
                                          for c in ("match", "inning", "over")))
                levels = O.cricket_levels(self.MATCH_COUNTS)
                labels = {n: O.cricket_labels(n, levels[n]) for n in (sx, sf, px, pf)}
                stamp, keys = "over_index", ["ball"]
            values = np.array([float(v) if v.strip() else math.nan for v in col[response]])

            op = f"{dataset}:compute"
            with fails.checking(op):
                out = _read_csv(self.out / f"{dataset}-computed.csv")
                fails.expect(op, out[0] == [stamp, *keys, "index", response, *names],
                             f"computed header {out[0]}")
                fails.expect(op, len(out) - 1 == len(body), "computed row count")
                got = list(zip(*out[1:]))
                fails.expect(op, list(got[0]) == col[stamp], "timestamps changed")
                fails.expect(op, all(list(got[1 + i]) == col[k] for i, k in enumerate(keys)),
                             "key column changed")
                at = 1 + len(keys)
                fails.expect(op, np.array_equal(np.array(got[at], dtype=np.int64), index),
                             "index column")
                fails.expect(op, np.array_equal(np.array(got[at + 1], dtype=float), values),
                             "measurement column")
                for i, n in enumerate(names):
                    fails.expect(op, np.array_equal(np.array(got[at + 2 + i], dtype=np.int64),
                                                    cyc[n]), f"cyclic column {n}")

            op = f"{dataset}:harmony"
            with fails.checking(op):
                verdicts = {
                    (a, b): O.verdict(O.occupancy(cyc[a], cyc[b], levels[a], levels[b]),
                                      NEAR_THRESHOLD, NEAR_FLOOR)
                    for a, b in O.screened_pairs(names, levels, 31)
                }
                want = O.harmony_rows(levels, verdicts, 31, keep_near=False)
                got = _read_csv(self.out / f"{dataset}-harmony.csv")
                fails.expect(op, got[0] == HARMONY_HEADER, "harmony header")
                fails.expect(op, [(f, x, int(a), int(b)) for f, x, a, b in got[1:]] == want,
                             "harmony rows differ from the oracle verdicts")

            non_missing = np.count_nonzero(~np.isnan(values))
            for label, probs, suffix in (("summarize", PROBS, ""), ("summarize-lv", None, "-lv")):
                op = f"{dataset}:{label}"
                with fails.checking(op):
                    expected = O.cell_summaries(cyc[sx], cyc[sf], values, levels[sx], levels[sf],
                                                probs)
                    rows = _read_csv(self.out / f"{dataset}-summary{suffix}.csv")
                    _check_summary_rows(fails, op, rows, expected, labels[sf], labels[sx],
                                        non_missing)

            op = f"{dataset}:plot-spec"
            with fails.checking(op):
                counts = O.occupancy(cyc[px], cyc[pf], levels[px], levels[pf])
                advice = by_name[op].detail.splitlines()
                geometries = next((ln for ln in advice if ln.startswith("geometries: ")), "")
                fails.expect(op, f"status: {O.verdict(counts, NEAR_THRESHOLD, NEAR_FLOOR)}"
                             in advice, "plot-spec status")
                fails.expect(op, ("letter-value-counts" in geometries)
                             == O.recommends_letter_values(counts), "letter-value recommendation")
                doc = json.loads((self.out / f"{dataset}-plot_spec.json").read_text("utf-8"))
                _check_spec_cells(fails, op, doc["cells"], O.cell_summaries(
                    cyc[px], cyc[pf], values, levels[px], levels[pf], PROBS))
        return fails.by_op


# --------------------------------------------------------------------------
# explore-pairs


class ExplorePairs:
    """Library path over one ingested smart-meter table.

    A wide catalog (``max_levels`` 744, so ``hour_week`` and
    ``hour_month`` take part, near-clashes kept) puts thousands of cells
    in some pairs and 21 pairs through the screen: the load sits in
    ``harmony`` and ``distill``. ``ingest`` runs once, in set-up.

    The near-clash threshold lies between the kept pairs' ratios of
    smallest to mean cell count (0.233 and 0.254 below it, 0.297 and up
    above it), so three kept pairs are near-clashes and carry a warning
    into their plot specs, and nine are harmonies.
    """

    SMART = {"customers": 2, "days": 731}
    MAX_LEVELS = 744
    NEAR_THRESHOLD = 0.27
    KNOWN_FAULTS = ()

    def __init__(self, work: Path, seed: int, fixtures):
        self.work = work
        self.out = work / "out"
        self.out.mkdir(parents=True)
        fixtures.save_calendar(fixtures.gregorian_calendar(), work / "gregorian.cal")
        fixtures.write_smart_meter_csv(work / "smart.csv", seed=seed, **self.SMART)
        (work / "explore.ini").write_text(SMART_INI.format(
            dataset="smart.csv", max_levels=self.MAX_LEVELS, near_threshold=self.NEAR_THRESHOLD))

    def setup(self, tg):
        cfg = tg.config.load_config(self.work / "explore.ini")
        cal = tg.calfile.load_calendar(cfg.calendar_path())
        catalog = tg.config.build_catalog(cfg, cal)
        table = tg.table.ingest(cfg.dataset_path(), cfg.schema, cal.hierarchy)
        return SimpleNamespace(cfg=cfg, cal=cal, catalog=catalog, table=table)

    def run_pass(self, tg, s, tracer):
        """One pass; an operation keeps only small results for the checks,
        so that the pass's working set is freed when the pass ends."""
        h, d = tg.harmony, tg.distill
        screen = Op("screen", files=[self.out / "harmony.csv"])
        screen_time = []

        def do_screen(op):
            t0 = time.perf_counter()
            rows = h.harmony_table(
                list(s.catalog.values()), s.table, s.cal, max_levels=s.cfg.max_levels,
                near_threshold=s.cfg.near_threshold, near_floor=s.cfg.near_floor,
                keep_near_clashes=True,
            )
            screen_time.append(time.perf_counter() - t0)
            h.write_harmony_table(rows, op.files[0])
            op.key = rows

        _attempt(screen, do_screen)
        ops = [screen]
        rows = screen.key or []
        augmented = Op("augment")
        table = None

        def do_augment(op):
            nonlocal table
            used = sorted({r.x for r in rows})
            table = tg.table.augment(s.table, [s.catalog[n] for n in used], s.cal)
            op.key = (_digest_array(table.index),) + tuple(
                (n, _digest_array(table.cyclic_column(n))) for n in used
            )

        ops.append(_attempt(augmented, do_augment))
        # each kept pair once, faceted by the granularity with fewer levels
        for r in rows:
            if (r.facet_levels, r.facet) > (r.x_levels, r.x):
                continue
            name = f"pair:{r.facet}/{r.x}"
            op = Op(name, files=[self.out / f"{r.facet}-{r.x}.csv",
                                 self.out / f"{r.facet}-{r.x}.json"])

            def do_pair(op, r=r):
                x, facet = s.catalog[r.x], s.catalog[r.facet]
                occ = h.cross_tab(table, x, facet, s.cal)
                cls = h.classify_pair(occ, s.cfg.near_threshold, s.cfg.near_floor)
                rec = d.recommend(x, facet, cls)
                letter = "letter-value-counts" in rec.geometries
                summaries = d.summarize_cells(table, x, facet, "kwh", probs=s.cfg.probs,
                                              letter_values=letter)
                geometry = "letter-value-counts" if letter else rec.geometries[0]
                warnings = [n for n in rec.notes if n.startswith("near-clash")]
                spec = d.emit_plot_spec(summaries, x, facet, "kwh", geometry, warnings=warnings)
                op.files[1].write_text(spec.to_json(), encoding="utf-8")
                d.write_summaries(summaries, op.files[0])
                op.key = (occ.counts.tobytes(), cls.verdict, rec.geometries, rec.notes)
                op.detail = (occ.counts, cls.verdict, rec.refused, rec.geometries,
                             [c.n for c in summaries])

            ops.append(_attempt(op, do_pair))
        return ops, sum(screen_time)

    def check(self, s, ops) -> dict[str, str]:
        fails = Failures()
        rows = _read_csv(self.work / "smart.csv")[1:]
        values = np.array([float(r[2]) for r in rows])
        index, cyc = O.smart_meter_columns([r[0] for r in rows], ORIGIN, SMART_NAMES)
        levels = O.GREGORIAN_LEVELS
        counts = {
            (a, b): O.occupancy(cyc[a], cyc[b], levels[a], levels[b])
            for a, b in O.screened_pairs(SMART_NAMES, levels, self.MAX_LEVELS)
        }
        verdicts = {p: O.verdict(c, self.NEAR_THRESHOLD, NEAR_FLOOR) for p, c in counts.items()}
        want = O.harmony_rows(levels, verdicts, self.MAX_LEVELS, keep_near=True)
        with fails.checking("screen"):
            got = _read_csv(self.out / "harmony.csv")
            fails.expect("screen", got[0] == HARMONY_HEADER, "harmony header")
            fails.expect("screen", [(f, x, int(a), int(b)) for f, x, a, b in got[1:]] == want,
                         "harmony rows differ from the oracle verdicts")
            kept = {verdicts.get((f, x), verdicts.get((x, f))) for f, x, _, _ in want}
            fails.expect("screen", kept == {"harmony", "near-clash"},
                         f"kept pairs have verdicts {sorted(kept)}, not harmonies and near-clashes")
        by_name = {op.name: op for op in ops}
        with fails.checking("augment"):
            (index_digest, *columns) = by_name["augment"].key
            fails.expect("augment", index_digest == _digest_array(index, index_digest[0]),
                         "index column")
            for n, digest in columns:
                fails.expect("augment", digest == _digest_array(cyc[n], digest[0]),
                             f"cyclic column {n}")
        non_missing = np.count_nonzero(~np.isnan(values))
        for f, x, kf, kx in want:
            if (kf, f) > (kx, x):
                continue
            op = f"pair:{f}/{x}"
            with fails.checking(op):
                occ_counts, verdict, refused, geometries, cell_n = by_name[op].detail
                expected_counts = counts[x, f] if (x, f) in counts else counts[f, x].T
                fails.expect(op, np.array_equal(occ_counts, expected_counts), "occupancy counts")
                fails.expect(op, verdict == verdicts.get((f, x), verdicts.get((x, f))),
                             "classification")
                letter = O.recommends_letter_values(expected_counts)
                fails.expect(op, not refused and ("letter-value-counts" in geometries) == letter,
                             "letter-value recommendation")
                expected = O.cell_summaries(cyc[x], cyc[f], values, levels[x], levels[f],
                                            None if letter else PROBS)
                fails.expect(op, cell_n == [e[0] for e in expected], "cell counts")
                _check_summary_rows(fails, op, _read_csv(self.out / f"{f}-{x}.csv"), expected,
                                    O.gregorian_labels(f, kf, 2012),
                                    O.gregorian_labels(x, kx, 2012), non_missing)
                doc = json.loads((self.out / f"{f}-{x}.json").read_text(encoding="utf-8"))
                _check_spec_cells(fails, op, doc["cells"], expected)
                near = [w for w in doc["warnings"] if w.startswith("near-clash")]
                rare = O.rare_cells(expected_counts, self.NEAR_THRESHOLD, NEAR_FLOOR)
                fails.expect(op, len(near) == (1 if rare else 0)
                             and all(f"({k},{l})={c}" in near[0] for k, l, c in rare[:8]),
                             f"plot-spec near-clash warnings {near} do not name the rare cells")
        return fails.by_op


# --------------------------------------------------------------------------
# structural-span


class StructuralSpan:
    """Structural screens over long synthetic spans; no table is read.

    All the time goes to ``cyclic.evaluate`` (the hierarchy's granule
    locators) and ``bincount``. Each screen runs ``harmony_table``, writes
    it, and cross-tabulates and classifies every kept pair. The
    ``gregorian-leap`` screen puts ``day_year`` (366 levels) beside the
    day-level descriptors over the same 28 years as ``gregorian``: the
    366th day meets each weekday once, so ``day_year x day_week`` is a
    near-clash. The ``gregorian-2100`` screen runs from 2012 into 2100 and
    fails on every seed: the 28-year month table repeats 2096's leap
    February in 2100.
    """

    GREGORIAN_DAYS = (date(2040, 1, 1) - date(2012, 1, 1)).days
    LATEST_START = (date(2068, 1, 1) - date(2012, 1, 1)).days
    TO_2101 = (date(2101, 1, 1) - date(2012, 1, 1)).days
    MATCH_COUNTS = tuple(range(20, 30)) * 3
    SEMESTER_YEARS = 40
    # config: (ladder, max_levels, descriptors screened; None for the whole catalog)
    CONFIGS = {
        "gregorian": ("gregorian", 31, None),
        "gregorian-leap": ("gregorian", 366, ("day_week", "day_month", "day_year", "month_year")),
        "cricket": ("cricket", 60, None),
        "semester": ("semester", 31, None),
    }
    NEAR_CLASH_SCREENS = ("gregorian-leap",)
    KNOWN_FAULTS = ("screen:gregorian-2100",)

    def __init__(self, work: Path, seed: int, fixtures):
        rng = np.random.default_rng(seed)
        self.work = work
        self.out = work / "out"
        self.out.mkdir(parents=True)
        self.match_counts = tuple(int(c) for c in rng.permutation(self.MATCH_COUNTS))
        self.starts = tuple(
            y * 365 + base + int(rng.integers(0, 14))
            for y in range(self.SEMESTER_YEARS) for base in (50, 200)
        )
        start_day = int(rng.integers(0, self.LATEST_START))
        fixtures.save_calendar(fixtures.gregorian_calendar(), work / "gregorian.cal")
        fixtures.save_calendar(fixtures.cricket_calendar(self.match_counts), work / "cricket.cal")
        fixtures.save_calendar(fixtures.semester_calendar(self.starts), work / "semester.cal")
        for config, (ladder, levels, _) in self.CONFIGS.items():
            (work / f"{config}.ini").write_text(
                SPAN_INI.format(calendar=f"{ladder}.cal", max_levels=levels)
            )
        self.screens = (  # (name, config, span length, span start)
            ("gregorian", "gregorian", self.GREGORIAN_DAYS * 48, start_day * 48),
            ("gregorian-leap", "gregorian-leap", self.GREGORIAN_DAYS * 48, start_day * 48),
            ("gregorian-2100", "gregorian", self.TO_2101 * 48, 0),
            ("cricket", "cricket", 2 * sum(self.match_counts) * 40, 0),
            ("semester", "semester", self.SEMESTER_YEARS * 365, 0),
        )

    def setup(self, tg):
        state = {}
        for config, (_, _, names) in self.CONFIGS.items():
            cfg = tg.config.load_config(self.work / f"{config}.ini")
            cal = tg.calfile.load_calendar(cfg.calendar_path())
            catalog = tg.config.build_catalog(cfg, cal)
            screened = [d for n, d in catalog.items() if names is None or n in names]
            state[config] = (cfg, cal, catalog, screened)
        return state

    def run_pass(self, tg, state, tracer):
        h = tg.harmony
        ops, screen_time = [], []
        for name, config, length, start in self.screens:
            cfg, cal, catalog, screened = state[config]
            op = Op(f"screen:{name}", files=[self.out / f"{name}.csv"])

            def do_screen(op, cfg=cfg, cal=cal, catalog=catalog, screened=screened,
                          span=h.IndexSpan(length, start)):
                t0 = time.perf_counter()
                rows = h.harmony_table(
                    screened, span, cal, max_levels=cfg.max_levels,
                    near_threshold=cfg.near_threshold, near_floor=cfg.near_floor,
                    keep_near_clashes=True,
                )
                screen_time.append(time.perf_counter() - t0)
                h.write_harmony_table(rows, op.files[0])
                op.detail = []
                for r in rows:
                    if r.facet < r.x:
                        occ = h.cross_tab(span, catalog[r.facet], catalog[r.x], cal)
                        cls = h.classify_pair(occ, cfg.near_threshold, cfg.near_floor)
                        op.detail.append((r.facet, r.x, occ.counts, cls.verdict))
                op.key = (rows, [(c.tobytes(), v) for _, _, c, v in op.detail])

            ops.append(_attempt(op, do_screen))
        return ops, sum(screen_time)

    def _oracle(self, ladder, names, stride, length, start):
        z = start + stride * np.arange((length + stride - 1) // stride, dtype=np.int64)
        if ladder == "gregorian":
            return O.gregorian_span_columns(z, ORIGIN, names)
        if ladder == "cricket":
            return O.cricket_span_columns(z, self.match_counts)
        return O.semester_span_columns(z, self.starts)

    def check(self, state, ops) -> dict[str, str]:
        fails = Failures()
        by_name = {op.name: op for op in ops}
        for name, config, length, start in self.screens:
            op = f"screen:{name}"
            ladder, max_levels, subset = self.CONFIGS[config]
            if ladder == "gregorian":
                names, levels, block = GREGORIAN_NAMES, O.GREGORIAN_LEVELS, O.GREGORIAN_BLOCK
            elif ladder == "cricket":
                names, levels = CRICKET_NAMES, O.cricket_levels(self.match_counts)
                block = O.CRICKET_BLOCK
            else:
                names, levels, block = ("day_week", "semester_type"), O.SEMESTER_LEVELS, None
            names = [n for n in names if subset is None or n in subset]
            counts = {}
            for a, b in O.screened_pairs(names, levels, max_levels):
                # sample at the coarsest stride on which both values are constant
                stride = 1 if block is None else math.gcd(
                    block[a.split("_")[0]], block[b.split("_")[0]]
                )
                cols = self._oracle(ladder, (a, b), stride, length, start)
                counts[a, b] = O.occupancy(cols[a], cols[b], levels[a], levels[b])
            verdicts = {p: O.verdict(c, NEAR_THRESHOLD, NEAR_FLOOR) for p, c in counts.items()}
            want = O.harmony_rows(levels, verdicts, max_levels, keep_near=True)
            with fails.checking(op):
                got = _read_csv(self.out / f"{name}.csv")
                fails.expect(op, got[0] == HARMONY_HEADER, "harmony header")
                fails.expect(op, [(f, x, int(a), int(b)) for f, x, a, b in got[1:]] == want,
                             "harmony rows differ from the oracle verdicts")
                pairs = by_name[op].detail
                fails.expect(op, len(pairs) == len(want) // 2, "kept pairs not all cross-tabulated")
                for a, b, got_counts, got_verdict in pairs:
                    expected = counts[a, b] if (a, b) in counts else counts[b, a].T
                    fails.expect(op, np.array_equal(got_counts, expected),
                                 f"{a} x {b} occupancy differs from calendar arithmetic")
                    fails.expect(op, got_verdict == O.verdict(expected, NEAR_THRESHOLD, NEAR_FLOOR),
                                 f"{a} x {b} classified {got_verdict}")
                if name in self.NEAR_CLASH_SCREENS:
                    fails.expect(op, "near-clash" in {v for *_, v in pairs},
                                 "no kept pair is a near-clash")
        return fails.by_op


WORKLOADS = {
    "cli-session": CliSession,
    "explore-pairs": ExplorePairs,
    "structural-span": StructuralSpan,
}
