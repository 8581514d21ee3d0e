"""Spans and counts recorded around the program's public functions.

``Tracer.install`` replaces each function named in ``TRACED`` at the
module attribute its callers look up (``cli`` imports names into its own
namespace, so those are patched there too) with a wrapper that records a
span: name, start, end and parent. Spans stay in memory; ``layer_metrics``
turns them into the per-layer figures and ``dump`` writes them out when
the run ends. The program itself is not changed.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from functools import wraps

import numpy as np

# Functions traced as ``<module>.<function>``, at the module that defines
# them and, where ``cli`` imported the same function, in ``cli`` too.
TRACED = (
    ("calfile", "load_calendar"),
    ("config", "load_config"),
    ("config", "build_catalog"),
    ("table", "ingest"),
    ("table", "augment"),
    ("table", "export_table"),
    ("harmony", "harmony_table"),
    ("harmony", "cross_tab"),
    ("harmony", "classify_pair"),
    ("harmony", "write_harmony_table"),
    ("distill", "summarize_cells"),
    ("distill", "recommend"),
    ("distill", "emit_plot_spec"),
    ("distill", "write_summaries"),
)
# ``cyclic.evaluate`` as imported by ``cross_tab`` and ``augment``; the
# hierarchy's granule locators run inside it.
EVALUATE_CALLERS = ("table", "harmony")

CLI_COMMANDS = ("granularity_compute", "harmony", "summarize", "plot_spec")


def _index_key(z) -> tuple:
    """Cheap content key of an index array: equal arrays give equal keys."""
    z = np.asarray(z)
    if z.size == 0:
        return (0,)
    step = max(1, z.size // 64)
    return (z.size, int(z[0]), int(z[-1]), int(z.sum()), z[::step].tobytes())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, phase]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)  # (name, phase)
        self.phase = "setup"
        self.evaluations: list[tuple[int, tuple]] = []  # (pass span, key)
        self._stack: list[int] = []
        self._pass = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.phase])
        self._stack.append(len(self.spans) - 1)
        if name == "bench.pass":
            self._pass = self._stack[-1]
        return self._stack[-1]

    def add(self, name: str, value: float) -> None:
        self.counts[name, self.phase] += value

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self, modules) -> list:
        """Patch ``modules`` (a namespace of timegrain modules); return the undo list."""
        undo = []

        def patch(owner, attr, wrapper):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        for mod_name, attr in TRACED:
            fn = getattr(getattr(modules, mod_name), attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", fn)
            patch(getattr(modules, mod_name), attr, wrapper)
            if getattr(modules.cli, attr, None) is fn:
                patch(modules.cli, attr, wrapper)
        evaluate = self.wrap("cyclic.evaluate", getattr(modules, EVALUATE_CALLERS[0]).evaluate)
        for mod_name in EVALUATE_CALLERS:
            patch(getattr(modules, mod_name), "evaluate", evaluate)
        spec_cls = modules.distill.PlotSpec
        patch(spec_cls, "to_json", self.wrap("distill.plot_spec_json", spec_cls.to_json))
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, phase in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "phase": phase}
                ) + "\n")


def _count_ingest(tr, args, kwargs, table):
    tr.add("table.ingest_rows", len(table))


def _count_export(tr, args, kwargs, result):
    out = args[1] if len(args) > 1 else kwargs["out"]
    tr.add("table.export_rows", len(args[0]))
    tr.add("table.export_bytes", os.path.getsize(out))


def _count_evaluate(tr, args, kwargs, result):
    d, z = args[1], args[2]
    tr.add("cyclic.evaluate_points", np.size(z))
    tr.evaluations.append((tr._pass, (d.name, d.levels, _index_key(z))))


def _count_harmony_table(tr, args, kwargs, rows):
    tr.add("harmony.pairs_kept", len(rows) // 2)


def _count_summaries(tr, args, kwargs, summaries):
    tr.add("distill.cells", len(summaries))


def _count_json(tr, args, kwargs, text):
    tr.add("distill.plot_spec_bytes", len(text.encode("utf-8")))


_COUNTERS = {
    "table.ingest": _count_ingest,
    "table.export_table": _count_export,
    "cyclic.evaluate": _count_evaluate,
    "harmony.harmony_table": _count_harmony_table,
    "distill.summarize_cells": _count_summaries,
    "distill.plot_spec_json": _count_json,
}


def layer_metrics(tr: Tracer, passes: int) -> dict[str, float]:
    """Per-layer figures for one set-up followed by one pass.

    Spans and counts recorded during set-up count once; those inside the
    traced passes are divided by ``passes``. Times are inclusive except
    ``cli.self_s``, which is the CLI spans' duration minus the time their
    child spans cover.
    """
    sums = {"setup": defaultdict(float), "pass": defaultdict(float)}
    child = defaultdict(float)
    for name, start, end, parent, phase in tr.spans:
        sums[phase][name] += end - start
        sums[phase][name + ".calls"] += 1
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent, phase) in enumerate(tr.spans):
        if name.startswith("cli."):
            sums[phase]["cli.self"] += end - start - child[i]
        if name == "harmony.cross_tab" and parent >= 0 and tr.spans[parent][0] == "harmony.harmony_table":
            sums[phase]["harmony.pairs_screened"] += 1
    for (name, phase), value in tr.counts.items():
        sums[phase][name] += value

    def per_round(name):
        return sums["setup"][name] + sums["pass"][name] / passes

    def calls(name):
        return per_round(name + ".calls")

    def per(numerator, denominator, scale):
        return numerator / denominator * scale if denominator else 0.0

    distinct = len(set(tr.evaluations))
    m = {f"cli.{cmd}_s": per_round(f"cli.{cmd}") for cmd in CLI_COMMANDS}
    m["cli.self_s"] = per_round("cli.self")
    m.update({
        "calfile.load_calendar_s": per_round("calfile.load_calendar"),
        "calfile.load_calendar_calls": calls("calfile.load_calendar"),
        "config.load_config_s": per_round("config.load_config"),
        "config.build_catalog_s": per_round("config.build_catalog"),
        "table.ingest_s": per_round("table.ingest"),
        "table.ingest_calls": calls("table.ingest"),
        "table.ingest_rows": per_round("table.ingest_rows"),
        "table.augment_s": per_round("table.augment"),
        "table.export_table_s": per_round("table.export_table"),
        "table.export_bytes": per_round("table.export_bytes"),
        "cyclic.evaluate_s": per_round("cyclic.evaluate"),
        "cyclic.evaluate_calls": calls("cyclic.evaluate"),
        "cyclic.evaluate_points": per_round("cyclic.evaluate_points"),
        "cyclic.evaluate_useful_ratio": per(distinct, len(tr.evaluations), 1.0),
        "harmony.harmony_table_s": per_round("harmony.harmony_table"),
        "harmony.cross_tab_s": per_round("harmony.cross_tab"),
        "harmony.cross_tab_calls": calls("harmony.cross_tab"),
        "harmony.classify_pair_s": per_round("harmony.classify_pair"),
        "harmony.pairs_screened": per_round("harmony.pairs_screened"),
        "harmony.pairs_kept": per_round("harmony.pairs_kept"),
        "harmony.write_harmony_table_s": per_round("harmony.write_harmony_table"),
        "distill.summarize_cells_s": per_round("distill.summarize_cells"),
        "distill.cells": per_round("distill.cells"),
        "distill.recommend_s": per_round("distill.recommend"),
        "distill.emit_plot_spec_s": per_round("distill.emit_plot_spec"),
        "distill.plot_spec_json_s": per_round("distill.plot_spec_json"),
        "distill.plot_spec_bytes": per_round("distill.plot_spec_bytes"),
        "distill.write_summaries_s": per_round("distill.write_summaries"),
    })
    m["table.ingest_us_per_row"] = per(m["table.ingest_s"], m["table.ingest_rows"], 1e6)
    m["table.export_us_per_row"] = per(
        m["table.export_table_s"], per_round("table.export_rows"), 1e6
    )
    m["cyclic.evaluate_ns_per_point"] = per(m["cyclic.evaluate_s"], m["cyclic.evaluate_points"], 1e9)
    m["distill.summarize_us_per_cell"] = per(m["distill.summarize_cells_s"], m["distill.cells"], 1e6)
    return m
