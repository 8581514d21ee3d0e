"""Run one workload of the timegrain benchmark and print its result.

    python3 perfbench/run.py --workload explore-pairs --seed 1 --seconds 30 --trace 0

Run it from the repository root. Inputs are generated from the seed into
``perfbench/_work/<workload>/`` before any timing. The workload is set up
(importing ``timegrain`` afresh), then whole passes run until
``--seconds`` have elapsed, then set-up is repeated for a steadier
median; every output of the first pass is checked against ``oracles``
and later passes must repeat it byte for byte. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 3.0
MIN_PASSES = 3


def digest(op) -> str:
    h = hashlib.sha256(repr(op.key).encode())
    for path in op.files:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def run_passes(wl, tg, state, seconds, tracer=None):
    """Whole passes until ``seconds`` have elapsed, at least ``MIN_PASSES``.

    Returns the first pass's operations and, per pass, its wall time, its
    screening time and (name, error, digest) per operation.
    """
    first, passes = None, []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        span = tracer.open("bench.pass") if tracer else None
        t0 = time.perf_counter()
        ops, screen = wl.run_pass(tg, state, tracer)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        first = first or ops
        passes.append((elapsed, screen, [(op.name, op.error, digest(op)) for op in ops]))
    return first, passes


def count_failures(passes, bad):
    """An operation fails when it raised, failed its check (``bad``, first
    pass) or wrote other bytes than in the first pass."""
    reference = {name: dig for name, _, dig in passes[0][2]}
    attempted, failed, reasons = 0, 0, {}
    for _, _, ops in passes:
        for name, error, dig in ops:
            attempted += 1
            reason = error or bad.get(name)
            if reason is None and reference.get(name) != dig:
                reason = "output differs from the first pass"
            if reason:
                failed += 1
                reasons.setdefault(name, reason)
    return attempted, failed, reasons


def timed_setup(wl, workloads):
    t0 = time.perf_counter()
    tg = workloads.import_program()
    state = wl.setup(tg)
    return time.perf_counter() - t0, tg, state


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "timegrain" / "__init__.py").is_file():
        print(f"perfbench: no timegrain sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    import numpy  # noqa: F401  (imported before timing: set-up times timegrain, not numpy)

    import workloads
    from spans import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    work = BENCH / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    from timegrain import fixtures

    wl = workloads.WORKLOADS[args.workload](work, args.seed, fixtures)

    if args.trace:
        tracer = Tracer()
        tg = workloads.import_program()
        undo = tracer.install(tg)
        state = wl.setup(tg)
        Tracer.uninstall(undo)
        first, plain = run_passes(wl, tg, state, args.seconds / 2)
        tracer.phase = "pass"
        undo = tracer.install(tg)
        _, traced = run_passes(wl, tg, state, args.seconds / 2, tracer)
        Tracer.uninstall(undo)
        tracer.dump(work / "trace.jsonl")
        metrics = layer_metrics(tracer, len(traced))
        metrics["bench.trace_overhead_s"] = (
            statistics.median(p[0] for p in traced) - statistics.median(p[0] for p in plain)
        )
        passes = plain + traced
    else:
        seconds, tg, state = timed_setup(wl, workloads)
        setups = [seconds]
        first, passes = run_passes(wl, tg, state, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # more set-ups for a steadier median, after the peak memory is read
        while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
            setups.append(timed_setup(wl, workloads)[0])
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(p[0] for p in passes),
            "screen_s": statistics.median(p[1] for p in passes),
            "peak_rss_mb": peak_rss_mb,
        }

    attempted, failed, reasons = count_failures(passes, wl.check(state, first))
    for name, reason in sorted(reasons.items()):
        print(f"perfbench: {args.workload} {name} failed: {reason}", file=sys.stderr)
    missing = set(wanted) - set(metrics)
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {sorted(missing)}")
    result = {
        "correct": set(reasons) <= set(wl.KNOWN_FAULTS),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    print(f"{args.workload}: {len(passes)} passes, {attempted} operations, {failed} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
