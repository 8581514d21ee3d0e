"""Compare two result files written by ``sweep.py``.

    python3 perfbench/compare.py perfbench/_results/before.json perfbench/_results/after.json

For each workload and end-to-end metric it prints each side's median and
quartiles, the change of the median as a share of the first side's, and
whether the change is worse than the metric's bound in ``BENCHMARK.json``.
It also prints each side's operations attempted and failed. It exits 1
when a metric is worse than its bound, when a run of the second file
reports ``correct`` false or gave no result, or when the second file's
share of failed operations is higher than the first's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def collect(runs: list[dict]) -> dict[str, dict]:
    """Per workload: the values of each metric and the operation counts."""
    out: dict[str, dict] = {}
    for run in runs:
        w = out.setdefault(run["workload"], {"metrics": {}, "attempted": 0, "failed": 0,
                                             "runs": 0, "errors": 0, "incorrect": 0})
        w["runs"] += 1
        result = run.get("result")
        if result is None:
            w["errors"] += 1
            continue
        w["incorrect"] += not result["correct"]
        w["attempted"] += result["attempted"]
        w["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            w["metrics"].setdefault(name, []).append(m["value"])
    return out


def failed_share(w: dict) -> float:
    return w["failed"] / w["attempted"] if w["attempted"] else 0.0


def load(path: str) -> dict[str, dict]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return collect(data["runs"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    before, after = load(args.before), load(args.after)
    worse = 0
    for workload in sorted(set(before) | set(after)):
        a, b = before.get(workload), after.get(workload)
        print(f"{workload}")
        for side, w in (("before", a), ("after", b)):
            if w:
                print(f"  {side}: {w['runs']} runs ({w['errors']} without result, "
                      f"{w['incorrect']} not correct), {w['attempted']} operations attempted, "
                      f"{w['failed']} failed ({failed_share(w):.4%})")
        if not (a and b):
            continue
        if b["errors"] or b["incorrect"]:
            worse += 1
            print("  AFTER HAS RUNS WITHOUT A RESULT OR NOT CORRECT")
        if failed_share(b) > failed_share(a):
            worse += 1
            print("  AFTER FAILS A LARGER SHARE OF OPERATIONS")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            if name not in a["metrics"] or name not in b["metrics"]:
                continue
            qa, qb = quartiles(a["metrics"][name]), quartiles(b["metrics"][name])
            change = (qb[1] - qa[1]) / qa[1]
            regressed = change > bound if m["better"] == "lower" else -change > bound
            worse += regressed
            print(f"  {name:12s} before {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"after {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {m['unit']}  "
                  f"change {change:+.2%}  bound {bound:.0%}  "
                  f"{'WORSE THAN BOUND' if regressed else 'within bound'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
