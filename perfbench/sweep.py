"""Run the benchmark over several seeds and write all results to one file.

    python3 perfbench/sweep.py --out perfbench/_results/before.json --seeds 1-10

Runs ``run.py`` untraced once per workload of ``BENCHMARK.json`` and
seed, one at a time, with the benchmark's run length. It prints, per
workload and end-to-end metric, the median and the spread (distance
between the quartiles as a share of the median). ``compare.py`` compares
two such files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import collect, quartiles

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="result file to write")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args(argv)

    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in seed_list(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs.append({"workload": workload, "seed": seed, "exit": proc.returncode,
                         "result": result})
            if result is None:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            else:
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                ) + f"; failed {result['failed']}/{result['attempted']}", flush=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"benchmark": spec, "runs": runs}, indent=1) + "\n", encoding="utf-8")

    for workload, w in collect(runs).items():
        print(f"{workload}: {w['runs']} runs, {w['failed']}/{w['attempted']} operations failed")
        for name, values in w["metrics"].items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:32s} median {med:.6g}  quartiles [{q1:.6g}, {q3:.6g}]  "
                  f"spread {spread:.2%}")
    return 0 if all(r["result"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
