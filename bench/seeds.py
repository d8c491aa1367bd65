"""Run the benchmark once per seed and summarise each metric across runs.

    python3 bench/seeds.py --workload NAME --seeds 1-10

Runs ``bench/run.py --trace 0`` sequentially, one seed at a time, for the
``run_seconds`` in ``BENCHMARK.json``.  It prints each run's metrics, then
for every metric its median, first and third quartile and the spread (third
minus first quartile, over the median), the statistic the benchmark's
bounds are checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 1,3,5")
    args = p.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    correct = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and last["correct"]
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        shown = " ".join(f"{k}={m['value']:.4g}" for k, m in last["metrics"].items())
        print(f"seed {seed}: correct={last['correct']} attempted={last['attempted']} "
              f"failed={last['failed']} {shown}", flush=True)

    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        print(f"{name:14s} {med:12.6g} {units[name]:4s} q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {(q3 - q1) / med:.3f}  n {len(v)}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
