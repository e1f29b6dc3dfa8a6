#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median, quartiles and spread.

    python3 perfbench/spread.py --workload NAME [--seeds 0-9] [--trace 0|1]

The spread is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  Runs last ``run_seconds`` from
BENCHMARK.json; every result line is kept in ``.bench_out/spread-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        record = next(json.loads(line.split(": ", 1)[1]) for line in lines
                      if line.startswith("run record: "))
        results.append({"seed": seed, **result, "run_record": record})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tag = f"spread-{args.workload}-trace{args.trace}-seeds{args.seeds[0]}-{args.seeds[-1]}.json"
    (out / tag).write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
