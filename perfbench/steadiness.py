"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workloads factor,cli --seeds 1-10 [--out FILE]

Run from the repository root.  For each workload it runs perfbench/run.py
once per seed with BENCHMARK.json's run_seconds and --trace 0, then prints,
for every end-to-end metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (third minus first
quartile, as a share of the median) and the metric's bound.  A spread above
a third of the bound is marked.  With --out, the figures are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True, help="comma separated")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="first-last")
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", f"--workload={workload}", f"--seed={seed}",
                 f"--seconds={bench['run_seconds']}", "--trace=0"],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} ops failed")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            wall = json.loads(proc.stdout.splitlines()[-2])["report"]["run_wall_s"]
            print(f"{workload} seed {seed} ({wall:.1f} s): {json.dumps(runs[-1])}", file=sys.stderr)
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(values)
            }
            mark = "" if spread <= metric["bound"] / 3 else "  > bound/3"
            print(f"{workload:9s} {name:20s} median {median:12.4f}  q1 {q1:12.4f}  "
                  f"q3 {q3:12.4f}  spread {spread:6.3f}  bound {metric['bound']}{mark}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
