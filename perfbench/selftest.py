"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root; exits 0 when every check passes.

1. Corrupted outputs are caught: for each workload, a few ops run in this
   process and pass their checks; then each output is corrupted (a dropped
   factor, a dropped chain element, meet and join swapped, one changed
   byte of CLI output) and every op whose output changed must fail its
   check.  An op that raises must count as failed too.
2. Smoke runs: each workload runs for one second through run.py, untraced
   and traced, and must print a correct result with every metric that
   BENCHMARK.json lists.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py must
   exit with a nonzero code and print no result.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench-selftest"
OPS = {"factor": 10, "chains": 30, "complete": 60, "cli": 20}


def require(condition, message):
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def drop_factor(L, out):
    cls, f = out
    return cls, L.factor.Factorization(target=f.target, factors=f.factors[:-1])


def drop_chain_element(L, out):
    f, back, orders, same = out
    return f, back[:-1], orders, same


def swap_meet_join(L, out):
    low, high = out
    return high, low


def change_cli_byte(L, out):
    code, text = out
    return code, text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]


CORRUPTIONS = {
    "factor": drop_factor,
    "chains": drop_chain_element,
    "complete": swap_meet_join,
    "cli": change_cli_byte,
}


def raising_op(L, item):
    raise RuntimeError("op failed on purpose")


def check_corruptions(L):
    for name, corrupt in CORRUPTIONS.items():
        wl = workloads.WORKLOADS[name]()
        wl.prepare(L, WORK / name)
        units = worker.collect(wl, L, random.Random(f"selftest/{name}"), ops=OPS[name])
        items = wl.load(L, units)
        run = worker.run_ops(wl, L, items, count=OPS[name])
        done, outputs = run.done, run.outputs
        require(not worker.count_failures(wl, L, done, outputs), f"{name}: clean ops failed")
        corrupted = [corrupt(L, out) for out in outputs]
        changed = [k for k, (a, b) in enumerate(zip(outputs, corrupted)) if a != b]
        failed = worker.count_failures(wl, L, done, corrupted)
        require(changed and failed == changed, f"{name}: corrupted {changed}, failed {failed}")
        print(f"corruption {name}: {len(failed)} of {len(done)} corrupted ops failed, "
              f"fail_ratio {len(failed) / len(done):.2f}")
        wl.op = raising_op
        run = worker.run_ops(wl, L, items, count=3)
        require(
            len(run.errors) == 3 and len(worker.count_failures(wl, L, run.done, run.outputs)) == 3,
            f"{name}: ops that raise are not counted as failed",
        )


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_smoke(bench):
    for workload in bench["workloads"]:
        for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
            proc = run([f"--workload={workload['name']}", "--seed=0", "--seconds=1",
                        f"--trace={trace}"])
            require(proc.returncode == 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"}, result)
            require(result["correct"] and result["attempted"] >= 1, result)
            require([m["name"] for m in bench[listed]] == list(result["metrics"]), result)
            print(f"smoke {workload['name']} trace={trace}: {result['attempted']} ops, correct")


def check_without_source():
    bare = WORK / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload=factor", "--seed=0", "--seconds=1", "--trace=0"], cwd=bare)
    require(proc.returncode != 0 and not proc.stdout.strip(), proc.stdout)
    print(f"without src/: exit code {proc.returncode}, no result printed")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        check_corruptions(workloads.Lib())
        check_without_source()
        check_smoke(bench)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
