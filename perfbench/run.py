"""Benchmark of the scherk library: one run of one workload.

    python3 perfbench/run.py --workload factor --seed 1 --seconds 8 --trace 0

Run it from the root of a scherk checkout.  It works in ``.perfbench-work/``
there and removes that directory when it ends.  Every step runs in a fresh
interpreter, one at a time (see worker.py), and the run is pinned to one
processor:

1. ``generate`` makes the workload's inputs from ``--seed``;
2. PARTS processes each set up (copy the library out of ``src/``,
   byte-compile the copy, import it, rebuild the inputs, warm up on inputs
   from a seed disjoint from the timed ones, and empty the library's
   caches) and then measure their part: with ``--trace 0``, a closed loop
   of ops for ``--seconds`` / PARTS on their share of the inputs, each
   op's output checked, then ``python -m scherk.cli`` on their share of
   the CLI documents.  ``setup_s`` is the median of their set-up times,
   each counted from just before its process started; the other metrics
   pool the samples of all parts, so that no one process's luck (memory
   layout, hash seed, a slow spell of the host) decides a run.  With
   ``--trace 1`` one process runs a fixed number of ops untraced, then the
   same ops from fresh inputs and empty caches with spans around each
   layer function, giving calls and self time per function.

The next-to-last line of standard output is a report with provenance and
every measured value; the last line is the result: ``correct``,
``attempted``, ``failed`` and the metrics BENCHMARK.json lists, the
``end_to_end`` ones with ``--trace 0`` and the ``per_layer`` ones with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench-work"
PARTS = 3
RUN_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def step(name, args, root, work, deadline, part="0/1"):
    """Run one worker step in a fresh interpreter; return its JSON result."""
    argv = [
        sys.executable,
        "-B",
        str(HERE / "worker.py"),
        name,
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--root={root}",
        f"--work={work}",
        f"--part={part}",
    ]
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX")}
    proc = subprocess.Popen(
        argv + [f"--t0={time.monotonic()!r}"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{name} step ran past the run's time limit")
    if proc.returncode != 0:
        fail(f"{name} step exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def provenance(root, args):
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "seed": args.seed,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }


def percentile(values, pct):
    """Nearest-rank percentile, with the number of samples above it."""
    xs = sorted(values)
    k = max(math.ceil(pct / 100 * len(xs)) - 1, 0)
    return xs[k], len(xs) - 1 - k


def strict_tail(values):
    """The highest percentile with at least ten samples beyond it (the
    largest value when there are ten or fewer), with the number of samples
    above it."""
    xs = sorted(values)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], len(xs) - 1 - k


def latency_metrics(prefix, seconds_list, tail_pct, details):
    """p50 and tail in ms.  The tail is at ``tail_pct`` if given, else at
    strict_tail's percentile."""
    ms = [s * 1e3 for s in seconds_list]
    value, beyond = strict_tail(ms) if tail_pct is None else percentile(ms, tail_pct)
    details[f"{prefix}_tail"] = {
        "percentile": round(100.0 * (len(ms) - beyond) / len(ms), 2),
        "samples": len(ms),
        "samples_beyond": beyond,
    }
    return {f"{prefix}_p50_ms": statistics.median(ms), f"{prefix}_tail_ms": value}


def combine(parts, tail_pct):
    """End-to-end metrics from the raw samples of every part."""
    latencies = [x for p in parts for x in p["latencies"]]
    details = {
        "ops": len(latencies),
        "wall_ops_per_s": len(latencies) / sum(p["details"]["wall_s"] for p in parts),
        "inputs_exhausted": any(p["inputs_exhausted"] for p in parts),
        "parts": [p["details"] for p in parts],
    }
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
    }
    metrics.update(latency_metrics("op", latencies, tail_pct, details))
    subprocess_latencies = [x for p in parts for x in p["subprocess_latencies"]]
    metrics.update(latency_metrics("subprocess", subprocess_latencies, None, details))
    details["setup_s_samples"] = [p["setup_s"] for p in parts]
    return metrics, details


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "scherk" / "__init__.py").is_file():
        fail("no src/scherk here: run from the root of a scherk checkout")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    report["provenance"] = provenance(root, args)
    # One processor for this run and its children, so that the speed measured
    # beside each timed span is the speed of the processor that ran it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + RUN_LIMIT_S
    work = root / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        t0 = time.monotonic()
        report["generate"] = step("generate", args, root, work, deadline)
        report["generate"]["seconds"] = time.monotonic() - t0
        n = 1 if args.trace else PARTS
        parts = [step("measure", args, root, work, deadline, f"{k}/{n}") for k in range(n)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    if args.trace:
        values, details = parts[0]["metrics"], parts[0]["details"]
    else:
        values, details = combine(parts, WORKLOADS[args.workload].tail_pct)
        values["fail_ratio"] = failed / attempted
    report.update(attempted=attempted, failed=failed, metrics=values, details=details)
    report["run_wall_s"] = time.monotonic() - started
    listed = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        fail(f"no value measured for {missing}")
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
                },
            }
        )
    )


if __name__ == "__main__":
    main()
