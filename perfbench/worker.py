"""One step of a benchmark run, in a fresh interpreter; started by run.py.

    worker.py generate --workload W --seed N --seconds S --trace T --root R --work D --t0 T0
    worker.py measure  ... --part K/N

``generate`` makes the seeded inputs and writes them, as the library's JSON,
to D/inputs.json, with CLI documents under D/docs.  ``measure`` first sets
up: it installs the library from R/src into D/lib-K, byte-compiles it there,
imports it, rebuilds the inputs, warms up on the warm-up inputs and empties
the library's caches, and takes the seconds from T0, taken just before the
process was started.  Then it measures part K of N: with --trace 0, its
share of the ops and of the CLI documents, as raw samples that run.py
combines; with --trace 1, the whole traced measurement.  Each step prints
one JSON object as its last line of output.

Times are reported at a reference speed.  The hosts this runs on share their
cores, and the speed of the same code swings by up to 2.7x within seconds.
So a span of work in this process is scaled by REFERENCE_S / k, where k is
the time a fixed exact-arithmetic kernel (``fractions`` only, no library
code) takes on the same processor, measured at most CALIBRATE_EVERY_S
earlier.  Process start-up slows down differently, so a child interpreter's
time is scaled by REFERENCE_START_S / b instead, where b is the time of a
bare ``python -c pass`` started just before it.  The unscaled wall times
are in the report.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import clidocs
import workloads
from tracer import Tracer

SUBPROCESSES_PER_SECOND = 4  # python -m scherk.cli runs per --seconds
INPUT_MARGIN = 1.25  # inputs made, as a multiple of those used at the reference speed
CHECK_EVERY_S = 1.0  # the timed phase pauses this often to check and drop outputs
STARTUP_SAMPLES = 7
REFERENCE_S = 0.002  # kernel seconds at the reference speed
REFERENCE_START_S = 0.05  # bare interpreter start at the reference speed
CALIBRATE_EVERY_S = 0.1


def kernel():
    total = Fraction(0)
    third = Fraction(1, 3)
    for i in range(1, 300):
        total += third * Fraction(i, i + 7) - Fraction(2, i + 1)
    return total


def speed():
    """REFERENCE_S over the kernel's time now: scales a wall time to the
    reference speed.  The faster of two runs drops a preempted one."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return REFERENCE_S / min(times)


def collect(wl, L, rng, ops):
    """Input units from wl.units until they hold at least ``ops`` ops."""
    units, total = [], 0
    for unit in wl.units(L, rng):
        units.append(unit)
        total += wl.ops_in(unit)
        if total >= ops:
            return units


def generate(args, work: Path):
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(Path(args.root) / "src"))
    L = workloads.Lib()
    wl = workloads.WORKLOADS[args.workload]()
    wl.prepare(L, work / "docs")
    warm = collect(wl, L, random.Random(f"{wl.name}/warmup/{args.seed}"), ops=wl.warmup_ops)
    if wl.cycle:
        count = wl.pool_ops
    elif args.trace:
        count = wl.trace_ops_per_s * args.seconds
    else:
        count = round(INPUT_MARGIN * wl.ref_ops_per_s * args.seconds)
    timed = collect(wl, L, random.Random(f"{wl.name}/timed/{args.seed}"), ops=count)
    docs = [] if args.trace else wl.docs(L, timed, SUBPROCESSES_PER_SECOND * args.seconds)
    inputs = {"warmup": warm, "timed": timed, "docs": docs}
    (work / "inputs.json").write_text(json.dumps(inputs))
    return {"timed_ops": sum(wl.ops_in(u) for u in timed)}


def install(root: Path, work: Path, tag: str) -> Path:
    """Copy the library out of src/ and byte-compile the copy."""
    libdir = work / f"lib-{tag}"
    shutil.copytree(
        root / "src" / "scherk",
        libdir / "scherk",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    if not compileall.compile_dir(libdir / "scherk", quiet=1):
        raise SystemExit("byte-compiling the library failed")
    sys.path.insert(0, str(libdir))
    return libdir


def setup(args, work: Path):
    """Install, import, rebuild this part's inputs, warm up, empty caches.

    A part of a workload that does not cycle gets the K-th N-th of the
    input units; a cycling workload's part gets the whole pool."""
    k, n = args.part
    libdir = install(Path(args.root), work, str(k))
    L = workloads.Lib()
    wl = workloads.WORKLOADS[args.workload]()
    wl.prepare(L, work / "docs")
    inputs = json.loads((work / "inputs.json").read_text())
    for item in wl.load(L, inputs["warmup"]):
        wl.op(L, item)
    units = inputs["timed"]
    if not wl.cycle:
        inputs["timed"] = units = units[k * len(units) // n : (k + 1) * len(units) // n]
    items = wl.load(L, units)
    workloads.clear_caches(L)
    return L, wl, inputs, items, libdir


@dataclass
class Ops:
    """What run_ops did: each op's input and output (None if it raised),
    latencies in seconds at the reference speed, exceptions, wall seconds."""

    done: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    wall: float = 0.0


def run_ops(wl, L, items, start=0, count=None, seconds=None, call=None) -> Ops:
    """Run ops in order from ``items[start]`` until ``count`` ops or
    ``seconds`` of wall time, or until a workload that does not cycle
    runs out of inputs.  The ops between two calibrations are scaled by
    the mean speed of the two."""
    call = call or (lambda fn, *a: fn(*a))
    run = Ops()
    clock = time.perf_counter
    begin = clock()
    scale, calibrated = speed(), clock()
    pending = []
    i = start
    while count is None or i - start < count:
        if not wl.cycle and i == len(items):
            break
        item = items[i % len(items)]
        t0 = clock()
        try:
            out = call(wl.op, L, item)
        except Exception as exc:  # an op that raises counts as failed
            out = None
            run.errors.append(f"{type(exc).__name__}: {exc}")
        t1 = clock()
        run.done.append(item)
        run.outputs.append(out)
        pending.append(t1 - t0)
        i += 1
        if seconds is not None and t1 - begin >= seconds:
            break
        if t1 - calibrated >= CALIBRATE_EVERY_S:
            now = speed()
            run.latencies += [t * (scale + now) / 2 for t in pending]
            pending.clear()
            scale, calibrated = now, clock()
    now = speed()
    run.latencies += [t * (scale + now) / 2 for t in pending]
    run.wall = clock() - begin
    return run


def count_failures(wl, L, done, outputs):
    """Indices of the ops whose output fails its check; an op that raised,
    or whose check raises, fails."""
    failed = []
    for k, (item, out) in enumerate(zip(done, outputs)):
        try:
            ok = out is not None and wl.check(L, item, out)
        except Exception as exc:
            print(f"check of op {k} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        if not ok:
            failed.append(k)
    return failed


def child_env(libdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    env["PYTHONPATH"] = str(libdir)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def timed_run(argv, env, root):
    """Run a child interpreter: (wall seconds, completed process)."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=root, capture_output=True, timeout=60)
    return time.perf_counter() - t0, proc


def scaled_run(argv, env, root):
    """Run a child interpreter right after a bare one: (seconds at the
    reference speed, bare wall seconds, completed process)."""
    bare, _ = timed_run([sys.executable, "-c", "pass"], env, root)
    elapsed, proc = timed_run(argv, env, root)
    return elapsed * REFERENCE_START_S / bare, bare, proc


def subprocess_phase(L, docs, libdir, root, details):
    """python -m scherk.cli <cmd> <file> per document, one at a time.

    Each run must exit 0 and print exactly what cli.main prints in this
    process and what the library computes directly.
    """
    env = child_env(libdir)
    timed_run([sys.executable, "-c", "import scherk.cli"], env, root)  # warm file cache
    latencies, bare, failed = [], [], 0
    for doc in docs:
        elapsed, bare_s, proc = scaled_run(
            [sys.executable, "-m", "scherk.cli", doc["cmd"], doc["path"]], env, root
        )
        latencies.append(elapsed)
        bare.append(bare_s)
        code, text = workloads.run_cli(L, doc["cmd"], doc["path"])
        expected = clidocs.expected_stdout(
            L, doc["cmd"], json.loads(Path(doc["path"]).read_text())
        )
        same = proc.stdout == text.encode() == expected.encode()
        if not (proc.returncode == code == 0 and same):
            print(f"subprocess check failed on {doc}", file=sys.stderr)
            failed += 1
    details["bare_start_wall_ms"] = statistics.median(bare) * 1e3
    return latencies, failed


def startup_ms(libdir, root):
    """Median wall ms of a bare interpreter start, and median ms at the
    reference speed that importing scherk.cli adds to it."""
    env = child_env(libdir)
    bare, added = [], []
    for _ in range(STARTUP_SAMPLES):
        elapsed, bare_s, _ = scaled_run([sys.executable, "-c", "import scherk.cli"], env, root)
        bare.append(bare_s)
        added.append(elapsed - REFERENCE_START_S)
    return statistics.median(bare) * 1e3, statistics.median(added) * 1e3


def cache_metrics(L):
    infos = [c.cache_info() for c in workloads.caches([L.poset])]
    hits = sum(i.hits for i in infos)
    lookups = hits + sum(i.misses for i in infos)
    return {
        "poset.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "poset.cache.entries": sum(i.currsize for i in infos),
    }


def measure_part(args, L, wl, inputs, items, libdir):
    """Part K of N: ops on this part's inputs for --seconds / N of wall
    time, in stretches of CHECK_EVERY_S after each of which the outputs are
    checked and dropped, untimed, so that memory does not grow with the
    number of ops; then the subprocesses on every N-th CLI document."""
    k, n = args.part
    seconds = args.seconds / n
    start = k * len(items) // n if wl.cycle else 0
    latencies, errors, failed, wall = [], [], [], 0.0
    while wall < seconds:
        run = run_ops(
            wl, L, items, start=start + len(latencies), seconds=min(CHECK_EVERY_S, seconds - wall)
        )
        failed += [len(latencies) + i for i in count_failures(wl, L, run.done, run.outputs)]
        latencies += run.latencies
        errors += run.errors
        wall += run.wall
        if not run.done or (not wl.cycle and len(latencies) == len(items)):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    details = {
        "ops_per_s": len(latencies) / sum(latencies),
        "wall_s": wall,
        "errors": errors[:5],
        "failed_ops": failed[:20],
    }
    sub_latencies, sub_failed = subprocess_phase(
        L, inputs["docs"][k::n], libdir, Path(args.root), details
    )
    return {
        "latencies": latencies,
        "subprocess_latencies": sub_latencies,
        "peak_rss_mb": rss_mb,
        "inputs_exhausted": not wl.cycle and len(latencies) == len(items),
        "attempted": len(latencies) + len(sub_latencies),
        "failed": len(failed) + sub_failed,
        "details": details,
    }


def measure_traced(args, L, wl, inputs, items, libdir):
    """The same ops untraced, then, from fresh inputs and empty caches, traced."""
    count = wl.trace_ops_per_s * args.seconds
    plain = run_ops(wl, L, items, count=count)
    workloads.clear_caches(L)
    fresh = wl.load(L, inputs["timed"])
    tracer = Tracer({name: getattr(L, name) for name in workloads.MODULES})
    tracer.install()
    try:
        traced = run_ops(wl, L, fresh, count=count, call=tracer.span)
    finally:
        tracer.uninstall()
    metrics = cache_metrics(L)
    failed = count_failures(wl, L, plain.done, plain.outputs)
    failed += count_failures(wl, L, traced.done, traced.outputs)
    ops = len(traced.done)
    for name, (calls, own_s) in tracer.summary().items():
        if name != "op":
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_ms"] = own_s * 1e3
    for name in ("isometry.move_set", "linalg.project"):
        metrics[f"{name}.per_op"] = metrics[f"{name}.calls"] / ops
    metrics["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)
    start, imported = startup_ms(libdir, Path(args.root))
    metrics["cli.interp_start_ms"] = start
    metrics["cli.import_ms"] = imported
    details = {
        "ops": ops,
        "spans": len(tracer.start),
        "missing_targets": tracer.missing,
        "errors": (plain.errors + traced.errors)[:5],
    }
    return {"metrics": metrics, "attempted": 2 * ops, "failed": len(failed), "details": details}


def part(text):
    k, n = map(int, text.split("/"))
    if not 0 <= k < n:
        raise argparse.ArgumentTypeError(f"bad part {text!r}")
    return k, n


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("step", choices=("generate", "measure"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--part", type=part, default=(0, 1))
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()
    work = Path(args.work)
    if args.step == "generate":
        result = generate(args, work)
    else:
        before = speed()
        L, wl, inputs, items, libdir = setup(args, work)
        wall = time.monotonic() - args.t0
        setup_s = wall * (before + statistics.median(speed() for _ in range(3))) / 2
        measure = measure_traced if args.trace else measure_part
        result = measure(args, L, wl, inputs, items, libdir)
        result.update(setup_s=setup_s, setup_wall_s=wall)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
