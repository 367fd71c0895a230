"""Run the mutation catalog: each mutant must be killed by its tests.

    python tools/mutate.py              # every entry of tools/mutants.py
    python tools/mutate.py place-exit   # the entries named

Each entry's old text is replaced by its new text in a temporary copy of
the repository (``src``, ``tests``, ``demos``, ``perfbench`` and
``pyproject.toml``), and pytest runs the entry's tests there, at most two
copies at a time.  An entry is killed when every one of its tests fails;
it survives when any passes, and is an error when its old text does not
occur exactly once or pytest cannot run the tests.  The exit status is 0
when every entry is killed, 1 when one is not, and 2 for an unknown id.

Standard library only, apart from the pytest it runs.  Not part of the
tier-1 suite: ``tests/test_mutants.py`` checks the catalog itself.
"""

from __future__ import annotations

import concurrent.futures
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from mutants import CATALOG  # noqa: E402

COPIED = ("src", "tests", "demos", "perfbench")
WORKERS = 2


def mutate(entry: dict, into: pathlib.Path) -> None:
    """A copy of the repository in ``into`` with the entry applied."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", into)
    module = into / entry["module"]
    text = module.read_text(encoding="utf-8")
    if text.count(entry["old"]) != 1:
        raise LookupError(f"old text occurs {text.count(entry['old'])} times")
    module.write_text(text.replace(entry["old"], entry["new"]), encoding="utf-8")


def verdict(code: int, summary: str) -> str:
    """killed when pytest ran the tests and each one failed; summary is
    pytest's last line, such as "2 failed, 1 passed in 0.52s"."""
    if code not in (0, 1) or re.search(r"\berrors?\b", summary):
        return f"ERROR (pytest exit {code}: {summary})"
    if code == 1 and not re.search(r"\bpassed\b", summary):
        return "killed"
    return "SURVIVED"


def run(entry: dict) -> tuple[str, str, float]:
    """(id, verdict, seconds) for one entry."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = pathlib.Path(tmp)
        try:
            mutate(entry, copy)
        except LookupError as exc:
            return entry["id"], f"ERROR ({exc})", time.perf_counter() - start
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--tb=no", "-p", "no:cacheprovider"]
            + list(entry["tests"]),
            cwd=copy,
            env=env,
            capture_output=True,
            text=True,
        )
    summary = (done.stdout.strip().splitlines() or [""])[-1]
    return entry["id"], verdict(done.returncode, summary), time.perf_counter() - start


def main(argv: list[str]) -> int:
    chosen = [e for e in CATALOG if not argv or e["id"] in argv]
    unknown = set(argv) - {e["id"] for e in CATALOG}
    if unknown:
        print(f"no such entries: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    failed = 0
    with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        for name, outcome, seconds in pool.map(run, chosen):
            failed += outcome != "killed"
            print(f"{name:26} {outcome:10} {seconds:6.1f} s", flush=True)
    total = time.perf_counter() - start
    print(f"{len(chosen) - failed}/{len(chosen)} killed in {total:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
