"""Every demo script runs to completion without output on stderr, and its
stdout matches its golden file byte for byte."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_cleanly(script):
    result = run(script)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    golden = ROOT / "tests" / "golden" / f"demo_{script.name[:2]}.txt"
    assert result.stdout == golden.read_text()
