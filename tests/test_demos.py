"""Every demo runs to the end: exit 0, nothing on stderr, within 5 s."""

import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import src_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, str(demo)], env=src_env(), capture_output=True, text=True, timeout=60
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout != ""
    assert elapsed < 5.0
