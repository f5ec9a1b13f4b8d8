"""The tour scripts under demos/ run to completion against the current API,
including demo 02, which reads an expert's cache layout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["01_losses_and_metrics.py", "02_expert_zoo.py"])
def test_demo_runs(script):
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
