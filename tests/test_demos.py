"""The tour scripts under demos/ run to completion against the current API
by the command each one's docstring gives after ``Run:``, from the repo
root of a checkout that is not pip-installed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def _run_line(script: Path) -> str:
    for line in script.read_text().splitlines():
        if line.startswith("Run:"):
            return line.removeprefix("Run:").strip()
    raise AssertionError(f"{script.name} has no 'Run:' line")


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_run_line_names_its_own_script(script):
    assert _run_line(script) == f"PYTHONPATH=src python3 demos/{script.name}"


@pytest.mark.parametrize("script", ["01_losses_and_metrics.py", "02_expert_zoo.py"])
def test_demo_runs(script):
    # python3 is the interpreter running the tests; moectr comes only
    # from what the run line itself puts on the path
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PATH"] = os.pathsep.join([os.path.dirname(sys.executable), env.get("PATH", "")])
    result = subprocess.run(
        _run_line(REPO_ROOT / "demos" / script), shell=True, cwd=REPO_ROOT,
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
