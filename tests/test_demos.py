"""The narrative scripts under ``demos/`` run to the end against this checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(tmp_path, script):
    # run in a temporary directory, so anything a demo writes stays there
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
