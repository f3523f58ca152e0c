"""The demo scripts run to completion and print something.

Each script in demos/ runs as its own process and must exit 0 with nonempty
stdout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kmetrics

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SCRIPTS = sorted(p.name for p in DEMOS.glob("*.py"))


def test_demos_are_found():
    assert len(SCRIPTS) >= 6


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs(script):
    package_root = str(Path(kmetrics.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / script)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
