"""Every script in demos/ runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    if demo.name == "oracle_vs_engine.py":
        # The fabricated certificate is refuted with the least witness pair.
        assert "witness pair = ((-5, 0), (-5, 0))" in done.stdout
        assert "F(-5, 0) / F(-5, 0) = -125 / -125" in done.stdout
