import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# training demos run the full model and take tens of seconds
SLOW = {"04_train_and_parse.py"}


@pytest.mark.parametrize("name", [
    pytest.param(p.name, marks=[pytest.mark.acceptance] if p.name in SLOW else [])
    for p in sorted((ROOT / "demos").glob("*.py"))
])
def test_demo_runs(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
