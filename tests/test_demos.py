import os
import pathlib
import subprocess
import sys

import pytest

import cising

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    src = str(pathlib.Path(cising.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
