"""Each demo runs to completion and prints exactly what it printed before.

The demos write no files and draw nothing unseeded, so their stdout is a
fixed text; a change to any number they print shows up as a new sha1.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

STDOUT_SHA1 = {
    "01_symbolic_spaces.py": "2969bcaf4f34718bfd71767ada43bd7dff5878e8",
    "02_model_counts.py": "b301c4a398315fea0210b4d5759d6155a6d56dc8",
    "03_generate_plan.py": "62d5c3917b6dcd1d09d9163386e53ebff3844070",
    "04_measure_coverage.py": "ca57df0a08b24a734ee3e39e65a92199048ee33c",
    "05_budget_cycles.py": "9ab5d85909d094b478ddc0dfb10d786b99d0a9d2",
    "06_concrete_values.py": "0740bed687142cebe26dc2a8407b71a9c1fda793",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA1)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA1))
def test_demo_prints_the_same(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha1(done.stdout).hexdigest() == STDOUT_SHA1[name]
