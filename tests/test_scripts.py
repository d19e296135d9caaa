"""Smoke tests: each reproduction script in scripts/ runs at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qstoch

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv,first_line", [
    (["h3_maximality.py", "--grid", "4", "--conj-grid", "2", "--restarts", "1"],
     "grid sweep: candidates=12,096 near_misses=0 found=False ("),
    (["distance_j3.py", "--restarts", "2"], "distance,iterations,restarts"),
    (["rank_witness.py"], "jacobian shape: (9, 36)"),
])
def test_script_runs(argv, first_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qstoch.__file__))
    out = subprocess.run([sys.executable, str(SCRIPTS / argv[0])] + argv[1:],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0].startswith(first_line)
