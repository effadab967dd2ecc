"""The benchmark's probe still finds every nesthilb name it wraps.

bench/probe.py and bench/layers.py patch engine, verify and cli functions
by name; a renamed or deleted one makes the probe fail before the CLI runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["integrate", "--surface", "p2", "--n1", "1", "--n2", "0"],
    ["series", "--surface", "p2", "--cap", "1"],
    ["verify", "oracle", "--cap", "1"],
    ["verify", "fock", "--cap", "1"],
], ids=["integrate", "series", "verify", "fock"])
def test_traced_probe_runs(tmp_path, argv):
    report_path = tmp_path / "report.json"
    with open(report_path, "w") as report:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   BENCH_REPORT_FD=str(report.fileno()))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "probe.py"), "--trace", *argv],
            capture_output=True, text=True, env=env, cwd=str(ROOT),
            pass_fds=(report.fileno(),),
        )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(report_path.read_text())["setup_end"] is not None
