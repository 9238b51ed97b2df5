"""Golden reports: every suite's default-seed report is byte-identical to the
one frozen in golden_reports.json (sha256 of the command's standard output).

Each command runs in a fresh process, so the process-wide caches (component
and family lru_caches) cannot leak between cases.  To
refreeze after an intended change of a report, store the sha256 of the
standard output of `python -m quadop <command>` under the command's key.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden_reports.json").read_text())
SRC = str(HERE.parent / "src")


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_matches_golden_digest(command):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "quadop"] + command.split(),
        capture_output=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[command]
