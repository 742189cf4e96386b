"""tools/cli_rss.py: one JSON line for one CLI run, the child's output on stderr."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cli_rss.py"


def launch(*args: str) -> tuple[dict, str]:
    """The tool's JSON report and its stderr, for `dnamagic args` run on this tree's src."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(TOOL), *args], env=env, capture_output=True,
                          text=True, check=True)
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0]), done.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc and ru_maxrss in KiB, as on Linux")
def test_reports_exit_code_and_peaks(tmp_path):
    report, stderr = launch("--help")
    assert report["argv"] == [sys.executable, "-m", "dnamagic.cli", "--help"]
    assert report["exit"] == 0
    assert "usage: dnamagic" in stderr  # the child's stdout
    assert report["wall_s"] > 0
    assert report["maxrss_mb"] >= report["launcher_mb"] > 0

    missing = tmp_path / "missing.dmc"
    report, stderr = launch("decrypt", "--in", str(missing), "--key", str(missing),
                            "--out", str(tmp_path / "out.pgm"))
    assert report["exit"] == 2
    assert "FileNotFoundError" in stderr  # the child's stderr
    assert report["maxrss_mb"] >= report["launcher_mb"] > 0
