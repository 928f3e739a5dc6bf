"""CLI stdout bytes and exit codes against recorded golden runs.

The cases, the recorder and its provenance are described in
``cli_golden.py``; the recorded runs live in ``data/cli_golden.json``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cli_golden
from bessel_interlace import cli

GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=[c["name"] for c in GOLDEN["cases"]])
def test_cli_matches_golden(case):
    assert cli_golden.run(case) == (case["exit"], case["stdout"])


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h", "out.json"]], ids=["none", "help", "option-first"])
def test_recorder_usage_writes_no_file(tmp_path, argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, cli_golden.__file__, *argv], cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "usage: cli_golden.py OUT.json [NAME ...]\n"
    assert list(tmp_path.iterdir()) == []
