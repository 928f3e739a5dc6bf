"""CLI stdout bytes and exit codes against recorded golden runs.

The cases, the recorder and its provenance are described in
``cli_golden.py``; the recorded runs live in ``data/cli_golden.json``.
"""

import json
from pathlib import Path

import pytest

import cli_golden

GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=[c["name"] for c in GOLDEN["cases"]])
def test_cli_matches_golden(case):
    assert cli_golden.run(case) == (case["exit"], case["stdout"])
