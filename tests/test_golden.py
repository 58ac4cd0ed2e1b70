"""Replay the golden CLI reports recorded by tests/golden/record.py.

Every command listed in a ``<name>.golden.json`` file is run again from
inside ``tests/golden`` with ``--format json``; its exit code and report,
without ``timings_ms``, must match the recording exactly.
"""

import json
from pathlib import Path

import pytest

from structctrl.cli import run_cli

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "path", sorted(GOLDEN.glob("*.golden.json")), ids=lambda p: p.name.split(".")[0]
)
def test_golden_reports_replay(path, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    for case in json.loads(path.read_text()):
        code = run_cli(case["args"] + ["--format", "json"])
        report = json.loads(capsys.readouterr().out)
        report.pop("timings_ms", None)
        assert (code, report) == (case["exit"], case["report"]), case["args"]
