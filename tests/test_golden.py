"""The golden verify report: size and sha256 recorded in bench/baseline.json.

Any change that alters a bit of the default report fails here, before it
reaches the benchmark's own golden gate.  The baseline file is only read.
"""

import hashlib
import json
from pathlib import Path

from effectkit.cli import main

BASELINE = Path(__file__).resolve().parents[1] / "bench" / "baseline.json"


def test_golden_report_unchanged(capsys):
    golden = json.loads(BASELINE.read_text(encoding="utf-8"))["golden"]
    code = main(list(golden["argv"]))
    report = capsys.readouterr().out.encode("utf-8")
    assert code == 0
    assert len(report) == golden["bytes"]
    assert hashlib.sha256(report).hexdigest() == golden["sha256"]
