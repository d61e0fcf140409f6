"""bench/ladder.py prints one JSON line: the steps of the instance ladder."""

import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ladder_row_parses_on_the_2500_rung():
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "ladder.py"), "--repeat", "1", "--rung", "2500"],
        capture_output=True, text=True, timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    lines = run.stdout.splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["python"] == platform.python_version()
    assert row["repeat"] == 1 and row["nproc"] >= 1 and row["numpy"] and row["machine"]
    assert [(r["rung"], r["step"]) for r in row["rows"]] == [
        ("2500", "zdb construct"), ("2500", "codes ccc"), ("2500", "codes check-bounds"),
    ]
    for r in row["rows"]:
        for stat in ("wall_s", "peak_rss_mb"):
            q = r[stat]
            assert 0 < q["p25"] <= q["median"] <= q["p75"]
