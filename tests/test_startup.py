"""bench/startup.py prints one JSON line: the start-up row."""

import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_startup_row_parses_with_one_repetition():
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "startup.py"), "--repeat", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    lines = run.stdout.splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["python"] == platform.python_version()
    assert row["repeat"] == 1 and row["nproc"] >= 1 and row["numpy"]
    commands = [
        "import numpy", "import zdbkit", "ring info Z_7", "catalog certify --all",
        "zdb verify Z_7", "codes check-bounds Z_7 CCC",
    ]
    assert [(r["mode"], r["command"]) for r in row["rows"]] == [
        (mode, command) for mode in ("no_bytecode", "warm_cache") for command in commands
    ]
    for r in row["rows"]:
        for stat in ("wall_ms", "peak_rss_mb"):
            q = r[stat]
            assert 0 < q["p25"] <= q["median"] <= q["p75"]
