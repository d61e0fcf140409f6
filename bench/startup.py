"""Start-up row: wall time and peak RSS of short zdbkit processes, as one JSON line.

    python bench/startup.py [--repeat N]

Each command runs N times in each of two modes, one after another in
turn so that drift on a shared machine touches every row alike:

* ``no_bytecode``: ``PYTHONDONTWRITEBYTECODE=1`` over a copy of ``src/``
  with no ``__pycache__``, so every process compiles the zdbkit modules it
  imports, as the benchmark's fresh checkouts do (installed packages such
  as numpy keep their own bytecode);
* ``warm_cache``: ``PYTHONPYCACHEPREFIX`` in a temporary directory, filled
  by one untimed round before timing.

Each row gives the median and quartiles of the wall time, from just before
the process starts to its exit, and of its peak RSS from ``os.wait4``.  A
child started by vfork and exec reports at least its parent's peak at the
fork, so this script imports neither numpy nor zdbkit; it asks a child for
the numpy version.  The function file that ``zdb verify`` reads and the CCC
file that ``codes check-bounds`` reads are written by two untimed zdbkit runs
first.  Everything it writes goes to a temporary
directory, never under the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
Z7 = '{"kind":"residue","n":7}'
COMMANDS = {
    "import numpy": ["-c", "import numpy"],
    "import zdbkit": ["-c", "import zdbkit"],
    "ring info Z_7": ["-m", "zdbkit.cli", "ring", "info", "--ring", Z7],
    "catalog certify --all": ["-m", "zdbkit.cli", "catalog", "certify", "--all"],
    "zdb verify Z_7": ["-m", "zdbkit.cli", "zdb", "verify", "--in", "{fn}"],
    "codes check-bounds Z_7 CCC": ["-m", "zdbkit.cli", "codes", "check-bounds", "--in", "{ccc}"],
}
# the untimed commands that write the (21, 11, 1) function of Z_7 that zdb verify reads
# and its CCC file that check-bounds reads
SETUP = [
    ["zdb", "construct", "product", "--ring", Z7, "--g", "2", "--h", "6", "--out", "{fn}"],
    ["codes", "ccc", "--in", "{fn}", "--out", "{ccc}"],
]


def _run(argv: list[str], env: dict) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one child process, which must exit 0."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, *argv], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 already
    if child.returncode != 0:
        raise SystemExit(f"python {' '.join(argv)} exited with {child.returncode}")
    return wall, usage.ru_maxrss / 1024


def _quartiles(values: list[float], digits: int) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": round(q1, digits), "median": round(median, digits), "p75": round(q3, digits)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="start-up row of short zdbkit processes")
    ap.add_argument("--repeat", type=int, default=9, help="timed runs per command and mode")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    with tempfile.TemporaryDirectory(prefix="zdbkit-startup-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        unset = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
        base = {k: v for k, v in os.environ.items() if k not in unset}
        base["PYTHONPATH"] = str(src)
        modes = {
            "no_bytecode": dict(base, PYTHONDONTWRITEBYTECODE="1"),
            "warm_cache": dict(base, PYTHONPYCACHEPREFIX=str(Path(tmp) / "pycache")),
        }
        files = {"{fn}": str(Path(tmp) / "f.json"), "{ccc}": str(Path(tmp) / "ccc.json")}
        for argv in SETUP:
            _run(["-m", "zdbkit.cli", *(files.get(a, a) for a in argv)], modes["no_bytecode"])
        commands = {name: [files.get(a, a) for a in argv] for name, argv in COMMANDS.items()}
        samples = {(mode, name): ([], []) for mode in modes for name in commands}
        for round_ in range(args.repeat + 1):  # round 0 fills the cache and is not kept
            for mode, env in modes.items():
                for name, command in commands.items():
                    wall, rss = _run(command, env)
                    if round_:
                        samples[mode, name][0].append(wall * 1000)
                        samples[mode, name][1].append(rss)
        numpy_version = subprocess.run(
            [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
            env=modes["warm_cache"], capture_output=True, text=True, check=True,
        ).stdout.strip()

    rows = [
        {
            "command": name,
            "mode": mode,
            "wall_ms": _quartiles(walls, 1),
            "peak_rss_mb": _quartiles(peaks, 2),
        }
        for (mode, name), (walls, peaks) in samples.items()
    ]
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "repeat": args.repeat,
        "rows": rows,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
