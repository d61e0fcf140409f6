"""Instance ladder: wall time and peak RSS of each CLI step, as one JSON line.

    python bench/ladder.py [--repeat N] [--rung NAME ...] [--out PATH]

Each rung is a short pipeline of ``python -m zdbkit.cli`` steps, each step
in a child of its own, run N times in turn:

* ``2500``: the (2500, 834, 2) function over M2(F5), built, its CCC
  written, and the CCC file rechecked;
* ``400228``: the (400228, 133410, 2) function over GF(100057), built and
  verified, its DSS written, and the DSS file rechecked;
* ``cor2``: the cor2 recipe at q = 250057, e = 4 (n = 1000228).

Each row gives the median and quartiles of a step's wall time, from just
before the process starts to its exit, and of its peak RSS from
``os.wait4``, with the child runner of ``startup.py``.  A child started by
vfork and exec reports at least its parent's peak at the fork, so this
script imports neither numpy nor zdbkit.  Every process runs with
``PYTHONDONTWRITEBYTECODE=1`` over a copy of ``src/`` with no
``__pycache__``, as the benchmark's fresh checkouts do.  The files the steps
write go to a temporary directory; the line is printed, and written to PATH
only when ``--out`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from startup import SRC, _quartiles, _run

M2F5 = '{"kind":"matrix","k":2,"field":{"kind":"field","p":5,"r":1,"modulus":[0,1]}}'
GF100057 = '{"kind":"field","p":100057,"r":1,"modulus":[0,1]}'
# each rung's steps in order, by name; {f}, {ccc} and {dss} are files in the temporary directory
RUNGS = {
    "2500": {
        "zdb construct": ["zdb", "construct", "product", "--ring", M2F5, "--g", "378", "--h",
                          "49", "--out", "{f}"],
        "codes ccc": ["codes", "ccc", "--in", "{f}", "--out", "{ccc}"],
        "codes check-bounds": ["codes", "check-bounds", "--in", "{ccc}"],
    },
    "400228": {
        "zdb construct": ["zdb", "construct", "product", "--ring", GF100057, "--g", "39541",
                          "--h", "1140", "--out", "{f}"],
        "zdb verify": ["zdb", "verify", "--in", "{f}"],
        "codes dss": ["codes", "dss", "--in", "{f}", "--out", "{dss}"],
        "codes check-bounds": ["codes", "check-bounds", "--in", "{dss}"],
    },
    "cor2": {
        "catalog recipe": ["catalog", "recipe", "--id", "cor2", "--params",
                           '{"q_list":[250057],"e":4}'],
    },
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="wall time and peak RSS of CLI steps on a ladder")
    ap.add_argument("--repeat", type=int, default=5, help="timed runs of each rung")
    ap.add_argument("--rung", action="append", choices=list(RUNGS), help="rungs to run (all)")
    ap.add_argument("--out", help="also write the line to this file")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    rungs = {name: RUNGS[name] for name in RUNGS if name in (args.rung or RUNGS)}

    with tempfile.TemporaryDirectory(prefix="zdbkit-ladder-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
        env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        files = {name: str(Path(tmp) / f"{name[1:-1]}.json") for name in ("{f}", "{ccc}", "{dss}")}
        samples = {(rung, step): ([], []) for rung, steps in rungs.items() for step in steps}
        for _ in range(args.repeat):
            for rung, steps in rungs.items():
                for step, command in steps.items():
                    argv = ["-m", "zdbkit.cli", *(files.get(a, a) for a in command)]
                    wall, rss = _run(argv, env)
                    samples[rung, step][0].append(wall)
                    samples[rung, step][1].append(rss)
        numpy_version = subprocess.run(
            [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()

    line = json.dumps({
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "repeat": args.repeat,
        "rows": [
            {
                "rung": rung,
                "step": step,
                "wall_s": _quartiles(walls, 3),
                "peak_rss_mb": _quartiles(peaks, 2),
            }
            for (rung, step), (walls, peaks) in samples.items()
        ],
    })
    print(line)
    if args.out:
        Path(args.out).write_text(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
