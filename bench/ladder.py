"""Instance ladder: wall time and peak RSS of each zdbkit process, as one JSON line.

    python bench/ladder.py [--repeat N] [--rung NAME ...] [--against REV] [--out PATH]

Each rung is a short list of steps, each a Python process of its own, run N
times in turn:

* ``2500``: the (2500, 834, 2) function over M2(F5), built, its CCC
  written, and the CCC file rechecked;
* ``400228``: the (400228, 133410, 2) function over GF(100057), built and
  verified, its DSS written, and the DSS file rechecked;
* ``cor2``: the cor2 recipe at q = 250057, e = 4 (n = 1000228);
* ``startup``: ``import numpy``, ``import zdbkit``, ``ring info`` on Z_7,
  ``catalog certify --all``, and the (21, 11, 1) function of Z_7 built,
  verified, its CCC written and rechecked;
* ``startup-warm``: the same steps with a bytecode cache;
* ``big``: the cor2 recipe at q = 2500009, e = 4 (n = 10000036), then the
  same function from GF(2500009) built, verified, its DSS written and
  rechecked (on a 2-CPU machine, about 22 s in all and up to 1.7 GB a step);
* ``huge``: the cor2 recipe at q = 25000009, e = 4 (n = 100000036), with
  ``--force`` (about 12 s and 2 GB).

Every rung but ``big`` and ``huge`` runs unless ``--rung`` names some.  Each
row gives the median and quartiles of a step's wall time, from just before
the process starts to its exit, and of its peak RSS from ``os.wait4``.  A
child started by vfork and exec reports at least its parent's peak at the
fork, so this script imports neither numpy nor zdbkit.  Every process runs
over a copy of ``src/`` with no ``__pycache__``, as the benchmark's fresh
checkouts do: with ``PYTHONDONTWRITEBYTECODE=1``, so that it compiles each
zdbkit module it imports (installed packages such as numpy keep their own
bytecode), except on ``startup-warm``, whose ``PYTHONPYCACHEPREFIX`` is
filled by one untimed run of each step first.  The files the steps write go
to a temporary directory; the line is printed, and written to PATH only
when ``--out`` is given.

With ``--against REV`` the line is a paired comparison in one session.  REV
is a git revision, whose ``src/`` is exported with ``git archive`` into the
temporary directory, or a directory holding a ``src/``.  Each step then runs
N pairs of processes, one on REV (the parent) and one on the working tree
(the change), each side with files and a bytecode cache of its own; the side
that runs first alternates from pair to pair, as the first run of a pair
tends to be the slower one on a shared machine.  A row gives both sides'
quartiles and, for wall time and peak RSS, the median, min and max of the
per-pair ratio change / parent.  A median ratio further from 1 than its own
min-max spread reaches is a difference, given ten pairs or more (three pairs
fall on one side by chance one time in four); one inside it is not resolved.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CLI = ["-m", "zdbkit.cli"]
Z7 = '{"kind":"residue","n":7}'
M2F5 = '{"kind":"matrix","k":2,"field":{"kind":"field","p":5,"r":1,"modulus":[0,1]}}'
GF100057 = '{"kind":"field","p":100057,"r":1,"modulus":[0,1]}'
GF2500009 = '{"kind":"field","p":2500009,"r":1,"modulus":[0,1]}'
STARTUP = {
    "import numpy": ["-c", "import numpy"],
    "import zdbkit": ["-c", "import zdbkit"],
    "ring info": [*CLI, "ring", "info", "--ring", Z7],
    "catalog certify --all": [*CLI, "catalog", "certify", "--all"],
    "zdb construct": [*CLI, "zdb", "construct", "product", "--ring", Z7, "--g", "2", "--h", "6",
                      "--out", "{f}"],
    "zdb verify": [*CLI, "zdb", "verify", "--in", "{f}"],
    "codes ccc": [*CLI, "codes", "ccc", "--in", "{f}", "--out", "{ccc}"],
    "codes check-bounds": [*CLI, "codes", "check-bounds", "--in", "{ccc}"],
}
# each rung's steps in order, by name, as the arguments of python; {f}, {ccc} and
# {dss} are files in the temporary directory
RUNGS = {
    "2500": {
        "zdb construct": [*CLI, "zdb", "construct", "product", "--ring", M2F5, "--g", "378",
                          "--h", "49", "--out", "{f}"],
        "codes ccc": [*CLI, "codes", "ccc", "--in", "{f}", "--out", "{ccc}"],
        "codes check-bounds": [*CLI, "codes", "check-bounds", "--in", "{ccc}"],
    },
    "400228": {
        "zdb construct": [*CLI, "zdb", "construct", "product", "--ring", GF100057, "--g",
                          "39541", "--h", "1140", "--out", "{f}"],
        "zdb verify": [*CLI, "zdb", "verify", "--in", "{f}"],
        "codes dss": [*CLI, "codes", "dss", "--in", "{f}", "--out", "{dss}"],
        "codes check-bounds": [*CLI, "codes", "check-bounds", "--in", "{dss}"],
    },
    "cor2": {
        "catalog recipe": [*CLI, "catalog", "recipe", "--id", "cor2", "--params",
                           '{"q_list":[250057],"e":4}'],
    },
    "startup": STARTUP,
    "startup-warm": STARTUP,
    "big": {
        "catalog recipe": [*CLI, "catalog", "recipe", "--id", "cor2", "--params",
                           '{"q_list":[2500009],"e":4}'],
        "zdb construct": [*CLI, "zdb", "construct", "product", "--ring", GF2500009, "--g",
                          "1175351", "--h", "288197", "--out", "{f}"],
        "zdb verify": [*CLI, "zdb", "verify", "--in", "{f}"],
        "codes dss": [*CLI, "codes", "dss", "--in", "{f}", "--out", "{dss}"],
        "codes check-bounds": [*CLI, "codes", "check-bounds", "--in", "{dss}"],
    },
    "huge": {
        "catalog recipe": [*CLI, "catalog", "recipe", "--id", "cor2", "--params",
                           '{"q_list":[25000009],"e":4}', "--force"],
    },
}
FILES = ("{f}", "{ccc}", "{dss}")
OPT_IN = ("big", "huge")  # run only when --rung names them
WARM = "startup-warm"  # runs with a bytecode cache, filled by one untimed run of each step


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


def _copy_src(against: str | None, dest: Path) -> str | None:
    """Copy a ``src/`` with no bytecode to dest/src: the working tree's, or with
    against REV's, from a directory or from ``git archive``.  Returns the
    commit REV names, None for the working tree or a directory."""
    if against is None or Path(against, "src").is_dir():
        source = SRC if against is None else Path(against, "src")
        shutil.copytree(source, dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        return None
    root = SRC.parent
    git = ["git", "-C", str(root)]
    commit = subprocess.run(
        [*git, "rev-parse", "--verify", f"{against}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run([*git, "archive", commit, "src"], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def _ratios(change: list[float], parent: list[float]) -> dict:
    ratios = [c / p for c, p in zip(change, parent)]
    return {
        "median": round(statistics.median(ratios), 3),
        "min": round(min(ratios), 3),
        "max": round(max(ratios), 3),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="wall time and peak RSS of zdbkit processes")
    ap.add_argument("--repeat", type=int, default=5, help="timed runs of each rung")
    ap.add_argument("--rung", action="append", choices=list(RUNGS),
                    help=f"rungs to run (all but {' and '.join(OPT_IN)})")
    ap.add_argument("--against", metavar="REV",
                    help="pair every run with one on this git revision or directory")
    ap.add_argument("--out", help="also write the line to this file")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    chosen = args.rung or [name for name in RUNGS if name not in OPT_IN]
    rungs = {name: RUNGS[name] for name in RUNGS if name in chosen}

    # side -> the revision its src/ comes from; None is the working tree
    sides = {"change": None} if args.against is None else {"change": None, "parent": args.against}
    with tempfile.TemporaryDirectory(prefix="zdbkit-ladder-") as tmp:
        unset = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
        base = {k: v for k, v in os.environ.items() if k not in unset}
        envs, files, commits = {}, {}, {}
        for side, rev in sides.items():
            home = Path(tmp) / side
            home.mkdir()
            commits[side] = _copy_src(rev, home)
            env = dict(base, PYTHONPATH=str(home / "src"))
            # indexed by rung == WARM
            envs[side] = (dict(env, PYTHONDONTWRITEBYTECODE="1"),
                          dict(env, PYTHONPYCACHEPREFIX=str(home / "pycache")))
            files[side] = {name: str(home / f"{name[1:-1]}.json") for name in FILES}

        def run(rung: str, command: list[str], side: str) -> tuple[float, float]:
            return _run([files[side].get(a, a) for a in command], envs[side][rung == WARM])

        for side in sides:  # fill the cache, untimed
            for command in rungs.get(WARM, {}).values():
                run(WARM, command, side)
        samples = {
            (rung, step, side): ([], []) for rung in rungs for step in rungs[rung] for side in sides
        }
        for pair in range(args.repeat):
            order = list(sides)[:: -1 if pair % 2 else 1]  # the side that runs first alternates
            for rung, steps in rungs.items():
                for step, command in steps.items():
                    for side in order:
                        wall, rss = run(rung, command, side)
                        samples[rung, step, side][0].append(wall)
                        samples[rung, step, side][1].append(rss)
        numpy_version = subprocess.run(
            [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
            env=envs["change"][0], capture_output=True, text=True, check=True,
        ).stdout.strip()

    rows = []
    for rung, steps in rungs.items():
        for step in steps:
            (walls, peaks), *parent = (samples[rung, step, side] for side in sides)
            row = {"rung": rung, "step": step,
                   "wall_s": _quartiles(walls, 3), "peak_rss_mb": _quartiles(peaks, 2)}
            if parent:
                (parent_walls, parent_peaks), = parent
                row["parent"] = {
                    "wall_s": _quartiles(parent_walls, 3),
                    "peak_rss_mb": _quartiles(parent_peaks, 2),
                }
                row["ratio"] = {
                    "wall_s": _ratios(walls, parent_walls),
                    "peak_rss_mb": _ratios(peaks, parent_peaks),
                }
            rows.append(row)
    paired = {} if args.against is None else {
        "against": args.against, "parent_commit": commits["parent"]
    }
    line = json.dumps({
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "repeat": args.repeat,
        **paired,
        "rows": rows,
    })
    print(line)
    if args.out:
        Path(args.out).write_text(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
