"""The zdbkit benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {certify,files,scan} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it uses the sources under ./src and
writes only under ./.perfbench.  One client runs the workload as a
closed loop in a worker process (worker.py); CLI steps run as one child
process at a time.  Set-up time is sampled by starting the worker
several times.  The human-readable summary goes first; the last line of
standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9  # worker starts per run, the measuring worker included

now = functools.partial(time.clock_gettime, time.CLOCK_MONOTONIC)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="zdbkit benchmark, one workload per run")
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (root / "src" / "zdbkit" / "__init__.py").is_file():
        return _fail("no zdbkit sources under ./src; run from the repository root")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = root / ".perfbench" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    worker = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--dir", str(workdir),
    ]

    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        start = now()
        probe = subprocess.run(
            worker + ["--setup-only"], env=env, capture_output=True, text=True, check=False
        )
        if probe.returncode != 0:
            return _fail(f"worker set-up failed:\n{probe.stderr}")
        setups.append(json.loads(probe.stdout)["ready"] - start)

    log = workdir / "worker.log"
    start = now()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(
            worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, stdout=fh, stderr=subprocess.STDOUT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        return _fail(f"worker exited with {proc.returncode}:\n{log.read_text()[-4000:]}")
    res = json.loads((workdir / "result.json").read_text())
    setups.append(res["ready"] - start)

    walls = res["walls"]
    # CLI workloads: the CLI children; in-process workloads: the worker itself
    rss_kb = res["cli_peak_rss_kb"] or usage.ru_maxrss
    out_mb = statistics.median(res["out_bytes"]) / 1e6 if res["out_bytes"] else 0.0
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          "closed loop, 1 client")
    print(f"  wall_s       {end_to_end['wall_s']:10.4f} s    median of {len(walls)} passes")
    print(f"  setup_s      {end_to_end['setup_s']:10.4f} s    median of {len(setups)} worker starts")
    print(f"  peak_rss_mb  {end_to_end['peak_rss_mb']:10.1f} MB   max over the workload's processes")
    print(f"  out_mb       {out_mb:10.4f} MB   CLI bytes written per pass, median")
    print(f"  fail_frac    {res['failed'] / res['attempted']:10.4f}      "
          f"{res['failed']} of {res['attempted']} operations")
    for note in res["failures"]:
        print(f"  FAILED {note}")
    metrics = end_to_end
    if args.trace:
        metrics = res["layers"]
        print(f"  spans written to {res['trace_file']}")
        for name, value in metrics.items():
            print(f"  {name:44s} {value}")
    missing = {m["name"] for m in declared} - metrics.keys()
    if missing:
        return _fail(f"metrics missing from the run: {sorted(missing)}")
    out = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
