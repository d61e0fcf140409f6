"""Smoke test of the benchmark harness itself; takes seconds.

    python3 perfbench/smoke.py

Run from the repository root.  Each workload runs twice on its
smallest instance with tracing on (one untraced and one traced pass per
run), so the golden check, the span merge and the repeat check of the
computed counters all execute.  Then the golden check is fed a wrong
expectation and a wrong negative-control witness, and must flag both.
Exits 1 and names the failure if anything is off.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402


def _run_workload(workload: str) -> dict:
    workdir = ROOT / ".perfbench" / "smoke" / workload
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "1",
        "--dir", str(workdir), "--smoke", "--trace", "1",
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: worker exited with {proc.returncode}\n{proc.stderr}")
    return json.loads((workdir / "result.json").read_text())


def _check_detects_mismatch() -> list[str]:
    """The golden check must flag a wrong expectation and a wrong witness."""
    problems = []
    golden = json.loads(worker.GOLDEN.read_text())["scan.smoke"]
    work = worker.Scan(ROOT / ".perfbench" / "smoke" / "tamper", seed=1, smoke=True)
    work.setup()
    ops = work.run(None)
    if worker._check(work, ops, golden, None):
        problems.append("untampered scan smoke pass did not check clean")
    wrong = json.loads(json.dumps(golden))
    wrong["gf121_e6"]["parameters"][2] += 1
    if not worker._check(work, ops, wrong, None):
        problems.append("a wrong golden parameter went unnoticed")
    shift, count = work.witness
    work.witness = (shift + 1, count)
    if not any(n.startswith("negative_control") for n in worker._check(work, ops, golden, None)):
        problems.append("a wrong negative-control witness went unnoticed")
    return problems


def main() -> int:
    problems = []
    for workload in sorted(worker.WORKLOADS):
        for rep in (1, 2):
            res = _run_workload(workload)
            missing = {
                m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
            } - res["layers"].keys()
            status = "ok" if res["failed"] == 0 and not missing else "FAILED"
            print(f"{workload:8s} run {rep}: {res['attempted'] - res['failed']}/{res['attempted']} "
                  f"operations correct, pass {res['walls'][0]:.3f} s  {status}")
            problems += [f"{workload}: {note}" for note in res["failures"]]
            if missing:
                problems.append(f"{workload}: per-layer metrics missing: {sorted(missing)}")
    problems += _check_detects_mismatch()
    for note in problems:
        print(f"FAILED {note}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
