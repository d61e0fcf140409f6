"""bench/ladder.py prints one JSON line: the steps of the instance ladder, alone or
paired with a revision."""

import importlib.util
import json
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
STARTUP_STEPS = [
    "import numpy", "import zdbkit", "ring info", "catalog certify --all", "zdb construct",
    "zdb verify", "codes ccc", "codes check-bounds",
]


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


def test_ladder_pairs_each_step_with_a_revision():
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "ladder.py"), "--repeat", "1", "--rung", "2500",
         "--against", "HEAD"],
        capture_output=True, text=True, timeout=180,
    )
    assert (run.returncode, run.stderr) == (0, "")
    line = json.loads(run.stdout)
    assert line["against"] == "HEAD" and len(line["parent_commit"]) == 40
    assert [r["step"] for r in line["rows"]] == ["zdb construct", "codes ccc", "codes check-bounds"]
    for r in line["rows"]:
        for stat in ("wall_s", "peak_rss_mb"):
            change, parent, ratio = r[stat], r["parent"][stat], r["ratio"][stat]
            assert 0 < parent["p25"] <= parent["median"] <= parent["p75"]
            assert ratio["min"] == ratio["median"] == ratio["max"]  # one pair
            assert ratio["median"] == pytest.approx(change["median"] / parent["median"], rel=0.01)


def test_startup_rungs_time_each_command_with_and_without_bytecode():
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "ladder.py"), "--repeat", "1", "--rung", "startup",
         "--rung", "startup-warm"],
        capture_output=True, text=True, timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    lines = run.stdout.splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["python"] == platform.python_version()
    assert row["repeat"] == 1 and row["nproc"] >= 1 and row["numpy"]
    assert [(r["rung"], r["step"]) for r in row["rows"]] == [
        (rung, step) for rung in ("startup", "startup-warm") for step in STARTUP_STEPS
    ]
    for r in row["rows"]:
        for stat in ("wall_s", "peak_rss_mb"):
            q = r[stat]
            assert 0 < q["p25"] <= q["median"] <= q["p75"]


def test_big_and_huge_run_only_when_named(monkeypatch, capsys):
    # no step runs: the child runner is replaced by one that records its commands
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "bench" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    runs = []

    def record(argv, env):
        runs.append((argv, "PYTHONPYCACHEPREFIX" in env, env.get("PYTHONDONTWRITEBYTECODE")))
        return 1.0, 1.0

    monkeypatch.setattr(ladder, "_run", record)

    def rungs(*argv):
        runs.clear()
        assert ladder.main(["--repeat", "1", *argv]) == 0
        return [r["rung"] for r in json.loads(capsys.readouterr().out)["rows"]]

    default = ["2500", "400228", "cor2", "startup", "startup-warm"]
    assert list(dict.fromkeys(rungs())) == default
    assert not any("2500009" in a or "25000009" in a for argv, *_ in runs for a in argv)
    # startup-warm runs each step once untimed, to fill its cache, and once timed
    warm = [argv for argv, cached, no_bytecode in runs if cached and no_bytecode is None]
    assert len(warm) == 2 * len(STARTUP_STEPS)
    assert len(runs) == sum(len(ladder.RUNGS[name]) for name in default) + len(STARTUP_STEPS)
    assert rungs("--rung", "huge", "--rung", "big") == ["big"] * 5 + ["huge"]
    assert [argv[-1] for argv, *_ in runs[:1] + runs[-1:]] == [
        '{"q_list":[2500009],"e":4}', "--force"
    ]
