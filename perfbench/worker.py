"""One benchmark run of one workload: generate inputs, time passes, check outputs.

run.py starts this script once per run (and a few more times with
--setup-only to sample set-up time).  A pass is one closed-loop
iteration of the workload with a single client; passes repeat until
--seconds have elapsed.  With --trace 1 the run makes one untraced pass,
then one pass under the tracer, and reports per-layer numbers from the
traced pass.  Every output is checked outside the timed region against
golden.json (recorded from the seed commit) or, for the negative
control, against the benchmark's own recount.  The result goes to
<dir>/result.json for run.py.

Workloads (see NOTES.md for why each was chosen):

* certify  `zdbkit catalog certify --all` as one CLI process
* files    the file pipeline on the (1156, 386, 2) GF(17^2) instance:
           construct, verify, ccc, check-bounds, dss, check-bounds
* scan     in process: construct, verify_zdb, dss_from_zdb, dss_report on
           n = 726, 2500, 3364, plus a corrupted table that must fail
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from tracer import Tracer, now, self_times

# library functions are called as zdbkit.<name> so that the tracer's rebinding applies
import zdbkit
from zdbkit import GaloisField, MatrixRing, ResidueRing, ZdbFunction

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
GOLDEN = HERE / "golden.json"
CLI_CODE = "import sys; from zdbkit.cli import main; sys.exit(main())"
CLI_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# per-layer self times reported as a share of the traced pass
LAYER_SPANS = (
    "codes.distance_range",
    "codes.ccc_from_zdb",
    "codes.cwc_from_zdb",
    "codes.dss_from_zdb",
    "codes.dss_perfect_check",
    "codes.bounds",
    "verify.verify_zdb",
    "domains.shift_rows",
    "domains.op_vec",
    "rings.add_vec",
    "catalog.find_element_of_order",
    "catalog.default_catalog",
    "catalog.certify_all",
    "cosets.coset_partition",
    "cosets.cyclic_subgroup",
    "construct.construct_product",
    "construct.construct_generic",
    "cli.json_encode",
    "cli.json_decode",
)
CLI_STEPS = (
    "catalog_certify",
    "zdb_construct",
    "zdb_verify",
    "codes_ccc",
    "check_bounds_ccc",
    "codes_dss",
    "check_bounds_dss",
)
COMPUTED_COUNTS = (
    "codes.distance_range.cmp",
    "codes.dss_perfect_check.pairs",
    "verify.verify_zdb.pairs",
    "rings.mul.calls",
    "rings.try_invert.calls",
)


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class CliStep:
    """One zdbkit command line run as a child process, stdout captured to a file."""

    def __init__(self, name: str, argv: list[str], out: Path, inputs: list[Path]):
        self.name = name
        self.argv = argv
        self.out = out
        self.err = out.with_suffix(".err")
        self.inputs = inputs

    def run(self, tracer: Tracer | None) -> dict:
        if tracer is None:
            cmd = [sys.executable, "-c", CLI_CODE, *self.argv]
        else:
            spans = self.out.with_suffix(".spans.json")
            cmd = [
                sys.executable, str(HERE / "tracer.py"),
                "--spans", str(spans), "--run-id", tracer.run_id, "--", *self.argv,
            ]
            sid = tracer.open(f"cli.step.{self.name}")
        bytes_read = sum(p.stat().st_size for p in self.inputs if p.exists())
        start = now()
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=CLI_ENV)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = now() - start
        rec = {
            "name": self.name,
            "rc": proc.returncode,
            "wall": wall,
            "rss_kb": usage.ru_maxrss,
            "bytes_read": bytes_read,
            "bytes_written": self.out.stat().st_size + self.err.stat().st_size,
        }
        if tracer is not None:
            tracer.close(sid)
            rec["start_s"] = _merge_child_spans(tracer, sid, spans) - start
        return rec

    def facts(self, rec: dict) -> dict:
        return {"rc": rec["rc"], "stdout": _sha256_file(self.out), "stderr": _sha256_file(self.err)}


def _merge_child_spans(tracer: Tracer, parent: int, path: Path) -> float:
    """Append a child process's spans under `parent`; return when its main began."""
    data = json.loads(path.read_text())
    offset = len(tracer.spans)
    for s in data["spans"]:
        p = parent if s["parent"] is None else s["parent"] + offset
        tracer.spans.append([s["id"] + offset, s["name"], s["start"], s["end"], p])
    tracer.counts.update(data["counts"])
    return data["main_entered"]


class Workload:
    """Inputs, one timed pass, and the facts checked after it."""

    cli = False

    def __init__(self, workdir: Path, seed: int, smoke: bool):
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        """Input generation; everything before the first timed call."""

    def run(self, tracer: Tracer | None) -> list[tuple[str, object]]:
        """The timed pass: (operation key, raw result) per operation."""
        raise NotImplementedError

    def facts(self, key: str, raw) -> dict:
        """Checked output of one operation, computed outside the timed region."""
        raise NotImplementedError

    def expected(self, key: str, golden: dict) -> dict | None:
        return golden.get(key)


class CliWorkload(Workload):
    cli = True
    steps: list[CliStep]

    def run(self, tracer):
        return [(step.name, step.run(tracer)) for step in self.steps]

    def facts(self, key, raw):
        return next(s for s in self.steps if s.name == key).facts(raw)


class Certify(CliWorkload):
    def setup(self):
        argv = ["catalog", "certify", "--all"]
        if self.smoke:
            argv += ["--max-order", "100"]
        self.steps = [CliStep("catalog_certify", argv, self.workdir / "certify.json", [])]


class Files(CliWorkload):
    def setup(self):
        if self.smoke:
            ring, g, h = ResidueRing(7), "2", "6"
        else:
            ring, g, h = GaloisField(17, 2), "4", "17"
        d = self.workdir
        ring_path = d / "ring.json"
        ring_path.write_text(json.dumps(ring.to_json()))
        fn, ccc, dss = d / "fn.json", d / "ccc.json", d / "dss.json"
        rel = lambda p: str(p.relative_to(ROOT))  # noqa: E731
        self.steps = [
            CliStep(
                "zdb_construct",
                ["zdb", "construct", "product", "--ring", "@" + rel(ring_path), "--g", g, "--h", h],
                fn,
                [ring_path],
            ),
            CliStep("zdb_verify", ["zdb", "verify", "--in", rel(fn)], d / "verify.json", [fn]),
            CliStep("codes_ccc", ["codes", "ccc", "--in", rel(fn)], ccc, [fn]),
            CliStep(
                "check_bounds_ccc", ["codes", "check-bounds", "--in", rel(ccc)],
                d / "ccc_bounds.json", [ccc],
            ),
            CliStep("codes_dss", ["codes", "dss", "--in", rel(fn)], dss, [fn]),
            CliStep(
                "check_bounds_dss", ["codes", "check-bounds", "--in", rel(dss)],
                d / "dss_bounds.json", [dss],
            ),
        ]


def _swap_two_classes(fn: ZdbFunction, rng: random.Random) -> ZdbFunction:
    """Swap the symbols at one seeded position of each of two seeded symbol classes."""
    b1, b2 = rng.sample(range(fn.q), 2)
    x = rng.choice([i for i, s in enumerate(fn.table) if s == b1])
    y = rng.choice([i for i, s in enumerate(fn.table) if s == b2])
    table = list(fn.table)
    table[x], table[y] = b2, b1
    return ZdbFunction(fn.domain, fn.q, table, fn.claimed_lambda)


def _first_unbalanced_shift(fn: ZdbFunction) -> tuple[int, int] | None:
    """Recount every shift directly from the table; smallest offending shift."""
    domain = fn.domain
    table = np.asarray(fn.table)
    shifts = [d for d in range(domain.order) if d != domain.identity]
    counts = (table[domain.shift_rows(shifts)] == table[None, :]).sum(axis=1)
    bad = np.flatnonzero(counts != fn.claimed_lambda)
    if bad.size == 0:
        return None
    return shifts[bad[0]], int(counts[bad[0]])


class Scan(Workload):
    # (label, ring, g, h): generators frozen from the seed catalog search
    LADDER = (
        ("gf121_e6", lambda: GaloisField(11, 2), 39, 3),
        ("m2f5_e4", lambda: MatrixRing(2, GaloisField(5, 1)), 378, 49),
        ("gf841_e4", lambda: GaloisField(29, 2), 12, 29),
    )

    def setup(self):
        ladder = self.LADDER[:1] if self.smoke else self.LADDER
        self.instances = [(label, make(), g, h) for label, make, g, h in ladder]
        _, ring, g, h = self.instances[0]
        groups = (zdbkit.cyclic_subgroup(ring, g), zdbkit.cyclic_subgroup(ring, h))
        base = zdbkit.construct_product(ring, *groups)
        rng = random.Random(self.seed)
        while True:
            self.corrupted = _swap_two_classes(base, rng)
            witness = _first_unbalanced_shift(self.corrupted)
            if witness is not None:
                break
        self.witness = witness

    def run(self, tracer):
        ops = []
        for label, ring, g, h in self.instances:
            try:
                groups = (zdbkit.cyclic_subgroup(ring, g), zdbkit.cyclic_subgroup(ring, h))
                fn = zdbkit.construct_product(ring, *groups)
                res = zdbkit.verify_zdb(fn)
                dss = zdbkit.dss_from_zdb(fn, res)
                ops.append((label, (res, dss, zdbkit.dss_report(dss))))
            except Exception as exc:  # recorded as a failed operation
                ops.append((label, exc))
        try:
            ops.append(("negative_control", zdbkit.verify_zdb(self.corrupted)))
        except Exception as exc:
            ops.append(("negative_control", exc))
        return ops

    def facts(self, key, raw):
        if key == "negative_control":
            return raw.to_json()
        res, dss, report = raw
        return {
            "parameters": list(res.certified_parameters()),
            "dss": {"lambda": dss.lam, "perfect": dss.perfect, "q": dss.q, "tau": dss.tau},
            "bound": report.to_json(),
        }

    def expected(self, key, golden):
        if key != "negative_control":
            return golden.get(key)
        shift, count = self.witness
        lam = self.corrupted.claimed_lambda
        return {
            "ok": False, "n": self.corrupted.n, "failure": "spectrum",
            "witness_shift": shift, "expected": lam, "actual": count,
        }


WORKLOADS = {"certify": Certify, "files": Files, "scan": Scan}


def _check(work: Workload, ops, golden: dict, record: dict | None) -> list[str]:
    """Compare each operation's facts with what is expected; return failure notes."""
    failures = []
    for key, raw in ops:
        if isinstance(raw, Exception):
            failures.append(f"{key}: raised {raw!r}")
            continue
        try:
            facts = work.facts(key, raw)
        except Exception as exc:
            failures.append(f"{key}: output unreadable: {exc!r}")
            continue
        if record is not None and key != "negative_control":
            record[key] = facts
            continue
        want = work.expected(key, golden)
        if facts != want:
            failures.append(f"{key}: got {json.dumps(facts)[:300]} expected {json.dumps(want)[:300]}")
    return failures


def _counters(tracer: Tracer, steps: list[dict]) -> dict:
    """Computed work counters of the traced pass; they must repeat exactly."""
    c = tracer.counts
    out = {name: c.get(name, 0) for name in COMPUTED_COUNTS}
    hits = c.get("catalog.find_element_of_order.hits", 0)
    tries = c.get("catalog.find_element_of_order.tries", 0)
    out["catalog.find_element_of_order.tries_per_hit"] = tries / hits if hits else 0.0
    out["cli.bytes_read"] = sum(rec["bytes_read"] for rec in steps)
    out["cli.bytes_written"] = sum(rec["bytes_written"] for rec in steps)
    return out


def _layers(tracer: Tracer, wall: float, untraced: float, steps: list[dict]) -> dict:
    spans = tracer.to_json()["spans"]
    selfs = self_times(spans)
    out = {f"{name}.self_pct": 100 * selfs.get(name, 0.0) / wall for name in LAYER_SPANS}
    by_step = {rec["name"]: rec for rec in steps}
    out["cli.start.pct"] = 100 * sum(rec["start_s"] for rec in steps) / wall
    for name in CLI_STEPS:
        rec = by_step.get(name)
        out[f"cli.step.{name}.pct"] = 100 * rec["wall"] / wall if rec else 0.0
        out[f"cli.step.{name}.rss_mb"] = rec["rss_kb"] / 1024 if rec else 0.0
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] == 0)  # children of bench.pass
    out["trace.covered_pct"] = 100 * top / wall
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - untraced
    return out


def _timed_pass(work: Workload, tracer: Tracer | None) -> tuple[float, list]:
    """One pass; under a tracer the pass is the root span and in-process calls are wrapped."""
    patched = tracer is not None and not work.cli
    gc.collect()  # every pass starts from the same heap, without the last pass's results
    if patched:
        tracer.install()
    try:
        root = tracer.open("bench.pass") if tracer is not None else None
        start = now()
        ops = work.run(tracer)
        wall = now() - start
        if tracer is not None:
            tracer.close(root)
    finally:
        if patched:
            tracer.uninstall()
    return wall, ops


def measure(work: Workload, args, golden: dict) -> dict:
    walls, failures, out_bytes, rss_kb = [], [], [], []
    attempted = 0
    record = {} if args.record else None
    run_start = now()
    while not walls or (not args.trace and now() - run_start < args.seconds):
        ops = None
        wall, ops = _timed_pass(work, None)
        walls.append(wall)
        attempted += len(ops)
        failures += _check(work, ops, golden, record)
        if work.cli:
            out_bytes.append(sum(rec["bytes_written"] for _, rec in ops))
            rss_kb.append(max(rec["rss_kb"] for _, rec in ops))
    result = {
        "walls": walls,
        "out_bytes": out_bytes,
        "cli_peak_rss_kb": max(rss_kb) if rss_kb else None,
    }
    if args.trace:
        run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
        tracer = Tracer(run_id)
        ops = None
        wall, ops = _timed_pass(work, tracer)
        attempted += len(ops)
        failures += _check(work, ops, golden, None)
        steps = [rec for _, rec in ops] if work.cli else []
        counters = _counters(tracer, steps)
        attempted += 1
        counts_path = work.workdir.parent / f"counts-{_golden_key(args)}-{_code_digest()}.json"
        failures += _check_counts_repeat(counts_path, counters)
        result["layers"] = {**_layers(tracer, wall, walls[0], steps), **counters}
        trace_path = work.workdir.parent / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.to_json()))
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    if record is not None:
        _record(args, record)
    result.update(attempted=attempted, failed=len(failures), failures=failures)
    return result


def _code_digest() -> str:
    """Digest of the library and benchmark sources: counters are compared per code version."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "zdbkit").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_counts_repeat(path: Path, counts: dict) -> list[str]:
    """Computed counters must repeat exactly across traced runs of the same code."""
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            return [f"computed counters changed between runs: {before} -> {counts}"]
    path.write_text(json.dumps(counts, sort_keys=True))
    return []


def _golden_key(args) -> str:
    return f"{args.workload}.smoke" if args.smoke else args.workload


def _record(args, facts: dict) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[_golden_key(args)] = facts
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true", help="smallest instance of the workload")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true", help="write observed outputs to golden.json")
    args = ap.parse_args(argv)
    if not Path(zdbkit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"zdbkit imported from {zdbkit.__file__}, not from ./src", file=sys.stderr)
        return 2
    args.dir.mkdir(parents=True, exist_ok=True)
    work = WORKLOADS[args.workload](args.dir.resolve(), args.seed, args.smoke)
    work.setup()
    ready = now()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    golden = json.loads(GOLDEN.read_text()).get(_golden_key(args), {}) if GOLDEN.exists() else {}
    result = measure(work, args, golden)
    result["ready"] = ready
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
