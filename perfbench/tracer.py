"""Spans and work counters recorded around calls into zdbkit.

The tracer wraps the public functions of each zdbkit module from the
outside: every module attribute that is the original function object is
rebound to the wrapper, so internal calls such as
``zdbkit.catalog.verify_zdb`` or ``zdbkit.cli.distance_range`` are caught
too.  Ring and domain methods are patched on their classes.  Hot scalar
ring methods only count calls; everything else records a span (id,
name, start, end, parent, run id) in memory.  Work counters are computed
from argument sizes or return values, never timed, so they repeat
exactly from run to run.

Run as a script it executes one zdbkit command line under the tracer and
writes the spans to a JSON file:

    python3 perfbench/tracer.py --spans OUT.json --run-id ID -- zdb verify --in f.json
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time

now = functools.partial(time.clock_gettime, time.CLOCK_MONOTONIC)

# (module, function) -> span name; the bound arithmetic shares one name
SPANNED_FUNCTIONS = {
    ("catalog", "default_catalog"): "catalog.default_catalog",
    ("catalog", "certify_all"): "catalog.certify_all",
    ("catalog", "find_element_of_order"): "catalog.find_element_of_order",
    ("cosets", "cyclic_subgroup"): "cosets.cyclic_subgroup",
    ("cosets", "coset_partition"): "cosets.coset_partition",
    ("construct", "construct_generic"): "construct.construct_generic",
    ("construct", "construct_product"): "construct.construct_product",
    ("construct", "construct_doubled"): "construct.construct_doubled",
    ("verify", "verify_zdb"): "verify.verify_zdb",
    ("verify", "composition_profile"): "verify.composition_profile",
    ("codes", "ccc_from_zdb"): "codes.ccc_from_zdb",
    ("codes", "cwc_from_zdb"): "codes.cwc_from_zdb",
    ("codes", "dss_from_zdb"): "codes.dss_from_zdb",
    ("codes", "dss_perfect_check"): "codes.dss_perfect_check",
    ("codes", "distance_range"): "codes.distance_range",
    ("codes", "ccc_bound"): "codes.bounds",
    ("codes", "cwc_bound"): "codes.bounds",
    ("codes", "dss_bound"): "codes.bounds",
    ("codes", "ccc_report"): "codes.bounds",
    ("codes", "cwc_report"): "codes.bounds",
    ("codes", "dss_report"): "codes.bounds",
    ("cli", "_dumps"): "cli.json_encode",
}

# (class, method) -> span name; from_json/to_json are the JSON boundary
SPANNED_METHODS = {
    ("rings", "ResidueRing", "add_vec"): "rings.add_vec",
    ("rings", "GaloisField", "add_vec"): "rings.add_vec",
    ("rings", "ProductRing", "add_vec"): "rings.add_vec",
    ("rings", "MatrixRing", "add_vec"): "rings.add_vec",
    ("domains", "RingAdditiveDomain", "shift_rows"): "domains.shift_rows",
    ("domains", "RingTimesGroupDomain", "shift_rows"): "domains.shift_rows",
    ("domains", "RingAdditiveDomain", "op_vec"): "domains.op_vec",
    ("domains", "RingTimesGroupDomain", "op_vec"): "domains.op_vec",
    ("construct", "ZdbFunction", "to_json"): "cli.json_encode",
    ("codes", "CodeBook", "to_json"): "cli.json_encode",
    ("codes", "DssSystem", "to_json"): "cli.json_encode",
    ("construct", "ZdbFunction", "from_json"): "cli.json_decode",
    ("codes", "CodeBook", "from_json"): "cli.json_decode",
    ("codes", "DssSystem", "from_json"): "cli.json_decode",
}

# scalar ring methods: call counts only, a span per call would dwarf them
COUNTED_METHODS = {"mul": "rings.mul.calls", "try_invert": "rings.try_invert.calls"}
RING_CLASSES = ("ResidueRing", "GaloisField", "ProductRing", "MatrixRing")

MODULES = ("rings", "cosets", "domains", "construct", "verify", "codes", "catalog", "cli")


def _distance_work(args, kwargs, result):
    m, n = args[0].shape
    return {"codes.distance_range.cmp": m * (m - 1) // 2 * n}


def _verify_work(args, kwargs, result):
    n = args[0].n
    return {"verify.verify_zdb.pairs": n * (n - 1)}


def _dss_work(args, kwargs, result):
    sizes = [len(b) for b in args[0].blocks]
    tau = sum(sizes)
    return {"codes.dss_perfect_check.pairs": tau * tau - sum(w * w for w in sizes)}


def _search_work(args, kwargs, result):
    # candidates are scanned upward from index 1, so the answer is the try count
    ring = args[0]
    return {
        "catalog.find_element_of_order.tries": result if result is not None else ring.order - 1,
        "catalog.find_element_of_order.hits": int(result is not None),
    }


WORK = {
    "codes.distance_range": _distance_work,
    "verify.verify_zdb": _verify_work,
    "codes.dss_perfect_check": _dss_work,
    "catalog.find_element_of_order": _search_work,
}


class Tracer:
    """In-memory spans and counters for one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str, parent: int | None = None) -> int:
        sid = len(self.spans)
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append([sid, name, now(), None, parent])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = now()
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if work is not None:
                self.counts.update(work(args, kwargs, result))
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every traced name in every zdbkit module and class."""
        import importlib
        import types

        import zdbkit

        mods = {m: importlib.import_module(f"zdbkit.{m}") for m in MODULES}
        namespaces = [zdbkit, *mods.values()]
        for (mod, fname), name in SPANNED_FUNCTIONS.items():
            orig = getattr(mods[mod], fname)
            wrapped = self._span_wrapper(name, orig)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        self._set(ns, attr, wrapped)
        for (mod, cls_name, meth), name in SPANNED_METHODS.items():
            cls = getattr(mods[mod], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                self._set(cls, meth, staticmethod(self._span_wrapper(name, raw.__func__)))
            else:
                self._set(cls, meth, self._span_wrapper(name, raw))
        for cls_name in RING_CLASSES:
            cls = getattr(mods["rings"], cls_name)
            for meth, name in COUNTED_METHODS.items():
                self._set(cls, meth, self._count_wrapper(name, cls.__dict__[meth]))
        real_json = mods["cli"].json
        proxy = types.SimpleNamespace(
            load=self._span_wrapper("cli.json_decode", real_json.load),
            loads=self._span_wrapper("cli.json_decode", real_json.loads),
            dumps=real_json.dumps,
            JSONDecodeError=real_json.JSONDecodeError,
        )
        self._set(mods["cli"], "json", proxy)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p, "run_id": self.run_id}
                for i, n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: total duration minus the part covered by direct children."""
    child = collections.defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = collections.defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
    return dict(out)


def _main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts = dict(zip(argv[:sep:2], argv[1:sep:2]))
    import zdbkit.cli

    tracer = Tracer(opts["--run-id"])
    tracer.install()
    entered = now()
    sid = tracer.open("cli.main")
    try:
        rc = zdbkit.cli.main(argv[sep + 1 :])
    finally:
        tracer.close(sid)
        tracer.uninstall()
        data = tracer.to_json()
        data["main_entered"] = entered
        with open(opts["--spans"], "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    return rc


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
