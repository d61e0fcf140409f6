"""Batch command line front end.

Every subcommand reads declared flags and files only, runs the library
sequentially, and writes data to --out (or standard output) with
diagnostics on standard error.  Identical invocations produce
byte-identical output: there is no timestamp, no randomness, and every
collection is emitted in a fixed order.

Exit codes: 0 success or certified, 1 a verification or certification
check failed (a witness is reported), 2 usage errors, malformed input,
refused oversized work, or memory that cannot be allocated.  ``main``
maps each exception type to its code in one table, ``_EXIT_CODES``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .catalog import (
    RECIPE_IDS,
    Recipe,
    certify_all,
    default_catalog,
    run_recipe,
    search_cor1,
    search_cor2_scan,
)
from .codes import (
    CodeBook,
    CodewordDecoder,
    DssSystem,
    _shared_composition,
    ccc_from_zdb,
    ccc_report,
    cwc_from_zdb,
    cwc_report,
    distance_range,
    dss_from_zdb,
    dss_perfect_check,
    dss_report,
    matrix_json,
)
from .construct import (
    ZdbFunction,
    construct_doubled,
    construct_generic,
    construct_product,
)
from .cosets import coset_partition, cyclic_subgroup, subgroup_from_elements
from .errors import CertificationError, OversizedError, VerificationError, ZdbError
from .rings import Ring, ring_from_json
from .verify import VerificationResult, verify_zdb

# refuse more than ORDER_LIMIT**2 elementary steps unless --force is passed.
# A step is one in-class pair of the difference kernel (the sum of squared
# symbol multiplicities) for verify, dss and the text format of ccc and
# cwc, one entry of the n x n codeword matrix for ccc and cwc in json or
# csv, which write it, and one same-symbol row pair of a column (the sum
# of squared class sizes) for check-bounds on a codebook.
ORDER_LIMIT = 10_000


class _UsageError(ZdbError):
    pass


def _dumps(obj, codewords: np.ndarray | None = None) -> str:
    """Compact JSON; a given codeword matrix is rendered by ``matrix_json``
    into the "codewords" slot, which obj holds as None."""
    text = json.dumps(obj, separators=(",", ":"))
    if codewords is None:
        return text
    head, _, tail = text.partition('"codewords":null')
    parts = [head.encode(), b'"codewords":', *matrix_json(codewords), tail.encode()]
    return b"".join(parts).decode("ascii")


def _write(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_text(value: str) -> str:
    """Inline payload, or the contents of a file when prefixed with @."""
    if value.startswith("@"):
        with open(value[1:], encoding="utf-8") as fh:
            return fh.read()
    return value


def _ring_arg(value: str) -> Ring:
    return ring_from_json(json.loads(_load_text(value)))


def _subgroup_arg(ring: Ring, spec: str):
    """A single generator index, or a comma separated element list."""
    if "," in spec:
        elems = [int(tok) for tok in spec.split(",") if tok.strip()]
        return subgroup_from_elements(ring, elems)
    return cyclic_subgroup(ring, int(spec))


def _load_fn(path: str) -> ZdbFunction:
    with open(path, encoding="utf-8") as fh:
        return ZdbFunction.from_json(json.load(fh))


def _guard(fn: ZdbFunction, matrix: bool, force: bool) -> None:
    if matrix:
        cost, what = fn.n * fn.n, "codeword matrix entries"
    else:
        # over the symbols that occur: the claimed q may be far larger than the table
        multiplicity = np.unique(fn.table, return_counts=True)[1]
        cost, what = int(multiplicity @ multiplicity), "in-class pairs"
    if cost > ORDER_LIMIT**2 and not force:
        raise _UsageError(
            f"instance of order {fn.n} needs {cost:,} {what}, over the limit of "
            f"{ORDER_LIMIT**2:,}; pass --force to run anyway"
        )


def _failure_note(res: VerificationResult) -> str:
    if res.failure_kind == "image":
        return (
            f"image size mismatch: the table uses {res.actual} distinct symbols, "
            f"expected {res.expected}"
        )
    return f"shift {res.witness_shift} has {res.actual} coincidences, expected {res.expected}"


def _zdb_text(n: int, m: int, lam: int) -> str:
    return f"({n}, {m}, {lam}) ZDB\n"


def _emit_zdb(args, fn: ZdbFunction) -> None:
    if args.format == "text":
        _write(args, _zdb_text(*fn.claimed_parameters()))
    elif args.format == "json":
        _write(args, _dumps(fn.to_json()) + "\n")
    else:
        raise _UsageError("csv output is not defined for this command")


def _cmd_ring_info(args) -> int:
    ring = _ring_arg(args.ring)
    units = ring.unit_count()
    spec = ring.to_json()
    info = {
        "kind": spec["kind"],
        "order": ring.order,
        "commutative": ring.is_commutative(),
        "units": units,
        "spec": spec,
    }
    if args.format == "text":
        _write(
            args,
            f"{spec['kind']} ring of order {ring.order}, {units} units, "
            f"{'commutative' if info['commutative'] else 'noncommutative'}\n",
        )
    elif args.format == "json":
        _write(args, _dumps(info) + "\n")
    else:
        raise _UsageError("csv output is not defined for this command")
    return 0


def _cmd_cosets_partition(args) -> int:
    ring = _ring_arg(args.ring)
    group = _subgroup_arg(ring, args.g)
    part = coset_partition(ring, group)
    if args.format == "text":
        _write(
            args,
            f"order {ring.order}: zero class plus {len(part.nonzero_reps)} "
            f"cosets of size {group.order}\n",
        )
    elif args.format == "json":
        _write(args, _dumps(part.to_json()) + "\n")
    else:
        raise _UsageError("csv output is not defined for this command")
    return 0


def _cmd_zdb_construct(args) -> int:
    ring = _ring_arg(args.ring)
    group = _subgroup_arg(ring, args.g)
    if args.mode == "generic":
        fn = construct_generic(ring, group)
    elif args.mode == "doubled":
        fn = construct_doubled(ring, group)
    else:
        if args.h is None:
            raise _UsageError("the product construction needs --h")
        fn = construct_product(ring, group, _subgroup_arg(ring, args.h))
    _emit_zdb(args, fn)
    return 0


def _cmd_zdb_verify(args) -> int:
    fn = _load_fn(args.input)
    _guard(fn, matrix=False, force=args.force)
    res = verify_zdb(fn)
    if not res.ok:
        print(f"verification failed: {_failure_note(res)}", file=sys.stderr)
        _write(args, _dumps(res.to_json()) + "\n")
        return 1
    if args.format == "text":
        _write(args, _zdb_text(res.n, res.m, res.lam))
    elif args.format == "json":
        _write(args, _dumps({"n": res.n, "m": res.m, "lambda": res.lam}) + "\n")
    else:
        raise _UsageError("csv output is not defined for this command")
    return 0


def _cmd_codes(args) -> int:
    fn = _load_fn(args.input)
    _guard(fn, matrix=args.kind != "dss" and args.format != "text", force=args.force)
    res = verify_zdb(fn)
    if not res.ok:
        print(
            f"refusing to derive a code from an unverified table: {_failure_note(res)}",
            file=sys.stderr,
        )
        return 1
    if args.kind == "dss":
        system = dss_from_zdb(fn, res)
        if args.format == "json":
            _write(args, _dumps(system.to_json()) + "\n")
        elif args.format == "csv":
            _write(args, system.to_csv())
        else:
            _write(
                args,
                f"DSS q={system.q} tau={system.tau} lambda={system.lam} "
                f"perfect={str(system.perfect).lower()}\n",
            )
        return 0
    book = (ccc_from_zdb if args.kind == "ccc" else cwc_from_zdb)(fn, res)
    if args.format == "json":
        _write(args, _dumps(book.to_json(codewords=False), book.codewords) + "\n")
    elif args.format == "csv":
        _write(args, book.to_csv())
    else:
        tail = f" w={book.weight}" if book.kind == "CWC" else ""
        _write(args, f"({book.n}, {book.M}, {book.d}) {book.kind} q={book.q}{tail}\n")
    return 0


def _recheck_codebook(book: CodeBook, force: bool) -> list[str]:
    """Recompute everything the stored book claims; return mismatch notes."""
    words = book.codewords
    if words.shape != (book.M, book.n):
        return [f"codeword matrix is {words.shape}, header says ({book.M}, {book.n})"]
    outside = np.flatnonzero((words < 0) | (words >= book.q))
    if outside.size:
        r, y = divmod(int(outside[0]), book.n)
        return [
            f"row {r} column {y} has symbol {words[r, y]} outside the alphabet "
            f"of size {book.q}"
        ]
    try:
        d, d_max = distance_range(words, max_pairs=None if force else ORDER_LIMIT**2)
    except OversizedError as exc:
        raise _UsageError(f"{exc}; pass --force to run anyway") from None
    problems = []
    if (d, d_max) != (book.d, book.d_max):
        problems.append(
            f"stored distances ({book.d}, {book.d_max}) but recomputed ({d}, {d_max})"
        )
    # every symbol is below q, so counts past the largest one are zeros; an
    # alphabet wider than the matrix is counted over the symbols that occur
    top = int(words.max()) + 1 if words.size else 1
    if top <= words.size:
        symbols, index = range(top), words
    else:
        symbols, index = np.unique(words, return_inverse=True)
        symbols, index = symbols.tolist(), index.reshape(words.shape)
    shared = _shared_composition(index, len(symbols))
    if shared is None:
        problems.append("codewords do not share one composition")
    elif book.composition is not None:
        composition = dict(zip(symbols, shared.tolist()))
        if len(book.composition) != book.q or any(
            w != composition.get(s, 0) for s, w in enumerate(book.composition)
        ):
            problems.append("stored composition differs from the codewords")
    if book.kind == "CWC":
        weights = np.count_nonzero(words, axis=1)
        if book.weight is None or (weights != book.weight).any():
            problems.append("stored weight differs from the codewords")
    return problems


def _recheck_dss(system: DssSystem) -> list[str]:
    """Recompute the counts and coverage the stored system claims; return
    mismatch notes."""
    try:
        chk = dss_perfect_check(system)
    except RuntimeError as exc:  # overlapping blocks
        return [str(exc)]
    problems = []
    q, tau, partitioned = system.recount()
    if (system.q, system.tau) != (q, tau):
        problems.append(f"stored q={system.q} tau={system.tau} but recounted q={q} tau={tau}")
    # lambda is the minimum coverage, as dss_from_zdb writes it, perfect or not
    if chk.lam_min != system.lam or chk.perfect != system.perfect:
        problems.append(
            f"stored lambda={system.lam} perfect={system.perfect} but recomputed "
            f"lambda={chk.lam_min} perfect={chk.perfect}"
        )
    if system.partitioned and not partitioned:
        problems.append("blocks marked partitioned do not cover the group")
    return problems


def _print_failures(problems: list[str]) -> None:
    for note in problems:
        print(f"check failed: {note}", file=sys.stderr)


def _cmd_check_bounds(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        data = json.loads(fh.read(), cls=CodewordDecoder)
    if not isinstance(data, dict):
        raise _UsageError(f"the payload must be a JSON object, not {type(data).__name__}")
    kind = data.get("kind")
    if kind in ("CCC", "CWC"):
        book = CodeBook.from_json(data)
        del data  # parsed lists, when the matrix was not canonical, take several times its memory
        problems = _recheck_codebook(book, args.force)
        report = ccc_report(book) if kind == "CCC" else cwc_report(book)
    elif kind == "DSS":
        system = DssSystem.from_json(data)
        problems = _recheck_dss(system)
        if system.lam is None or not system.perfect:
            _print_failures(problems + ["the system is not perfect, so no bound applies"])
            return 1
        report = dss_report(system)
    else:
        raise _UsageError(f"unrecognized payload kind {kind!r}")
    ok = not problems and report.applicable and report.optimal
    if not report.applicable or not report.optimal:
        problems.append(f"{kind} bound not met with equality")
    _print_failures(problems)
    out = dict(report.to_json())
    out["checked"] = ok
    if args.format == "text":
        _write(
            args,
            f"{kind} bound {report.bound_num}/{report.bound_den} achieved "
            f"{report.achieved} optimal {str(report.optimal).lower()}\n",
        )
    elif args.format == "json":
        _write(args, _dumps(out) + "\n")
    else:
        raise _UsageError("csv output is not defined for this command")
    return 0 if ok else 1


def _result_lines(args, results) -> str:
    if args.format == "text":
        return "".join(
            _zdb_text(*r.certified).rstrip("\n") + f"  {r.label}\n" for r in results
        )
    if args.format == "json":
        return "".join(_dumps(r.to_json()) + "\n" for r in results)
    raise _UsageError("csv output is not defined for this command")


def _cmd_catalog_search(args) -> int:
    if args.construction == "cor1":
        results = search_cor1(args.max, args.e)
    else:
        results = search_cor2_scan(args.max, args.e)
    _write(args, _result_lines(args, results))
    return 0


def _cmd_catalog_recipe(args) -> int:
    params = json.loads(_load_text(args.params))
    result = run_recipe(Recipe(args.id, params))
    _write(args, _result_lines(args, [result]))
    return 0


def _cmd_catalog_certify(args) -> int:
    results = default_catalog()
    if args.max_order is not None:
        results = [r for r in results if r.certified[0] <= args.max_order]
    report = certify_all(results)
    if args.format == "text":
        body = "".join(
            _zdb_text(*row["parameters"]).rstrip("\n") + f"  {row['label']}\n"
            for row in report.rows
        )
    elif args.format == "json":
        body = "".join(_dumps(row) + "\n" for row in report.rows)
    else:
        raise _UsageError("csv output is not defined for this command")
    _write(args, body)
    print(report.summary(), file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write data to this file instead of standard output")
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="json", help="output format"
    )
    common.add_argument(
        "--force", action="store_true", help="run even when the instance is oversized"
    )

    parser = argparse.ArgumentParser(
        prog="zdbkit",
        description="construct, verify, and certify zero difference balanced functions",
    )
    top = parser.add_subparsers(dest="command", required=True)

    ring = top.add_parser("ring", help="ring inspection").add_subparsers(
        dest="subcommand", required=True
    )
    p = ring.add_parser("info", parents=[common], help="summarize a ring")
    p.add_argument("--ring", required=True, help="ring JSON, or @file")
    p.set_defaults(handler=_cmd_ring_info)

    cosets = top.add_parser("cosets", help="coset structure").add_subparsers(
        dest="subcommand", required=True
    )
    p = cosets.add_parser("partition", parents=[common], help="partition by a unit subgroup")
    p.add_argument("--ring", required=True, help="ring JSON, or @file")
    p.add_argument("--g", required=True, help="generator index, or comma separated elements")
    p.set_defaults(handler=_cmd_cosets_partition)

    zdb = top.add_parser("zdb", help="construct and verify").add_subparsers(
        dest="subcommand", required=True
    )
    p = zdb.add_parser("construct", parents=[common], help="build a table")
    p.add_argument("mode", choices=("generic", "product", "doubled"))
    p.add_argument("--ring", required=True, help="ring JSON, or @file")
    p.add_argument("--g", required=True, help="generator index, or comma separated elements")
    p.add_argument("--h", help="second subgroup for the product construction")
    p.set_defaults(handler=_cmd_zdb_construct)
    p = zdb.add_parser("verify", parents=[common], help="exhaustive spectrum scan")
    p.add_argument("--input", "--in", dest="input", required=True, help="function JSON file")
    p.set_defaults(handler=_cmd_zdb_verify)

    codes = top.add_parser("codes", help="derived codes and designs").add_subparsers(
        dest="subcommand", required=True
    )
    for kind in ("ccc", "cwc", "dss"):
        p = codes.add_parser(kind, parents=[common], help=f"derive the {kind.upper()}")
        p.add_argument("--input", "--in", dest="input", required=True, help="function JSON file")
        p.set_defaults(handler=_cmd_codes, kind=kind)
    p = codes.add_parser("check-bounds", parents=[common], help="recheck a stored certificate")
    p.add_argument("--input", "--in", dest="input", required=True, help="code or DSS JSON file")
    p.set_defaults(handler=_cmd_check_bounds)

    catalog = top.add_parser("catalog", help="recipe book").add_subparsers(
        dest="subcommand", required=True
    )
    p = catalog.add_parser("search", parents=[common], help="scan admissible parameters")
    p.add_argument("--construction", choices=("cor1", "cor2"), required=True)
    p.add_argument("--e", type=int, required=True, help="subgroup order")
    p.add_argument("--max", type=int, required=True, help="largest ring (or field) order")
    p.set_defaults(handler=_cmd_catalog_search)
    p = catalog.add_parser("recipe", parents=[common], help="run one named recipe")
    p.add_argument("--id", choices=RECIPE_IDS, required=True)
    p.add_argument("--params", required=True, help="recipe parameters as JSON, or @file")
    p.set_defaults(handler=_cmd_catalog_recipe)
    p = catalog.add_parser("certify", parents=[common], help="certify the built-in catalog")
    p.add_argument("--all", action="store_true", required=True)
    p.add_argument("--max-order", type=int, help="skip instances larger than this")
    p.set_defaults(handler=_cmd_catalog_certify)

    return parser


# the exit code of each exception reported as an "error:" line; the first match counts
_EXIT_CODES = {
    (VerificationError, CertificationError): 1,
    (ZdbError, ValueError, KeyError, OSError, RecursionError, MemoryError): 2,
}
_REPORTED = tuple(kind for kinds in _EXIT_CODES for kind in kinds)


def _error_message(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"malformed JSON at line {exc.lineno} column {exc.colno} (char {exc.pos}): {exc.msg}"
    if isinstance(exc, RecursionError):
        return "the JSON input nests too deeply to read"
    return str(exc)  # an OSError names its path


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _REPORTED as exc:
        print(f"error: {_error_message(exc)}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES.items() if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
