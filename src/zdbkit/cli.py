"""Batch command line front end.

Every subcommand reads declared flags and files only, runs the library
sequentially, and writes data to --out (or standard output) with
diagnostics on standard error.  Identical invocations produce
byte-identical output: there is no timestamp, no randomness, and every
collection is emitted in a fixed order.  ``codes check-bounds`` prints the
notes of a stored design's own ``recheck`` and keeps no rule of its own.

Exit codes: 0 success or certified, 1 a verification or certification
check failed (a witness is reported), 2 usage errors, malformed input,
refused oversized work, or memory that cannot be allocated.  ``main``
maps each exception type to its code in one table, ``_EXIT_CODES``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import TYPE_CHECKING, Iterable

# zdbkit calls no BLAS routine, so numpy need not start a thread per core; a set value is kept
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .errors import CertificationError, OversizedError, VerificationError, ZdbError

# each command imports the library modules it runs inside its handler, so a
# process loads (and, without a bytecode cache, compiles) only those
if TYPE_CHECKING:
    from .function import ZdbFunction
    from .rings import Ring
    from .verify import VerificationResult

# refuse more than ORDER_LIMIT**2 elementary steps unless --force is passed.
# A step is one in-class pair of the difference kernel (the sum of squared
# symbol multiplicities) for verify, dss and the text format of ccc and
# cwc, one entry of the n x n codeword matrix for ccc and cwc in json or
# csv, which write it, one same-symbol row pair of a column (the sum of
# squared class sizes) for check-bounds on a codebook, as well as one pair of
# rows when it has more rows than columns, and one entry of a subgroup's e x e
# product table or of a partition's e x n one for cosets, zdb construct,
# catalog recipe and each candidate of catalog search.
ORDER_LIMIT = 10_000


class _UsageError(ZdbError):
    pass


def _dumps(obj, key: str | None = None, value: Iterable[bytes] = ()) -> Iterable[bytes]:
    """Compact JSON of obj and a newline, as byte parts.  With a key, obj
    holds None there and the value's text is the given parts, a matrix or
    block list that its owner renders one band at a time."""
    text = json.dumps(obj, separators=(",", ":")) + "\n"
    if key is None:
        return [text.encode()]
    head, _, tail = text.partition(f'"{key}":null')
    return itertools.chain([f'{head}"{key}":'.encode()], value, [tail.encode()])


def _write(args, parts: str | Iterable[bytes]) -> None:
    """Send text, or byte parts as they come, to --out or to standard output;
    the stream is flushed, so a later line on standard error comes after them."""
    if isinstance(parts, str):
        parts = [parts.encode()]
    if getattr(args, "out", None):
        with open(args.out, "wb") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.writelines(parts)
        sys.stdout.buffer.flush()


def _load_text(value: str) -> str:
    """Inline payload, or the contents of a file when prefixed with @."""
    if value.startswith("@"):
        with open(value[1:], encoding="utf-8") as fh:
            return fh.read()
    return value


def _ring_arg(value: str) -> Ring:
    from .rings import ring_from_json

    return ring_from_json(json.loads(_load_text(value)))


def _table_limit(args) -> int | None:
    return None if args.force else ORDER_LIMIT**2


def _subgroup_arg(args, ring: Ring, flag: str):
    """The subgroup that --g or --h gives: a single generator index, or a
    comma separated element list."""
    from .cosets import cyclic_subgroup, subgroup_from_elements

    spec = getattr(args, flag)
    try:
        indices = [int(tok) for tok in spec.split(",")]
    except ValueError:
        raise _UsageError(
            f"--{flag} must be a generator index or comma separated element indices, "
            f"got {spec!r}"
        ) from None
    if "," in spec:
        return subgroup_from_elements(ring, indices, _table_limit(args))
    return cyclic_subgroup(ring, indices[0], _table_limit(args))


def _load_fn(path: str) -> ZdbFunction:
    from .function import ZdbFunction

    with open(path, encoding="utf-8") as fh:
        return ZdbFunction.from_json(json.load(fh))


def _guard(fn: ZdbFunction, matrix: bool, force: bool) -> None:
    if matrix:
        cost, what = fn.n * fn.n, "codeword matrix entries"
    else:
        # over the symbols that occur: the claimed q may be far larger than the table
        from .domains import _run_sizes

        multiplicity = _run_sizes(fn.grouping[1]).astype(np.int64)
        cost, what = int(multiplicity @ multiplicity), "in-class pairs"
    if cost > ORDER_LIMIT**2 and not force:
        raise OversizedError(
            f"instance of order {fn.n} needs {cost:,} {what}, over the limit of "
            f"{ORDER_LIMIT**2:,}"
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
    else:
        _write(args, _dumps(info))
    return 0


def _cmd_cosets_partition(args) -> int:
    from .cosets import coset_partition

    ring = _ring_arg(args.ring)
    group = _subgroup_arg(args, ring, "g")
    part = coset_partition(ring, group, _table_limit(args))
    if args.format == "text":
        _write(
            args,
            f"order {ring.order}: zero class plus {len(part.rep_array) - 1} "
            f"cosets of size {group.order}\n",
        )
    else:
        _write(args, _dumps(part.to_json()))
    return 0


def _cmd_zdb_construct(args) -> int:
    from .construct import construct_doubled, construct_generic, construct_product

    ring = _ring_arg(args.ring)
    group = _subgroup_arg(args, ring, "g")
    if args.mode == "generic":
        fn = construct_generic(ring, group, _table_limit(args))
    elif args.mode == "doubled":
        fn = construct_doubled(ring, group, _table_limit(args))
    else:
        if args.h is None:
            raise _UsageError("the product construction needs --h")
        fn = construct_product(ring, group, _subgroup_arg(args, ring, "h"), _table_limit(args))
    if args.format == "text":
        _write(args, _zdb_text(*fn.claimed_parameters()))
    else:
        _write(args, _dumps(fn.to_json()))
    return 0


def _cmd_zdb_verify(args) -> int:
    from .verify import verify_zdb

    fn = _load_fn(args.input)
    _guard(fn, matrix=False, force=args.force)
    res = verify_zdb(fn)
    if not res.ok:
        print(f"verification failed: {_failure_note(res)}", file=sys.stderr)
        _write(args, _dumps(res.to_json()))
        return 1
    if args.format == "text":
        _write(args, _zdb_text(res.n, res.m, res.lam))
    else:
        _write(args, _dumps({"n": res.n, "m": res.m, "lambda": res.lam}))
    return 0


def _cmd_codes(args) -> int:
    from .codes import ccc_from_zdb, cwc_from_zdb, dss_from_zdb
    from .verify import verify_zdb

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
            _write(args, _dumps(system.to_json(blocks=False), "blocks", system.text_parts("json")))
        elif args.format == "csv":
            _write(args, system.text_parts("csv"))
        else:
            _write(
                args,
                f"DSS q={system.q} tau={system.tau} lambda={system.lam} "
                f"perfect={str(system.perfect).lower()}\n",
            )
        return 0
    book = (ccc_from_zdb if args.kind == "ccc" else cwc_from_zdb)(fn, res)
    if args.format == "json":
        _write(args, _dumps(book.to_json(codewords=False), "codewords", book.text_parts("json")))
    elif args.format == "csv":
        _write(args, book.text_parts("csv"))
    else:
        tail = f" w={book.weight}" if book.kind == "CWC" else ""
        _write(args, f"({book.n}, {book.M}, {book.d}) {book.kind} q={book.q}{tail}\n")
    return 0


def _cmd_check_bounds(args) -> int:
    from .codes import CodeBook, DssSystem, ccc_report, cwc_report, dss_report
    from .reader import decode_file  # only this command reads stored files

    with open(args.input, "rb") as fh:
        data = decode_file(fh)
    if not isinstance(data, dict):
        raise _UsageError(f"the payload must be a JSON object, not {type(data).__name__}")
    kind = data.get("kind")
    if kind not in ("CCC", "CWC", "DSS"):
        raise _UsageError(f"unrecognized payload kind {kind!r}")
    design = (DssSystem if kind == "DSS" else CodeBook).from_json(data)
    del data  # parsed lists, when the matrix was not canonical, take several times its memory
    # the report reads the header alone, so a header it refuses is refused before the recount
    if kind == "DSS" and (design.lam is None or not design.perfect):
        report = None  # no bound applies, as the last note of the recheck says
    else:
        report = {"CCC": ccc_report, "CWC": cwc_report, "DSS": dss_report}[kind](design)
    problems = design.recheck(_table_limit(args))
    if report is not None and not (report.applicable and report.optimal):
        problems.append(f"{kind} bound not met with equality")
    for note in problems:
        print(f"check failed: {note}", file=sys.stderr)
    if report is None:
        return 1
    if args.format == "text":
        _write(
            args,
            f"{kind} bound {report.bound_num}/{report.bound_den} achieved "
            f"{report.achieved} optimal {str(report.optimal).lower()}\n",
        )
    else:
        _write(args, _dumps({**report.to_json(), "checked": not problems}))
    return 1 if problems else 0


def _result_lines(args, rows: list[dict]) -> str | Iterable[bytes]:
    """One line per certified instance row: its JSON, or its parameters and label."""
    if args.format == "text":
        return "".join(
            _zdb_text(*row["parameters"]).rstrip("\n") + f"  {row['label']}\n" for row in rows
        )
    return [part for row in rows for part in _dumps(row)]


def _cmd_catalog_search(args) -> int:
    from .catalog import Recipe, search

    recipe = Recipe(args.id, json.loads(_load_text(args.params)))
    results = search(recipe, args.max, _table_limit(args))
    _write(args, _result_lines(args, [r.to_json() for r in results]))
    return 0


def _cmd_catalog_recipe(args) -> int:
    from .catalog import Recipe, run_recipe

    recipe = Recipe(args.id, json.loads(_load_text(args.params)))
    _write(args, _result_lines(args, [run_recipe(recipe, _table_limit(args)).to_json()]))
    return 0


def _cmd_catalog_certify(args) -> int:
    from .catalog import certify_all, default_catalog

    results = default_catalog()
    if args.max_order is not None:
        results = [r for r in results if r.certified[0] <= args.max_order]
    report = certify_all(results)
    _write(args, _result_lines(args, report.rows))
    print(report.summary(), file=sys.stderr)
    return 0


def _build_parser(recipe_ids: tuple[str, ...]) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write data to this file instead of standard output")
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="json", help="output format"
    )
    common.add_argument(
        "--force", action="store_true", help="run even when the instance is oversized"
    )
    common.set_defaults(csv=False)  # only the commands that define csv output set it

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
        p.set_defaults(handler=_cmd_codes, kind=kind, csv=True)
    p = codes.add_parser("check-bounds", parents=[common], help="recheck a stored certificate")
    p.add_argument("--input", "--in", dest="input", required=True, help="code or DSS JSON file")
    p.set_defaults(handler=_cmd_check_bounds)

    catalog = top.add_parser("catalog", help="recipe book").add_subparsers(
        dest="subcommand", required=True
    )
    p = catalog.add_parser("search", parents=[common], help="walk one recipe parameter")
    p.add_argument("--id", choices=recipe_ids, required=True)
    p.add_argument("--params", required=True, help="every recipe parameter but one, or @file")
    p.add_argument("--max", type=int, required=True, help="largest value of the one left out")
    p.set_defaults(handler=_cmd_catalog_search)
    p = catalog.add_parser("recipe", parents=[common], help="run one named recipe")
    p.add_argument("--id", choices=recipe_ids, required=True)
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
    if isinstance(exc, OversizedError):
        return f"{exc}; pass --force to run anyway"
    return str(exc)  # an OSError names its path


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    recipe_ids = ()
    if "catalog" in argv:  # only a catalog command reaches --id, whose choices these are
        from .catalog import RECIPE_IDS as recipe_ids
    args = _build_parser(recipe_ids).parse_args(argv)
    try:
        if args.format == "csv" and not args.csv:
            raise _UsageError("csv output is not defined for this command")
        return args.handler(args)
    except _REPORTED as exc:
        print(f"error: {_error_message(exc)}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES.items() if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
