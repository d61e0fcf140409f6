"""End-to-end command line pipeline, golden output bytes, and the exit
code contract."""

import copy
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdbkit import (
    AbelianDomain,
    CodeBook,
    GaloisField,
    MatrixRing,
    Recipe,
    ResidueRing,
    RingAdditiveDomain,
    ZdbFunction,
    run_recipe,
)
from zdbkit import cli as cli_module
from zdbkit import construct as construct_module
from zdbkit import cosets as cosets_module
from zdbkit import domains as domains_module
from zdbkit import function as function_module

ROOT = Path(__file__).resolve().parents[1]

Z7_RING = '{"kind":"residue","n":7}'


def test_ring_info_golden(run_cli):
    code, out, err = run_cli(["ring", "info", "--ring", Z7_RING])
    assert code == 0
    assert out == (
        '{"kind":"residue","order":7,"commutative":true,"units":6,'
        '"spec":{"kind":"residue","n":7}}\n'
    )


@pytest.mark.parametrize(
    "ring,units",
    [
        ('{"kind":"residue","n":1000000000}', 400_000_000),
        (json.dumps(MatrixRing(3, GaloisField(7)).to_json()), 33_784_128),
        ('{"kind":"residue","n":2305843009213693951}', 2305843009213693950),
        ('{"kind":"field","p":4611686018427387847,"r":1,"modulus":[0,1]}', 4611686018427387846),
    ],
    ids=["Z_1e9", "M3(F7)", "Z_(2^61-1)", "GF(p) below 2^62"],
)
def test_ring_info_counts_units_in_closed_form(run_cli, ring, units):
    start = time.perf_counter()
    code, out, _ = run_cli(["ring", "info", "--ring", ring])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["units"] == units
    assert elapsed < 0.5


def test_cosets_partition(run_cli):
    code, out, _ = run_cli(["cosets", "partition", "--ring", Z7_RING, "--g", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["reps"] == [0, 1, 3]
    code, out, _ = run_cli(
        ["cosets", "partition", "--ring", Z7_RING, "--g", "1,2,4", "--format", "text"]
    )
    assert code == 0
    assert out == "order 7: zero class plus 2 cosets of size 3\n"


def test_full_pipeline(run_cli, tmp_path):
    f = tmp_path / "f.json"
    code, _, _ = run_cli(
        ["zdb", "construct", "product", "--ring", Z7_RING, "--g", "2", "--h", "6",
         "--out", str(f)]
    )
    assert code == 0

    code, out, _ = run_cli(["zdb", "verify", "--input", str(f)])
    assert code == 0
    assert out == '{"n":21,"m":11,"lambda":1}\n'

    code, out, _ = run_cli(["zdb", "verify", "--input", str(f), "--format", "text"])
    assert out == "(21, 11, 1) ZDB\n"

    for kind in ("ccc", "cwc", "dss"):
        target = tmp_path / f"{kind}.json"
        code, _, _ = run_cli(["codes", kind, "--input", str(f), "--out", str(target)])
        assert code == 0
        code, out, err = run_cli(["codes", "check-bounds", "--in", str(target)])
        assert code == 0, err
        report = json.loads(out)
        assert report["optimal"] is True and report["checked"] is True


def test_files_pipeline_bytes_match_the_benchmark_golden(run_cli, tmp_path):
    # the benchmark's `files` workload on the (1156, 386, 2) GF(17^2) instance
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["files"]
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(GaloisField(17, 2).to_json()))
    fn, ccc, dss = (str(tmp_path / f"{name}.json") for name in ("fn", "ccc", "dss"))
    steps = [
        ("zdb_construct", ["zdb", "construct", "product", "--ring", f"@{ring}", "--g", "4",
                           "--h", "17"], fn),
        ("zdb_verify", ["zdb", "verify", "--in", fn], None),
        ("codes_ccc", ["codes", "ccc", "--in", fn], ccc),
        ("check_bounds_ccc", ["codes", "check-bounds", "--in", ccc], None),
        ("codes_dss", ["codes", "dss", "--in", fn], dss),
        ("check_bounds_dss", ["codes", "check-bounds", "--in", dss], None),
    ]
    for name, argv, saved in steps:
        code, out, err = run_cli(argv)
        if saved is not None:
            Path(saved).write_text(out)
        sha = {key: hashlib.sha256(text.encode()).hexdigest() for key, text in
               (("stdout", out), ("stderr", err))}
        assert {"rc": code, **sha} == golden[name], name


# (ring, g, h, g of the doubled construction): one ring of each kind with
# the smallest unit-difference generators of orders 3 and 2; on M2(F5),
# G = <3I> of order 4 and H = <[[4, 4], [1, 0]]> of order 3
FROZEN_RINGS = {
    "residue": ('{"kind":"residue","n":91}', "9", "90", "9"),
    "field": ('{"kind":"field","p":7,"r":3,"modulus":[1,0,1,1]}', "2", "6", "2"),
    "product": ('{"kind":"product","components":[{"kind":"residue","n":7},'
                '{"kind":"field","p":13,"r":1,"modulus":[0,1]}]}', "23", "90", "23"),
    "matrix": ('{"kind":"matrix","k":2,"field":{"kind":"field","p":5,"r":1,"modulus":[0,1]}}',
               "378", "49", "49"),
}

# stdout sha256 of each command, recorded from the scalar construction code
FROZEN_CONSTRUCT_SHA256 = {
    "residue-generic": "d6fd0c6db09ab8e9a4e6387a63371cc222c61d7dd68fbf84901a6df9fd7e4ef5",
    "residue-doubled": "018689e8988eec521c3f5f838e10dbc39d6a2fa0c8114e46a0669135dd2a49a0",
    "residue-product": "e40d0adfe88d42e7e77e982083a708406e92c088c95ed5b6bff4bd251a105baa",
    "residue-partition": "918fcf25508b6dcd9fc697cbbe3e657c03d87a4bf18226cd5e89209f896383df",
    "field-generic": "b105aae45d7b1b252aec5ebcefbc9cdbab6e1bce7d7a62f4d66541361434699c",
    "field-doubled": "a4578f8e7044622c7d83c3711e8b95a116e27b6be9688988eb2a7ca7c12b6b71",
    "field-product": "58b2f04b1af88ceb9f99e1ff18182caf30fe9330b0c0b2db6017180b90a6d141",
    "field-partition": "50db8b70d18220fa4aaa798028c7416434e49e3a8bac25d99c3678e424220295",
    "product-generic": "3ee709b1f603813c833f87ff56ce14faeb5b607eb026d1392d707741826eb000",
    "product-doubled": "5c147b6689ca86d696b3cb0ef9edc0daeceedbe53ec8e84f3e3d8230130e0c5b",
    "product-product": "aa3b7e2b2ea57db9ead610ef97776475d564379e7762b8e761ee2ec085169f97",
    "product-partition": "ca360bedaebd5d92c0fc40e4709b25158bd4b3068730dd406564034687b3e9e5",
    "matrix-generic": "af842423bb78a2dfadf99eb89afb05bc63023b2fa15e885f714b70937b0b530e",
    "matrix-doubled": "46a58168ac57d95edfc36e1add3c4a526b230333d94c20f88b78f7775a5dd4f4",
    "matrix-product": "fd9941d385d0481b3a023a20a10fe830019e05a00d0b88db530fab69aa3b8253",
    "matrix-partition": "47e18bfb709a20775f1d33aa58d90f891ae8b5f03c6e2713c3549ea2bee753fe",
}


@pytest.mark.parametrize("kind", FROZEN_RINGS)
def test_construct_and_partition_bytes_are_frozen(run_cli, kind):
    ring, g, h, g_doubled = FROZEN_RINGS[kind]
    commands = {
        "generic": ["zdb", "construct", "generic", "--ring", ring, "--g", g],
        "doubled": ["zdb", "construct", "doubled", "--ring", ring, "--g", g_doubled],
        "product": ["zdb", "construct", "product", "--ring", ring, "--g", g, "--h", h],
        "partition": ["cosets", "partition", "--ring", ring, "--g", g],
    }
    for name, argv in commands.items():
        code, out, err = run_cli(argv)
        assert (code, err) == (0, ""), name
        sha = hashlib.sha256(out.encode()).hexdigest()
        assert sha == FROZEN_CONSTRUCT_SHA256[f"{kind}-{name}"], name


# stdout sha256 of codes ccc/cwc/dss, json (no suffix) and csv, on product-construction
# instances: the ccc/cwc json ones recorded from the shift-code matrix gathered through
# shift_rows, the others from the writers that joined each export whole; (ring, g, h)
SHIFT_CODE_INSTANCES = {
    "Z7": (Z7_RING, "2", "6"),
    "GF(17^2)": ('{"kind":"field","p":17,"r":2,"modulus":[1,1,1]}', "4", "17"),
    "M2(F5)": (FROZEN_RINGS["matrix"][0], "378", "49"),  # the (2500, 834, 2) instance
}
FROZEN_SHIFT_CODE_SHA256 = {
    "Z7-ccc": "72e8234232298dbce326208cc155ca979d37c570309cc00c7c084867e49ba538",
    "Z7-ccc-csv": "4d738e61106290592b4ec763eff7ef931cf116105e5ece2ea0f7fe5e3639f863",
    "Z7-cwc": "bbe952995f21bb6ebaddf16dd73bdfd1bbbcb7e71596585b3143339eeb5c8523",
    "Z7-cwc-csv": "4d738e61106290592b4ec763eff7ef931cf116105e5ece2ea0f7fe5e3639f863",
    "Z7-dss": "f0c4a34e325135eaa84b16e239ca1aebf44b98ec92581440953897a025d038eb",
    "Z7-dss-csv": "384b8efe38607711370217c176f3a1194036c18d38fe8e000ad68970fbc188fa",
    "GF(17^2)-ccc": "e661daabe744031c06e00fb900c0eccd037715e9fac7e6b51254fd42d6b6702a",
    "GF(17^2)-ccc-csv": "a46449f76977d4ab1e9bd69708b6b85bc48eb4b4451c91be888c958b00ee52d5",
    "GF(17^2)-cwc": "95d68610f44a95a7ac837d263dca0bc7ca55b237ab4ef966a31536249935ee4f",
    "GF(17^2)-cwc-csv": "a46449f76977d4ab1e9bd69708b6b85bc48eb4b4451c91be888c958b00ee52d5",
    "GF(17^2)-dss": "4e61af10ac94f1742a75ee80bf92af47d5d86d459b8e51744e892b790bc13dcc",
    "GF(17^2)-dss-csv": "7b19d725ce9fe051166fbe4ec272bceb8278399ae6ba3a8545a3c45ded6d731a",
    "M2(F5)-ccc": "52a010af832b06f54cbf8ec682493aa7719de331dbf71050bef6183053550e3a",
    "M2(F5)-ccc-csv": "583d73a8b1e0807c3fa04cb3502bdfbcea08e95beaae70710a3a2cea3849babc",
    "M2(F5)-cwc": "6af819dae3c060a50756c620d43ef23e266c88f9888f216a8b28cd7663c436da",
    "M2(F5)-cwc-csv": "583d73a8b1e0807c3fa04cb3502bdfbcea08e95beaae70710a3a2cea3849babc",
    "M2(F5)-dss": "92210975061e52c91ca98d942989a06de2a1025f9521943184fa058454e2c532",
    "M2(F5)-dss-csv": "b6f2025c3aeb108873eed48c731131eb274376ecbf02c4c2febd3328f99c02ba",
}


@pytest.mark.parametrize("name", SHIFT_CODE_INSTANCES)
def test_shift_code_bytes_are_frozen(run_cli, tmp_path, name):
    # the banded writers send the same bytes to standard output and to --out
    ring, g, h = SHIFT_CODE_INSTANCES[name]
    fn = str(tmp_path / "fn.json")
    argv = ["zdb", "construct", "product", "--ring", ring, "--g", g, "--h", h, "--out", fn]
    assert run_cli(argv)[0] == 0
    for kind in ("ccc", "cwc", "dss"):
        for fmt, suffix in (("json", ""), ("csv", "-csv")):
            argv = ["codes", kind, "--in", fn, "--format", fmt]
            code, out, err = run_cli(argv)
            assert (code, err) == (0, ""), (kind, fmt)
            sha = hashlib.sha256(out.encode()).hexdigest()
            assert sha == FROZEN_SHIFT_CODE_SHA256[f"{name}-{kind}{suffix}"], (kind, fmt)
            target = tmp_path / f"{kind}.{fmt}"
            assert run_cli([*argv, "--out", str(target)]) == (0, "", "")
            assert target.read_bytes() == out.encode(), (kind, fmt)


def test_construct_output_is_byte_deterministic(run_cli, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["zdb", "construct", "generic", "--ring", Z7_RING, "--g", "2"]
    assert run_cli(argv + ["--out", str(a)])[0] == 0
    assert run_cli(argv + ["--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_reads_ring_from_file(run_cli, tmp_path):
    ring_file = tmp_path / "ring.json"
    ring_file.write_text(Z7_RING)
    code, out, _ = run_cli(
        ["zdb", "construct", "generic", "--ring", f"@{ring_file}", "--g", "2",
         "--format", "text"]
    )
    assert code == 0
    assert out == "(7, 3, 2) ZDB\n"


def test_verify_failure_prints_witness(run_cli, tmp_path):
    f = tmp_path / "f.json"
    run_cli(["zdb", "construct", "product", "--ring", Z7_RING, "--g", "2", "--h", "6",
             "--out", str(f)])
    data = json.loads(f.read_text())
    data["table"][3] = (data["table"][3] + 1) % data["q"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))

    code, out, err = run_cli(["zdb", "verify", "--input", str(bad)])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["witness_shift"] is not None
    assert "shift" in err

    # a broken table also cannot feed the code builders
    code, _, err = run_cli(["codes", "ccc", "--input", str(bad)])
    assert code == 1


@pytest.mark.parametrize(
    "corrupt,note",
    [
        ("d", "stored distances (19, 20) but recomputed (20, 20): "
              "rows 0 and 1 at distance 20, rows 0 and 1 at distance 20"),
        # row 5 repeats row 3: the one pair at distance 0, and the first pair still at 20
        ("row", "stored distances (20, 20) but recomputed (0, 20): "
                "rows 3 and 5 at distance 0, rows 0 and 1 at distance 20"),
    ],
    ids=["d", "row"],
)
def test_check_bounds_detects_corrupted_distance(run_cli, tmp_path, corrupt, note):
    f = tmp_path / "f.json"
    run_cli(["zdb", "construct", "product", "--ring", Z7_RING, "--g", "2", "--h", "6",
             "--out", str(f)])
    book = tmp_path / "ccc.json"
    run_cli(["codes", "ccc", "--input", str(f), "--out", str(book)])
    data = json.loads(book.read_text())
    if corrupt == "d":
        data["d"] = data["d"] - 1
    else:
        data["codewords"][5] = data["codewords"][3]
    book.write_text(json.dumps(data))

    code, out, err = run_cli(["codes", "check-bounds", "--in", str(book)])
    assert code == 1
    assert err.startswith(f"check failed: {note}\n")
    assert json.loads(out)["checked"] is False


def test_malformed_json_reports_position(run_cli, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"kind":"residue",')
    code, _, err = run_cli(["ring", "info", "--ring", f"@{broken}"])
    assert code == 2
    assert "line" in err and "column" in err


@pytest.mark.parametrize("payload", ["[1]", "1", '"x"'])
def test_check_bounds_needs_an_object_at_the_top_level(run_cli, tmp_path, payload):
    f = tmp_path / "f.json"
    f.write_text(payload)
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(f)])
    assert code == 2
    kind = type(json.loads(payload)).__name__
    assert err == f"error: the payload must be a JSON object, not {kind}\n"
    assert out == ""


def test_missing_file_is_a_usage_error(run_cli, tmp_path):
    code, _, err = run_cli(["zdb", "verify", "--input", str(tmp_path / "nope.json")])
    assert code == 2


@pytest.mark.parametrize("command", [["codes", "check-bounds"], ["zdb", "verify"]])
def test_a_directory_as_input_is_a_usage_error(run_cli, tmp_path, command):
    code, out, err = run_cli([*command, "--in", str(tmp_path)])
    assert code == 2
    assert err.startswith("error: ") and f"'{tmp_path}'" in err
    assert out == ""


@pytest.mark.parametrize("command", [["codes", "check-bounds"], ["zdb", "verify"]])
def test_too_deeply_nested_json_is_a_usage_error(run_cli, tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run_cli([*command, "--in", str(deep)])
    assert code == 2
    assert err == "error: the JSON input nests too deeply to read\n"
    assert out == ""


def test_oversized_instance_needs_force(run_cli, tmp_path):
    n = 10_020
    data = {
        "domain": {"kind": "ring_additive", "ring": {"kind": "residue", "n": n}},
        "q": 1,
        "lambda": n,
        "table": [0] * n,
    }
    f = tmp_path / "big.json"
    f.write_text(json.dumps(data))
    code, _, err = run_cli(["zdb", "verify", "--input", str(f)])
    assert code == 2
    assert "--force" in err
    code, out, _ = run_cli(["zdb", "verify", "--input", str(f), "--force"])
    assert code == 0
    assert json.loads(out) == {"n": n, "m": 1, "lambda": n}


def test_unit_difference_rejection_via_cli(run_cli):
    code, _, err = run_cli(
        ["cosets", "partition", "--ring", '{"kind":"residue","n":15}', "--g", "4"]
    )
    assert code == 2
    assert "unit" in err


def test_product_requires_h(run_cli):
    code, _, err = run_cli(["zdb", "construct", "product", "--ring", Z7_RING, "--g", "2"])
    assert code == 2
    assert "--h" in err


def test_csv_rejected_where_undefined(run_cli, tmp_path):
    f = tmp_path / "f.json"
    run_cli(["zdb", "construct", "generic", "--ring", Z7_RING, "--g", "2",
             "--out", str(f)])
    code, _, err = run_cli(["zdb", "verify", "--input", str(f), "--format", "csv"])
    assert code == 2
    assert "csv" in err
    # refused before any work: a failing table and a stored book alike
    data = json.loads(f.read_text())
    data["table"][3] = (data["table"][3] + 1) % data["q"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    book, _ = _z7_payload(run_cli, tmp_path, "ccc")
    refusal = "error: csv output is not defined for this command\n"
    for argv in (
        ["zdb", "verify", "--input", str(bad)],
        ["codes", "check-bounds", "--in", str(book)],
    ):
        assert run_cli([*argv, "--format", "csv"]) == (2, "", refusal)


def test_codes_csv_output(run_cli, tmp_path):
    f = tmp_path / "f.json"
    run_cli(["zdb", "construct", "product", "--ring", Z7_RING, "--g", "2", "--h", "6",
             "--out", str(f)])
    code, out, _ = run_cli(["codes", "ccc", "--input", str(f), "--format", "csv"])
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 21 and all(len(r.split(",")) == 21 for r in rows)
    code, out, _ = run_cli(["codes", "dss", "--input", str(f), "--format", "csv"])
    assert code == 0
    assert out.startswith("0\n")  # the zero-symbol block is the singleton {0}


def test_catalog_search_json_lines(run_cli):
    code, out, _ = run_cli(
        ["catalog", "search", "--construction", "cor2", "--e", "4", "--max", "30"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    second = json.loads(lines[1])
    assert second["parameters"] == [100, 34, 2]
    assert second["label"] == "cor2 q=[25] e=4"


def test_catalog_search_text(run_cli):
    code, out, _ = run_cli(
        ["catalog", "search", "--construction", "cor1", "--e", "3", "--max", "20",
         "--format", "text"]
    )
    assert code == 0
    assert out.splitlines() == [
        "(21, 11, 1) ZDB  cor1 n=7 e=3",
        "(39, 20, 1) ZDB  cor1 n=13 e=3",
        "(57, 29, 1) ZDB  cor1 n=19 e=3",
    ]


def test_catalog_recipe_roundtrip(run_cli):
    code, out, _ = run_cli(
        ["catalog", "recipe", "--id", "zha_cor1", "--params", '{"b":3,"s":5}']
    )
    assert code == 0
    assert json.loads(out)["parameters"] == [121, 25, 4]


def test_catalog_recipe_hypothesis_violation(run_cli):
    code, _, err = run_cli(
        ["catalog", "recipe", "--id", "ding_thm3", "--params", '{"m":4}']
    )
    assert code == 2
    assert "prime" in err


def test_data_keeps_its_place_among_the_lines_on_standard_error(tmp_path):
    # both streams into one pipe, standard output buffered: each data write is
    # flushed before a later stderr line
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])

    def merged(*argv):
        run = subprocess.run(
            [sys.executable, "-m", "zdbkit.cli", *argv], stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, env=env, timeout=120,
        )
        return run.returncode, run.stdout.decode().splitlines()

    code, lines = merged("catalog", "certify", "--all", "--max-order", "30")
    assert code == 0 and len(lines) > 2
    assert all(line.startswith("{") for line in lines[:-1]) and "certified" in lines[-1]

    f = tmp_path / "f.json"
    assert merged("zdb", "construct", "product", "--ring", Z7_RING, "--g", "2", "--h", "6",
                  "--out", str(f)) == (0, [])
    data = json.loads(f.read_text())
    data["table"][3] = (data["table"][3] + 1) % data["q"]
    f.write_text(json.dumps(data))
    code, lines = merged("zdb", "verify", "--input", str(f))
    assert code == 1 and len(lines) == 2
    assert lines[0].startswith("verification failed: ") and json.loads(lines[1])["ok"] is False


def test_catalog_recipe_rejects_unknown_id(run_cli):
    code, _, _ = run_cli(["catalog", "recipe", "--id", "nope", "--params", "{}"])
    assert code == 2


def test_catalog_certify_small(run_cli):
    code, out, err = run_cli(
        ["catalog", "certify", "--all", "--max-order", "60"]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert all(row["profile_ok"] for row in rows)
    assert "certified" in err
    labels = {row["label"] for row in rows}
    assert "cor1 n=7 e=3" in labels


def test_catalog_certify_requires_all_flag(run_cli):
    code, _, _ = run_cli(["catalog", "certify"])
    assert code == 2


def test_unknown_subcommand_is_usage_error(run_cli):
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def test_pipeline_across_ring_kinds(run_cli, tmp_path):
    """construct -> verify -> codes -> check-bounds through the CLI alone,
    one representative instance per commutative ring kind."""
    import zdbkit

    picks = []
    for label in ("cor1 n=7 e=3", "cor2 q=[25] e=4", "cor2 q=[121] e=6",
                  "cor2 q=[7, 13] e=3"):
        match = [r for r in zdbkit.default_catalog() if r.label == label]
        assert match, label
        picks.append(match[0])

    for i, r in enumerate(picks):
        ring_arg = json.dumps(r.ring.to_json())
        g = ",".join(str(x) for x in r.g_elements)
        h = ",".join(str(x) for x in r.h_elements)
        f = tmp_path / f"fn{i}.json"
        code, _, err = run_cli(
            ["zdb", "construct", "product", "--ring", ring_arg, "--g", g, "--h", h,
             "--out", str(f)]
        )
        assert code == 0, err
        code, out, _ = run_cli(["zdb", "verify", "--input", str(f)])
        assert code == 0
        n, m, lam = r.certified
        assert json.loads(out) == {"n": n, "m": m, "lambda": lam}
        for kind in ("ccc", "cwc", "dss"):
            payload = tmp_path / f"{kind}{i}.json"
            code, _, err = run_cli(
                ["codes", kind, "--input", str(f), "--out", str(payload)]
            )
            assert code == 0, err
            code, out, err = run_cli(["codes", "check-bounds", "--in", str(payload)])
            assert code == 0, (r.label, kind, err)
            assert json.loads(out)["checked"] is True


def test_image_size_failure_names_kind_and_counts(run_cli, tmp_path):
    f = tmp_path / "f.json"
    run_cli(["zdb", "construct", "product", "--ring", Z7_RING, "--g", "2", "--h", "6",
             "--out", str(f)])
    data = json.loads(f.read_text())
    data["q"] = 12  # the table still uses 11 symbols
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))

    code, out, err = run_cli(["zdb", "verify", "--input", str(bad)])
    assert code == 1
    assert json.loads(out)["failure"] == "image"
    assert "image size mismatch: the table uses 11 distinct symbols, expected 12" in err
    assert "None" not in err
    for kind in ("ccc", "cwc", "dss"):
        code, _, err = run_cli(["codes", kind, "--input", str(bad)])
        assert code == 1
        assert "11 distinct symbols, expected 12" in err


@pytest.mark.parametrize("q", [2**40, 2**62])
def test_a_huge_claimed_alphabet_is_an_image_mismatch(run_cli, tmp_path, q):
    # the guard counts in-class pairs over the symbols that occur, not over range(q)
    f = tmp_path / "f.json"
    run_cli(["zdb", "construct", "generic", "--ring", Z7_RING, "--g", "1", "--out", str(f)])
    data = json.loads(f.read_text())
    data["q"] = q  # the table uses 7 symbols
    f.write_text(json.dumps(data))
    note = f"image size mismatch: the table uses 7 distinct symbols, expected {q}\n"
    code, out, err = run_cli(["zdb", "verify", "--input", str(f)])
    assert (code, err) == (1, "verification failed: " + note)
    assert json.loads(out) == {
        "ok": False, "n": 7, "failure": "image", "witness_shift": None,
        "expected": q, "actual": 7,
    }
    for argv in (["codes", "ccc", "--format", "text"], ["codes", "dss"]):
        code, out, err = run_cli([*argv, "--input", str(f)])
        assert (code, out) == (1, "")
        assert err == "refusing to derive a code from an unverified table: " + note


def _dss_file(tmp_path, blocks, **claims):
    data = {
        "kind": "DSS",
        "group": {"kind": "ring_additive", "ring": {"kind": "residue", "n": 4}},
        "blocks": blocks,
        "q": len(blocks),
        "tau": sum(len(b) for b in blocks),
        "lambda": None,
        "perfect": False,
        "partitioned": False,
    }
    data.update(claims)
    path = tmp_path / "dss.json"
    path.write_text(json.dumps(data))
    return path


def test_check_bounds_imperfect_dss_is_a_failed_check(run_cli, tmp_path):
    # symbol preimages of the broken table [0, 1, 2, 0] on Z_4
    path = _dss_file(tmp_path, [[0, 3], [1], [2]], partitioned=True)
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert code == 1
    assert "check failed: the system is not perfect" in err
    assert out == ""


def test_check_bounds_accepts_the_lambda_of_a_one_block_dss(run_cli, tmp_path):
    # dss writes lambda=0 for one block, the minimum coverage check-bounds recomputes
    f, dss = tmp_path / "f.json", tmp_path / "dss.json"
    fn = ZdbFunction(RingAdditiveDomain(ResidueRing(3)), 1, [0, 0, 0], 3)
    f.write_text(json.dumps(fn.to_json()))
    assert run_cli(["codes", "dss", "--input", str(f), "--out", str(dss)])[0] == 0
    assert json.loads(dss.read_text())["lambda"] == 0
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(dss)])
    assert (code, out) == (1, "")
    assert err == "check failed: the system is not perfect, so no bound applies\n"


def test_check_bounds_overlapping_dss_blocks(run_cli, tmp_path):
    path = _dss_file(tmp_path, [[0, 1], [1, 2]], **{"lambda": 1, "perfect": True})
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert code == 1
    assert "check failed: blocks are not disjoint" in err
    assert json.loads(out)["checked"] is False


def test_check_bounds_overlapping_blocks_larger_than_the_group(run_cli, tmp_path):
    # repeated points make the union recount one class of 12 members over Z_4;
    # one-pair blocks make each row a block of its own, with more differences
    # than the group has elements
    path = _dss_file(tmp_path, [[0, 1, 2, 3, 0, 1], [1, 2, 3, 0, 1, 2]])
    with patch.object(domains_module, "_PAIR_BLOCK", 1):
        code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert (code, out) == (1, "")
    assert err == (
        "check failed: blocks are not disjoint\n"
        "check failed: the system is not perfect, so no bound applies\n"
    )


def test_check_bounds_rejects_dss_elements_outside_the_group(run_cli, tmp_path):
    # a bool, a float and an int past int64 are refused as JSON values, before numpy reads them
    for element in (4, -1, True, 1.5, 2**70):
        path = _dss_file(tmp_path, [[0, element], [1]])
        code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: block element {element!r} is not an element of the group of order 4\n"


NOT_PERFECT = "check failed: the system is not perfect, so no bound applies\n"


@pytest.mark.parametrize(
    "blocks, claims, code, out, err",
    [
        (  # an empty block in an imperfect system
            [[0, 1], [], [2, 3]], {"partitioned": True}, 1, "",
            "check failed: stored lambda=None perfect=False but recomputed lambda=2 "
            "perfect=False: difference 1 covered 2 times, difference 2 covered 4 times\n"
            + NOT_PERFECT,
        ),
        (  # an empty block among four singletons: perfect, and optimal
            [[0], [], [1], [2], [3]], {"lambda": 4, "perfect": True, "partitioned": True}, 0,
            '{"kind":"dss","bound":{"num":4,"den":1},"achieved":4,"applicable":true,'
            '"optimal":true,"checked":true}\n',
            "",
        ),
        (  # no blocks at all
            [], {}, 1, "",
            "check failed: stored lambda=None perfect=False but recomputed lambda=0 "
            "perfect=False\n" + NOT_PERFECT,
        ),
        (  # marked partitioned, but 1 and 3 are in no block
            [[0], [2]], {"partitioned": True}, 1, "",
            "check failed: stored lambda=None perfect=False but recomputed lambda=0 "
            "perfect=False: difference 1 covered 0 times, difference 2 covered 2 times\n"
            "check failed: blocks marked partitioned do not cover the group\n" + NOT_PERFECT,
        ),
        (  # overlapping blocks
            [[0, 1], [1, 2]], {"lambda": 1, "perfect": True}, 1,
            '{"kind":"dss","bound":{"num":3,"den":1},"achieved":4,"applicable":true,'
            '"optimal":false,"checked":false}\n',
            "check failed: blocks are not disjoint\ncheck failed: DSS bound not met with equality\n",
        ),
    ],
    ids=["empty-block", "empty-block-perfect", "no-blocks", "not-partitioned", "overlapping"],
)
def test_check_bounds_on_stored_dss_shapes(run_cli, tmp_path, blocks, claims, code, out, err):
    path = _dss_file(tmp_path, blocks, **claims)
    assert run_cli(["codes", "check-bounds", "--in", str(path)]) == (code, out, err)


def test_an_allocation_that_fails_is_exit_2_without_a_traceback():
    # this recipe's ring has about 1.1e18 elements; numpy refuses its first array at once
    params = '{"b":10,"s":19}'
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    argv = ["catalog", "recipe", "--id", "zha_cor1", "--params", params]
    run = subprocess.run(
        [sys.executable, "-m", "zdbkit.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("error: Unable to allocate 7.71 EiB")
    assert "Traceback" not in run.stderr


SUBGROUP_COMMANDS = [
    ["cosets", "partition", "--ring", Z7_RING, "--g", "2"],
    ["cosets", "partition", "--ring", Z7_RING, "--g", "1,2,4"],
    ["zdb", "construct", "generic", "--ring", Z7_RING, "--g", "2"],
    ["zdb", "construct", "product", "--ring", Z7_RING, "--g", "2", "--h", "6"],
    ["zdb", "construct", "product", "--ring", Z7_RING, "--g", "1,2,4", "--h", "1,6"],
]


@pytest.mark.parametrize("argv", SUBGROUP_COMMANDS, ids=lambda argv: " ".join(argv[:2] + argv[-3:]))
def test_subgroup_tables_past_the_limit_need_force(run_cli, monkeypatch, argv):
    # <2> in Z_7 has order 3: 9 product table entries against a limit of 2^2
    monkeypatch.setattr(cli_module, "ORDER_LIMIT", 2)

    def built(*args):
        raise AssertionError("an e x e table was built")

    with patch.object(ResidueRing, "mul_vec", built), patch.object(
        cosets_module.Subgroup, "_set_tables", built
    ):
        code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: a subgroup of order 3 needs 9 product table entries, over the limit of 4; "
        "pass --force to run anyway\n"
    )
    code, out, err = run_cli([*argv, "--force"])
    assert (code, err) == (0, "")
    # the limit of 10^8 entries lets the same subgroups through
    monkeypatch.setattr(cli_module, "ORDER_LIMIT", 10_000)
    assert run_cli(argv) == (code, out, err)


def test_a_doubled_subgroup_past_the_limit_needs_force(run_cli, monkeypatch):
    # G = <2> in Z_7 has 9 entries, G union -G is every unit: 36 against 5^2
    monkeypatch.setattr(cli_module, "ORDER_LIMIT", 5)
    argv = ["zdb", "construct", "doubled", "--ring", Z7_RING, "--g", "2"]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: a subgroup of order 6 needs 36 product table entries, over the limit of 25; "
        "pass --force to run anyway\n"
    )
    assert run_cli([*argv, "--force"])[0] == 0


def _modules_loaded(*argvs, stderr=""):
    """The zdbkit modules a fresh process holds after `import zdbkit`, then
    after each command line in turn, each list sorted and without the prefix.
    The process must write nothing to stderr but the commands' own `stderr`."""
    script = (
        "import json, sys, zdbkit\n"
        "def loaded():\n"
        "    return sorted(m[7:] for m in sys.modules if m.startswith('zdbkit.'))\n"
        "out = [loaded()]\n"
        "import zdbkit.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert zdbkit.cli.main(argv) == 0, argv\n"
        "    out.append(loaded())\n"
        "print(json.dumps(out))\n"
    )
    src = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, stderr)
    return json.loads(run.stdout)


def test_only_check_bounds_loads_the_file_reader(run_cli, tmp_path):
    # a fresh process: the package and another command leave the reader unloaded
    path, _ = _z7_payload(run_cli, tmp_path, "ccc")
    out = str(tmp_path / "out.json")
    loaded = _modules_loaded(
        ["ring", "info", "--ring", Z7_RING, "--out", out],
        ["codes", "check-bounds", "--in", str(path), "--out", out],
    )
    assert ["reader" in modules for modules in loaded] == [False, False, True]


_RING_MODULES = ["arith", "cli", "errors", "rings"]
# what a stored function needs: its domain, its subgroup and its table
_FUNCTION_MODULES = sorted([*_RING_MODULES, "domains", "function", "groups"])
_BUILD_MODULES = sorted([*_FUNCTION_MODULES, "construct", "cosets"])
_CODES_MODULES = sorted([*_FUNCTION_MODULES, "codes", "verify"])


@pytest.mark.parametrize(
    "argv,modules",
    [
        pytest.param(["ring", "info", "--ring", Z7_RING], _RING_MODULES, id="ring-info"),
        pytest.param(
            ["cosets", "partition", "--ring", Z7_RING, "--g", "2"],
            sorted([*_RING_MODULES, "cosets", "groups"]),
            id="cosets-partition",
        ),
        pytest.param(
            ["zdb", "construct", "product", "--ring", Z7_RING, "--g", "2", "--h", "6"],
            _BUILD_MODULES,
            id="zdb-construct",
        ),
        pytest.param(
            ["zdb", "verify", "--in", "{fn}"],
            sorted([*_FUNCTION_MODULES, "verify"]),
            id="zdb-verify",
        ),
        pytest.param(["codes", "ccc", "--in", "{fn}"], _CODES_MODULES, id="codes-ccc"),
        pytest.param(["codes", "dss", "--in", "{fn}"], _CODES_MODULES, id="codes-dss"),
        pytest.param(
            ["codes", "check-bounds", "--in", "{ccc}"],
            sorted([*_RING_MODULES, "codes", "domains", "groups", "reader"]),
            id="check-bounds",
        ),
        pytest.param(
            ["catalog", "certify", "--all", "--max-order", "30"],
            sorted([*_BUILD_MODULES, "catalog", "codes", "verify"]),
            id="catalog-certify",
        ),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(run_cli, tmp_path, argv, modules):
    # a fresh process per command: `import zdbkit` loads no module, and the command
    # only those it runs (ring info no construction, zdb no codes, codes no catalog,
    # check-bounds neither construction nor verification, and no command that only
    # certifies loads the builders' modules, construct and cosets)
    ccc, _ = _z7_payload(run_cli, tmp_path, "ccc")
    paths = {"{fn}": str(tmp_path / "f.json"), "{ccc}": str(ccc)}
    argv = [paths.get(arg, arg) for arg in argv] + ["--out", str(tmp_path / "out")]
    code, _, stderr = run_cli(argv)
    assert code == 0
    assert _modules_loaded(argv, stderr=stderr) == [[], modules]


def test_the_verifier_imports_no_other_zdbkit_module():
    # certificates come from the table and the group law: the verifier's module
    # cannot reach the builders, as it imports nothing of the package at run time
    script = "import sys, zdbkit.verify; print(sorted(m for m in sys.modules if 'zdbkit' in m))"
    src = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "['zdbkit', 'zdbkit.verify']\n", "")


def test_the_package_resolves_its_names_on_first_use():
    import zdbkit

    assert all(getattr(zdbkit, name) is not None for name in zdbkit.__all__)
    assert zdbkit.ZdbFunction is function_module.ZdbFunction is construct_module.ZdbFunction
    assert set(zdbkit.__all__) <= set(dir(zdbkit))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        zdbkit.nope  # noqa: B018
    from zdbkit import reader  # a submodule name is not a package attribute: it is imported

    assert reader.__name__ == "zdbkit.reader"


@pytest.mark.parametrize("kind", ["ccc", "cwc", "dss"])
def test_check_bounds_reads_a_pipe_as_it_reads_a_file(run_cli, tmp_path, kind):
    # a pipe cannot seek, so it is read whole; the bytes out are the same
    path, data = _z7_payload(run_cli, tmp_path, kind)
    src = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    for payload in (data, {**data, "q": 12}):
        path.write_text(json.dumps(payload, separators=(",", ":")))
        expected = run_cli(["codes", "check-bounds", "--in", str(path)])
        run = subprocess.run(
            [sys.executable, "-m", "zdbkit.cli", "codes", "check-bounds", "--in", "/dev/stdin"],
            input=path.read_text(), capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert (run.returncode, run.stdout, run.stderr) == expected


def test_order_guard_follows_the_in_class_pair_count(run_cli, tmp_path):
    # an injective table has sum(w^2) = n, so only the matrix builders are refused
    n = 10_020
    data = {
        "domain": {"kind": "ring_additive", "ring": {"kind": "residue", "n": n}},
        "q": n,
        "lambda": 0,
        "table": list(range(n)),
    }
    f = tmp_path / "injective.json"
    f.write_text(json.dumps(data))
    code, out, _ = run_cli(["zdb", "verify", "--input", str(f)])
    assert code == 0
    assert json.loads(out) == {"n": n, "m": n, "lambda": 0}
    code, out, err = run_cli(["codes", "ccc", "--input", str(f)])
    assert (code, out) == (2, "")
    assert err == (
        "error: instance of order 10020 needs 100,400,400 codeword matrix entries, over the "
        "limit of 100,000,000; pass --force to run anyway\n"
    )


def test_text_codes_guard_counts_in_class_pairs(run_cli, tmp_path):
    # cor2 over GF(3343) with e = 3: n = 10029 > 10^4, yet only about 3n in-class
    # pairs; the text format builds no matrix, json and csv write one
    fn = run_recipe(Recipe("cor2", {"q_list": [3343], "e": 3})).fn
    f = tmp_path / "big.json"
    f.write_text(json.dumps(fn.to_json()))
    for kind, tail in (("ccc", ""), ("cwc", " w=10028")):
        code, out, err = run_cli(["codes", kind, "--in", str(f), "--format", "text"])
        assert (code, out, err) == (0, f"(10029, 10029, 10028) {kind.upper()} q=5015{tail}\n", "")
        for fmt in ("json", "csv"):
            code, out, err = run_cli(["codes", kind, "--in", str(f), "--format", fmt])
            assert (code, out) == (2, "")
            assert "needs 100,580,841 codeword matrix entries" in err
            assert "pass --force" in err


def _z7_payload(run_cli, tmp_path, kind):
    f = tmp_path / "f.json"
    run_cli(["zdb", "construct", "product", "--ring", Z7_RING, "--g", "2", "--h", "6",
             "--out", str(f)])
    target = tmp_path / f"{kind}.json"
    assert run_cli(["codes", kind, "--input", str(f), "--out", str(target)])[0] == 0
    return target, json.loads(target.read_text())


@pytest.mark.parametrize("kind", ["ccc", "cwc", "dss"])
def test_codes_count_the_spectrum_once(run_cli, tmp_path, monkeypatch, kind):
    f = tmp_path / "f.json"
    run_cli(["zdb", "construct", "product", "--ring", Z7_RING, "--g", "2", "--h", "6",
             "--out", str(f)])
    kernel = AbelianDomain.difference_counts
    calls = []

    def counted(self, elements, labels):
        calls.append(self.order)
        return kernel(self, elements, labels)

    monkeypatch.setattr(AbelianDomain, "difference_counts", counted)
    for fmt in ("json", "csv", "text"):
        assert run_cli(["codes", kind, "--input", str(f), "--format", fmt])[0] == 0
    assert calls == [21, 21, 21]


def test_a_table_is_grouped_once_and_a_stored_system_not_at_all(run_cli, tmp_path, monkeypatch):
    f, dss = tmp_path / "f.json", tmp_path / "dss.json"
    run_cli(["zdb", "construct", "product", "--ring", Z7_RING, "--g", "2", "--h", "6",
             "--out", str(f)])
    n = len(json.loads(f.read_text())["table"])
    calls = []

    def counted(name, real, every=False):
        def wrapper(values, *args, **kwargs):
            if every or np.size(values) == n:
                calls.append(name)
            return real(values, *args, **kwargs)
        return wrapper

    # ZdbFunction.grouping looks the grouping function up in function's namespace
    monkeypatch.setattr(
        function_module, "_sorted_by_label",
        counted("group", function_module._sorted_by_label, every=True),
    )
    for name in ("sort", "argsort", "unique"):
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    for argv, expected in (
        (["zdb", "verify", "--input", str(f), "--format", "text"], ["group"]),
        (["codes", "dss", "--input", str(f), "--out", str(dss)], ["group"]),
        (["codes", "check-bounds", "--in", str(dss)], []),
    ):
        calls.clear()
        assert run_cli(argv)[0] == 0
        assert calls == expected, argv


def test_check_bounds_refuses_a_dss_past_the_pair_limit_from_its_block_sizes(run_cli, tmp_path):
    # blocks of 10 and 999990 points of Z_(10^6): about 10^12 in-block pairs, a recount
    # of some 40 minutes, refused from the block ends before any pair is formed
    n = 10**6
    blocks = [",".join(map(str, range(10))), ",".join(map(str, range(10, n)))]
    path = tmp_path / "dss.json"
    path.write_text(
        '{"kind":"DSS","group":{"kind":"ring_additive","ring":{"kind":"residue","n":%d}},'
        '"blocks":[[%s],[%s]],"q":2,"tau":%d,"lambda":10,"perfect":true,"partitioned":true}\n'
        % (n, *blocks, n)
    )
    start = time.perf_counter()
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "error: recounting the coverage of 2 blocks of 1000000 points needs "
        "999,980,000,200 point pairs, over the limit of 100,000,000; pass --force to run anyway\n"
    )


@pytest.mark.parametrize(
    "partition, pairs", [(True, 41), (False, 14)], ids=["partition", "not a partition"]
)
def test_check_bounds_on_a_dss_past_the_pair_limit_runs_with_force(
    run_cli, tmp_path, monkeypatch, partition, pairs
):
    # the Z_7 product's preimages: 1 + 10 * 2^2 in-block pairs; blocks (0, 1), (2) of
    # Z_4 do not cover the group, so the union's 3^2 pairs are counted as well
    if partition:
        path = _z7_payload(run_cli, tmp_path, "dss")[0]
        head = "recounting the coverage of 11 blocks of 21 points"
    else:
        path = _dss_file(tmp_path, [[0, 1], [2]])
        head = "recounting the coverage of 2 blocks of 3 points"
    argv = ["codes", "check-bounds", "--in", str(path)]
    expected = run_cli(argv)
    monkeypatch.setattr(cli_module, "ORDER_LIMIT", 3)
    assert run_cli(argv) == (
        2, "", f"error: {head} needs {pairs} point pairs, over the limit of 9; "
        "pass --force to run anyway\n",
    )
    assert run_cli([*argv, "--force"]) == expected


def test_codes_dss_on_a_one_symbol_table(run_cli, tmp_path):
    # a verified (3, 1, 3) table: one block, so no cross pairs at all
    f = tmp_path / "f.json"
    fn = ZdbFunction(RingAdditiveDomain(ResidueRing(3)), 1, [0, 0, 0], 3)
    f.write_text(json.dumps(fn.to_json()))
    code, out, _ = run_cli(["codes", "dss", "--input", str(f), "--format", "text"])
    assert (code, out) == (0, "DSS q=1 tau=3 lambda=0 perfect=false\n")
    code, out, _ = run_cli(["codes", "dss", "--input", str(f)])
    assert code == 0
    assert (json.loads(out)["lambda"], json.loads(out)["perfect"]) == (0, False)


def test_check_bounds_names_a_symbol_outside_the_alphabet(run_cli, tmp_path):
    path, data = _z7_payload(run_cli, tmp_path, "cwc")
    data["codewords"][4][9] = 11
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert code == 1
    assert (
        "check failed: row 4 column 9 has symbol 11 outside the alphabet of size 11" in err
    )
    assert json.loads(out)["checked"] is False


def test_check_bounds_names_the_first_row_of_another_weight(run_cli, tmp_path):
    # one nonzero symbol of row 3 set to 0: that row has weight 19, the others 20
    path, data = _z7_payload(run_cli, tmp_path, "cwc")
    row = data["codewords"][3]
    row[next(y for y, s in enumerate(row) if s != 0)] = 0
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert code == 1
    assert "check failed: stored weight 20 differs from the codewords: row 3 has weight 19\n" in err
    assert json.loads(out)["checked"] is False
    # without a stored weight the command stops at the bound (exit 2); the recheck's
    # note names no row
    del data["weight"]
    notes = CodeBook.from_json(data).recheck(cli_module.ORDER_LIMIT**2)
    assert "stored weight differs from the codewords" in notes


@pytest.mark.parametrize("kind", ["ccc", "cwc"])
def test_check_bounds_with_a_huge_alphabet_stays_small(run_cli, tmp_path, kind):
    # symbol counts stop at the largest symbol; q = 10^12 once allocated m x q
    path, data = _z7_payload(run_cli, tmp_path, kind)
    data["q"] = 10**12
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert time.perf_counter() - start < 1
    assert code in (0, 1)
    assert "Traceback" not in err
    assert json.loads(out)["checked"] is False
    if kind == "ccc":
        assert "check failed: stored composition differs from the codewords" in err


@pytest.mark.parametrize("kind", ["ccc", "cwc"])
def test_check_bounds_counts_only_the_symbols_that_occur(run_cli, tmp_path, kind):
    # symbol 10 renamed 999999999 in every row, so the rows still share a composition;
    # counting up to the largest symbol would need a 7.45 GiB vector per row band
    path, data = _z7_payload(run_cli, tmp_path, kind)
    data["q"] = 10**12
    data["codewords"] = [[999_999_999 if s == 10 else s for s in row] for row in data["codewords"]]
    for mixed in (False, True):
        if mixed:
            data["codewords"][3][0] = 7  # row 3 now differs from the others
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
        assert time.perf_counter() - start < 1
        assert code == 1 and "Traceback" not in err
        assert json.loads(out)["checked"] is False
        assert ("codewords do not share one composition: row 3 differs from row 0" in err) == mixed
        assert ("stored composition differs" in err) == (kind == "ccc" and not mixed)


@pytest.mark.parametrize("tail,differs", [([0, 0], False), ([0, 1], True), ([0], True)])
def test_check_bounds_compares_the_composition_past_the_largest_symbol(
    run_cli, tmp_path, tail, differs
):
    # q = 13 over symbols 0..10: the stored composition needs 13 entries, zero past 10
    path, data = _z7_payload(run_cli, tmp_path, "ccc")
    data["q"] = 13
    data["composition"] += tail
    path.write_text(json.dumps(data))
    _, _, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert ("stored composition differs from the codewords" in err) == differs


def test_check_bounds_rejects_malformed_symbols(run_cli, tmp_path):
    path, data = _z7_payload(run_cli, tmp_path, "ccc")
    for symbol, note in (
        (1.5, "codeword row 2 column 3 is 1.5, not an integer"),
        (True, "codeword row 2 column 3 is True, not an integer"),
        (2**40, "codeword symbol out of range"),
    ):
        data["codewords"][2][3] = symbol
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
        assert code == 2
        assert note in err
        assert out == ""


def test_check_bounds_on_an_empty_codeword_needs_two_codewords(run_cli, tmp_path):
    # no symbol to test against the alphabet: the recount refuses one codeword
    path = tmp_path / "empty.json"
    path.write_text('{"kind":"CCC","n":0,"M":1,"q":0,"d":0,"codewords":[[]]}')
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert (code, out, err) == (2, "", "error: distance needs at least two codewords\n")


@pytest.mark.parametrize(
    "row,change,note",
    [
        (1, "drop", "codeword row 1 has 20 symbols, row 0 has 21"),
        (0, "drop", "codeword row 1 has 21 symbols, row 0 has 20"),
        (17, "add", "codeword row 17 has 22 symbols, row 0 has 21"),
    ],
)
def test_check_bounds_names_the_first_ragged_row(run_cli, tmp_path, row, change, note):
    path, data = _z7_payload(run_cli, tmp_path, "cwc")
    if change == "drop":
        data["codewords"][row].pop()
    else:
        data["codewords"][row].append(0)
    data["codewords"][19].pop()  # a later ragged row is not the one named
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert code == 2
    assert err == f"error: {note}\n"
    assert out == ""


def test_check_bounds_recounts_dss_q_and_tau(run_cli, tmp_path):
    path, data = _z7_payload(run_cli, tmp_path, "dss")
    data["q"] = 12  # the file has 11 blocks
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert code == 1
    assert "check failed: stored q=12 tau=21 but recounted q=11 tau=21" in err
    assert json.loads(out)["checked"] is False


def test_check_bounds_names_the_least_and_most_covered_differences(run_cli, tmp_path):
    # points 2 and 18 swapped between blocks 1 and 2 of the Z_7 product's DSS
    path, data = _z7_payload(run_cli, tmp_path, "dss")
    assert data["blocks"][1:3] == [[1, 2], [3, 18]]
    data["blocks"][1:3] = [[1, 18], [3, 2]]
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert (code, err) == (
        1, "check failed: stored lambda=20 perfect=True but recomputed lambda=18 perfect=False: "
        "difference 4 covered 18 times, difference 1 covered 21 times\n",
    )
    # the report's achieved and optimal are those of the stored claims; checked is the verdict
    assert out == (
        '{"kind":"dss","bound":{"num":21,"den":1},"achieved":21,"applicable":true,'
        '"optimal":true,"checked":false}\n'
    )


def test_witnesses_on_corrupted_catalog_files_hold_by_brute_force(run_cli, tmp_path, catalog):
    # the CCC, CWC and DSS files of the catalog instances of order at most 60, as the
    # CLI writes them; each example corrupts one codeword cell or swaps one point
    # between two blocks, and every row pair, row and difference a note names is
    # recounted here from the corrupted payload
    files, differences = [], {}
    for i, result in enumerate(r for r in catalog if r.fn.n <= 60):
        f = tmp_path / f"f{i}.json"
        f.write_text(json.dumps(result.fn.to_json()))
        domain = result.fn.domain
        # x - y of every two elements, from the domain's scalar group law
        differences[i] = domain.identity, np.array(
            [[domain.op(x, domain.inverse(y)) for y in range(domain.order)]
             for x in range(domain.order)]
        )
        for kind in ("ccc", "cwc", "dss"):
            code, out, _ = run_cli(["codes", kind, "--input", str(f)])
            if code == 0:  # cwc needs a single zero
                files.append((i, json.loads(out)))
    assert {payload["kind"] for _, payload in files} == {"CCC", "CWC", "DSS"}
    path = tmp_path / "corrupted.json"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(files), st.data())
    def check(file, draw):
        i, payload = file[0], copy.deepcopy(file[1])
        if payload["kind"] == "DSS":
            blocks = payload["blocks"]
            a, b = draw.draw(st.lists(st.sampled_from(range(len(blocks))), min_size=2,
                                      max_size=2, unique=True))
            x, y = (draw.draw(st.sampled_from(range(len(blocks[c])))) for c in (a, b))
            blocks[a][x], blocks[b][y] = blocks[b][y], blocks[a][x]
        else:
            rows = payload["codewords"]
            r = draw.draw(st.sampled_from(range(len(rows))))
            y = draw.draw(st.sampled_from(range(len(rows[r]))))
            rows[r][y] = draw.draw(st.sampled_from([s for s in range(payload["q"])
                                                    if s != rows[r][y]]))
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
        assert code in (0, 1) and "Traceback" not in err
        if payload["kind"] == "DSS":
            points = np.array([x for block in payload["blocks"] for x in block])
            block = np.repeat(np.arange(len(payload["blocks"])), list(map(len, payload["blocks"])))
            crossed = block[:, None] != block[None, :]
            identity, minus = differences[i]
            cover = np.bincount(minus[np.ix_(points, points)][crossed], minlength=len(minus))
            cover = [(a, int(c)) for a, c in enumerate(cover) if a != identity]
            lam, most = min(c for _, c in cover), max(c for _, c in cover)
            perfect = lam == most
            named = re.findall(r"difference (\d+) covered (\d+) times", err)
            claims = (payload["lambda"], payload["perfect"])
            assert bool(named) == ((lam, perfect) != claims)
            if named:
                assert f"recomputed lambda={lam} perfect={perfect}" in err
                first = [next((a, c) for a, c in cover if c == at) for at in (lam, most)]
                assert [tuple(map(int, w)) for w in named] == first[: 2 - perfect]
            return
        words = np.array(payload["codewords"])
        distance = (words[:, None, :] != words[None, :, :]).sum(axis=2)
        for r, s, x in re.findall(r"rows (\d+) and (\d+) at distance (\d+)", err):
            assert distance[int(r), int(s)] == int(x)
        for r, w in re.findall(r"row (\d+) has weight (\d+)", err):
            assert np.count_nonzero(words[int(r)]) == int(w) != payload["weight"]
        (r,) = map(int, re.findall(r"row (\d+) differs from row 0", err))
        same = (np.sort(words[: r + 1]) == np.sort(words[0])).all(axis=1)
        assert same.tolist() == [True] * r + [False]
        assert code == 1

    check()


def test_check_bounds_refuses_a_tall_code_past_the_row_pair_limit(run_cli, tmp_path):
    # 20000 distinct rows of length 2 make few in-class pairs, but the recount of a
    # code with more rows than columns scans all M(M - 1)/2 of its row pairs
    m = 20000
    data = {
        "kind": "CCC", "n": 2, "M": m, "q": m, "d": 2, "d_max": 2,
        "codewords": [[i, (i + 1) % m] for i in range(m)], "composition": [1, 1] + [0] * (m - 2),
    }
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(data))
    argv = ["codes", "check-bounds", "--in", str(path)]
    assert run_cli(argv) == (
        2, "", "error: recounting the distances of 20000 codewords of length 2 compares "
        "199,990,000 row pairs, over the limit of 100,000,000; pass --force to run anyway\n",
    )
    # every two rows differ in both columns, as stored; the rows hold different symbols
    code, out, err = run_cli([*argv, "--force"])
    assert (code, err) == (
        1, "check failed: codewords do not share one composition: row 1 differs from row 0\n"
        "check failed: CCC bound not met with equality\n",
    )
    assert json.loads(out)["optimal"] is False


def test_check_bounds_on_two_empty_codewords(run_cli, tmp_path):
    # no column at all: the two rows are at distance 0, as stored
    path = tmp_path / "empty.json"
    path.write_text('{"kind":"CCC","n":0,"M":2,"q":1,"d":0,"codewords":[[],[]],"composition":[0]}')
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert (code, err) == (1, "check failed: CCC bound not met with equality\n")
    assert json.loads(out)["applicable"] is False


def test_check_bounds_guard_counts_in_class_row_pairs(run_cli, tmp_path):
    # one symbol class per column: 500 columns of 500^2 row pairs
    n = 500
    data = {
        "kind": "CCC", "n": n, "M": n, "q": 1, "d": 0, "d_max": 0,
        "codewords": [[0] * n for _ in range(n)], "composition": [n],
    }
    path = tmp_path / "constant.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert code == 2
    assert "needs 125,000,000 in-class row pairs, over the limit of 100,000,000" in err
    assert "--force" in err
    assert out == ""
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(path), "--force"])
    assert code == 1
    assert "recomputed" not in err
    assert json.loads(out)["applicable"] is False


HEADER_PROBES = [
    ("ccc", "q", "11", "field 'q' is '11', not an integer"),
    ("ccc", "n", 21.0, "field 'n' is 21.0, not an integer"),
    ("ccc", "d", 20.5, "field 'd' is 20.5, not an integer"),
    ("ccc", "M", True, "field 'M' is True, not an integer"),
    ("ccc", "composition", [1.5] * 11, "field 'composition' is 1.5, not an integer"),
    ("dss", "lambda", "20", "field 'lambda' is '20', not an integer"),
    ("dss", "tau", 21.0, "field 'tau' is 21.0, not an integer"),
    ("dss", "perfect", 1, "field 'perfect' is 1, not a boolean"),
    ("dss", "blocks", [5, [1]], "field 'blocks' is 5, not a list"),
]


@pytest.mark.parametrize(
    "kind,key,value,note", HEADER_PROBES, ids=[f"{k}-{f}-{v!r}" for k, f, v, _ in HEADER_PROBES]
)
def test_check_bounds_rejects_malformed_header_fields(run_cli, tmp_path, kind, key, value, note):
    path, data = _z7_payload(run_cli, tmp_path, kind)
    data[key] = value
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert code == 2
    assert f"error: {note}" in err
    assert out == ""


RECIPE_PARAM_PROBES = [
    ("cor1", '{"n":7.9,"e":3}', "field 'n' is 7.9, not an integer"),
    ("cor1", '{"n":true,"e":3}', "field 'n' is True, not an integer"),
    ("cor1", '{"e":3}', "missing field 'n'"),
    ("cor2", '{"q_list":25,"e":4}', "field 'q_list' is 25, not a list"),
    ("cor2", '{"q_list":[25.0],"e":4}', "field 'q_list' entry 0 is 25.0, not an integer"),
    ("cor1", "[1]", "params must be an object, got [1]"),
    ("cor1", '{"n":7,"e":3,"x":1}', "unknown field 'x'; expected n, e"),
]


@pytest.mark.parametrize("recipe_id,params,note", RECIPE_PARAM_PROBES)
def test_recipe_params_are_exact_integers(run_cli, recipe_id, params, note):
    code, out, err = run_cli(["catalog", "recipe", "--id", recipe_id, "--params", params])
    assert code == 2
    assert f"error: recipe {recipe_id}: {note}" in err
    assert "Traceback" not in err
    assert out == ""


RING_PROBES = [
    ('{"kind":"residue","n":7.0}', "field 'n' is 7.0, not an integer"),
    ('{"kind":"residue","n":true}', "field 'n' is True, not an integer"),
    (
        '{"kind":"field","p":2,"r":2,"modulus":[1,true,1]}',
        "field 'modulus' entry 1 is True, not an integer",
    ),
    ('{"kind":"product","components":7}', "field 'components' is 7, not a list"),
    ('{"kind":"field","p":5}', "missing field 'r'"),
]


@pytest.mark.parametrize("ring,note", RING_PROBES)
def test_ring_descriptors_are_read_strictly(run_cli, ring, note):
    code, out, err = run_cli(["ring", "info", "--ring", ring])
    assert code == 2
    assert f"error: {note}" in err
    assert "Traceback" not in err
    assert out == ""


DELETE = object()

# (path of the edited key in the Z_7 product function, new value, note)
FUNCTION_PROBES = [
    (("q",), 11.0, "field 'q' is 11.0, not an integer"),
    (("lambda",), 1.0, "field 'lambda' is 1.0, not an integer"),
    (("table", 4), 1.5, "field 'table' entry 4 is 1.5, not an integer"),
    (("table", 4), True, "field 'table' entry 4 is True, not an integer"),
    (("domain",), DELETE, "missing field 'domain'"),
    (("domain", "group", "generator"), 3, "group generator 3 does not generate"),
    (("domain", "group", "generator"), 1, "group generator 1 does not generate"),
    (("provenance",), "x", "field 'provenance' is 'x', not an object"),
    (("provenance",), [1], "field 'provenance' is [1], not an object"),
    (("provenance",), 0, "field 'provenance' is 0, not an object"),
    (("provenance",), None, "field 'provenance' is None, not an object"),
]


@pytest.mark.parametrize(
    "path,value,note",
    FUNCTION_PROBES,
    ids=[f"{p[-1]}={'deleted' if v is DELETE else v!r}" for p, v, _ in FUNCTION_PROBES],
)
def test_function_files_are_read_strictly(run_cli, tmp_path, path, value, note):
    f = tmp_path / "f.json"
    run_cli(["zdb", "construct", "product", "--ring", Z7_RING, "--g", "2", "--h", "6",
             "--out", str(f)])
    data = json.loads(f.read_text())
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    f.write_text(json.dumps(data))
    code, out, err = run_cli(["zdb", "verify", "--input", str(f)])
    assert code == 2
    assert f"error: {note}" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("provenance", [DELETE, {}, {"note": [1, "x"], "symbols": []}])
def test_an_accepted_provenance_is_written_back(run_cli, tmp_path, provenance):
    # an absent provenance reads as {}, and an object is kept as it was read
    f = tmp_path / "f.json"
    run_cli(["zdb", "construct", "generic", "--ring", Z7_RING, "--g", "2", "--out", str(f)])
    data = json.loads(f.read_text())
    del data["provenance"]
    if provenance is not DELETE:
        data["provenance"] = provenance
    f.write_text(json.dumps(data))
    assert run_cli(["zdb", "verify", "--input", str(f)])[:2] == (0, '{"n":7,"m":3,"lambda":2}\n')
    written = ZdbFunction.from_json(data).to_json()
    assert written == {**data, "provenance": {} if provenance is DELETE else provenance}


def test_a_generator_of_the_stored_group_is_accepted(run_cli, tmp_path):
    f = tmp_path / "f.json"
    run_cli(["zdb", "construct", "product", "--ring", Z7_RING, "--g", "2", "--h", "6",
             "--out", str(f)])
    data = json.loads(f.read_text())
    data["domain"]["group"]["generator"] = 4  # 4 = 2^2 also generates {1, 2, 4}
    f.write_text(json.dumps(data))
    code, out, _ = run_cli(["zdb", "verify", "--input", str(f)])
    assert code == 0
    assert out == '{"n":21,"m":11,"lambda":1}\n'
