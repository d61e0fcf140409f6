"""End-to-end command line pipeline, golden output bytes, and the exit
code contract."""

import json

import pytest

Z7_RING = '{"kind":"residue","n":7}'


def test_ring_info_golden(run_cli):
    code, out, err = run_cli(["ring", "info", "--ring", Z7_RING])
    assert code == 0
    assert out == (
        '{"kind":"residue","order":7,"commutative":true,"units":6,'
        '"spec":{"kind":"residue","n":7}}\n'
    )


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


def test_check_bounds_detects_corrupted_distance(run_cli, tmp_path):
    f = tmp_path / "f.json"
    run_cli(["zdb", "construct", "product", "--ring", Z7_RING, "--g", "2", "--h", "6",
             "--out", str(f)])
    book = tmp_path / "ccc.json"
    run_cli(["codes", "ccc", "--input", str(f), "--out", str(book)])
    data = json.loads(book.read_text())
    data["d"] = data["d"] - 1
    book.write_text(json.dumps(data))

    code, out, err = run_cli(["codes", "check-bounds", "--in", str(book)])
    assert code == 1
    assert "recomputed" in err
    assert json.loads(out)["checked"] is False


def test_malformed_json_reports_position(run_cli, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"kind":"residue",')
    code, _, err = run_cli(["ring", "info", "--ring", f"@{broken}"])
    assert code == 2
    assert "line" in err and "column" in err


def test_missing_file_is_a_usage_error(run_cli, tmp_path):
    code, _, err = run_cli(["zdb", "verify", "--input", str(tmp_path / "nope.json")])
    assert code == 2


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


def test_check_bounds_overlapping_dss_blocks(run_cli, tmp_path):
    path = _dss_file(tmp_path, [[0, 1], [1, 2]], **{"lambda": 1, "perfect": True})
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert code == 1
    assert "check failed: blocks are not disjoint" in err
    assert json.loads(out)["checked"] is False


def test_check_bounds_rejects_dss_elements_outside_the_group(run_cli, tmp_path):
    for element in (4, -1):
        path = _dss_file(tmp_path, [[0, element], [1]])
        code, _, err = run_cli(["codes", "check-bounds", "--in", str(path)])
        assert code == 2
        assert f"block element {element} " in err


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
    code, _, err = run_cli(["codes", "ccc", "--input", str(f)])
    assert code == 2
    assert "--force" in err


def _z7_payload(run_cli, tmp_path, kind):
    f = tmp_path / "f.json"
    run_cli(["zdb", "construct", "product", "--ring", Z7_RING, "--g", "2", "--h", "6",
             "--out", str(f)])
    target = tmp_path / f"{kind}.json"
    assert run_cli(["codes", kind, "--input", str(f), "--out", str(target)])[0] == 0
    return target, json.loads(target.read_text())


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


def test_check_bounds_recounts_dss_q_and_tau(run_cli, tmp_path):
    path, data = _z7_payload(run_cli, tmp_path, "dss")
    data["q"] = 12  # the file has 11 blocks
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["codes", "check-bounds", "--in", str(path)])
    assert code == 1
    assert "check failed: stored q=12 tau=21 but recounted q=11 tau=21" in err
    assert json.loads(out)["checked"] is False


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
