"""End-to-end tests for the command line interface.

All commands run in-process through ``main(argv)``; captured stdout is parsed
as JSON and validated against ``docs/cli_output.schema.json``.  One test runs
the installed console entry point in a real subprocess.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import swap_01
import mnq.construct
import mnq.fields
from mnq import cli, count_associative_naive, field_for_order, load_table, make_table, save_table
from mnq.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "cli_output.schema.json").read_text()
)


def _readme_examples() -> list[tuple[list[str], str, int]]:
    """(argv, stdout, exit code) of each `$ mnq ...` example in the
    README's Command line block; `; echo $?` puts the code on the last line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        cmd, *lines = chunk.splitlines()
        cmd, code = cmd.removeprefix("$ mnq "), 0
        if cmd.endswith("; echo $?"):
            cmd, code = cmd[:-len("; echo $?")], int(lines.pop())
        examples.append((cmd.split(), "".join(line + "\n" for line in lines), code))
    return examples


README_EXAMPLES = _readme_examples()


def check_schema(kind: str, doc) -> None:
    jsonschema.validate(
        doc,
        {"$defs": SCHEMA["$defs"], "$ref": f"#/$defs/{kind}"},
        cls=jsonschema.Draft202012Validator,
    )


@pytest.fixture
def run(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def _run(*args: object) -> tuple[int, str, str]:
        code = main([str(a) for a in args])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


# ---------------------------------------------------------------------------
# README


def test_readme_examples_are_all_found():
    assert len(README_EXAMPLES) == 6
    assert [code for _, _, code in README_EXAMPLES] == [0, 0, 0, 0, 0, 1]


@pytest.mark.parametrize("argv, stdout, code", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _, _ in README_EXAMPLES])
def test_readme_example_prints_what_the_readme_shows(run, argv, stdout, code):
    assert run(*argv)[:2] == (code, stdout)


# ---------------------------------------------------------------------------
# construct / verify


def test_construct_reports_certified_table(run):
    code, out, _ = run("construct", 9, 3, 6)
    doc = json.loads(out)
    check_schema("construct", doc)
    assert code == 0
    f = field_for_order(9)
    assert doc == {
        "a": 3,
        "assoc_count": 9,
        "b": 6,
        "e": 2,
        "idempotent": True,
        "latin": True,
        "mnq": True,
        "modulus": f.modulus_encoding,
        "p": 3,
        "q": 9,
    }


def test_construct_defaults_second_slope_to_square(run):
    code, out, _ = run("construct", 9, 3)
    doc = json.loads(out)
    check_schema("construct", doc)
    assert doc["b"] == field_for_order(9).mul(3, 3)
    assert code == (0 if doc["mnq"] else 1)


def test_construct_output_is_byte_identical_across_runs(run):
    code1, out1, _ = run("construct", 27, 4)
    code2, out2, _ = run("construct", 27, 4)
    assert (code1, out1) == (code2, out2)
    check_schema("construct", json.loads(out1))


def test_construct_then_verify_roundtrip(run, tmp_path):
    out_file = tmp_path / "t9.json"
    code, out, _ = run("construct", 9, 3, 6, "-o", out_file)
    doc = json.loads(out)
    check_schema("construct", doc)
    assert code == 0 and doc["output"] == str(out_file)

    code, out, _ = run("verify", out_file)
    vdoc = json.loads(out)
    check_schema("verify", vdoc)
    assert code == 0
    assert vdoc == {
        "n": 9,
        "latin": True,
        "idempotent": True,
        "assoc_count": 9,
        "mnq": True,
    }


def test_construct_text_format_roundtrip(run, tmp_path):
    out_file = tmp_path / "t9.txt"
    code, _, _ = run("construct", 9, 3, 6, "-o", out_file, "--format", "text")
    assert code == 0
    code, out, _ = run("verify", out_file)
    assert code == 0 and json.loads(out)["mnq"] is True


def test_construct_non_witness_slopes_exit_one(run):
    # a = b = 1 collapses every row to the right projection: not Latin
    code, out, _ = run("construct", 9, 1, 1)
    doc = json.loads(out)
    check_schema("construct", doc)
    assert code == 1
    assert doc["latin"] is False and doc["mnq"] is False
    assert doc["assoc_count"] == 9**3


def test_construct_rejects_even_characteristic(run):
    code, out, err = run("construct", 8, 1)
    assert code == 2 and out == "" and "error:" in err


def test_construct_rejects_out_of_range_slope(run):
    code, _, err = run("construct", 9, 9)
    assert code == 2 and "slope" in err


def test_verify_missing_file_is_usage_error(run, tmp_path):
    code, out, err = run("verify", tmp_path / "absent.json")
    assert code == 2 and out == "" and "error:" in err


@pytest.mark.parametrize("doc, message", [
    ('{"n":1,"rows":[[0.7]]}', "table entries must be integers"),
    ('{"n":2,"rows":[[0,1.9],[1,0]]}', "table entries must be integers"),
    ('{"n":2,"rows":[[true,false],[false,true]]}', "table entries must be integers"),
    ('{"n":2,"rows":5}', "rows must be a list of lists"),
    ('{"n":"2","rows":[[0,1],[1,0]]}', "n must be an integer, found str"),
    ('{"n":2,"rows":[[0,1],[1,99999999999]]}', "table entries must lie in [0, n)"),
])
def test_verify_and_product_reject_malformed_json(run, tmp_path, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    good = tmp_path / "t9.json"
    run("construct", 9, 3, 6, "-o", good)
    for args in (("verify", bad), ("product", bad, good, "-o", tmp_path / "p.json", "--certify")):
        code, out, err = run(*args)
        assert code == 2 and out == "", args
        assert err == f"error: {message}\n"
    assert not (tmp_path / "p.json").exists()


def test_verify_and_product_reject_deeply_nested_json(run, tmp_path):
    # json's decoder recurses once per level, so this passes any recursion limit
    depth = 100_000
    bad = tmp_path / "deep.json"
    bad.write_text('{"n":1,"rows":' + "[" * depth + "]" * depth + "}")
    good = tmp_path / "t9.json"
    run("construct", 9, 3, 6, "-o", good)
    for args in (("verify", bad), ("product", good, bad, "-o", tmp_path / "p.json", "--certify")):
        code, out, err = run(*args)
        assert (code, out, err) == (2, "", "error: table JSON is nested too deeply\n"), args
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("text", [
    "3\n0 2 1\n2 0_1 0\n1 0 2\n",   # 0_1: int() reads 1
    "2\n0 \u0661\n1 0\n",            # ARABIC-INDIC DIGIT ONE
    "2\n+0 1\n1 0\n",
    "2\n0 1\n1 -0\n",
    "+2\n0 1\n1 0\n",                 # the header too
])
def test_verify_rejects_non_decimal_text_entries(run, tmp_path, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run("verify", bad)
    assert code == 2 and out == ""
    assert err == "error: table text must hold ASCII decimal integers only\n"


def test_verify_and_product_refuse_tables_above_cap(run, tmp_path, monkeypatch):
    t9 = tmp_path / "t9.txt"
    run("construct", 9, 3, 6, "-o", t9)

    def no_count(t, abort_above=None):
        raise AssertionError("counted a table above the cap")

    monkeypatch.setattr(cli, "count_associative_naive", no_count)
    for args in (("verify", t9), ("product", t9, t9, "-o", tmp_path / "p.json", "--certify")):
        code, out, err = run("--table-cap", 8, *args)
        assert code == 2 and out == "" and err == "error: table order 9 exceeds table cap 8\n"


# ---------------------------------------------------------------------------
# search


def test_search_general_first_witness(run):
    code, out, _ = run("search", 9)
    doc = json.loads(out)
    check_schema("search", doc)
    assert code == 0
    assert doc == {"mode": "general", "q": 9, "witnesses": [[3, 6]]}


def test_search_general_all_witnesses(run):
    code, out, _ = run("search", 9, "--all")
    doc = json.loads(out)
    check_schema("search", doc)
    assert code == 0
    assert len(doc["witnesses"]) == 6 and [3, 6] in doc["witnesses"]


def test_search_general_refuses_order_above_cap(run, monkeypatch):
    probes = []
    monkeypatch.setattr(mnq.construct, "_assoc_completions", lambda *args: probes.append(args))
    code, out, err = run("--table-cap", 300, "search", 361, "--mode", "general")
    assert (code, out, err) == (2, "", "error: order 361 exceeds table cap 300; raise cap explicitly\n")
    assert probes == []


def test_search_parallel_workers_agree(run):
    _, out1, _ = run("search", 9, "--all")
    _, out2, _ = run("--workers", 2, "search", 9, "--all")
    assert out1 == out2


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool by a serial one; records each max_workers."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(mnq.construct, "ProcessPoolExecutor", SerialPool)
    return sizes


def test_workers_pool_is_bounded_by_chunks_and_cpus(run, pool_sizes, monkeypatch):
    _, serial, _ = run("search", 9, "--all")
    assert pool_sizes == []
    # GF(9) has 8 candidate a's, so at most 8 chunks
    for cpus, size in [(64, 8), (2, 2), (None, 1)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, out, _ = run("--workers", 5000, "search", 9, "--all")
        assert (code, out, pool_sizes[-1]) == (0, serial, size)
    # no theorem hits in GF(3^7): nothing to split, no pool
    code, out, _ = run("--workers", 4, "search", 2187, "--mode", "theorem", "--all")
    assert code == 1 and json.loads(out)["witnesses"] == [] and len(pool_sizes) == 3


def test_first_witness_searches_start_no_pool(run, pool_sizes):
    for args in (("search", 409), ("search", 361, "--mode", "general")):
        code, out, _ = run("--workers", 4, *args)
        assert code == 0 and len(json.loads(out)["witnesses"]) == 1
    assert pool_sizes == []


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_exit_two_before_any_pool(run, pool_sizes, workers):
    code, out, err = run("--workers", workers, "search", 9, "--all")
    assert (code, out, pool_sizes) == (2, "", [])
    assert err == f"error: --workers must be at least 1, got {workers}\n"


def test_search_empty_field_exits_one(run):
    code, out, _ = run("search", 11, "--all")
    doc = json.loads(out)
    check_schema("search", doc)
    assert code == 1 and doc["witnesses"] == []


def test_search_theorem_mode(run):
    code, out, _ = run("search", 409, "--mode", "theorem")
    doc = json.loads(out)
    check_schema("search", doc)
    assert code == 0
    assert doc == {"mode": "theorem", "q": 409, "witnesses": [[245, 245 * 245 % 409]]}


# ---------------------------------------------------------------------------
# scan and the witness cache


def test_scan_discovers_then_reuses_cache(run, tmp_path, monkeypatch):
    cache = tmp_path / "wc.csv"
    monkeypatch.setenv("MNQ_CACHE", str(cache))

    code, out, _ = run("scan", 9, 13)
    lines = [json.loads(line) for line in out.splitlines()]
    for line in lines:
        check_schema("scan_line", line)
    assert code == 0
    assert [(d["q"], d["status"]) for d in lines] == [
        (9, "found"),
        (11, "known-empty"),
        (13, "found"),
    ]
    assert all(d["assoc_count"] == d["q"] for d in lines if d["status"] == "found")
    first_bytes = cache.read_bytes()

    code, out, _ = run("scan", 9, 13)
    relines = [json.loads(line) for line in out.splitlines()]
    for line in relines:
        check_schema("scan_line", line)
    assert code == 0
    assert [(d["q"], d["status"]) for d in relines] == [
        (9, "cached"),
        (11, "known-empty"),
        (13, "cached"),
    ]
    for fresh, cached in zip(lines, relines):
        if fresh["status"] == "found":
            assert (fresh["a"], fresh["b"], fresh["method"]) == (
                cached["a"],
                cached["b"],
                cached["method"],
            )
    assert cache.read_bytes() == first_bytes


CACHE_HEADER = "q,p,e,modulus,a,b,method,assoc_count,timestamp\r\n"


def test_scan_survives_torn_cache_row(run, tmp_path, monkeypatch):
    cache = tmp_path / "wc.csv"
    cache.write_text(CACHE_HEADER + "19,19", newline="")  # a write cut short
    monkeypatch.setenv("MNQ_CACHE", str(cache))
    code, out, err = run("scan", 19, 19)
    assert code == 0
    doc = json.loads(out)
    check_schema("scan_line", doc)
    assert (doc["status"], doc["assoc_count"]) == ("found", 19)
    assert len(err.splitlines()) == 1 and err.startswith("warning:")

    code, out, _ = run("scan", 19, 19)
    again = json.loads(out)
    assert code == 0 and again["status"] == "cached"
    assert (again["a"], again["b"]) == (doc["a"], doc["b"])


def test_scan_recertifies_forged_cache_row(run, tmp_path, monkeypatch):
    cache = tmp_path / "wc.csv"
    cache.write_text(CACHE_HEADER + "13,13,1,13,1,1,theorem,13,x\r\n", newline="")
    monkeypatch.setenv("MNQ_CACHE", str(cache))
    code, out, err = run("scan", 13, 13)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "found" and (doc["a"], doc["b"]) != (1, 1)
    assert "fails re-certification" in err and len(err.splitlines()) == 1
    code, out, _ = run("construct", 13, doc["a"], doc["b"])
    assert code == 0 and json.loads(out)["mnq"]

    code, out, err = run("scan", 13, 13)
    again = json.loads(out)
    assert code == 0 and err == ""
    assert again["status"] == "cached" and (again["a"], again["b"]) == (doc["a"], doc["b"])


def test_scan_cache_flag_overrides_environment(run, tmp_path, monkeypatch):
    monkeypatch.setenv("MNQ_CACHE", str(tmp_path / "ignored.csv"))
    explicit = tmp_path / "explicit.csv"
    code, out, _ = run("--cache", explicit, "scan", 25, 25)
    assert code == 0
    assert json.loads(out)["status"] == "found"
    assert explicit.exists() and not (tmp_path / "ignored.csv").exists()


def test_scan_skips_non_prime_powers(run, tmp_path, monkeypatch):
    monkeypatch.setenv("MNQ_CACHE", str(tmp_path / "wc.csv"))
    code, out, _ = run("scan", 14, 16)
    assert code == 0 and out == ""  # 15 = 3*5 skipped, evens never visited


def test_scan_rejects_bad_range(run):
    code, _, err = run("scan", 20, 10)
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# cases


@pytest.mark.parametrize("q,a", [(409, 245), (347, 35)])
def test_cases_all_rows_pass_for_witness(run, q, a):
    code, out, _ = run("cases", q, a)
    doc = json.loads(out)
    check_schema("cases", doc)
    assert code == 0
    assert doc["q"] == q and doc["a"] == a and doc["residue"] == q % 4
    assert doc["all_passed"] is True and len(doc["rows"]) == 16
    for probe in ("one", "eta"):
        triples = [r["parities"] for r in doc["rows"] if r["probe"] == probe]
        assert len(triples) == 8 and len(set(triples)) == 8


def test_cases_rejects_non_witness(run):
    code, out, err = run("cases", 409, 86)
    assert code == 2 and out == "" and "does not satisfy" in err


@pytest.mark.parametrize("a", [654, -164, 409])
def test_cases_rejects_slopes_that_are_not_encodings(run, a):
    # 654 and -164 both reduce to the witness 245 mod 409
    code, out, err = run("cases", 409, a)
    assert code == 2 and out == ""
    assert err == f"error: slope a={a} is not a canonical encoding below 409\n"


# ---------------------------------------------------------------------------
# weil / disc / threshold


def test_weil_census_small_field(run):
    code, out, _ = run("weil", 13)
    doc = json.loads(out)
    check_schema("weil", doc)
    assert code == 0
    assert doc["q"] == 13 and doc["residue"] == 1
    assert doc["actual_count"] == 0 and doc["guaranteed_count"] == 0


def test_weil_subset_listing(run):
    code, out, _ = run("weil", 409, "--subsets")
    doc = json.loads(out)
    check_schema("weil", doc)
    assert code == 0
    assert [entry["mask"] for entry in doc["subset_sums"]] == list(range(1, 256))
    assert doc["actual_count"] >= 1  # 409 carries a condition witness


def test_weil_rejects_even_characteristic(run):
    code, _, err = run("weil", 8)
    assert code == 2 and "error:" in err


def test_weil_refuses_field_above_dense_limit(run):
    # 2^61 - 1 is prime; without the guard the census would never finish
    code, out, err = run("weil", 2305843009213693951)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_search_and_scan_refuse_field_above_dense_limit(run, tmp_path):
    p = 16777259  # the first prime above 2^24
    for args in (("search", p, "--mode", "theorem"),
                 ("--cache", tmp_path / "c.csv", "scan", p, p)):
        code, out, err = run(*args)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["weil", "search"])
def test_refusal_above_dense_limit_builds_no_field_data(run, monkeypatch, command):
    # 1000003^2: every element of GF(1000003) is a square, so an eager
    # search for the non-square would make about a million parity calls
    def no_parity(self, u):
        raise AssertionError("parity_by_pow called before the DENSE_MAX refusal")

    monkeypatch.setattr(mnq.fields.Field, "parity_by_pow", no_parity)
    code, out, err = run(command, 1000006000009)
    assert code == 2 and out == ""
    assert err == ("error: q = 1000006000009 is above 16777216, the largest order "
                   "whose character sums are computed over the whole field\n")


def test_disc_survey_with_direct_cross_check(run):
    code, out, _ = run("disc", "--residue", 3, "--direct")
    doc = json.loads(out)
    check_schema("disc", doc)
    assert code == 0
    assert doc["exceptional_primes"] == [2, 3, 5, 7, 23]
    assert doc["direct_route_primes"] == [2, 3, 5, 7, 23]
    assert len(doc["subsets"]) == 127


def test_disc_survey_residue_one(run):
    code, out, _ = run("disc", "--residue", 1)
    doc = json.loads(out)
    check_schema("disc", doc)
    assert code == 0
    assert doc["exceptional_primes"] == [2, 3, 5, 23]
    assert "direct_route_primes" not in doc


def test_threshold_prints_exact_order(run):
    code, out, _ = run("threshold")
    assert code == 0 and out == "2369532\n"
    check_schema("threshold", json.loads(out))


# ---------------------------------------------------------------------------
# exists


def test_exists_negative_verdicts(run):
    code, out, _ = run("exists", 6)
    doc = json.loads(out)
    check_schema("exists", doc)
    assert code == 1
    assert doc["status"] == "does-not-exist" and doc["reason"] == "small-order-registry"

    code, out, _ = run("exists", 12)
    doc = json.loads(out)
    check_schema("exists", doc)
    assert code == 1
    assert doc["status"] == "not-guaranteed" and doc["reason"] == "two-adic-valuation"

    code, out, _ = run("exists", 21)
    doc = json.loads(out)
    check_schema("exists", doc)
    assert code == 1 and doc["reason"] == "3-adic-valuation"


def test_exists_positive_with_plan(run):
    code, out, _ = run("exists", 117)
    doc = json.loads(out)
    check_schema("exists", doc)
    assert code == 0
    assert doc["status"] == "exists" and doc["reason"] == "valuation-criteria"
    assert [blk["order"] for blk in doc["plan"]] == [9, 13]
    assert all(blk["in_scope"] for blk in doc["plan"])


def test_exists_out_of_scope_plan_is_reported(run):
    code, out, _ = run("exists", 64)
    doc = json.loads(out)
    check_schema("exists", doc)
    assert code == 0
    assert doc["plan"] == [{"order": 64, "in_scope": False, "route": None}]


def test_exists_build_materializes_certified_table(run, tmp_path):
    out_file = tmp_path / "t117.json"
    code, out, _ = run("exists", 117, "--build", "-o", out_file)
    doc = json.loads(out)
    check_schema("exists", doc)
    assert code == 0
    assert doc["output"] == str(out_file) and doc["assoc_count"] == 117

    code, out, _ = run("verify", out_file)
    vdoc = json.loads(out)
    check_schema("verify", vdoc)
    assert code == 0
    assert vdoc["n"] == 117 and vdoc["mnq"] is True


def test_exists_build_rejects_out_of_scope_blocks(run, tmp_path):
    code, out, err = run("exists", 576, "--build", "-o", tmp_path / "t576.json")
    assert code == 2 and out == "" and "error:" in err
    assert not (tmp_path / "t576.json").exists()


def test_exists_build_rejects_negative_order(run, tmp_path):
    code, _, err = run("exists", 12, "--build", "-o", tmp_path / "t12.json")
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# product


def test_product_certifies_maximal_nonassociativity(run, tmp_path):
    t9 = tmp_path / "t9.json"
    code, _, _ = run("construct", 9, 3, 6, "-o", t9)
    assert code == 0

    out_file = tmp_path / "t81.json"
    code, out, _ = run("product", t9, t9, "-o", out_file, "--certify")
    doc = json.loads(out)
    check_schema("product", doc)
    assert code == 0
    assert doc == {
        "n": 81,
        "latin": True,
        "idempotent": True,
        "output": str(out_file),
        "assoc_count": 81,
        "mnq": True,
    }

    code, out, _ = run("verify", out_file)
    assert code == 0 and json.loads(out)["mnq"] is True


def test_product_without_certify_skips_cubic_count(run, tmp_path):
    t9 = tmp_path / "t9.json"
    run("construct", 9, 3, 6, "-o", t9)
    code, out, _ = run("product", t9, t9, "-o", tmp_path / "t81.json")
    doc = json.loads(out)
    check_schema("product", doc)
    assert code == 0 and "assoc_count" not in doc and "mnq" not in doc


def test_product_certify_counts_non_witness_factors(run, tmp_path):
    # x + 2y mod 5 and the Klein four-group: Latin, neither a witness
    f1, f2 = tmp_path / "c5.json", tmp_path / "k4.txt"
    save_table(make_table((np.arange(5)[:, None] + 2 * np.arange(5)[None, :]) % 5), f1)
    save_table(make_table(np.arange(4)[:, None] ^ np.arange(4)[None, :]), f2)
    out_file = tmp_path / "p.json"
    code, out, _ = run("product", f1, f2, "-o", out_file, "--certify")
    doc = json.loads(out)
    check_schema("product", doc)
    assert code == 0
    want = count_associative_naive(load_table(out_file)).total
    assert want != 20
    assert doc["assoc_count"] == want and doc["mnq"] is False and doc["idempotent"] is False


def test_product_certify_rejects_a_table_that_is_not_the_product(run, tmp_path, monkeypatch):
    real = cli.direct_product

    def relabelled(t1, t2, cap):
        return swap_01(real(t1, t2, cap=cap))

    t9 = tmp_path / "t9.json"
    run("construct", 9, 3, 6, "-o", t9)
    monkeypatch.setattr(cli, "direct_product", relabelled)
    out_file = tmp_path / "p.json"
    code, out, err = run("product", t9, t9, "-o", out_file, "--certify")
    assert code == 3 and out == "" and err.count("\n") == 1
    assert "not the product" in err and not out_file.exists()


def test_product_rejects_non_latin_input(run, tmp_path):
    bad = tmp_path / "bad.json"
    save_table(make_table([[0, 0], [1, 1]]), bad)
    good = tmp_path / "t9.json"
    run("construct", 9, 3, 6, "-o", good)
    code, out, err = run("product", bad, good, "-o", tmp_path / "p.json")
    assert code == 2 and out == "" and "error:" in err


def test_product_honors_table_cap(run, tmp_path):
    t9 = tmp_path / "t9.json"
    run("construct", 9, 3, 6, "-o", t9)
    code, _, err = run("--table-cap", 50, "product", t9, t9, "-o", tmp_path / "p.json")
    assert code == 2 and "cap" in err


# ---------------------------------------------------------------------------
# argparse plumbing and the installed entry point


def test_usage_errors_exit_two(run):
    assert run("search")[0] == 2          # missing required argument
    assert run("no-such-command")[0] == 2  # unknown subcommand
    assert run("disc")[0] == 2             # missing required --residue


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 16 EiB"),
                                 RuntimeError("two\nlines")])
def test_unexpected_exception_exits_three(run, monkeypatch, exc):
    def boom(ns):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "threshold", boom)
    code, out, err = run("threshold")
    assert code == 3 and out == ""
    assert err.startswith(f"unexpected error: {type(exc).__name__}:")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_console_script_subprocess():
    exe = shutil.which("mnq")
    cmd = [exe] if exe else [sys.executable, "-m", "mnq.cli"]
    proc = subprocess.run(
        cmd + ["threshold"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert proc.stdout == "2369532\n"


def test_importing_the_cli_loads_no_process_pool():
    # only a --workers > 1 pool needs it; the naive count runs on threads
    code = ("import sys, mnq.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_module_entry_point_matches_console(run, tmp_path):
    # the same construct invocation through a subprocess is byte-identical
    _, expected, _ = run("construct", 9, 3, 6)
    proc = subprocess.run(
        [sys.executable, "-m", "mnq.cli", "construct", "9", "3", "6"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stdout == expected
