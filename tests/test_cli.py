"""End-to-end tests for the command line interface.

All commands run in-process through ``main(argv)``; captured stdout is parsed
as JSON and validated against ``docs/cli_output.schema.json``.  One test runs
the installed console entry point in a real subprocess.
"""

from __future__ import annotations

import ast
import concurrent.futures
import hashlib
import importlib.util
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
import mnq.existence
import mnq.fields
import mnq.intpoly
import mnq.quasigroup
from mnq import OpTable, cli, count_associative_naive, field_for_order, load_table, save_table
from mnq.cli import main
from mnq.existence import Status

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


def test_readme_python_block_gives_what_its_comments_say():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns: dict = {}
    values = []  # the value of each bare expression line, in order
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), ns))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), ns)
    assert ns["a"] == 35
    assert values == [347, 347, 3]
    assert ns["d"].status is Status.EXISTS and [b.order for b in ns["d"].plan] == [9, 13]
    assert ns["table"].n == 117


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


def test_verify_prints_the_same_for_a_hand_spaced_copy(run, tmp_path):
    # the canonical file takes the fast path, the spaced copy the strict parser
    canonical, spaced = tmp_path / "t9.json", tmp_path / "spaced.json"
    run("construct", 9, 3, 6, "-o", canonical)
    spaced.write_text(json.dumps(json.loads(canonical.read_text())))
    assert spaced.read_text() != canonical.read_text()
    first = run("verify", canonical)
    assert first[0] == 0 and run("verify", spaced) == first


def test_two_slope_tables_are_certified_without_the_naive_count(run, tmp_path, monkeypatch):
    orders = []
    naive = mnq.quasigroup.count_associative_naive
    monkeypatch.setattr(mnq.construct, "count_associative_naive", lambda t: orders.append(t.n) or naive(t))
    t409, t9, t13 = tmp_path / "t409.json", tmp_path / "t9.json", tmp_path / "t13.json"
    assert run("exists", 409, "--build", "-o", t409)[0] == 0
    assert run("verify", t409) == (0, '{"assoc_count":409,"idempotent":true,"latin":true,"mnq":true,"n":409}\n', "")
    code, out, _ = run("construct", 4093, 315, 993)
    assert code == 0 and json.loads(out)["assoc_count"] == 4093
    assert run("construct", 9, 3, 6, "-o", t9)[0] == run("construct", 13, 2, 5, "-o", t13)[0] == 0
    code, out, _ = run("product", t9, t13, "-o", tmp_path / "p.json", "--certify")
    assert code == 0 and json.loads(out)["assoc_count"] == 117
    assert orders == []
    # relabelled, the 409 table is no two-slope table and is counted naively
    fake = tmp_path / "fake409.json"
    save_table(swap_01(load_table(t409)), fake)
    code, out, _ = run("verify", fake)
    assert code == 0 and json.loads(out)["assoc_count"] == 409 and orders == [409]


def test_verify_missing_file_is_usage_error(run, tmp_path):
    code, out, err = run("verify", tmp_path / "absent.json")
    assert code == 2 and out == "" and "error:" in err


def test_writing_into_a_missing_directory_is_one_line(run, tmp_path):
    table = tmp_path / "t9.json"
    for args in (("construct", 9, 3, 6, "-o", table), ("construct", 9, 3, 6, "-o", table)):
        assert run(*args)[0] == 0  # a new path, then a rewrite of it
    missing = tmp_path / "no" / "t.json"
    for args in (("construct", 9, 3, 6, "-o", missing), ("exists", 117, "--build", "-o", missing),
                 ("product", table, table, "-o", missing)):
        code, out, err = run(*args)
        assert (code, out) == (2, "") and err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


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


def test_verify_refuses_a_text_row_of_the_wrong_length(run, tmp_path):
    bad = tmp_path / "short.txt"
    bad.write_text("3\n0 1 2\n1 2\n2 0 1\n")
    assert run("verify", bad) == (2, "", "error: row of length 2, expected 3\n")


@pytest.mark.parametrize("name, text, message", [
    ("zero.json", '{"n": 0, "rows": []}', "table order must be at least 1, got 0"),
    ("minus.json", '{"n": -1, "rows": []}', "table order must be at least 1, got -1"),
    ("zero.txt", "0\n", "table order must be at least 1, got 0"),
    # a sign is not an ASCII decimal, so the text header is refused before its value
    ("minus.txt", "-1\n", "table text must hold ASCII decimal integers only"),
])
def test_verify_refuses_a_table_order_below_one(run, tmp_path, name, text, message):
    bad = tmp_path / name
    bad.write_text(text)
    code, out, err = run("verify", bad)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_names_the_bom_of_a_json_table(run, tmp_path):
    # the BOM must not send the file to the text parser, whose message
    # would say nothing of it
    bad = tmp_path / "bom.json"
    bad.write_bytes(b'\xef\xbb\xbf{"n":1,"rows":[[0]]}')
    code, out, err = run("verify", bad)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: Unexpected UTF-8 BOM")


def test_verify_and_product_refuse_tables_above_cap(run, tmp_path, monkeypatch):
    t9 = tmp_path / "t9.txt"
    run("construct", 9, 3, 6, "-o", t9)

    def no_count(t):
        raise AssertionError("counted a table above the cap")

    monkeypatch.setattr(cli, "count_associative", no_count)
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
    # the general search builds no table: --table-cap does not bound it, and
    # its character table refuses q above DENSE_MAX before any probe
    probes = []
    monkeypatch.setattr(mnq.construct, "_assoc_completions", lambda *args: probes.append(args))
    monkeypatch.setattr(mnq.construct, "_z0_survivors", lambda *args: probes.append(args))
    code, out, err = run("search", 16777259, "--mode", "general")
    assert (code, out, err) == (2, "", "error: q = 16777259 is above 16777216, the largest order "
                                       "whose character sums are computed over the whole field\n")
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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


def test_workers_pool_is_bounded_by_chunks_and_cpus(run, pool_sizes, monkeypatch):
    _, serial, _ = run("search", 9, "--all")
    assert pool_sizes == []
    # GF(9) has 8 candidate a's, so at most 8 chunks
    for cpus, size in [(64, 8), (2, 2), (1, 1)]:
        monkeypatch.setattr(mnq.construct, "_usable_cpus", lambda: cpus)
        code, out, _ = run("--workers", 5000, "search", 9, "--all")
        assert (code, out, pool_sizes[-1]) == (0, serial, size)
    # no theorem hits in GF(3^7): nothing to split, no pool
    code, out, _ = run("--workers", 4, "search", 2187, "--mode", "theorem", "--all")
    assert code == 1 and json.loads(out)["witnesses"] == [] and len(pool_sizes) == 3


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask on this platform")
def test_workers_pool_is_bounded_by_the_affinity_mask(run, pool_sizes):
    # the real mask, unpatched: pinned to one CPU (taskset -c 0) the pool
    # must not start more than one process, whatever --workers asks
    _, serial, _ = run("search", 9, "--all")
    code, out, _ = run("--workers", 4, "search", 9, "--all")
    assert (code, out) == (0, serial)
    assert len(pool_sizes) == 1 and 1 <= pool_sizes[0] <= len(os.sched_getaffinity(0))


def test_first_witness_searches_start_no_pool(run, pool_sizes):
    for args in (("search", 409), ("search", 361, "--mode", "general")):
        code, out, _ = run("--workers", 4, *args)
        assert code == 0 and len(json.loads(out)["witnesses"]) == 1
    assert pool_sizes == []


def test_workers_split_the_slopes_into_no_more_sections_than_slopes(run, pool_sizes, monkeypatch):
    # GF(25) has 24 slopes a: a section per worker beyond them would be empty
    sections = []
    split = np.array_split

    def spy(a, n, *args, **kwargs):
        sections.append(n)
        return split(a, n, *args, **kwargs)

    monkeypatch.setattr(np, "array_split", spy)
    _, serial, _ = run("search", 25, "--all")
    assert sections == []
    code, out, _ = run("--workers", 100000, "search", 25, "--all")
    assert (code, out) == (0, serial)
    assert len(sections) == 1 and sections[0] <= 24


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_exit_two_before_any_pool(run, pool_sizes, workers):
    code, out, err = run("--workers", workers, "search", 9, "--all")
    assert (code, out, pool_sizes) == (2, "", [])
    assert err == f"error: --workers must be at least 1, got {workers}\n"


def test_search_has_no_first_flag(run):
    # stopping at the first witness is the default; --all is the one flag
    code, out, err = run("search", 9, "--first")
    assert (code, out) == (2, "")
    assert err.startswith("usage: mnq ") and "unrecognized arguments: --first" in err


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


@pytest.mark.parametrize("q, witness", [(361, [19, 33]), (529, [25, 31])])
def test_search_falls_back_to_the_general_search_on_a_silent_field(run, q, witness):
    # no theorem hit: without --mode the general search runs, as in find_witness
    code, out, _ = run("search", q)
    doc = json.loads(out)
    check_schema("search", doc)
    assert code == 0 and doc == {"mode": "general", "q": q, "witnesses": [witness]}


def test_search_theorem_mode_on_a_silent_field_exits_one(run):
    code, out, _ = run("search", 361, "--mode", "theorem")
    doc = json.loads(out)
    check_schema("search", doc)
    assert code == 1 and doc == {"mode": "theorem", "q": 361, "witnesses": []}


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_search_theorem_mode_on_the_smallest_fields_exits_one(run, q):
    # GF(3) has no slope outside {0, 1, -1}: its scan runs and finds nothing
    out = '{"mode":"theorem","q":%d,"witnesses":[]}\n' % q
    assert run("search", q, "--mode", "theorem") == (1, out, "")


def test_search_falls_back_to_the_general_search_above_the_table_cap(run):
    # --table-cap bounds tables only, and the search builds none
    out = '{"mode":"general","q":361,"witnesses":[[19,33]]}\n'
    assert run("--table-cap", 360, "search", 361) == (0, out, "")


def test_search_of_a_silent_field_above_the_default_cap_finds_its_witness(run):
    out = '{"mode":"general","q":6561,"witnesses":[[3,39]]}\n'
    assert run("search", 6561) == (0, out, "")
    assert run("search", 6561, "--mode", "general") == (0, out, "")
    # the theorem scan did run, so its empty result is a verified negative
    assert run("search", 6561, "--mode", "theorem") == (1, '{"mode":"theorem","q":6561,"witnesses":[]}\n', "")


@pytest.mark.parametrize("q", [19, 29, 149])
def test_search_and_scan_take_the_same_first_witness(run, tmp_path, q):
    # the condition scan has a hit at each, but up to 343 neither runs it
    code, out, _ = run("search", q)
    search = json.loads(out)
    assert code == 0 and search["mode"] == "general"
    code, out, _ = run("--cache", tmp_path / "c.csv", "scan", q, q)
    scan = json.loads(out)
    assert code == 0 and scan["method"] == "general" and scan["status"] == "found"
    assert search["witnesses"] == [[scan["a"], scan["b"]]]


def test_exists_build_takes_the_first_general_witness_of_each_block(run, tmp_path):
    # 261 = 9 * 29: the 29 block, the last factor, is the general search's
    # (2, 10), not the condition scan's first hit (4, 16)
    assert run("search", 29) == (0, '{"mode":"general","q":29,"witnesses":[[2,10]]}\n', "")
    out_file = tmp_path / "t261.json"
    assert run("exists", 261, "--build", "-o", out_file)[0] == 0
    t = load_table(out_file)
    block = mnq.construct.build_table(field_for_order(29), 2, 10)
    assert np.array_equal(t.entries[:29, :29], block.entries)  # the rows and columns of (0, .)
    code, out, _ = run("verify", out_file)
    assert code == 0 and json.loads(out)["mnq"] is True


def test_scan_of_a_silent_field_above_the_default_cap_finds_then_caches_its_witness(run, tmp_path):
    cache = tmp_path / "c.csv"
    row = '{"a":3,"assoc_count":6561,"b":39,"method":"general","q":6561,"status":"%s"}\n'
    assert run("--cache", cache, "scan", 6561, 6561) == (0, row % "found", "")
    assert run("--cache", cache, "scan", 6561, 6561) == (0, row % "cached", "")


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(run):
    assert cli.build_parser() is cli.build_parser()
    assert run("search", 409) == (0, '{"mode":"theorem","q":409,"witnesses":[[245,311]]}\n', "")
    code, out, err = run("search")  # the usage line's layout varies with the Python version
    assert (code, out) == (2, "") and err.endswith("mnq search: error: the following arguments are required: q\n")
    assert run("threshold") == (0, "2369532\n", "")
    assert run("exists", 117) == (0, '{"n":117,"plan":[{"in_scope":true,"order":9,"route":"general"},'
                                     '{"in_scope":true,"order":13,"route":"general"}],'
                                     '"reason":"valuation-criteria","status":"exists"}\n', "")
    assert run("search", 409) == (0, '{"mode":"theorem","q":409,"witnesses":[[245,311]]}\n', "")


# ---------------------------------------------------------------------------
# scan and the witness cache


def test_scan_discovers_then_reuses_cache(run, tmp_path):
    cache = tmp_path / "wc.csv"

    code, out, _ = run("--cache", cache, "scan", 9, 13)
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

    code, out, _ = run("--cache", cache, "scan", 9, 13)
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


def test_scan_survives_torn_cache_row(run, tmp_path):
    cache = tmp_path / "wc.csv"
    cache.write_text(CACHE_HEADER + "19,19", newline="")  # a write cut short
    code, out, err = run("--cache", cache, "scan", 19, 19)
    assert code == 0
    doc = json.loads(out)
    check_schema("scan_line", doc)
    assert (doc["status"], doc["assoc_count"]) == ("found", 19)
    assert len(err.splitlines()) == 1 and err.startswith("warning:")

    code, out, _ = run("--cache", cache, "scan", 19, 19)
    again = json.loads(out)
    assert code == 0 and again["status"] == "cached"
    assert (again["a"], again["b"]) == (doc["a"], doc["b"])


def test_scan_recertifies_forged_cache_row(run, tmp_path):
    cache = tmp_path / "wc.csv"
    cache.write_text(CACHE_HEADER + "13,13,1,13,1,1,theorem,13,x\r\n", newline="")
    code, out, err = run("--cache", cache, "scan", 13, 13)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "found" and (doc["a"], doc["b"]) != (1, 1)
    assert "fails re-certification" in err and len(err.splitlines()) == 1
    code, out, _ = run("construct", 13, doc["a"], doc["b"])
    assert code == 0 and json.loads(out)["mnq"]

    code, out, err = run("--cache", cache, "scan", 13, 13)
    again = json.loads(out)
    assert code == 0 and err == ""
    assert again["status"] == "cached" and (again["a"], again["b"]) == (doc["a"], doc["b"])


def test_scan_replaces_a_row_of_an_older_search_order(run, tmp_path):
    # (4, 16) certifies as a theorem hit at 29, but up to 343 the search
    # order takes the general search's first witness, so the row is refused,
    # searched again, and the new row, appended last, is the one read next
    cache = tmp_path / "wc.csv"
    cache.write_text(CACHE_HEADER + "29,29,1,29,4,16,theorem,29,x\r\n", newline="")
    row = '{"a":2,"assoc_count":29,"b":10,"method":"general","q":29,"status":"%s"}\n'
    code, out, err = run("--cache", cache, "scan", 29, 29)
    assert (code, out) == (0, row % "found")
    assert err == "warning: cached witness (4, 16) for q=29 fails re-certification; searching again\n"
    assert run("--cache", cache, "scan", 29, 29) == (0, row % "cached", "")


def test_scan_cache_flag_names_the_cache(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    explicit = tmp_path / "explicit.csv"
    code, out, _ = run("--cache", explicit, "scan", 25, 25)
    assert code == 0
    assert json.loads(out)["status"] == "found"
    assert explicit.exists() and not (tmp_path / "witness_cache.csv").exists()


def test_scan_reads_no_cache_path_from_the_environment(run, tmp_path, monkeypatch):
    # the cache has one setting, --cache; without it scan writes
    # witness_cache.csv in the working directory, whatever MNQ_CACHE says
    elsewhere = tmp_path / "env" / "wc.csv"
    elsewhere.parent.mkdir()
    monkeypatch.setenv("MNQ_CACHE", str(elsewhere))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code, out, _ = run("scan", 9, 13)
    assert code == 0 and [json.loads(line)["status"] for line in out.splitlines()] == [
        "found", "known-empty", "found"]
    assert list(mnq.construct.load_cache(work / "witness_cache.csv")) == [9, 13]
    assert not elsewhere.exists()


def test_scan_prints_empty_when_no_witness_is_found(run, tmp_path, monkeypatch):
    cache = tmp_path / "c.csv"
    real = cli.find_witness
    monkeypatch.setattr(cli, "find_witness", lambda fld: None if fld.q == 13 else real(fld))
    code, out, err = run("--cache", cache, "scan", 9, 13)
    for line in out.splitlines():
        check_schema("scan_line", json.loads(line))
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == ['{"q":11,"status":"known-empty"}', '{"q":13,"status":"empty"}']
    assert list(mnq.construct.load_cache(cache)) == [9]  # no row for 13


def test_scan_searches_the_planner_hole_2187(run, tmp_path):
    # 3^7 is a hole of the planner's theorem route, not an order without a
    # witness: the theorem scan finds nothing, the general search finds (2, 5)
    cache = tmp_path / "c.csv"
    row = '{"a":2,"assoc_count":2187,"b":5,"method":"general","q":2187,"status":"%s"}\n'
    assert run("--cache", cache, "scan", 2187, 2187) == (0, row % "found", "")
    assert run("--cache", cache, "scan", 2187, 2187) == (0, row % "cached", "")
    assert [b.order for b in mnq.existence.decide(3**7).plan] == [9, 243]


def test_scan_skips_non_prime_powers(run, tmp_path):
    code, out, _ = run("--cache", tmp_path / "wc.csv", "scan", 14, 16)
    assert code == 0 and out == ""  # 15 = 3*5 skipped, evens never visited


@pytest.fixture
def orbit_calls(monkeypatch):
    """q of every count_associative_orbit call, from any mnq module."""
    calls = []
    orig = mnq.construct.count_associative_orbit

    def counting(field, a, b):
        calls.append(field.q)
        return orig(field, a, b)

    for name, mod in list(sys.modules.items()):
        if name == "mnq" or name.startswith("mnq."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def _statuses(out):
    return [(d["q"], d["status"], d.get("method")) for d in map(json.loads, out.splitlines())]


def test_theorem_hits_are_certified_without_the_orbit_count(run, tmp_path, orbit_calls):
    # a theorem hit, found or cached, is certified by its characters, the
    # Latin test, the closed-form (0,0) count and the checked case catalog
    cache = tmp_path / "c.csv"
    fields = [16747, 16759, 16763, 16787, 16807, 16811, 16823, 16829, 16831]
    for status in ("found", "cached"):
        code, out, _ = run("--cache", cache, "scan", 16747, 16831)
        assert (code, _statuses(out)) == (0, [(q, status, "theorem") for q in fields])
    assert orbit_calls == []


def test_cached_general_rows_are_orbit_counted_once_each(run, tmp_path, orbit_calls):
    cache = tmp_path / "c.csv"
    code, out, _ = run("--cache", cache, "scan", 345, 470)
    general = [q for q, _, method in _statuses(out) if method == "general"]
    assert code == 0 and general == [361, 373, 389, 401, 443, 463]
    orbit_calls.clear()  # the general search probes without count_associative_orbit
    code, out, _ = run("--cache", cache, "scan", 345, 470)
    assert code == 0 and {s for _, s, _ in _statuses(out)} == {"cached"}
    assert orbit_calls == general


def test_verify_of_a_theorem_table_still_takes_the_orbit_count(run, tmp_path, orbit_calls):
    path = tmp_path / "t409.json"
    assert run("construct", 409, 245, "-o", path)[0] == 0
    orbit_calls.clear()
    code, out, _ = run("verify", path)
    assert (code, json.loads(out)["assoc_count"], orbit_calls) == (0, 409, [409])


def test_every_theorem_hit_of_1000003_keeps_its_bytes(run):
    # the stdout of the orbit-certified search before the case catalog
    # certified its hits: 3,972 witnesses
    code, out, err = run("search", 1000003, "--all", "--mode", "theorem")
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode()).hexdigest() == "9d2b17f6ad04bf3e5b05883f9e1187ab"
    assert len(json.loads(out)["witnesses"]) == 3972


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


def test_scan_recertifies_a_cached_theorem_row_above_dense_limit(run, tmp_path):
    # the certificate reads single characters, so a cached theorem row
    # re-certifies above the largest order the search scans
    cache = tmp_path / "c.csv"
    cache.write_text("q,p,e,modulus,a,b,method,assoc_count,timestamp\n"
                     "16777259,16777259,1,16777259,423,178929,theorem,16777259,2026-01-01T00:00:00+00:00\n")
    assert run("--cache", cache, "scan", 16777259, 16777259) == (
        0, '{"a":423,"assoc_count":16777259,"b":178929,"method":"theorem","q":16777259,"status":"cached"}\n', "")


def test_characteristic_two_refusals(run, monkeypatch):
    def no_pool(max_workers):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for args in (("search", 8), ("search", 8, "--mode", "theorem"),
                 ("--workers", 2, "search", 16, "--all", "--mode", "general")):
        assert run(*args) == (2, "", "error: search needs an odd field\n"), args
    assert run("cases", 8, 3) == (2, "", "error: cases needs an odd field\n")


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


def test_disc_direct_exits_three_when_the_routes_disagree(run, monkeypatch):
    monkeypatch.setattr(cli, "exceptional_primes", lambda cs: {2, 3, 5, 23, 29})
    code, out, err = run("disc", "--residue", 1, "--direct")
    assert (code, out) == (3, "")
    assert err == ("internal check failed: discriminant routes disagree for residue 1: "
                   "[2, 3, 5, 23, 29] vs [2, 3, 5, 23]\n")


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


def test_exists_huge_order_rejected_by_its_lowest_bit(run):
    # 2*(2^61 - 1)*(2^89 - 1): the verdict is read off v_2 = 1, before
    # Pollard rho would meet the 150-bit odd cofactor
    n = 2 * (2**61 - 1) * (2**89 - 1)
    assert n == 2854495385411919760878631895001923979438981122
    assert run("exists", n) == (1, '{"n":2854495385411919760878631895001923979438981122,"plan":[],'
                                   '"reason":"two-adic-valuation","status":"not-guaranteed"}\n', "")


def test_exists_huge_order_stops_at_the_rho_bound(run):
    # 2^6*(2^61 - 1)*(2^89 - 1) passes both valuation tests, so decide
    # factors it; Pollard rho cannot split the 150-bit odd cofactor within
    # RHO_STEPS, and that is a usage error in one line, not an endless run
    n = 2**6 * (2**61 - 1) * (2**89 - 1)
    assert n == 91343852333181432348116220640061567342047395904
    code, out, err = run("exists", n)
    assert (code, out) == (2, "")
    assert err == (f"error: Pollard rho found no factor of {n // 64}, a factor of {n}, "
                   f"within {mnq.intpoly.RHO_STEPS} steps\n")


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


def test_exists_build_default_name_follows_the_format(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run("exists", 117, "--build", "--format", "text")
    assert code == 0 and json.loads(out)["output"] == "mnq-117.txt"
    assert (tmp_path / "mnq-117.txt").read_text().startswith("117\n")
    assert not (tmp_path / "mnq-117.json").exists()
    code, out, _ = run("exists", 117, "--build")
    assert code == 0 and json.loads(out)["output"] == "mnq-117.json"
    assert (tmp_path / "mnq-117.json").read_text().startswith('{"n":117,')

    verdicts = [run("verify", name) for name in ("mnq-117.txt", "mnq-117.json")]
    assert verdicts[0] == verdicts[1]
    code, out, err = verdicts[0]
    assert code == 0 and err == "" and json.loads(out)["mnq"] is True


@pytest.mark.parametrize("n", [117, 441])
def test_exists_build_table_passes_the_naive_oracle(run, tmp_path, n):
    # verify counts a product file through its factors; this recount
    # checks a built table without is_product_of
    out_file = tmp_path / f"t{n}.json"
    code, out, _ = run("exists", n, "--build", "-o", out_file)
    assert code == 0 and json.loads(out)["assoc_count"] == n
    assert count_associative_naive(load_table(out_file)).total == n


def test_exists_build_of_order_1_writes_the_trivial_table(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    built = run("exists", 1, "--build")
    assert built == (0, '{"assoc_count":1,"n":1,"output":"mnq-1.json","plan":[],'
                        '"reason":"trivial-order","status":"exists"}\n', "")
    check_schema("exists", json.loads(built[1]))
    assert (tmp_path / "mnq-1.json").read_text() == '{"n":1,"rows":[[0]]}\n'
    verified = run("verify", "mnq-1.json")
    assert verified == (0, '{"assoc_count":1,"idempotent":true,"latin":true,"mnq":true,"n":1}\n', "")
    check_schema("verify", json.loads(verified[1]))
    assert run("--table-cap", 0, "exists", 1, "--build", "-o", "zero.json") == (
        2, "", "error: product order 1 exceeds table cap 0\n")
    assert not (tmp_path / "zero.json").exists()


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
    save_table(OpTable((np.arange(5)[:, None] + 2 * np.arange(5)[None, :]) % 5), f1)
    save_table(OpTable(np.arange(4)[:, None] ^ np.arange(4)[None, :]), f2)
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
    save_table(OpTable([[0, 0], [1, 1]]), bad)
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


def _imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _imported_modules(node):
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    return [alias.name for alias in node.names]


def test_the_table_layer_imports_nothing_from_the_package():
    # which count a table takes is construct's knowledge, so quasigroup
    # needs no field code and the module graph has no cycle
    tree = ast.parse(Path(mnq.quasigroup.__file__).read_text())
    names = [name for node in _imports(tree) for name in _imported_modules(node)]
    assert "numpy" in names and [name for name in names if name.startswith((".", "mnq"))] == []


def test_no_module_imports_inside_a_function():
    found = []
    for path in sorted(Path(mnq.construct.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.name, node.lineno) for node in _imports(fn)]
    assert found == []


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


def test_bench_tracer_wraps_every_target(capsys, tmp_path):
    # perfbench/tracing.py wraps functions by name and binds their parameters
    # by name; a rename in the package must fail here, not only in a traced
    # bench run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = [m for k, m in sys.modules.items() if k == "mnq" or k.startswith("mnq.")]
    saved = [(m, dict(vars(m))) for m in modules]
    table, cache, fake = tmp_path / "t.json", tmp_path / "c.csv", tmp_path / "fake.json"
    # relabelled, a two-slope table is no longer one, so its verify reaches
    # the naive count; the built table's factors are orbit-counted
    save_table(swap_01(mnq.construct.build_table(field_for_order(9), 3, 6)), fake)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        # scan 9 13 runs the general search alone; search 347 reaches the theorem scan
        for argv in (["--cache", cache, "scan", 9, 13], ["--cache", cache, "scan", 9, 13],
                     ["search", 347], ["weil", 13, "--subsets"],
                     ["exists", 117, "--build", "-o", table], ["verify", table], ["verify", fake]):
            assert cli.main([str(a) for a in argv]) == 0, argv
        metrics = tracing.layer_metrics(tracer.spans)
    finally:
        for m, attrs in saved:
            for k, v in attrs.items():
                setattr(m, k, v)
    capsys.readouterr()
    assert cli.main is main
    calls = {tracing.span_name(m, f): metrics[f"{tracing.span_name(m, f)}.calls"]
             for m, f, _ in tracing.TARGETS}
    assert all(calls.values()), [name for name, n in calls.items() if not n]
    assert metrics["construct.load_cache.rows"] > 0  # the warm scan read the cache
