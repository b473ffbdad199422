"""Operation tables: structure checks, the cubic counter, products, formats."""

from __future__ import annotations

import json
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cyclic, random_latin, triple_count_oracle
from mnq.construct import build_table, find_witness
from mnq.fields import field_for_order
import mnq.quasigroup
from mnq.quasigroup import (
    AssocCount,
    count_associative_naive,
    direct_product,
    dump_json,
    dump_text,
    is_idempotent,
    is_latin,
    is_product_of,
    load_table,
    make_table,
    parse_json,
    parse_text,
    save_table,
)


def random_rows(rng, n):
    """Arbitrary operation table, usually not Latin."""
    return make_table(rng.integers(0, n, size=(n, n)))


def witness_table(q):
    a, b, _ = find_witness(field_for_order(q))
    return build_table(field_for_order(q), a, b)


def per_middle_counts(rows):
    """Associative triples (x, y, z) for each middle element y, counted plainly."""
    n = len(rows)
    return [
        sum(1 for x in range(n) for z in range(n) if rows[rows[x][y]][z] == rows[x][rows[y][z]])
        for y in range(n)
    ]


# --- construction and structure ----------------------------------------------

def test_make_table_validation():
    make_table([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        make_table([[0, 1], [1]])
    with pytest.raises(ValueError):
        make_table([[0, 2], [1, 0]])
    with pytest.raises(ValueError):
        make_table([[0, -1], [1, 0]])
    with pytest.raises(ValueError):
        make_table(np.zeros((2, 3), dtype=int))


def test_entries_are_frozen():
    t = cyclic(4)
    with pytest.raises(ValueError):
        t.entries[0, 0] = 1


def test_is_latin_and_caching(rng):
    t = cyclic(5)
    assert is_latin(t) and t.latin is True
    for n in (1, 2, 6, 11):
        assert is_latin(random_latin(rng, n))
    rows = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    rows[0, 0] = 1  # duplicate in row 0 and column 0
    assert not is_latin(make_table(rows))


def test_is_idempotent():
    assert not is_idempotent(cyclic(3))
    assert is_idempotent(make_table([[0, 2, 1], [2, 1, 0], [1, 0, 2]]))


# --- associativity counting ----------------------------------------------------

def test_group_table_is_fully_associative():
    for n in (1, 2, 5, 8):
        got = count_associative_naive(cyclic(n))
        assert got == AssocCount(total=n**3)
        assert not got.aborted


def test_naive_counter_matches_oracle_on_arbitrary_tables(rng):
    for n in range(1, 11):
        for t in (random_rows(rng, n), random_latin(rng, n)):
            assert count_associative_naive(t).total == triple_count_oracle(t.entries.tolist())


def test_quasigroup_triple_count_is_at_least_order(rng):
    for n in range(1, 25):
        t = random_latin(rng, n)
        assert count_associative_naive(t).total >= n


def test_y_major_kernel_matches_oracle(rng):
    tables = [random_rows(rng, n) for n in (1, 2, 7, 16)]
    tables.append(direct_product(random_latin(rng, 4), random_latin(rng, 6)))
    tables.append(witness_table(31))
    for t in tables:
        got = count_associative_naive(t)
        assert got == AssocCount(total=triple_count_oracle(t.entries.tolist())), t.n
    assert count_associative_naive(tables[-1]).total == 31


def test_abort_is_checked_after_each_middle_element(rng):
    t = random_rows(rng, 9)
    per_y = per_middle_counts(t.entries.tolist())
    assert sum(1 for c in per_y if c) >= 3  # the triples are spread over several y
    prefix = np.cumsum(per_y)
    exact = int(prefix[-1])
    assert exact == triple_count_oracle(t.entries.tolist())
    for bound in range(exact):
        # the partial count after the first y whose running total passes the bound
        want = int(prefix[np.argmax(prefix > bound)])
        assert count_associative_naive(t, abort_above=bound) == AssocCount(total=want, aborted=True)
    assert count_associative_naive(t, abort_above=exact) == AssocCount(total=exact)


def test_abort_is_checked_after_each_middle_element_over_three_slabs(rng, force_slabs):
    force_slabs(3)
    test_abort_is_checked_after_each_middle_element(rng)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_slabbed_count_matches_oracle(rng, force_slabs, k):
    worked = force_slabs(k)
    # no order is a multiple of 2, 3 or 5, so the slabs differ in width
    tables = [random_rows(rng, n) for n in (7, 13, 23)]
    tables += [random_latin(rng, n) for n in (11, 17)]
    tables.append(direct_product(random_latin(rng, 7), random_latin(rng, 7)))
    tables.append(witness_table(31))
    for t in tables:
        worked.clear()
        assert count_associative_naive(t) == AssocCount(total=triple_count_oracle(t.entries.tolist())), t.n
        # k contiguous slabs of rows, as wide as can be within one row
        assert sorted(worked) == [(t.n * i // k, t.n * (i + 1) // k) for i in range(k)]


def test_slabbed_count_survives_fast_thread_switches(rng, force_slabs):
    # more slab threads than CPUs, switching as often as the interpreter can
    t = random_rows(rng, 61)
    want = AssocCount(total=triple_count_oracle(t.entries.tolist()))
    force_slabs(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert count_associative_naive(t) == want
    finally:
        sys.setswitchinterval(interval)


def test_a_failing_slab_fails_the_count(force_slabs, monkeypatch):
    force_slabs(3)
    count_slab = mnq.quasigroup._count_slab

    def fail_off_the_calling_thread(T, x0, x1, out):
        if x0:
            raise MemoryError(f"slab {x0}..{x1}")
        count_slab(T, x0, x1, out)

    monkeypatch.setattr(mnq.quasigroup, "_count_slab", fail_off_the_calling_thread)
    with pytest.raises(MemoryError):
        count_associative_naive(cyclic(9))


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs."""
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


def test_count_below_the_slab_floor_starts_no_thread(monkeypatch, thread_starts):
    monkeypatch.setattr(mnq.quasigroup, "_usable_cpus", lambda: 8)
    floor = mnq.quasigroup._SLAB_MIN_CELLS
    below = 255  # two slabs of 255 rows would hold fewer cells than the floor each
    assert below * below < 2 * floor <= (below + 1) ** 2
    assert count_associative_naive(cyclic(below)) == AssocCount(total=below**3)
    assert thread_starts == []
    # one row more makes two slabs (not eight: each must reach the floor)
    assert count_associative_naive(cyclic(below + 1)) == AssocCount(total=(below + 1) ** 3)
    assert len(thread_starts) == 1


def test_count_starts_a_thread_per_usable_cpu_but_one(thread_starts):
    n = 363  # room for four slabs above the floor
    assert 4 * mnq.quasigroup._SLAB_MIN_CELLS <= n * n < 5 * mnq.quasigroup._SLAB_MIN_CELLS
    assert count_associative_naive(cyclic(n)) == AssocCount(total=n**3)
    assert len(thread_starts) == min(mnq.quasigroup._usable_cpus(), 4) - 1


def test_usable_cpus_is_the_affinity_mask():
    want = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert mnq.quasigroup._usable_cpus() == want >= 1


def test_abort_threshold():
    got = count_associative_naive(cyclic(6), abort_above=10)
    assert got.aborted and got.total > 10
    exact = count_associative_naive(cyclic(6), abort_above=6**3)
    assert not exact.aborted and exact.total == 216


# --- direct products -------------------------------------------------------------

def test_direct_product_of_groups_multiplies_counts():
    t = direct_product(cyclic(2), cyclic(3))
    assert t.n == 6 and is_latin(t)
    assert count_associative_naive(t).total == 8 * 27


def test_direct_product_multiplicativity_random(rng):
    for _ in range(6):
        n1, n2 = rng.integers(2, 7, size=2)
        t1, t2 = random_latin(rng, int(n1)), random_latin(rng, int(n2))
        prod = direct_product(t1, t2)
        a1 = count_associative_naive(t1).total
        a2 = count_associative_naive(t2).total
        assert count_associative_naive(prod).total == a1 * a2


def test_direct_product_entry_formula(rng):
    t1, t2 = random_latin(rng, 3), random_latin(rng, 4)
    prod = direct_product(t1, t2)
    for x1 in range(3):
        for x2 in range(4):
            for y1 in range(3):
                for y2 in range(4):
                    left = prod.entries[x1 * 4 + x2, y1 * 4 + y2]
                    assert left == t1.entries[x1, y1] * 4 + t2.entries[x2, y2]


def test_direct_product_idempotence_propagation():
    idem = make_table([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
    assert is_idempotent(idem)  # cache the flag so the product can propagate it
    assert direct_product(idem, idem).idempotent is True
    prod = direct_product(cyclic(2), idem)
    assert prod.idempotent is not True
    assert not is_idempotent(prod)


def product_by_loops(t1, t2):
    """Direct product spelled out entry by entry, for any two tables."""
    n2 = t2.n
    r1, r2 = t1.entries.tolist(), t2.entries.tolist()
    return make_table([[r1[i1][j1] * n2 + r2[i2][j2] for j1 in range(t1.n) for j2 in range(n2)]
                       for i1 in range(t1.n) for i2 in range(n2)])


def swapped_entries(t, i, j):
    """t with entries i and j exchanged; still Latin when t is."""
    rows = t.entries.copy()
    rows[i], rows[j] = t.entries[j], t.entries[i]
    return make_table(rows)


def test_is_product_of_latin_factors(rng):
    pairs = [(random_latin(rng, 1), random_latin(rng, 5)), (random_latin(rng, 4), random_latin(rng, 1))]
    pairs += [(random_latin(rng, int(a)), random_latin(rng, int(b)))
              for a, b in rng.integers(2, 8, size=(6, 2))]
    for t1, t2 in pairs:
        prod = direct_product(t1, t2)
        assert is_product_of(prod, t1, t2)
        assert np.array_equal(prod.entries, product_by_loops(t1, t2).entries)
        if prod.n > 1:
            # swapping two rows keeps the table Latin but breaks the product
            assert not is_product_of(swapped_entries(prod, 0, prod.n - 1), t1, t2)
        if t1.n != t2.n and min(t1.n, t2.n) > 1:  # a 1x1 factor commutes
            assert not is_product_of(prod, t2, t1)


def test_is_product_of_non_latin_factors(rng):
    for n1, n2 in ((1, 3), (3, 1), (2, 5), (4, 3), (6, 6)):
        t1, t2 = random_rows(rng, n1), random_rows(rng, n2)
        prod = product_by_loops(t1, t2)
        assert is_product_of(prod, t1, t2)
        rows = prod.entries.copy()
        x, y = rng.integers(0, prod.n, size=2)
        rows[x, y] = (rows[x, y] + 1) % prod.n
        assert not is_product_of(make_table(rows), t1, t2)
    # wrong order
    assert not is_product_of(cyclic(6), cyclic(2), cyclic(2))


def test_direct_product_rejections(rng):
    nonlatin = make_table([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        direct_product(nonlatin, cyclic(2))
    with pytest.raises(ValueError):
        direct_product(cyclic(70), cyclic(70), cap=4096)


# --- file formats ------------------------------------------------------------------

@given(st.integers(1, 9), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_text_and_json_roundtrips(n, seed):
    t = random_latin(np.random.default_rng(seed), n)
    for dump, parse in ((dump_text, parse_text), (dump_json, parse_json)):
        back = parse(dump(t))
        assert np.array_equal(back.entries, t.entries)
        assert back.n == t.n
        # serialization is canonical: one byte stream per table
        assert dump(back) == dump(t)


def test_dumps_match_per_entry_form():
    for t in (witness_table(31), direct_product(witness_table(13), witness_table(19))):
        rows = [[int(v) for v in row] for row in t.entries]
        want_json = json.dumps({"n": t.n, "rows": rows}, sort_keys=True, separators=(",", ":")) + "\n"
        assert dump_json(t) == want_json
        want_text = "\n".join([str(t.n)] + [" ".join(str(v) for v in row) for row in rows]) + "\n"
        assert dump_text(t) == want_text


def test_save_load_both_formats(tmp_path, rng):
    t = random_latin(rng, 7)
    for name in ("t.json", "t.txt"):
        path = tmp_path / name
        save_table(t, path)
        back = load_table(path)
        assert np.array_equal(back.entries, t.entries)
    assert (tmp_path / "t.json").read_text().lstrip().startswith("{")
    assert (tmp_path / "t.txt").read_text().splitlines()[0] == "7"


def test_parse_rejects_malformed_inputs():
    for bad in ("", "2\n0 1", "2\n0 1\n1 2", "x\n0", '{"n": 2}', '{"rows": [[0]]}',
                '{"n": 2, "rows": [[0, 1], [1, 2]]}', "1\n1.5", "1\n99999999999", "2 2\n0 1\n1 0"):
        with pytest.raises(ValueError):
            (parse_json if bad.startswith("{") else parse_text)(bad)


@pytest.mark.parametrize("bad", [
    '{"n": 1, "rows": [[0.7]]}',
    '{"n": 1, "rows": [[0.0]]}',
    '{"n": 2, "rows": [[0, 1.9], [1, 0]]}',
    '{"n": 2, "rows": [[true, false], [false, true]]}',
    '{"n": 2, "rows": [[0, 1], [1, "0"]]}',
    '{"n": 2, "rows": [[0, 1], [1, null]]}',
    '{"n": 2, "rows": [[0, 1], [1, 99999999999999999999999]]}',
    '{"n": 2, "rows": 5}',
    '{"n": 2, "rows": [5, 6]}',
    '{"n": 2, "rows": {"0": [0, 1], "1": [1, 0]}}',
    '{"n": "2", "rows": [[0, 1], [1, 0]]}',
    '{"n": 2.0, "rows": [[0, 1], [1, 0]]}',
    '{"n": true, "rows": [[0]]}',
])
def test_parse_json_requires_integers(bad):
    with pytest.raises(ValueError):
        parse_json(bad)


def test_load_table_refuses_order_above_cap(tmp_path):
    t = cyclic(5)
    for name in ("t.json", "t.txt"):
        path = tmp_path / name
        save_table(t, path)
        assert load_table(path, cap=5).n == 5
        with pytest.raises(ValueError, match="cap"):
            load_table(path, cap=4)
    # the order alone decides, before any row is read
    with pytest.raises(ValueError, match="cap"):
        parse_text("5000\n0\n", cap=4096)
    with pytest.raises(ValueError, match="cap"):
        parse_json('{"n": 5000, "rows": []}', cap=4096)
