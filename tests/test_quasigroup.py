"""Operation tables: structure checks, the cubic counter, products, formats."""

from __future__ import annotations

import json
import os
import re
import stat
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cyclic, random_latin, swap_01, triple_count_oracle
from mnq.construct import build_table, find_witness
from mnq.fields import field_for_order
import mnq.quasigroup
from mnq.quasigroup import (
    AssocCount,
    count_associative,
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
        assert type(got.total) is int  # not a numpy scalar: the CLI dumps it as JSON


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

    def fail_off_the_calling_thread(T, x0, x1):
        if x0:
            raise MemoryError(f"slab {x0}..{x1}")
        return count_slab(T, x0, x1)

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


def magma_product(*factors):
    """Componentwise product of any tables, Latin or not, encoded as
    direct_product does: the last factor varies fastest."""
    t = factors[0]
    for f in factors[1:]:
        a = t.entries.astype(np.int64)
        b = f.entries.astype(np.int64)
        t = make_table((a[:, None, :, None] * f.n + b[None, :, None, :]).reshape(t.n * f.n, -1))
    return t


def non_latin_magma(rng, n):
    """Random table, n >= 2, with 0*0 = 0*1 = 1: neither Latin nor idempotent."""
    rows = rng.integers(0, n, size=(n, n))
    rows[0, :2] = 1
    return make_table(rows)


def assert_structural_count_exact(t):
    want = count_associative_naive(t)
    assert count_associative(t) == want, t.n
    if t.n <= 30:
        assert want.total == triple_count_oracle(t.entries.tolist())


def test_structural_count_of_magma_products(rng):
    for orders in ((2, 3), (3, 3), (4, 5), (6, 4), (5, 7), (2, 3, 4), (3, 2, 5), (3, 3, 3)):
        factors = [non_latin_magma(rng, n) for n in orders]
        t = magma_product(*factors)
        assert count_associative(t).total == np.prod([count_associative_naive(f).total for f in factors])
        assert_structural_count_exact(t)
        # one cell changed: no longer that product, still counted exactly
        rows = t.entries.copy()
        x, y = rng.integers(0, t.n, size=2)
        rows[x, y] = (rows[x, y] + 1 + rng.integers(0, t.n - 1)) % t.n
        assert_structural_count_exact(make_table(rows))
        assert_structural_count_exact(swap_01(t))


def test_structural_count_of_latin_products(rng):
    for t in (magma_product(cyclic(3), random_latin(rng, 4), random_latin(rng, 5)),
              direct_product(witness_table(13), witness_table(9))):
        assert_structural_count_exact(t)
        assert_structural_count_exact(swap_01(t))


def test_structural_count_without_a_split(rng):
    # n = 1 has no divisor to try; a prime has none; 27 and 25 are counted
    # whole unless they split
    for t in (make_table([[0]]), random_rows(rng, 13), witness_table(13),
              random_latin(rng, 27), witness_table(25), cyclic(9)):
        assert_structural_count_exact(t)


def test_structural_count_counts_factors_not_the_product(rng, monkeypatch):
    orders = []
    naive = mnq.quasigroup.count_associative_naive

    def spy(t):
        orders.append(t.n)
        return naive(t)

    monkeypatch.setattr(mnq.quasigroup, "count_associative_naive", spy)
    t = magma_product(non_latin_magma(rng, 5), non_latin_magma(rng, 7), non_latin_magma(rng, 3))
    assert count_associative(t).total == naive(t).total
    assert sorted(orders) == [3, 5, 7]
    orders.clear()
    assert count_associative(swap_01(t)).total == naive(swap_01(t)).total
    assert orders == [105]


@pytest.fixture
def split_tests(monkeypatch):
    """Collects (n1, n2, result) of every is_product_of call count_associative makes."""
    tested = []
    is_product = mnq.quasigroup.is_product_of

    def spy(t, t1, t2):
        tested.append((t1.n, t2.n, is_product(t, t1, t2)))
        return tested[-1][2]

    monkeypatch.setattr(mnq.quasigroup, "is_product_of", spy)
    return tested


def test_structural_count_passes_over_failed_splits_on_row_and_column_0(split_tests):
    # 315 has 10 divisors to try; the relabelled group splits under none
    t = swap_01(cyclic(315))
    assert count_associative(t) == count_associative_naive(t) == AssocCount(total=315**3)
    assert split_tests == []


def test_structural_count_passes_over_the_carry_of_a_cyclic_group(monkeypatch, split_tests):
    # 1155 = 3*5*7*11 has 14 divisors to try; row and column 0 of Z/n split
    # under each of them, row m - 1 under none
    orders = []
    monkeypatch.setattr(mnq.quasigroup, "count_associative_naive",
                        lambda t: orders.append(t.n) or AssocCount(total=t.n**3))
    assert count_associative(cyclic(1155)).total == 1155**3
    assert split_tests == [] and orders == [1155]


def test_structural_count_of_cyclic_tables_and_their_products(rng, split_tests):
    for n in (4, 6, 12, 30, 36, 60, 105):
        assert count_associative(cyclic(n)) == count_associative_naive(cyclic(n)) == AssocCount(total=n**3)
    assert split_tests == []
    for t in (magma_product(cyclic(4), cyclic(6)), magma_product(non_latin_magma(rng, 6), cyclic(5)),
              magma_product(cyclic(3), non_latin_magma(rng, 4), cyclic(2))):
        assert_structural_count_exact(t)
        assert_structural_count_exact(swap_01(t))
    assert any(result for _, _, result in split_tests)


def test_structural_count_of_a_product_changed_off_row_and_column_0(rng, monkeypatch, split_tests):
    orders = []
    naive = mnq.quasigroup.count_associative_naive
    monkeypatch.setattr(mnq.quasigroup, "count_associative_naive", lambda t: orders.append(t.n) or naive(t))
    rows = magma_product(non_latin_magma(rng, 3), non_latin_magma(rng, 5)).entries.copy()
    rows[-1, -1] = (rows[-1, -1] + 1) % 15
    assert count_associative(make_table(rows)).total == triple_count_oracle(rows.tolist())
    assert (3, 5, False) in split_tests  # row 0 and column 0 still split; the full check refuses
    assert orders == [15]


@pytest.fixture
def naive_orders(monkeypatch):
    """Orders of every count_associative_naive call count_associative makes."""
    orders = []
    naive = mnq.quasigroup.count_associative_naive
    monkeypatch.setattr(mnq.quasigroup, "count_associative_naive", lambda t: orders.append(t.n) or naive(t))
    return orders


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13, 25, 27])
def test_two_slope_tables_are_orbit_counted_exactly(q, naive_orders):
    # every slope pair, Latin or not, a or b = 0 included, and every
    # transpose (itself the operation of (1 - a, 1 - b) or (1 - b, 1 - a)):
    # each is recognized, so no naive count, and gets the naive total
    f = field_for_order(q)
    for a in range(q):
        for b in range(q):
            t = build_table(f, a, b)
            for u in (t, make_table(t.entries.T)):
                assert count_associative(u) == count_associative_naive(u), (q, a, b)
    assert naive_orders == []
    assert count_associative(build_table(f, 0, 0)) == AssocCount(total=q**3)  # x*y = x


@pytest.mark.parametrize("q", [13, 25, 27])
def test_a_changed_two_slope_table_is_counted_naively(q, naive_orders):
    f = field_for_order(q)
    a, b, _ = find_witness(f)
    t = build_table(f, a, b)
    # two cells of one row swapped: in row 0 the row check refuses (also
    # when the swap changes the slopes read off c(1) and c(eta)), in any
    # other row the translation check does
    changed = []
    for r, ys in ((0, [2, 3]), (0, [1, f.non_square]), (5, [2, 3]), (q - 1, [0, 1])):
        rows = t.entries.copy()
        rows[r, ys] = rows[r, ys[::-1]]
        changed.append(make_table(rows))
    for u in changed + [swap_01(t)]:
        assert count_associative(u) == count_associative_naive(u)
    assert naive_orders == [q] * 5


def test_tables_of_orders_with_no_odd_field_are_counted_naively(rng, naive_orders):
    # n = 1 (no prime), 2, 4 and 8 (characteristic 2), 15 and 21 (no prime power)
    tables = [make_table([[0]]), cyclic(2), cyclic(4), random_latin(rng, 8),
              non_latin_magma(rng, 15), random_latin(rng, 21)]
    for t in tables:
        assert count_associative(t) == count_associative_naive(t) == AssocCount(
            total=triple_count_oracle(t.entries.tolist()))
    assert naive_orders == [1, 2, 4, 8, 15, 21]


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


def product_by_divmod(t, t1, t2):
    """is_product_of by its definition, entry by entry: t(i, j) splits by
    divmod(., n2) into (t1(i1, j1), t2(i2, j2)), with i = i1*n2 + i2."""
    n2 = t2.n
    if t.n != t1.n * n2:
        return False
    e, e1, e2 = t.entries.tolist(), t1.entries.tolist(), t2.entries.tolist()
    return all(divmod(e[i][j], n2) == (e1[i // n2][j // n2], e2[i % n2][j % n2])
               for i in range(t.n) for j in range(t.n))


def test_is_product_of_agrees_with_the_divmod_definition(rng):
    for n1, n2 in ((1, 4), (3, 1), (2, 5), (4, 3), (5, 7), (6, 6)):
        for t1, t2 in ((random_rows(rng, n1), random_rows(rng, n2)),
                       (random_latin(rng, n1), random_latin(rng, n2))):
            prod = product_by_loops(t1, t2)
            x, y = (int(v) for v in rng.integers(0, prod.n, size=2))
            q, r = divmod(int(prod.entries[x, y]), n2)
            tables = [prod]
            for changed in ((q * n2 + r + 1 + int(rng.integers(0, prod.n - 1))) % prod.n,
                            q * n2 + (r + 1) % n2,      # keeps e // n2, alters e % n2
                            (q + 1) % n1 * n2 + r):     # keeps e % n2, alters e // n2
                rows = prod.entries.copy()
                rows[x, y] = changed
                tables.append(make_table(rows))
            for t in tables:
                want = product_by_divmod(t, t1, t2)
                assert want == np.array_equal(t.entries, prod.entries), (n1, n2)
                assert is_product_of(t, t1, t2) == want, (n1, n2)
                assert is_product_of(t, t2, t1) == product_by_divmod(t, t2, t1), (n1, n2)


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


@pytest.mark.parametrize("n", [1, 2, 10, 11, 100, 101, 1000, 1001])
def test_dumps_equal_the_list_based_writers(tmp_path, n):
    # the orders where the widest entry gains a digit
    t = random_latin(np.random.default_rng(n), n)
    rows = t.entries.tolist()
    assert dump_json(t) == json.dumps({"n": n, "rows": rows}, sort_keys=True, separators=(",", ":")) + "\n"
    assert dump_text(t) == "\n".join([str(n)] + [" ".join(map(str, row)) for row in rows]) + "\n"
    for name in ("t.json", "t.txt"):
        save_table(t, tmp_path / name)
        assert np.array_equal(load_table(tmp_path / name).entries, t.entries)


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


def outcome(s):
    """What parse_json makes of s: the table's entries, or how it refuses s."""
    try:
        return parse_json(s).entries.tolist()
    except ValueError as e:
        return type(e).__name__, str(e)


@pytest.fixture
def strict(monkeypatch):
    """strict(s) is outcome(s) with the canonical fast path off."""
    def run(s):
        with monkeypatch.context() as mp:
            mp.setattr(mnq.quasigroup, "_read_canonical", lambda *args: None)
            return outcome(s)
    return run


@pytest.mark.parametrize("n", [1, 2, 10, 11, 100, 101, 1000, 1001])
def test_canonical_json_is_read_without_the_strict_parser(monkeypatch, strict, n):
    s = dump_json(random_latin(np.random.default_rng(n), n))
    want = strict(s)
    calls = []
    monkeypatch.setattr(mnq.quasigroup.json, "loads", lambda *a, **k: calls.append("loads"))
    assert outcome(s) == want
    assert calls == []


def value(v):
    """Pattern of the first table entry v: a whole value after a row start or a comma."""
    return re.compile(rf"(?<=[\[,])({v})(?=[],])")


MUTATIONS = {
    "leading zero": lambda s: value(1).sub(r"0\1", s, 1),
    "space after comma": lambda s: re.sub(r",(?=\d)", ", ", s, 1),
    "plus zero": lambda s: value(0).sub("+0", s, 1),
    "minus zero": lambda s: value(0).sub("-0", s, 1),
    "1.0": lambda s: value(1).sub("1.0", s, 1),
    "1e0": lambda s: value(1).sub("1e0", s, 1),
    "2**31": lambda s: value(0).sub(str(2**31), s, 1),
    "2**32 (0 in int32)": lambda s: value(0).sub(str(2**32), s, 1),
    "2**32 + 1": lambda s: value(1).sub(str(2**32 + 1), s, 1),
    "no final newline": lambda s: s[:-1],
    "trailing bytes": lambda s: s + "x",
    "extra row": lambda s: s.replace("]]}", "]," + s.split("],", 1)[0].split(":[", 1)[1] + "]]}"),
    "short row": lambda s: re.sub(r",\d+],", "],", s, 1),
    "CRLF": lambda s: s.replace("\n", "\r\n"),
    "BOM": lambda s: "\ufeff" + s,
}


@pytest.mark.parametrize("n", [2, 11])
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_other_json_gets_the_strict_parsers_result(strict, n, mutation):
    s = dump_json(random_latin(np.random.default_rng(n), n))
    bad = MUTATIONS[mutation](s)
    assert bad != s
    assert mnq.quasigroup._read_canonical(bad, None) is None
    assert outcome(bad) == strict(bad)


def test_cap_is_checked_on_a_canonical_json_header_before_the_body(monkeypatch):
    # a torn body: json.loads would refuse it for its syntax
    def no_strict_read(*args, **kwargs):
        raise AssertionError("the strict parser read the file")

    monkeypatch.setattr(mnq.quasigroup.json, "loads", no_strict_read)
    with pytest.raises(ValueError) as refused:
        parse_json('{"n":5000,"rows":[[0,', cap=4096)
    assert str(refused.value) == "table order 5000 exceeds table cap 4096"


# --- the writer's row blocks ---------------------------------------------------

# with 2**16 cells a block: one block short of full (255), exactly full
# (256), full blocks and a short tail (257, 1000, 1001), several full blocks
# with no tail (512, 1024)
BLOCK_EDGE_ORDERS = [1, 2, 255, 256, 257, 512, 1000, 1001, 1024]


def block_rows(n):
    return max(1, mnq.quasigroup._BLOCK_CELLS // n)


def test_block_edge_orders_cover_every_block_shape():
    shapes = {(n // block_rows(n), n % block_rows(n) > 0) for n in BLOCK_EDGE_ORDERS}
    assert (0, True) in shapes and (1, False) in shapes
    assert any(full >= 2 and not tail for full, tail in shapes)
    assert any(full >= 2 and tail for full, tail in shapes)


@pytest.mark.parametrize("n", BLOCK_EDGE_ORDERS)
def test_writer_blocks_at_block_edges(tmp_path, n):
    t = random_latin(np.random.default_rng(n), n)
    blocks = list(mnq.quasigroup._table_blocks(t, "json"))
    assert len(blocks) == 1 + -(-n // block_rows(n))  # the header, then the row blocks
    rows = t.entries.tolist()
    want_json = json.dumps({"n": n, "rows": rows}, sort_keys=True, separators=(",", ":")) + "\n"
    want_text = "\n".join([str(n)] + [" ".join(map(str, row)) for row in rows]) + "\n"
    assert dump_json(t) == want_json
    assert dump_text(t) == want_text
    # read back in binary: a text-mode writer would translate newlines
    for name, fmt, want in (("t.json", None, want_json), ("t.txt", None, want_text),
                            ("j", "json", want_json), ("x", "text", want_text)):
        save_table(t, tmp_path / name, fmt=fmt)
        assert (tmp_path / name).read_bytes() == want.encode()


MULTI_BLOCK_N = 600  # six row blocks of 2**16 cells at most


@pytest.fixture(scope="module")
def multi_block_json():
    """A canonical file of several row blocks, and where each block ends in it."""
    t = random_latin(np.random.default_rng(MULTI_BLOCK_N), MULTI_BLOCK_N)
    blocks = list(mnq.quasigroup._table_blocks(t, "json"))
    assert len(blocks) >= 4  # the header and at least three row blocks
    return b"".join(blocks).decode(), np.cumsum([len(b) for b in blocks]).tolist()


def zero_first_digit(s, start):
    """s with the first digit of the first value of two or more digits
    after position start changed to 0: a value with a leading zero."""
    m = re.compile(r"(?<=[\[,])[1-9](?=[0-9])").search(s, start)
    return s[:m.start()] + "0" + s[m.end():]


@pytest.mark.parametrize("where", ["first block", "middle block", "last block"])
def test_a_leading_zero_in_any_block_gets_the_strict_result(strict, monkeypatch, multi_block_json, where):
    s, ends = multi_block_json
    block = {"first block": 1, "middle block": len(ends) // 2, "last block": len(ends) - 1}[where]
    bad = zero_first_digit(s, ends[block - 1])
    assert bad != s and len(bad) == len(s)
    write = mnq.quasigroup._table_blocks
    made = []

    def counted(*args):
        for b in write(*args):
            made.append(b)
            yield b

    monkeypatch.setattr(mnq.quasigroup, "_table_blocks", counted)
    assert mnq.quasigroup._read_canonical(bad, None) is None
    assert len(made) == block + 1  # the check stops at the block that differs
    assert outcome(bad) == strict(bad)


def test_a_file_cut_at_a_block_boundary_gets_the_strict_result(strict, multi_block_json):
    s, ends = multi_block_json
    for end in ends[:-1]:
        bad = s[:end]
        assert mnq.quasigroup._read_canonical(bad, None) is None
        assert outcome(bad) == strict(bad)
        assert isinstance(outcome(bad), tuple)  # refused, with the strict parser's message


@pytest.mark.parametrize("extra", ["\n", " ", "0", "]"])
def test_one_byte_after_the_last_block_gets_the_strict_result(strict, multi_block_json, extra):
    s, _ = multi_block_json
    bad = s + extra
    assert mnq.quasigroup._read_canonical(bad, None) is None
    assert outcome(bad) == strict(bad)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def random_1001():
    return random_latin(np.random.default_rng(1001), 1001)


def test_save_table_holds_one_block_not_the_file(tmp_path, random_1001):
    path = tmp_path / "t.json"
    peak = traced_peak(lambda: save_table(random_1001, path))
    assert peak < path.stat().st_size / 2


def test_load_table_of_a_canonical_file_holds_a_few_copies_of_it(tmp_path, random_1001):
    # the text, its bracket-free copy and the values, and the check's blocks
    path = tmp_path / "t.json"
    save_table(random_1001, path)
    back = []
    peak = traced_peak(lambda: back.append(load_table(path)))
    assert np.array_equal(back[0].entries, random_1001.entries)
    assert peak < 4 * path.stat().st_size


# --- rewriting a table file --------------------------------------------------

def test_rewrite_with_a_smaller_table_leaves_exactly_the_new_bytes(tmp_path):
    big, small = cyclic(40), random_latin(np.random.default_rng(7), 9)
    for name, dump in (("t.json", dump_json), ("t.txt", dump_text)):
        path = tmp_path / name
        save_table(big, path)
        save_table(small, path)  # a shorter file: no old tail may survive
        assert path.read_bytes() == dump(small).encode()
        assert np.array_equal(load_table(path).entries, small.entries)


@pytest.fixture
def unlinked(monkeypatch, tmp_path):
    """The paths save_table unlinks; only those under tmp_path are removed."""
    seen, unlink = [], os.unlink

    def spy(path, *args, **kwargs):
        seen.append(str(path))
        if str(path).startswith(str(tmp_path)):
            unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", spy)
    return seen


def test_rewrite_of_a_regular_file_unlinks_it_first(tmp_path, unlinked):
    path = tmp_path / "t.json"
    save_table(cyclic(12), path)
    assert unlinked == []  # a new path: nothing to unlink
    save_table(cyclic(5), path)
    assert unlinked == [str(path)] and path.read_bytes() == dump_json(cyclic(5)).encode()


def test_rewrite_through_a_symlink_keeps_the_link_and_its_target(tmp_path, unlinked):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    save_table(cyclic(12), target)
    link.symlink_to(target.name)
    inode = target.stat().st_ino
    small = cyclic(5)
    save_table(small, link)
    assert unlinked == [] and link.is_symlink() and os.readlink(link) == target.name
    assert target.stat().st_ino == inode  # truncated and rewritten in place
    assert target.read_bytes() == dump_json(small).encode()


def test_save_table_to_a_fifo_writes_into_it(tmp_path, unlinked):
    fifo = tmp_path / "pipe.json"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    save_table(cyclic(5), fifo)
    reader.join(10)
    assert not reader.is_alive() and got == [dump_json(cyclic(5)).encode()]
    assert unlinked == [] and stat.S_ISFIFO(os.lstat(fifo).st_mode)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("through", ["fd link", "symlink to the fd link"])
def test_save_table_to_an_open_descriptor_writes_its_file(tmp_path, unlinked, through):
    # as `-o /dev/stdout > out.json`: the path is a /proc link to an open file
    out = tmp_path / "out.json"
    out.write_bytes(dump_json(cyclic(12)).encode())
    with open(out, "r+b") as fh:
        path = f"/proc/self/fd/{fh.fileno()}"
        if through != "fd link":
            (tmp_path / "stdout").symlink_to(path)
            path = tmp_path / "stdout"
        save_table(cyclic(5), path, fmt="json")
    assert unlinked == [] and out.read_bytes() == dump_json(cyclic(5)).encode()


def test_save_table_to_a_device_leaves_it(unlinked):
    before = os.stat(os.devnull)
    save_table(cyclic(5), os.devnull)
    assert unlinked == [] and stat.S_ISCHR(before.st_mode)
    assert os.stat(os.devnull).st_ino == before.st_ino


def test_rewrite_leaves_another_hard_link_on_the_old_table(tmp_path):
    path, other = tmp_path / "t.json", tmp_path / "other.json"
    save_table(cyclic(12), path)
    os.link(path, other)
    save_table(cyclic(5), path)
    assert path.read_bytes() == dump_json(cyclic(5)).encode()
    assert other.read_bytes() == dump_json(cyclic(12)).encode()


@pytest.mark.parametrize("make", ["missing directory", "directory", "link loop"])
def test_save_table_refusals_are_those_of_open(tmp_path, make):
    path = tmp_path / "t.json"
    if make == "missing directory":
        path = tmp_path / "no" / "t.json"
    elif make == "directory":
        path.mkdir()
    else:
        path.symlink_to("u.json")
        (tmp_path / "u.json").symlink_to("t.json")
    with pytest.raises(OSError) as err:
        save_table(cyclic(5), path)
    with pytest.raises(OSError) as plain:
        open(path, "wb")
    assert (type(err.value), str(err.value)) == (type(plain.value), str(plain.value))
    kept = {"missing directory": not path.parent.exists(), "directory": path.is_dir(),
            "link loop": path.is_symlink()}
    assert kept[make]  # nothing unlinked or made
