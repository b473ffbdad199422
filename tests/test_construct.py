"""Two-slope tables, both counters, the condition scan, case analysis, cache."""

from __future__ import annotations

import csv
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import random_latin, triple_count_oracle
import mnq.cli
import mnq.construct
import mnq.fields
import mnq.quasigroup
from mnq.fields import (
    CharacteristicError,
    Field,
    InternalCheckError,
    Parity,
    cached_field,
    field_for_order,
    odd_prime_powers,
)
from mnq.construct import (
    CASE_ROWS,
    DENSE_MAX,
    WitnessRecord,
    _assoc_completions,
    _diagonal_completions,
    _diff_vector,
    _latin_mask,
    _rolled_table,
    _slope_stacks,
    _z0_survivors,
    append_witness,
    build_table,
    chi_matrix,
    count_associative_orbit,
    entry,
    find_witness,
    is_automorphism,
    is_latin_pair,
    is_two_slope_table,
    load_cache,
    recertify,
    satisfies_conditions,
    search_general,
    search_theorem,
    theorem_conditions,
    verify_case_tables,
)
from mnq.intpoly import is_prime
from mnq.quasigroup import AssocCount, count_associative_naive, is_idempotent, is_latin
from mnq.weil import census_report, char_sum, threshold, weil_constant

# a condition witness in each residue class, found by scanning and kept
# fixed so the case analysis below is reproducible
WITNESS_R1 = (409, 245)
WITNESS_R3 = (347, 35)


def two_slope_oracle(field, a, b):
    """Table built entry by entry from the definition, parity by pow."""
    rows = []
    for x in range(field.q):
        row = []
        for y in range(field.q):
            d = field.sub(y, x)
            par = field.parity_by_pow(d)
            if par is Parity.ZERO:
                row.append(x)
            else:
                slope = a if par is Parity.SQUARE else b
                row.append(field.add(x, field.mul(slope, d)))
        rows.append(row)
    return rows


def orbit_breakdown_oracle(field, a, b):
    """Completions of (0,0), (0,1), (0,eta), one entry() call at a time."""
    def op(x, y):
        return entry(field, a, b, x, y)

    out = []
    for u in (0, 1, field.non_square):
        m = op(0, u)
        out.append(sum(op(m, z) == op(0, op(u, z)) for z in range(field.q)))
    return tuple(out)


# --- the difference vector --------------------------------------------------------

# 3^8 and 4099 span more than one BULK_BLOCK
@pytest.mark.parametrize("p,e", [(31, 1), (3, 3), (5, 2), (3, 5), (3, 8), (4099, 1)])
def test_diff_vector_matches_entry(p, e, rng):
    f = cached_field(p, e)
    pairs = [(0, 0), (1, f.q - 1)] + [tuple(int(v) for v in rng.integers(0, f.q, 2)) for _ in range(4)]
    for a, b in pairs:
        c = _diff_vector(f, a, b)
        assert c.tolist() == [entry(f, a, b, 0, d) for d in range(f.q)], (a, b)


@pytest.mark.parametrize("q", [13, 25, 27, 31])
def test_latin_pair_criterion_matches_full_check(q):
    f = field_for_order(q)
    for a in range(q):
        for b in range(q):
            assert is_latin_pair(f, a, b) == is_latin(build_table(f, a, b)), (q, a, b)
        assert _latin_mask(f)(a).tolist() == [is_latin_pair(f, a, b) for b in range(q)], (q, a)


# --- table construction ---------------------------------------------------------

@pytest.mark.parametrize("q,a,b", [(13, 3, 9), (9, 3, 6), (27, 2, 10), (7, 3, 3)])
def test_build_table_matches_definition(q, a, b):
    f = field_for_order(q)
    t = build_table(f, a, b)
    assert t.entries.tolist() == two_slope_oracle(f, a, b)
    assert is_idempotent(t)
    for x in range(q):
        for y in range(q):
            assert t.entries[x, y] == entry(f, a, b, x, y)


def test_build_table_rejections():
    with pytest.raises(CharacteristicError):
        build_table(cached_field(2, 3), 1, 1)
    with pytest.raises(ValueError):
        build_table(cached_field(73), 1, 2, cap=64)


def test_frozen_counts():
    # a = b gives the affine map -2x + 3y; x*(y*z) = (x*y)*z forces x = z
    assert count_associative_naive(build_table(cached_field(7), 3, 3)).total == 49
    # slopes 0 collapse to the left projection, again fully associative
    assert count_associative_orbit(cached_field(13), 0, 0).total == 13**3
    assert count_associative_orbit(cached_field(13), 0, 0).breakdown == (13, 13, 13)


# --- the two counters agree -----------------------------------------------------

@pytest.mark.parametrize("q", [5, 7, 9])
def test_orbit_equals_naive_exhaustively(q):
    f = field_for_order(q)
    for a in range(q):
        for b in range(q):
            t = build_table(f, a, b)
            naive = count_associative_naive(t).total
            orbit = count_associative_orbit(f, a, b)
            assert orbit.total == naive, (q, a, b)
            assert naive == triple_count_oracle(t.entries.tolist())


def test_orbit_equals_naive_sampled(rng):
    qs = [13, 25, 27, 49, 81, 121, 169, 343]
    for _ in range(30):
        q = int(rng.choice(qs))
        f = field_for_order(q)
        a, b = int(rng.integers(0, q)), int(rng.integers(0, q))
        assert count_associative_orbit(f, a, b).total == \
            count_associative_naive(build_table(f, a, b)).total


@pytest.mark.parametrize("q", [13, 25, 27, 49])
def test_orbit_breakdown_matches_entry_reference(q, rng):
    f = field_for_order(q)
    pairs = [tuple(int(v) for v in rng.integers(0, q, 2)) for _ in range(6)]
    pairs += search_general(f, stop_at_first=True)
    for a, b in pairs:
        c = count_associative_orbit(f, a, b)
        assert c.breakdown == orbit_breakdown_oracle(f, a, b), (q, a, b)
        assert c.total == count_associative_naive(build_table(f, a, b)).total, (q, a, b)


def test_orbit_breakdown_across_blocks_matches_entry_reference(rng):
    f = cached_field(3, 8)  # 6561 elements: the probes walk two BULK_BLOCKs
    # (0, 0) is the left projection: every z of every block completes
    pairs = [(3, 39), (0, 0), tuple(int(v) for v in rng.integers(1, f.q, 2))]
    for a, b in pairs:
        assert count_associative_orbit(f, a, b).breakdown == orbit_breakdown_oracle(f, a, b), (a, b)
    assert count_associative_orbit(f, 3, 39).breakdown == (1, 0, 0)


def _diagonal_probe(f, a, b):
    """The (0, 0) count by the O(q) probe, the closed form's oracle."""
    return int(_assoc_completions(f, _diff_vector(f, a, [b]), 0)[0])


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27, 49])
def test_diagonal_closed_form_equals_the_u0_probe_for_every_pair(q):
    f = field_for_order(q)
    for a in range(q):
        closed = _diagonal_completions(f, a, np.arange(q))  # every b at once
        for b in range(q):
            assert int(_diagonal_completions(f, a, b)) == int(closed[b]) == _diagonal_probe(f, a, b), (q, a, b)


# 3^8, 7^5, 16787 and 65521 are above one block; at 65521 the count q of
# (0, 0) is above int16, the type numpy 1.x would give a bool array times h
@pytest.mark.parametrize("q", [3**8, 7**5, 16787, 65521])
def test_diagonal_closed_form_equals_the_u0_probe_sampled(q, rng):
    f = field_for_order(q)
    n, s = f.non_square, f.mul(f.non_square, f.non_square)  # chi(n) = -1, chi(s) = 1
    assert s != 1
    # each half completes whole when its slope is 0 or c takes slope 1 at its image
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (n, 1), (1, n), (s, 1), (1, s),
             (0, n), (n, 0), (s, n), (n, s), (s, s), (n, n)]
    pairs += [tuple(int(v) for v in rng.integers(0, q, 2)) for _ in range(12)]
    for a, b in pairs:
        assert int(_diagonal_completions(f, a, b)) == _diagonal_probe(f, a, b), (q, a, b)
    assert {int(_diagonal_completions(f, a, b)) for a, b in pairs} == {1, 1 + (q - 1) // 2, q}


def test_certificate_probes_only_u1_and_eta(monkeypatch):
    """The (0, 0) count is read off the closed form: no certificate or
    search runs the u = 0 probe."""
    probes = []
    probe = mnq.construct._assoc_completions
    monkeypatch.setattr(mnq.construct, "_assoc_completions",
                        lambda field, c, u: probes.append((field, u)) or probe(field, c, u))
    assert count_associative_orbit(cached_field(3, 8), 3, 39) == AssocCount(6561, (1, 0, 0))
    assert count_associative_orbit(cached_field(7, 5), 2, 5) == AssocCount(141246028, (1, 1, 0))
    assert count_associative_orbit(cached_field(13), 0, 0) == AssocCount(13**3, (13, 13, 13))
    assert find_witness(field_for_order(16787))[2] == "theorem"
    assert search_general(field_for_order(361), stop_at_first=True) == [(19, 33)]
    pairs = search_general(field_for_order(49))
    assert (len(pairs), pairs[0], pairs[-1]) == (108, (9, 17), (48, 40))
    assert {f.q for f, _ in probes} == {3**8, 7**5, 13, 16787, 361, 49}
    assert all(u in (1, f.non_square) for f, u in probes)


def _probe_stack(f, pairs):
    """Difference vectors of (a, b) pairs as one stack; rows of distinct a
    make m = c(u) differ per row for every probe u != 0."""
    return np.vstack([_diff_vector(f, a, [b]) for a, b in pairs])


# 409 is one BULK_BLOCK; 3^8 and 4099 span two
@pytest.mark.parametrize("q, pairs", [
    (409, [(245, 311), (2, 8), (2, 9), (3, 3), (0, 0), (400, 17)]),
    (3**8, [(3, 39), (3, 40), (3, 7), (2, 5)]),
    (4099, [(2, 103), (2, 104), (5, 7)]),
])
def test_assoc_completions_stacked_equals_per_row_and_oracle(q, pairs):
    f = field_for_order(q)
    probes = (0, 1, f.non_square)
    same_a = _probe_stack(f, [p for p in pairs if p[0] == pairs[0][0]])  # one shared m = a for u = 1
    mixed = _probe_stack(f, pairs)
    for u in probes:
        for c in (same_a, mixed):
            per_row = [int(_assoc_completions(f, c[i:i + 1], u)[0]) for i in range(len(c))]
            assert _assoc_completions(f, c, u).tolist() == per_row, (q, u)
        # every row rejected by an earlier probe: nothing is left to count
        empty = _assoc_completions(f, mixed[:0], u)
        assert empty.shape == (0,) and empty.dtype == np.int64
    # the entry() oracle is slow above one block: all rows at 409, the first elsewhere
    checked = pairs if q <= mnq.fields.BULK_BLOCK else pairs[:1]
    got = np.stack([_assoc_completions(f, mixed, u) for u in probes], axis=1)
    for row, (a, b) in zip(got, checked):
        assert tuple(row) == orbit_breakdown_oracle(f, a, b), (q, a, b)


def test_assoc_completions_one_field_through_both_paths(monkeypatch):
    f = field_for_order(409)
    c = _probe_stack(f, [(2, 8), (2, 9), (2, 311), (245, 311), (7, 7)])
    tables = []
    build = mnq.construct._rolled_table
    monkeypatch.setattr(mnq.construct, "_rolled_table",
                        lambda field, v: tables.append(v) or build(field, v))
    shared = [_assoc_completions(f, c[:3], u).tolist() + _assoc_completions(f, c, u).tolist()
              for u in (0, 1, f.non_square)]
    # w + u for the probes, w - m for m = a of the same-a stack and m = b*eta per row
    eta_m = {f.neg(f.mul(b, f.non_square)) for b in (8, 9, 311)}
    assert {0, 1, f.non_square, f.neg(2)} | eta_m <= set(tables)
    tables.clear()
    monkeypatch.setattr(mnq.construct, "BULK_BLOCK", 64)  # 409 is now above one block,
    monkeypatch.setattr(mnq.fields, "BULK_BLOCK", 64)     # walked in seven
    blocks = [_assoc_completions(f, c[:3], u).tolist() + _assoc_completions(f, c, u).tolist()
              for u in (0, 1, f.non_square)]
    assert tables and blocks == shared


def _check_rolled_translations(f, vs, zs):
    """_rolled_table(f, -v) and _rolled_table(f, v), z - v and z + v, for
    each v: at every z against the digits of the scalar codec,
    (decode(z) -+ decode(v)) mod p joined by encode's weights, and at each
    z of zs against Field.sub and Field.add themselves."""
    digits = np.array([f.decode(z) for z in range(f.q)])
    weights = np.array([f.encode([0] * i + [1]) for i in range(f.e)])
    for v in vs:
        sub, add = _rolled_table(f, f.neg(v)), _rolled_table(f, v)
        assert sub.dtype == add.dtype == np.int32
        assert sub.tolist() == ((digits - digits[v]) % f.p @ weights).tolist(), v
        assert add.tolist() == ((digits + digits[v]) % f.p @ weights).tolist(), v
        assert [int(sub[z]) for z in zs] == [f.sub(z, v) for z in zs], v
        assert [int(add[z]) for z in zs] == [f.add(z, v) for z in zs], v


@pytest.mark.parametrize("q", [q for q in odd_prime_powers(3, 2197) if field_for_order(q).e >= 2])
def test_rolled_translations_equal_scalar_sub_and_add_for_every_v(q, rng):
    f = field_for_order(q)
    # every (z, v) through Field.sub/add up to 361; above, a sample of z per v
    zs = range(q) if q <= 361 else [0, 1, f.p, q - 1, *rng.integers(0, q, 12).tolist()]
    _check_rolled_translations(f, range(q), zs)


@pytest.mark.parametrize("p, e", [(3, 8), (7, 5)])
def test_rolled_translations_equal_scalar_sub_and_add_above_one_block(p, e, rng):
    f = cached_field(p, e)
    vs = [0, 1, p, f.q - 1, f.non_square, *rng.integers(0, f.q, 24).tolist()]
    _check_rolled_translations(f, vs, [0, 1, f.q - 1, *rng.integers(0, f.q, 40).tolist()])


# 7^5, 3^8 and 4099 are above one block; 361, 343 and 409 are one block,
# where the eta probe's m differs per row of a stacked c
@pytest.mark.parametrize("q, pairs", [
    (7**5, [(2, 5), (2, 6), (3, 10)]),
    (3**8, [(3, 39), (3, 40), (2, 5)]),
    (4099, [(2, 103), (2, 104), (5, 7)]),
    (361, [(2, 5), (2, 6), (2, 11), (3, 10)]),
    (343, [(3, 7), (3, 8), (3, 100), (5, 9)]),
    (409, [(245, 311), (245, 17), (2, 8), (400, 17)]),
])
def test_rolled_and_digit_translations_agree_above_one_block(monkeypatch, q, pairs):
    f = field_for_order(q)
    same_a = _probe_stack(f, [p for p in pairs if p[0] == pairs[0][0]])
    mixed = _probe_stack(f, pairs)
    rolled = []
    build = mnq.construct._rolled_table
    monkeypatch.setattr(mnq.construct, "_rolled_table",
                        lambda field, v: rolled.append(v) or build(field, v))

    def completions():
        return [(_assoc_completions(f, c, u).tolist(),
                 [int(_assoc_completions(f, c[i:i + 1], u)[0]) for i in range(len(c))])
                for u in (0, 1, f.non_square) for c in (same_a, mixed)]

    tables = completions()
    # w + u for the three probes and w - m for m = a of the same-a stack
    assert {0, 1, f.non_square, f.neg(pairs[0][0])} <= set(rolled)
    assert all(stacked == per_row for stacked, per_row in tables)
    rolled.clear()

    def digits(field, v, sign):  # the digit oracle for every v: Field.bulk_add/bulk_sub
        w = np.arange(field.q)  # w[i] is i: the probe reads w + u at a block of z's by a slice
        return (lambda i: field.bulk_add(w[i], v)) if sign > 0 else (lambda i: field.bulk_sub(w[i], v))

    monkeypatch.setattr(mnq.construct, "_translation", digits)
    assert completions() == tables and rolled == []


@pytest.mark.parametrize("q", [3**8, 7**5, 1000003])
def test_orbit_count_keeps_nothing_q_sized(q):
    f = field_for_order(q)
    a, b = (3, 39) if q == 3**8 else (2, 5)
    want = count_associative_orbit(f, a, b)  # the parity table and non-square, kept by design
    tracemalloc.start()
    try:
        assert count_associative_orbit(f, a, b) == want
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert left < q  # not even one int8 array of q entries is left behind


def test_orbit_probe_holds_two_translation_tables_beside_c():
    f = field_for_order(1000003)
    count_associative_orbit(f, 2, 5)  # the parity table and non-square, kept by design
    tracemalloc.start()
    try:
        count_associative_orbit(f, 2, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # c, 8 bytes an entry, and two int32 tables (w + u, w - m) make 16q; a
    # third q-length table would pass 20q
    assert peak < 17 * f.q


def test_orbit_probes_do_no_digit_arithmetic(monkeypatch):
    """Every translation of a probe is a gather from rolled tables, the
    per-row m = b*eta of a stack too: with Field.bulk_add and bulk_sub
    refusing, the searches and orbit counts give their known answers."""
    def refuse(self, *args):
        raise AssertionError("digit arithmetic in an orbit probe")

    monkeypatch.setattr(Field, "bulk_add", refuse)
    monkeypatch.setattr(Field, "bulk_sub", refuse)
    assert search_general(field_for_order(361), stop_at_first=True) == [(19, 33)]
    pairs = search_general(field_for_order(49))
    assert (len(pairs), pairs[0], pairs[-1]) == (108, (9, 17), (48, 40))
    assert count_associative_orbit(cached_field(3, 8), 3, 39) == AssocCount(6561, (1, 0, 0))
    assert count_associative_orbit(cached_field(7, 5), 2, 5) == AssocCount(141246028, (1, 1, 0))


@pytest.mark.parametrize("q, slopes", [(25, range(1, 25)), (409, [1, 2, 245, 408]), (7**5, [2, 3])])
def test_slope_stacks_equal_diff_vector(q, slopes):
    f = field_for_order(q)
    rows = max(1, mnq.fields.BULK_BLOCK // q)  # 7^5: one b per stack, three blocks of non-squares
    for a in slopes:
        b = np.flatnonzero(_latin_mask(f)(a))[:2 * rows + 1]
        stacks = list(_slope_stacks(f, a, b, rows))
        assert sum((s.tolist() for s, _ in stacks), []) == b.tolist()  # none for a = 1
        for s, c in stacks:
            assert 0 < len(s) <= rows and np.array_equal(c, _diff_vector(f, a, s)), (q, a)


@pytest.mark.parametrize("q, stop_at_first", [(361, True), (49, False)])
def test_general_search_probes_no_empty_stack(monkeypatch, q, stop_at_first):
    f = field_for_order(q)
    want = search_general(f, stop_at_first=stop_at_first)
    calls = []
    probe = mnq.construct._assoc_completions

    def spy(field, c, u):
        calls.append((u, len(c)))
        return probe(field, c, u)

    monkeypatch.setattr(mnq.construct, "_assoc_completions", spy)
    assert search_general(f, stop_at_first=stop_at_first) == want
    assert all(rows for _, rows in calls)
    if stop_at_first:
        # _z0_survivors drops b's before their stack is built: at 361 only
        # the witness's stack reaches the probes
        latin = sum(int(_latin_mask(f)(a).sum()) for a in range(1, want[0][0] + 1))
        assert sum(rows for u, rows in calls if u == 1) < latin
    else:
        stacks = sum(u == 1 for u, _ in calls)  # the first probe of every stack
        assert len(calls) < 3 * stacks  # some stacks emptied before their last probe


def test_general_search_builds_the_minus_one_table_once(monkeypatch):
    # chi(b - 1) for every b is shared by the Latin masks of all 19 slopes
    # the first-hit search walks at 361; -1 is encoding 18 in GF(19^2)
    f = field_for_order(361)
    built = []
    build = mnq.construct._rolled_table
    monkeypatch.setattr(mnq.construct, "_rolled_table", lambda field, v: built.append(v) or build(field, v))
    assert search_general(f, stop_at_first=True) == [(19, 33)]
    assert built.count(f.neg(1)) == 1


def test_general_search_builds_no_square_half_for_a_slope_with_no_survivor(monkeypatch):
    # at 361 _z0_survivors leaves no b to the 18 slopes before 19, so only
    # the witness's slope needs a*d for every d
    halves = []
    diff_vector = mnq.construct._diff_vector

    def spy(field, a, b):
        if np.ndim(b) == 0 and b == a:
            halves.append(a)
        return diff_vector(field, a, b)

    monkeypatch.setattr(mnq.construct, "_diff_vector", spy)
    assert search_general(field_for_order(361), stop_at_first=True) == [(19, 33)]
    assert halves == [19]


@pytest.mark.parametrize("q", [25, 49, 121, 243, 343, 361, 373, 529])
def test_z0_test_changes_no_pair_of_the_general_search(monkeypatch, q):
    f = field_for_order(q)
    want = search_general(f, stop_at_first=False)
    monkeypatch.setattr(mnq.construct, "_z0_survivors", lambda field, a, b: b)
    assert search_general(f, stop_at_first=False) == want


@pytest.mark.parametrize("q", [361, 373])
def test_z0_test_drops_only_b_the_u1_probe_rejects(q):
    f = field_for_order(q)
    dropped = 0
    for a in range(1, q):
        b = np.flatnonzero(_latin_mask(f)(a))
        gone = np.setdiff1d(b, _z0_survivors(f, a, b))
        if len(gone):  # the oracle: the u = 1 probe over the full difference vectors
            assert _assoc_completions(f, _diff_vector(f, a, gone), 1).min() > 0, (q, a)
            dropped += len(gone)
    assert dropped > q  # about a quarter of all Latin pairs, not a handful


def test_naive_count_matches_oracle_with_and_without_abort(rng):
    tables = [random_latin(rng, n) for n in (1, 5, 12, 23)] + [build_table(cached_field(13), 2, 11)]
    for t in tables:
        want = triple_count_oracle(t.entries.tolist())
        full = count_associative_naive(t)
        assert (full.total, full.aborted) == (want, False)


def test_naive_count_matches_oracle_with_and_without_abort_over_three_slabs(rng, force_slabs):
    force_slabs(3)
    test_naive_count_matches_oracle_with_and_without_abort(rng)


def test_orbit_count_beyond_dense_parity_table():
    f = field_for_order(1048583)  # prime above PARITY_TABLE_MAX
    chi = f.parity_table
    for u in (0, 1, 2, f.non_square, 524287, f.q - 1):
        assert chi[u] == f.parity_by_pow(u)
    # a = b is the affine map (1-a)x + ay: exactly the triples with x = z
    c = count_associative_orbit(f, 3, 3)
    assert c.breakdown == (1, 1, 1) and c.total == f.q**2


def test_large_character_table_is_built_once_per_field(monkeypatch):
    f = field_for_order(1048583)  # above PARITY_TABLE_MAX, below DENSE_MAX
    builds = []
    build = Field._build_parity_table
    monkeypatch.setattr(Field, "_build_parity_table", lambda self: builds.append(self.q) or build(self))
    mnq.fields._kept_character_table.cache_clear()
    chi = f.parity_table
    assert f.parity_table is chi
    for a in (2, 3):
        assert np.array_equal(_latin_mask(f)(a), (chi * chi[a] == 1) & (np.roll(chi, 1) * chi[a - 1] == 1))
    assert np.array_equal(_diff_vector(f, 3, [5])[0, :3], [0, 3, 6])
    assert char_sum(f, (9, 6, 1)) == f.q - 1
    assert builds == [f.q]


def test_orbit_breakdown_identity(gf13):
    c = count_associative_orbit(gf13, 3, 9)
    d, s, ns = c.breakdown
    q = 13
    assert c.total == q * d + (q * (q - 1) // 2) * (s + ns)


# --- affine symmetry --------------------------------------------------------------

@pytest.mark.parametrize("bad", [49, -1, 54])
@pytest.mark.parametrize("call", [
    lambda f, v: count_associative_orbit(f, 3, v),
    lambda f, v: count_associative_orbit(f, v, 5),
    lambda f, v: build_table(f, v, 5),
    lambda f, v: build_table(f, 3, v),
    lambda f, v: is_two_slope_table(f, build_table(f, 3, 5), 3, v),
    lambda f, v: is_automorphism(f, 3, 5, v, 0),
    lambda f, v: entry(f, v, 5, 1, 2),
    lambda f, v: entry(f, 3, v, 1, 2),
    lambda f, v: is_automorphism(f, 3, 5, 2, v),
], ids=["orbit-b", "orbit-a", "build-a", "build-b", "two-slope-b", "automorphism-alpha",
        "entry-a", "entry-b", "automorphism-beta"])
def test_slopes_outside_the_field_are_refused(call, bad):
    # taken mod p digit by digit, 54 would pass for 5 in GF(49)
    with pytest.raises(ValueError, match="canonical encoding below 49"):
        call(field_for_order(49), bad)


def test_automorphism_frozen_cases(gf13):
    assert is_automorphism(gf13, 3, 9, 4, 5)
    assert not is_automorphism(gf13, 3, 9, 2, 0)
    assert not is_automorphism(gf13, 3, 9, 0, 1)


@pytest.mark.parametrize("a,b", [(3, 9), (2, 7)])
def test_square_scalings_are_exactly_the_automorphisms(a, b):
    # 4099 and 3^8 span more than one BULK_BLOCK; there a sample of alphas
    for q, step, betas in [(13, 1, range(13)), (4099, 97, (0, 5)), (6561, 151, (0, 5))]:
        f = field_for_order(q)
        for alpha in range(0, q, step):
            want = f.parity(alpha) is Parity.SQUARE
            for beta in betas:
                assert is_automorphism(f, a, b, alpha, beta) == want, (q, alpha, beta)


def test_automorphisms_preserve_associative_triples(gf13, rng):
    a, b = 3, 9
    t = build_table(gf13, a, b)
    e = t.entries

    def assoc(x, y, z):
        return e[x, e[y, z]] == e[e[x, y], z]

    for _ in range(200):
        x, y, z = (int(v) for v in rng.integers(0, 13, size=3))
        alpha = int(rng.choice([1, 3, 4, 9, 10, 12]))
        beta = int(rng.integers(0, 13))
        fx, fy, fz = (gf13.add(gf13.mul(alpha, v), beta) for v in (x, y, z))
        assert assoc(x, y, z) == assoc(fx, fy, fz)


# --- searches ---------------------------------------------------------------------

def test_general_search_small_orders_empty():
    for q in (3, 5, 7, 11):
        assert search_general(field_for_order(q)) == []


def test_general_search_gf9():
    f = cached_field(3, 2)
    first = search_general(f, stop_at_first=True)
    assert first == [(3, 6)]
    every = search_general(f)
    assert len(every) == 6
    assert first[0] in every
    for a, b in every:
        t = build_table(f, a, b)
        assert is_latin(t) and count_associative_naive(t).total == 9


def test_general_search_parallel_agrees(gf13):
    assert search_general(gf13, workers=2) == search_general(gf13)


def certified_pairs(f, naive=True):
    """search_general one pair at a time, a then b ascending: the O(1) Latin
    test, the orbit breakdown and, with naive, the recount of the table."""
    for a in range(1, f.q):
        for b in range(1, f.q):
            if (is_latin_pair(f, a, b)
                    and count_associative_orbit(f, a, b).breakdown == (1, 0, 0)
                    and (not naive or count_associative_naive(build_table(f, a, b)).total == f.q)):
                yield a, b


@pytest.mark.parametrize("q", [9, 13, 25, 27, 49, 81])
def test_general_search_matches_per_pair_oracle(q):
    f = field_for_order(q)
    want = list(certified_pairs(f))
    assert search_general(f) == want
    assert search_general(f, workers=2) == want
    assert search_general(f, stop_at_first=True) == want[:1]


def test_general_search_first_witnesses_of_silent_fields():
    pins = {361: (19, 33), 373: (2, 26), 389: (2, 8), 401: (3, 19), 443: (2, 57), 463: (2, 50)}
    for q, pair in pins.items():
        assert search_general(field_for_order(q), stop_at_first=True) == [pair], q
    # 4099 spans two BULK_BLOCKs, so the probes walk z in two blocks
    f = field_for_order(4099)
    first = next(certified_pairs(f, naive=False))
    assert search_general(f, stop_at_first=True, cap=f.q) == [first] == [(2, 103)]


@pytest.mark.parametrize("p, e, pair", [(3, 8, (3, 39)), (3, 9, (2, 30)), (5, 6, (5, 10))])
def test_general_search_first_witnesses_of_silent_fields_above_4096(p, e, pair):
    f = cached_field(p, e)
    assert search_general(f, stop_at_first=True, cap=f.q) == [pair]


def test_general_search_builds_and_counts_no_table(monkeypatch):
    calls = []
    for orig in (build_table, is_latin, count_associative_naive):
        def spy(*args, _orig=orig, **kwargs):
            calls.append(_orig.__name__)
            return _orig(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "mnq" or name.startswith("mnq."):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        monkeypatch.setattr(mod, attr, spy)
    assert find_witness(field_for_order(361)) == (19, 33, "general")
    assert calls == []
    mnq.quasigroup.count_associative_naive(mnq.construct.build_table(field_for_order(9), 3, 6))
    assert calls == ["build_table", "count_associative_naive"]


def test_find_witness_scans_first_then_searches_under_cap():
    f19 = field_for_order(19)
    assert find_witness(f19) == (5, f19.mul(5, 5), "theorem")
    f13 = field_for_order(13)  # condition-silent
    a, b = search_general(f13, stop_at_first=True)[0]
    assert find_witness(f13) == (a, b, "general")
    assert find_witness(f13, cap=12) is None
    assert find_witness(field_for_order(7)) is None
    assert find_witness(field_for_order(3)) is None  # too small for the condition scan


def _load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_order_sweep_script(capsys):
    sweep = _load_script("small_order_sweep")
    assert sweep.main(["13", "31"]) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()[2:] if ln.strip()]
    assert [int(r[0]) for r in rows] == [13, 17, 19, 23, 25, 27, 29, 31]
    for q, res, method, a, b, orbit, naive, _ in rows:
        assert (int(a), int(b), method) == find_witness(field_for_order(int(q)))
        assert int(res) == int(q) % 4 and int(orbit) == int(naive) == int(q)


def test_small_order_sweep_script_from_three(capsys):
    sweep = _load_script("small_order_sweep")
    assert sweep.main(["3", "11"]) == 0
    out = capsys.readouterr().out
    assert [ln.split()[:3] for ln in out.splitlines()[2:7]] == [
        ["3", "3", "-"], ["5", "1", "-"], ["7", "3", "-"], ["9", "1", "general"], ["11", "3", "-"]]
    assert out.endswith("no witness found for: 3, 5, 7, 11\n")


def test_small_order_sweep_naive_column_reads_dash_above_cap(capsys):
    sweep = _load_script("small_order_sweep")
    assert sweep.main(["19", "19", "--table-cap", "18"]) == 0
    row = capsys.readouterr().out.splitlines()[2].split()
    assert row[:7] == ["19", "3", "theorem", "5", "6", "19", "-"]


def test_small_order_sweep_csv_has_one_header(tmp_path, capsys):
    sweep = _load_script("small_order_sweep")
    path = tmp_path / "sweep.csv"
    for args in (["9", "13"], ["17", "19"]):
        assert sweep.main([*args, "--csv", str(path)]) == 0
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["q", "residue", "method", "a", "b", "orbit", "naive", "seconds"]
    assert [r[0] for r in rows[1:]] == ["9", "13", "17", "19"]


def test_weil_margin_script(capsys):
    margin = _load_script("weil_margin")
    assert margin.main(["--residue", "1", "--qmax", "200", "--show-threshold"]) == 0
    table, tail = capsys.readouterr().out.split("\n\n")
    rows = [ln.split() for ln in table.splitlines()[2:]]
    cs = theorem_conditions(1)
    assert [int(r[0]) for r in rows] == [q for q in odd_prime_powers(9, 200) if q % 4 == 1]
    for q, s_scaled, _, guaranteed, actual, _ in rows:
        rep = census_report(field_for_order(int(q)))
        assert (int(s_scaled), int(guaranteed), int(actual)) == (
            rep.s_scaled, rep.guaranteed_count, rep.actual_count)
    assert tail.splitlines() == [f"root-bound constant: {weil_constant(cs)}",
                                 f"floor > 14 for every prime power q >= {threshold(cs)}"]


def test_theorem_search_known_fields():
    hits = search_theorem(field_for_order(409))
    assert hits == [245]
    assert search_theorem(field_for_order(449)) == search_theorem(field_for_order(449), workers=2)
    assert search_theorem(field_for_order(2187)) == []


@pytest.mark.parametrize("q", [13, 25, 27, 49, 81, 343, 347, 361, 449, 961, 2187])
def test_theorem_search_is_the_census_mask(q):
    # the hits are the columns the census counts, and each is what the
    # scalar oracle accepts
    f = field_for_order(q)
    cs = theorem_conditions(q % 4)
    hits = search_theorem(f)
    assert hits == [a for a in range(q) if satisfies_conditions(f, a, cs)]
    assert len(hits) == census_report(f).actual_count
    assert search_theorem(f, stop_at_first=True) == hits[:1]


def test_theorem_search_refuses_fields_above_dense_limit(monkeypatch):
    p = 16777259  # the first prime above 2^24
    assert p > DENSE_MAX and is_prime(p)
    f = field_for_order(p)

    def no_pass(self, *args):
        raise AssertionError("whole-field pass above DENSE_MAX")

    for name in ("eval_blocks", "_build_parity_table"):
        monkeypatch.setattr(Field, name, no_pass)
    with pytest.raises(ValueError, match=str(DENSE_MAX)):
        search_theorem(f, stop_at_first=True)
    with pytest.raises(ValueError, match=str(DENSE_MAX)):
        chi_matrix(f, theorem_conditions(p % 4))


# 139: first hit 64, the start of the second block; 409: first hit 245 in
# the fourth; 11^3: first hit 128 at the start of the third; 3^6: silent
@pytest.mark.parametrize("q, first", [(139, 64), (409, 245), (1331, 128), (729, None)])
def test_first_hit_scan_stops_at_its_hit_block(q, first, monkeypatch):
    monkeypatch.setattr(mnq.fields, "BULK_BLOCK", 64)
    f = field_for_order(q)
    blocks = []
    hold = mnq.construct.conditions_hold
    monkeypatch.setattr(mnq.construct, "conditions_hold",
                        lambda chi, cs: blocks.append(chi.shape[1]) or hold(chi, cs))
    hits = search_theorem(f, stop_at_first=True)
    assert hits == search_theorem(f)[:1] == ([] if first is None else [first])
    n_blocks = -(-q // 64) if first is None else first // 64 + 1
    assert len(blocks) == n_blocks + -(-q // 64)  # the early scan, then the full one


def test_theorem_hit_failing_its_certificate_raises(monkeypatch):
    def forged(field, a, b):
        return AssocCount(total=field.q + 1, breakdown=(1, 0, 0))

    monkeypatch.setattr(mnq.construct, "count_associative_orbit", forged)
    for first in (True, False):
        with pytest.raises(InternalCheckError, match="certifies"):
            search_theorem(field_for_order(409), stop_at_first=first)
    assert search_theorem(field_for_order(361)) == []  # no hit, nothing certified


def test_theorem_hit_failing_the_latin_test_raises(monkeypatch, capsys):
    monkeypatch.setattr(mnq.construct, "is_latin_pair", lambda field, a, b: False)
    with pytest.raises(InternalCheckError, match="not Latin"):
        search_theorem(field_for_order(409), stop_at_first=True)
    assert mnq.cli.main(["search", "409"]) == 3
    assert capsys.readouterr().err.startswith("internal check failed: a=")


def test_theorem_search_certifies_hits():
    f = field_for_order(347)
    for a in search_theorem(f):
        b = f.mul(a, a)
        assert count_associative_naive(build_table(f, a, b)).total == 347


# --- condition scan ----------------------------------------------------------------

def test_condition_sets_shape():
    cs1, cs3 = theorem_conditions(1), theorem_conditions(3)
    assert cs1.degree_sum == cs3.degree_sum == 14
    assert cs1.square_count == 3 and cs3.square_count == 5
    assert len(cs1.polys) == len(cs3.polys) == 8
    assert cs1.signs == (1,) * 3 + (-1,) * 5
    assert cs3.signs == (1,) * 5 + (-1,) * 3
    with pytest.raises(ValueError):
        theorem_conditions(2)


def test_satisfies_conditions_validation(gf13):
    cs1 = theorem_conditions(1)
    for trivial in (0, 1, 12):
        assert not satisfies_conditions(gf13, trivial, cs1)
    with pytest.raises(ValueError):
        satisfies_conditions(field_for_order(19), 5, cs1)
    # 654 and -164 reduce to the witness 245 digit by digit, but are no encodings
    for a in (654, -164, 409):
        with pytest.raises(ValueError, match=f"slope a={a} is not a canonical encoding"):
            satisfies_conditions(field_for_order(409), a, cs1)
        with pytest.raises(ValueError, match="not an encoding"):
            is_latin_pair(field_for_order(409), a, 2)


def test_witnesses_satisfy_their_conditions():
    for q, a in (WITNESS_R1, WITNESS_R3):
        f = field_for_order(q)
        assert satisfies_conditions(f, a, theorem_conditions(q % 4))


# --- case analysis -----------------------------------------------------------------

def test_case_catalog_is_complete():
    assert set(CASE_ROWS) == {(1, "one"), (1, "eta"), (3, "one"), (3, "eta")}
    for rows in CASE_ROWS.values():
        assert len(rows) == 8
        assert len({r.parities for r in rows}) == 8  # all parity triples distinct
    # each catalog carries exactly one degenerate (no solution) row per probe
    for (residue, _), rows in CASE_ROWS.items():
        assert sum(1 for r in rows if r.zstar is None) == 1


@pytest.mark.parametrize("q,a", [WITNESS_R1, WITNESS_R3])
def test_case_tables_all_pass(q, a):
    report = verify_case_tables(field_for_order(q), a)
    assert report.all_passed
    assert len(report.rows) == 16
    degenerate = [r for r in report.rows if "nonzero constant" in r.detail]
    assert len(degenerate) == 2
    assert {r.probe for r in report.rows} == {"one", "eta"}


def test_case_tables_precondition(gf13):
    with pytest.raises(ValueError):
        verify_case_tables(gf13, 5)


# --- witness cache -------------------------------------------------------------------

def test_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.csv"
    assert load_cache(path) == {}
    f = cached_field(3, 2)
    rec = WitnessRecord.for_witness(f, 3, 6, "general", assoc_count=9)
    append_witness(path, rec)
    append_witness(path, WitnessRecord.for_witness(cached_field(13), 2, 5, "general", 13))
    cache = load_cache(path)
    assert set(cache) == {9, 13}
    assert cache[9] == rec
    assert cache[9].modulus == 10 and cache[9].method == "general"
    # header written exactly once
    lines = path.read_text().splitlines()
    assert len(lines) == 3 and lines[0].startswith("q,")


def test_cache_skips_malformed_rows(tmp_path, capsys):
    path = tmp_path / "cache.csv"
    append_witness(path, WitnessRecord.for_witness(cached_field(13), 2, 5, "general", 13))
    with open(path, "a") as fh:
        fh.write("17,17,1,17,x,3,general,17,t\r\n19,19")  # bad integer, then a torn row
    cache = load_cache(path)
    assert set(cache) == {13}
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(ln.startswith("warning:") for ln in err)
    # a row appended after the torn one starts on a line of its own
    append_witness(path, WitnessRecord.for_witness(cached_field(19), 2, 3, "general", 19))
    assert set(load_cache(path)) == {13, 19}


def test_recertify_rejects_forged_rows():
    f = cached_field(13)
    good = WitnessRecord.for_witness(f, 2, 5, "general", 13)
    assert recertify(f, good)
    a = search_theorem(field_for_order(409), stop_at_first=True)[0]
    f409 = field_for_order(409)
    assert recertify(f409, WitnessRecord.for_witness(f409, a, f409.mul(a, a), "theorem", 409))
    forged = [
        WitnessRecord(13, 13, 1, 13, 1, 1, "theorem", 13, "x"),   # not Latin
        WitnessRecord(13, 13, 1, 13, 2, 5, "theorem", 13, "x"),   # b != a*a
        WitnessRecord(13, 13, 1, 13, 2, 5, "magic", 13, "x"),     # unknown method
        WitnessRecord(13, 13, 1, 13, 2, 5, "general", 14, "x"),   # wrong count
        WitnessRecord(13, 13, 1, 14, 2, 5, "general", 13, "x"),   # wrong modulus
        WitnessRecord(13, 13, 1, 13, 2, 13, "general", 13, "x"),  # not an encoding
        WitnessRecord(13, 13, 1, 13, 2, 11, "general", 13, "x"),  # Latin, not minimal
    ]
    assert is_latin_pair(f, 2, 11)
    for rec in forged:
        assert not recertify(f, rec), rec
