"""Two-slope tables, both counters, the condition scan, case analysis, cache."""

from __future__ import annotations

import importlib.util
import sys
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
    _diff_vector,
    _latin_mask,
    _translation_tables,
    append_witness,
    build_table,
    chi_matrix,
    count_associative_orbit,
    entry,
    find_witness,
    is_automorphism,
    is_latin_pair,
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
        assert _latin_mask(f, a).tolist() == [is_latin_pair(f, a, b) for b in range(q)], (q, a)


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
    build = mnq.construct._translation_tables
    monkeypatch.setattr(mnq.construct, "_translation_tables",
                        lambda field, v: tables.append(v) or build(field, v))
    shared = [_assoc_completions(f, c[:3], u).tolist() + _assoc_completions(f, c, u).tolist()
              for u in (0, 1, f.non_square)]
    assert {0, 1, f.non_square, 2} <= set(tables)  # the probes and m = a of the same-a stack
    tables.clear()
    monkeypatch.setattr(mnq.construct, "BULK_BLOCK", 64)  # 409 is now above one block,
    monkeypatch.setattr(mnq.fields, "BULK_BLOCK", 64)     # walked in seven: digits only
    digits = [_assoc_completions(f, c[:3], u).tolist() + _assoc_completions(f, c, u).tolist()
              for u in (0, 1, f.non_square)]
    assert tables == [] and digits == shared


def test_no_translation_table_above_one_block(monkeypatch):
    def refuse(field, v):
        raise AssertionError(f"translation table built for q = {field.q}")

    monkeypatch.setattr(mnq.construct, "_translation_tables", refuse)
    assert count_associative_orbit(cached_field(3, 8), 3, 39).breakdown == (1, 0, 0)


def test_translation_tables_are_read_only_permutations():
    f = cached_field(3, 5)
    for v in (1, f.non_square, 200):
        sub, add = _translation_tables(f, v)
        assert _translation_tables(f, v)[0] is sub  # kept, not built again
        assert not sub.flags.writeable and not add.flags.writeable
        assert sub.tolist() == [f.sub(z, v) for z in range(f.q)]
        assert add.tolist() == [f.add(w, v) for w in range(f.q)]
        assert np.array_equal(add[sub], np.arange(f.q))


def test_naive_count_matches_oracle_with_and_without_abort(rng):
    tables = [random_latin(rng, n) for n in (1, 5, 12, 23)] + [build_table(cached_field(13), 2, 11)]
    for t in tables:
        want = triple_count_oracle(t.entries.tolist())
        full = count_associative_naive(t)
        assert (full.total, full.aborted) == (want, False)
        assert count_associative_naive(t, abort_above=want).total == want
        assert not count_associative_naive(t, abort_above=want).aborted
        hit = count_associative_naive(t, abort_above=want - 1)
        assert (hit.total, hit.aborted) == (want, True)
        early = count_associative_naive(t, abort_above=0)
        assert early.aborted and 0 < early.total <= want


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
        assert np.array_equal(_latin_mask(f, a), (chi * chi[a] == 1) & (np.roll(chi, 1) * chi[a - 1] == 1))
    assert np.array_equal(_diff_vector(f, 3, [5])[0, :3], [0, 3, 6])
    assert char_sum(f, (9, 6, 1)) == f.q - 1
    assert builds == [f.q]


def test_orbit_breakdown_identity(gf13):
    c = count_associative_orbit(gf13, 3, 9)
    d, s, ns = c.breakdown
    q = 13
    assert c.total == q * d + (q * (q - 1) // 2) * (s + ns)


# --- affine symmetry --------------------------------------------------------------

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


def test_weil_margin_script(capsys):
    margin = _load_script("weil_margin")
    assert margin.main(["--residue", "1", "--qmax", "200", "--show-threshold"]) == 0
    table, tail = capsys.readouterr().out.split("\n\n")
    rows = [ln.split() for ln in table.splitlines()[2:]]
    cs = theorem_conditions(1)
    assert [int(r[0]) for r in rows] == [q for q in odd_prime_powers(9, 200) if q % 4 == 1]
    for q, s_scaled, _, guaranteed, actual, _ in rows:
        rep = census_report(field_for_order(int(q)), cs)
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
