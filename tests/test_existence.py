"""Order decisions, block planning, and plan materialization."""

from __future__ import annotations

import json
import sys
from collections import Counter
from math import prod

import numpy as np
import pytest

from conftest import cyclic, random_latin, swap_01
from mnq import cli, construct, existence, quasigroup
from mnq.existence import (
    Block,
    CRITICAL_ODD_PRIMES,
    Decision,
    REGISTRY_NOT_EXIST,
    SEARCHED_RANGE_HOLES,
    SEARCHED_RANGE_LIMIT,
    Status,
    _fewest_blocks,
    _plan_from_valuations,
    decide,
    materialize,
    single_block_route,
)
from mnq.fields import InternalCheckError, field_for_order, odd_prime_powers
from mnq.intpoly import exceptional_primes, factor
from mnq.construct import (
    build_table,
    count_associative_orbit,
    find_witness,
    is_latin_pair,
    is_two_slope_table,
    search_general,
    theorem_conditions,
)
from mnq.quasigroup import (
    OpTable,
    count_associative_naive,
    direct_product,
    is_idempotent,
    is_latin,
    is_product_of,
)
from mnq.weil import threshold


# --- decide -------------------------------------------------------------------

def test_decide_registry_and_trivial():
    assert decide(1) == Decision(1, Status.EXISTS, "trivial-order", ())
    for n in sorted(REGISTRY_NOT_EXIST):
        d = decide(n)
        assert d.status is Status.NOT_EXIST and d.reason == "small-order-registry"
        assert d.plan == ()
    with pytest.raises(ValueError):
        decide(0)
    with pytest.raises(ValueError):
        decide(-5)


def test_decide_positive_cases():
    for n in (9, 13, 25, 64, 81, 117, 576, 3**7):
        d = decide(n)
        assert d.status is Status.EXISTS, n
        assert prod(b.order for b in d.plan) == n
        for blk in d.plan:
            assert blk.in_scope == (blk.order % 2 == 1)


def test_decide_not_guaranteed_reasons():
    assert decide(11).reason == "11-adic-valuation"
    assert decide(12).reason == "two-adic-valuation"
    assert decide(48).reason == "two-adic-valuation"
    assert decide(15).reason == "3-adic-valuation"
    assert decide(2**6 * 5).reason == "5-adic-valuation"
    for n in (11, 12, 48, 15):
        assert decide(n).status is Status.NOT_GUARANTEED


def valuation_rule(n):
    """The criterion on the valuations of a full factorization: v_2 first,
    then 3, 5, 7 and 11, the plan from those valuations."""
    if n == 1:
        return Decision(1, Status.EXISTS, "trivial-order", ())
    if n in REGISTRY_NOT_EXIST:
        return Decision(n, Status.NOT_EXIST, "small-order-registry", ())
    vals = Counter(factor(n))
    if vals[2] % 2 == 1 or vals[2] in (2, 4):
        return Decision(n, Status.NOT_GUARANTEED, "two-adic-valuation", ())
    for p in (3, 5, 7, 11):
        if vals[p] == 1:
            return Decision(n, Status.NOT_GUARANTEED, f"{p}-adic-valuation", ())
    return Decision(n, Status.EXISTS, "valuation-criteria", _plan_from_valuations(vals))


def test_decide_is_the_valuation_rule():
    assert CRITICAL_ODD_PRIMES == (3, 5, 7, 11)
    for n in [*range(1, 20001), *range(1_000_000, 1_000_000 + 4096)]:
        assert decide(n) == valuation_rule(n), n


BIG_ODD = (2**61 - 1) * (2**89 - 1)  # two Mersenne primes: Pollard rho's work


def test_decide_rejects_by_valuation_without_factoring(monkeypatch):
    def no_factor(n):
        raise AssertionError(f"factor({n}) called")

    monkeypatch.setattr(existence, "factor", no_factor)
    for n, reason in ((12, "two-adic-valuation"), (48, "two-adic-valuation"),
                      (15, "3-adic-valuation"), (2**6 * 5, "5-adic-valuation"),
                      (2**6 * 9 * 7, "7-adic-valuation"), (9 * 11, "11-adic-valuation"),
                      (2 * BIG_ODD, "two-adic-valuation"), (3 * 2**6 * BIG_ODD, "3-adic-valuation")):
        assert decide(n) == Decision(n, Status.NOT_GUARANTEED, reason, ()), n


def test_decide_plans_a_passing_order_from_its_factorization(monkeypatch):
    calls = []

    def recording_factor(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(existence, "factor", recording_factor)
    assert [b.order for b in decide(117).plan] == [9, 13]
    assert calls == [117]


def test_decide_never_not_exist_outside_registry():
    for n in range(1, 2001):
        if n not in REGISTRY_NOT_EXIST:
            assert decide(n).status is not Status.NOT_EXIST


def test_plan_invariants_sweep():
    for n in range(1, 10001):
        d = decide(n)
        if d.status is Status.EXISTS:
            assert prod(b.order for b in d.plan) == n
            for blk in d.plan:
                if blk.in_scope:
                    assert single_block_route(blk.order) == blk.route
                else:
                    assert blk.order in (2**6, 2**8, 2**10) and blk.route is None


# --- planner internals -----------------------------------------------------------

def _two_adic_plan(v):
    """The 2-adic blocks of a plan, largest first, as decide prints them."""
    return [b.order for b in _fewest_blocks(2, v)[::-1]]


def test_even_blocks_greedy_largest_first():
    assert _fewest_blocks(2, 0) == []
    assert _two_adic_plan(6) == [64]
    assert _two_adic_plan(12) == [64, 64]
    assert _two_adic_plan(16) == [1024, 64]
    assert _two_adic_plan(22) == [1024, 64, 64]
    for v in range(6, 41, 2):
        blocks = _fewest_blocks(2, v)
        assert prod(b.order for b in blocks) == 2**v
        assert all(b.route is None for b in blocks)
    assert [b.order for b in _plan_from_valuations(Counter({2: 16, 3: 2}))] == [1024, 64, 9]


def test_even_blocks_are_fewest_then_most_of_order_1024():
    # brute force over every (k6, k8, k10) with 6*k6 + 8*k8 + 10*k10 == v
    for v in range(6, 401, 2):
        splits = [(k6, k8, (v - 6 * k6 - 8 * k8) // 10)
                  for k6 in range(v // 6 + 1) for k8 in range((v - 6 * k6) // 8 + 1)
                  if (v - 6 * k6 - 8 * k8) % 10 == 0]
        fewest = min(map(sum, splits))
        want = max(k10 for k6, k8, k10 in splits if k6 + k8 + k10 == fewest)
        orders = [b.order for b in _fewest_blocks(2, v)]
        assert prod(orders) == 2**v and len(orders) == fewest, v
        assert orders.count(2**10) == want and orders == sorted(orders), v


def test_odd_blocks_fewest_then_smallest():
    assert [b.order for b in _fewest_blocks(3, 7)] == [9, 243]
    assert [b.order for b in _fewest_blocks(3, 14)] == [9, 3**12]
    assert [b.order for b in _fewest_blocks(23, 5)] == [23, 23**4]
    assert [b.order for b in _fewest_blocks(13, 2)] == [169]
    assert [b.order for b in _fewest_blocks(7, 2)] == [49]


def test_single_block_route_boundaries():
    assert single_block_route(9) == "general"
    assert single_block_route(343) == "general"
    assert single_block_route(347) == "theorem"
    assert single_block_route(3) is None
    assert single_block_route(11) is None
    assert single_block_route(121) == "general"
    for hole in sorted(SEARCHED_RANGE_HOLES):
        assert single_block_route(hole) is None
    # beyond the searched range the characteristic decides
    assert single_block_route(13**6) == "theorem"     # 4826809
    assert single_block_route(7**8) == "theorem"      # residue 1, 7 is clean there
    assert single_block_route(7**9) is None           # residue 3 keeps 7 exceptional
    assert single_block_route(5**10) is None
    assert single_block_route(3**14) is None
    with pytest.raises(ValueError):
        single_block_route(15)


def test_general_label_names_the_search_that_builds_the_block():
    # find_witness runs the general search alone up to 343, also at the 27
    # orders whose condition scan has a hit, so the label is the method used
    for q in odd_prime_powers(9, 343):
        if q == 11:
            continue
        f = field_for_order(q)
        found = find_witness(f)
        assert single_block_route(q) == found[2] == "general", q
        assert found[:2] == search_general(f, stop_at_first=True)[0], q


def test_searched_range_limit_is_the_census_threshold():
    for residue in (1, 3):
        assert SEARCHED_RANGE_LIMIT == threshold(theorem_conditions(residue)) == 2_369_532
    # the interval up to the old constant 2,400,000 holds no prime power of
    # an exceptional characteristic, so the label there did not move
    between = list(odd_prime_powers(SEARCHED_RANGE_LIMIT, 2_399_999))
    assert len(between) == 2082
    assert all(single_block_route(q) == "theorem" for q in between)


def test_exceptional_sets_match_survey():
    from mnq.weil import _exceptional
    odd = {r: _exceptional(theorem_conditions(r)) - {2} for r in (1, 3)}
    for residue in (1, 3):
        assert odd[residue] == exceptional_primes(theorem_conditions(residue)) - {2}
    assert odd[1] == {3, 5, 23}
    assert odd[3] == {3, 5, 7, 23}


def test_plan_shapes_and_rejections():
    assert [b.order for b in decide(117).plan] == [9, 13]
    assert [b.order for b in decide(576).plan] == [64, 9]
    assert [b.order for b in decide(3**7).plan] == [9, 243]
    for n in (11, 12, 10):
        d = decide(n)
        assert d.status is not Status.EXISTS and d.plan == ()


# --- materialize -------------------------------------------------------------------

def test_materialize_single_block():
    t = materialize([9])
    assert t.n == 9 and is_latin(t) and is_idempotent(t)
    assert count_associative_naive(t).total == 9


def test_materialize_product_plan():
    t = materialize(decide(117).plan)
    assert t.n == 117
    assert count_associative_naive(t).total == 117


def test_materialize_rejections():
    with pytest.raises(ValueError):
        materialize([Block(64, route=None), 9])
    with pytest.raises(ValueError):
        materialize([11])
    with pytest.raises(ValueError):
        materialize([15])
    with pytest.raises(ValueError):
        materialize([343, 343])  # exceeds the default cap
    with pytest.raises(ValueError, match="product order 1 exceeds table cap 0"):
        materialize([], cap=0)


def test_materialize_no_blocks_is_the_order_1_table():
    # the empty product: one element, one triple, maximally nonassociative
    t = materialize([])
    assert t.entries.tolist() == [[0]] and is_latin(t) and is_idempotent(t)
    assert count_associative_naive(t).total == 1


# --- certification by structure ------------------------------------------------------

def witness(q):
    f = field_for_order(q)
    a, b, _ = find_witness(f)
    return f, a, b


@pytest.mark.parametrize("q1, q2", [(9, 13), (13, 19)])
def test_structural_count_matches_naive_on_witness_products(q1, q2):
    blocks = []
    for q in (q1, q2):
        f, a, b = witness(q)
        t = build_table(f, a, b)
        assert is_two_slope_table(f, t, a, b)
        blocks.append((t, count_associative_orbit(f, a, b).total))
    (t1, a1), (t2, a2) = blocks
    prod_t = direct_product(t1, t2)
    assert is_product_of(prod_t, t1, t2)
    assert a1 * a2 == count_associative_naive(prod_t).total == q1 * q2


def test_structural_count_matches_naive_on_non_witness_products(rng):
    for t1, t2 in ((cyclic(3), cyclic(4)), (cyclic(5), random_latin(rng, 4)),
                   (random_latin(rng, 6), random_latin(rng, 5)), (random_latin(rng, 1), cyclic(7))):
        prod_t = direct_product(t1, t2)
        assert is_product_of(prod_t, t1, t2)
        want = count_associative_naive(prod_t).total
        assert count_associative_naive(t1).total * count_associative_naive(t2).total == want


def test_is_two_slope_table_checks_every_row():
    for q in (9, 13, 25, 27, 49):
        f, a, b = witness(q)
        t = build_table(f, a, b)
        assert is_two_slope_table(f, t, a, b)
        assert not is_two_slope_table(f, t, b, a)
        # rows 1 and 2 exchanged: row 0 and Latinness survive, the operation does not
        rows = t.entries.copy()
        rows[[1, 2]] = rows[[2, 1]]
        swapped = OpTable(rows)
        assert is_latin(swapped) and np.array_equal(swapped.entries[0], t.entries[0])
        assert not is_two_slope_table(f, swapped, a, b)


@pytest.fixture
def naive_calls(monkeypatch):
    """Orders of every count_associative_naive call, from any mnq module."""
    calls = []
    orig = quasigroup.count_associative_naive

    def counting(t, *args, **kwargs):
        calls.append(t.n)
        return orig(t, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "mnq" or name.startswith("mnq."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_materialize_makes_no_naive_count(naive_calls):
    t = materialize([347])  # theorem route: no search table is counted either
    assert t.n == 347 and naive_calls == []
    t = materialize([9, 13])  # general route: the search accepts on the orbit certificate
    assert t.n == 117 and naive_calls == []
    naive_calls.clear()  # the counter does see a recount
    assert quasigroup.count_associative_naive(t).total == 117 and naive_calls == [117]


def test_verify_counts_a_built_table_through_its_factors(naive_calls, tmp_path, capsys):
    built, fake = tmp_path / "t441.json", tmp_path / "fake441.json"
    assert cli.main(["exists", "441", "--build", "-o", str(built)]) == 0
    assert naive_calls == []
    assert cli.main(["verify", str(built)]) == 0
    assert naive_calls == []  # both factors are recognized and orbit-counted
    # relabelled, the same quasigroup is no product in this encoding
    quasigroup.save_table(swap_01(quasigroup.load_table(built)), fake)
    naive_calls.clear()
    assert cli.main(["verify", str(fake)]) == 0
    assert naive_calls == [441]
    assert [json.loads(line)["assoc_count"] for line in capsys.readouterr().out.splitlines()[1:]] == [441, 441]


def test_exists_build_counts_each_block_with_the_count_verify_runs(naive_calls, monkeypatch, tmp_path):
    counted = []
    count = construct.count_associative

    def spy(t):
        counted.append(t.n)
        return count(t)

    monkeypatch.setattr(existence, "count_associative", spy)
    assert cli.main(["exists", "441", "--build", "-o", str(tmp_path / "t441.json")]) == 0
    assert counted == [9, 49] and naive_calls == []


def relabelled_product(t1, t2, cap=quasigroup.DEFAULT_TABLE_CAP):
    return swap_01(direct_product(t1, t2, cap=cap))


def test_materialize_rejects_a_table_that_is_not_the_product(monkeypatch):
    fake = relabelled_product(materialize([9]), materialize([13]))
    # Latin, idempotent, minimal: only the product check can tell
    assert is_latin(fake) and is_idempotent(fake)
    assert count_associative_naive(fake).total == 117
    monkeypatch.setattr(existence, "direct_product", relabelled_product)
    with pytest.raises(InternalCheckError, match="not the product"):
        materialize([9, 13])


@pytest.mark.parametrize("orders", [[13], [9, 13], [13, 19]])
def test_materialize_rejects_a_block_that_is_not_a_witness(monkeypatch, orders):
    for q in orders:
        f = field_for_order(q)
        assert is_latin_pair(f, 2, 2) and is_latin(build_table(f, 2, 2))
        assert count_associative_orbit(f, 2, 2).total > q
    monkeypatch.setattr(existence, "find_witness", lambda field: (2, 2, "general"))
    with pytest.raises(InternalCheckError, match="associative triples"):
        materialize(orders)


def test_block_searches_take_no_table_cap(monkeypatch, tmp_path):
    # materialize refuses n > cap before any block is searched, and each
    # block's order divides n, so a cap could never bind in a block search
    orders = []

    def spy(field):
        orders.append(field.q)
        return find_witness(field)

    monkeypatch.setattr(existence, "find_witness", spy)
    assert materialize([9, 13], cap=200).n == 117
    assert orders == [9, 13]
    orders.clear()
    argv = ["--table-cap", "200", "exists", "117", "--build", "-o", str(tmp_path / "t.json")]
    assert cli.main(argv) == 0
    assert orders == [9, 13]
    with pytest.raises(ValueError, match="exceeds table cap 116"):
        materialize([9, 13], cap=116)
    assert orders == [9, 13]


def test_materialize_rejects_a_block_table_that_is_not_its_operation(monkeypatch):
    def rows_swapped(field, a, b, cap=quasigroup.DEFAULT_TABLE_CAP):
        rows = build_table(field, a, b, cap=cap).entries.copy()
        rows[[1, 2]] = rows[[2, 1]]
        return OpTable(rows)

    monkeypatch.setattr(existence, "build_table", rows_swapped)
    with pytest.raises(InternalCheckError, match="structural"):
        materialize([9, 13])
