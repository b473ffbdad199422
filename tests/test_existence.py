"""Order decisions, block planning, and plan materialization."""

from __future__ import annotations

import sys
from math import prod

import numpy as np
import pytest

from conftest import cyclic, random_latin, swap_01
from mnq import existence, quasigroup
from mnq.existence import (
    Block,
    Decision,
    REGISTRY_NOT_EXIST,
    SEARCHED_RANGE_HOLES,
    Status,
    _even_blocks,
    _odd_blocks,
    build_plan,
    decide,
    materialize,
    single_block_route,
)
from mnq.fields import InternalCheckError, field_for_order
from mnq.intpoly import exceptional_primes
from mnq.construct import (
    build_table,
    count_associative_orbit,
    find_witness,
    is_latin_pair,
    is_two_slope_table,
    theorem_conditions,
)
from mnq.quasigroup import (
    count_associative_naive,
    direct_product,
    is_idempotent,
    is_latin,
    is_product_of,
    make_table,
)


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

def test_even_blocks_greedy_largest_first():
    assert _even_blocks(0) == []
    assert [b.order for b in _even_blocks(6)] == [64]
    assert [b.order for b in _even_blocks(12)] == [64, 64]
    assert [b.order for b in _even_blocks(16)] == [1024, 64]
    assert [b.order for b in _even_blocks(22)] == [1024, 64, 64]
    for v in range(6, 41, 2):
        blocks = _even_blocks(v)
        assert prod(b.order for b in blocks) == 2**v


def test_odd_blocks_fewest_then_smallest():
    assert [b.order for b in _odd_blocks(3, 7)] == [9, 243]
    assert [b.order for b in _odd_blocks(3, 14)] == [9, 3**12]
    assert [b.order for b in _odd_blocks(23, 5)] == [23, 23**4]
    assert [b.order for b in _odd_blocks(13, 2)] == [169]
    assert [b.order for b in _odd_blocks(7, 2)] == [49]


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


def test_exceptional_sets_match_survey():
    from mnq.weil import _exceptional
    odd = {r: _exceptional(theorem_conditions(r)) - {2} for r in (1, 3)}
    for residue in (1, 3):
        assert odd[residue] == exceptional_primes(theorem_conditions(residue)) - {2}
    assert odd[1] == {3, 5, 23}
    assert odd[3] == {3, 5, 7, 23}


def test_build_plan_shapes_and_rejections():
    assert [b.order for b in build_plan(117)] == [9, 13]
    assert [b.order for b in build_plan(576)] == [64, 9]
    assert [b.order for b in build_plan(3**7)] == [9, 243]
    for n in (11, 12, 10):
        with pytest.raises(ValueError):
            build_plan(n)


# --- materialize -------------------------------------------------------------------

def test_materialize_single_block():
    t = materialize([9])
    assert t.n == 9 and is_latin(t) and is_idempotent(t)
    assert count_associative_naive(t).total == 9


def test_materialize_product_plan():
    t = materialize(build_plan(117))
    assert t.n == 117
    assert count_associative_naive(t).total == 117


def test_materialize_rejections():
    with pytest.raises(ValueError):
        materialize([Block(64, in_scope=False, route=None), 9])
    with pytest.raises(ValueError):
        materialize([11])
    with pytest.raises(ValueError):
        materialize([15])
    with pytest.raises(ValueError):
        materialize([])
    with pytest.raises(ValueError):
        materialize([343, 343])  # exceeds the default cap


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
        swapped = make_table(rows)
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
    monkeypatch.setattr(existence, "_block_witness", lambda q: (2, 2, "general"))
    with pytest.raises(InternalCheckError, match="associative triples"):
        materialize(orders)


def test_materialize_rejects_a_block_table_that_is_not_its_operation(monkeypatch):
    def rows_swapped(field, a, b, cap=quasigroup.DEFAULT_TABLE_CAP):
        rows = build_table(field, a, b, cap=cap).entries.copy()
        rows[[1, 2]] = rows[[2, 1]]
        return make_table(rows)

    monkeypatch.setattr(existence, "build_table", rows_swapped)
    with pytest.raises(InternalCheckError, match="structural"):
        materialize([9, 13])
