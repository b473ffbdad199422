"""Existence decisions for maximally nonassociative quasigroups of order n.

The decision procedure is valuation-based: an order n is buildable whenever
its 2-adic valuation is even and not 2 or 4, and no prime in {3, 5, 7, 11}
divides n exactly once.  The criterion is sufficient, not necessary, so the
verdict is three-valued: a small-order registry supplies the known
nonexistence facts (orders 2..8 and 10), everything else that misses the
criterion is reported as not guaranteed rather than impossible.  Both
valuation tests read n directly (its lowest set bit, and n mod p and p^2 for
the four critical primes), so they run before any factorization: only an
order that passes them is factored and planned.

A positive decision comes with a construction plan: n is split into
prime-power blocks that multiply back to n, where each odd block is buildable
by one of the search routes in this package and each even block 2^6, 2^8,
2^10 is recorded as existence-only (their known constructions live outside
the two-slope family).  materialize() turns a fully in-scope plan into an
actual certified table by searching a witness per block and folding the
blocks with the direct product; each block is counted by
construct.count_associative, the count verify runs, and the result is
certified by structure (see materialize), not by recounting its n^3 triples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from math import prod

from .construct import GENERAL_ROUTE_MAX, build_table, count_associative, find_witness, theorem_conditions
from .fields import InternalCheckError, field_for_order
from .intpoly import factor
from .quasigroup import (
    DEFAULT_TABLE_CAP,
    OpTable,
    direct_product,
    is_idempotent,
    is_latin,
    is_product_of,
)
from .weil import _exceptional, threshold

REGISTRY_NOT_EXIST = frozenset({2, 3, 4, 5, 6, 7, 8, 10})

# the odd orders with no two-slope witness (the general search of each is
# empty): scan reports them known-empty, no block has one as its order, and
# decide needs each of them to divide n not exactly once
CRITICAL_ODD_PRIMES = (3, 5, 7, 11)

# single theorem-route blocks are guaranteed below the census threshold (both
# residues mod 4 share it) save the listed holes, and above it for clean p
SEARCHED_RANGE_LIMIT = threshold(theorem_conditions(1))
SEARCHED_RANGE_HOLES = frozenset({3**7, 3**9, 3**11, 3**13})


class Status(str, Enum):
    EXISTS = "exists"
    NOT_EXIST = "does-not-exist"
    NOT_GUARANTEED = "not-guaranteed"


@dataclass(frozen=True)
class Block:
    """One factor of a construction plan.

    Odd prime-power blocks are in scope for the search machinery and carry
    the route expected to find a witness; even blocks are existence facts
    only, with no route, and cannot be materialized here.
    """

    order: int
    route: str | None

    @property
    def in_scope(self) -> bool:
        return self.route is not None


@dataclass(frozen=True)
class Decision:
    n: int
    status: Status
    reason: str
    plan: tuple[Block, ...] = ()


def single_block_route(q: int, p: int | None = None) -> str | None:
    """Search route expected to produce an order-q block, or None.

    q must be an odd prime power (p its characteristic, factored out here
    when not supplied).  "general" marks the orders up to
    construct.GENERAL_ROUTE_MAX, where find_witness runs the general search
    alone, so the label names the search that builds the block; "theorem"
    the slope pairs (a, a*a) found by the condition scan, which above that
    order runs first (a field it leaves silent, such as 361, is still
    labelled "theorem" unless it is one of SEARCHED_RANGE_HOLES).
    """
    if q in CRITICAL_ODD_PRIMES:
        return None
    if p is None:
        fs = set(factor(q))
        if len(fs) != 1:
            raise ValueError(f"{q} is not a prime power")
        p = fs.pop()
    if p == 2:
        return None
    if q <= GENERAL_ROUTE_MAX:
        return "general"
    if q < SEARCHED_RANGE_LIMIT:
        return None if q in SEARCHED_RANGE_HOLES else "theorem"
    # characteristics where the square-count bound can fail
    return None if p in _exceptional(theorem_conditions(q % 4)) else "theorem"


def _fewest_blocks(p: int, v: int) -> list[Block]:
    """Fewest buildable blocks p^k whose exponents k sum to v, ascending,
    and of those the lexicographically smallest exponent sequence.

    The exponents are 6, 8 and 10 for p = 2 (existence-only blocks) and
    those with a single_block_route for odd p. fewest[j] counts the parts
    of a shortest sum to j; each part taken is the smallest k that leaves a
    shortest sum one part shorter, and no shortest sum of the rest has a
    part below k, since that part would have come first. For p = 2 this
    takes the most 2^6 blocks, and so, for a fixed count and sum, the most
    2^10 blocks.
    """
    ks = (6, 8, 10) if p == 2 else [k for k in range(1, v + 1) if single_block_route(p**k, p)]
    fewest = [0] * (v + 1)  # v + 1 marks a j with no sum: a sum to j has at most j parts
    for j in range(1, v + 1):
        fewest[j] = min([v + 1] + [fewest[j - k] + 1 for k in ks if k <= j])
    if fewest[v] > v:
        raise InternalCheckError(f"valuation {v} of prime {p} has no block decomposition")
    exps = []
    while v:
        k = next(k for k in ks if k <= v and fewest[v - k] == fewest[v] - 1)
        exps.append(k)
        v -= k
    return [Block(p**k, route=single_block_route(p**k, p)) for k in exps]


def _plan_from_valuations(vals: Counter[int]) -> tuple[Block, ...]:
    blocks = []
    for p in sorted(vals):
        part = _fewest_blocks(p, vals[p])
        blocks += part[::-1] if p == 2 else part  # 2-adic blocks largest first
    return tuple(blocks)


def decide(n: int) -> Decision:
    """Three-valued existence verdict for order n, with a plan when positive.

    The valuation tests come first and need no factorization: v_2 is read
    off the lowest set bit, and p in {3, 5, 7, 11} divides n exactly once
    iff p | n and p^2 does not. Only an order that passes both is factored
    and planned, so a negative verdict costs a few remainders whatever
    the size of n.
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    if n == 1:
        return Decision(1, Status.EXISTS, "trivial-order", ())
    if n in REGISTRY_NOT_EXIST:
        return Decision(n, Status.NOT_EXIST, "small-order-registry", ())
    v2 = (n & -n).bit_length() - 1
    if v2 % 2 == 1 or v2 in (2, 4):
        return Decision(n, Status.NOT_GUARANTEED, "two-adic-valuation", ())
    for p in CRITICAL_ODD_PRIMES:
        if n % p == 0 and n % (p * p) != 0:
            return Decision(n, Status.NOT_GUARANTEED, f"{p}-adic-valuation", ())
    plan = _plan_from_valuations(Counter(factor(n)))
    if prod(b.order for b in plan) != n:
        raise InternalCheckError(f"plan for {n} does not multiply back")
    return Decision(n, Status.EXISTS, "valuation-criteria", plan)


def _certified_block(q: int) -> OpTable:
    """The table of find_witness's order-q witness, certified in O(e*q^2).

    The table must be Latin and idempotent, and count_associative, the count
    verify runs, must find exactly q associative triples in it: it reads the
    slopes off row 0, checks the whole table against them and takes their
    O(q) orbit count.
    """
    field = field_for_order(q)
    found = find_witness(field)
    if found is None:
        raise InternalCheckError(f"no witness found for planned block of order {q}")
    a, b, _ = found
    t = build_table(field, a, b, cap=q)  # materialize checked q <= n <= cap
    if not (is_latin(t) and is_idempotent(t)):
        raise InternalCheckError(f"block table of order {q} failed structural checks")
    got = count_associative(t).total
    if got != q:
        raise InternalCheckError(f"block of order {q} has {got} associative triples, wanted {q}")
    return t


def materialize(blocks, cap: int = DEFAULT_TABLE_CAP) -> OpTable:
    """Build a certified order-n table from in-scope blocks (orders or Blocks).

    Each block gets a searched witness and a table counted by
    count_associative (_certified_block), the block tables are folded with
    the direct product in the given order, and every fold is checked in
    O(n^2) to be exactly the product of its operands (is_product_of).
    Triples of a product are associative exactly when both components are,
    so the count is the product of the block counts, n, with no O(n^3)
    recount; `verify` on the saved file finds the same factors again and
    counts each block as this function did. No blocks give the order-1
    table [[0]], the empty product. Raises ValueError for
    out-of-scope blocks or a product beyond cap, InternalCheckError when a
    search or a check fails.
    """
    orders: list[int] = []
    for blk in blocks:
        q = blk.order if isinstance(blk, Block) else int(blk)
        if q % 2 == 0 or single_block_route(q) is None:
            raise ValueError(f"block of order {q} is out of scope for materialization")
        orders.append(q)
    n = prod(orders)
    if n > cap:
        raise ValueError(f"product order {n} exceeds table cap {cap}")
    if not orders:
        return OpTable([[0]])  # order 1: the product of no blocks

    table = _certified_block(orders[0])
    for q in orders[1:]:
        block = _certified_block(q)
        folded = direct_product(table, block, cap=cap)
        if not is_product_of(folded, table, block):
            raise InternalCheckError(f"order-{folded.n} table is not the product of its blocks")
        table = folded
    return table
