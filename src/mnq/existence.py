"""Existence decisions for maximally nonassociative quasigroups of order n.

The decision procedure is valuation-based: an order n is buildable whenever
its 2-adic valuation is even and not 2 or 4, and no prime in {3, 5, 7, 11}
divides n exactly once.  The criterion is sufficient, not necessary, so the
verdict is three-valued: a small-order registry supplies the known
nonexistence facts (orders 2..8 and 10), everything else that misses the
criterion is reported as not guaranteed rather than impossible.

A positive decision comes with a construction plan: n is split into
prime-power blocks that multiply back to n, where each odd block is buildable
by one of the search routes in this package and each even block 2^6, 2^8,
2^10 is recorded as existence-only (their known constructions live outside
the two-slope family).  materialize() turns a fully in-scope plan into an
actual certified table by searching a witness per block and folding the
blocks with the direct product; the result is certified by structure (see
materialize), not by recounting its n^3 triples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from math import prod

from .construct import (
    build_table,
    count_associative_orbit,
    find_witness,
    is_two_slope_table,
    theorem_conditions,
)
from .fields import InternalCheckError, field_for_order
from .intpoly import factor, is_prime
from .quasigroup import (
    DEFAULT_TABLE_CAP,
    OpTable,
    direct_product,
    is_idempotent,
    is_latin,
    is_product_of,
)
from .weil import _exceptional

REGISTRY_NOT_EXIST = frozenset({2, 3, 4, 5, 6, 7, 8, 10})

# orders with known even-order constructions; only these appear as even blocks
EVEN_BLOCK_EXPONENTS = (10, 8, 6)

CRITICAL_ODD_PRIMES = (3, 5, 7, 11)

# blocks up to this order take the exhaustive general route, as does search
GENERAL_ROUTE_MAX = 343

# single theorem-route blocks are guaranteed below this bound (with the
# listed exceptions) and above it whenever the characteristic is clean
SEARCHED_RANGE_LIMIT = 2_400_000
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
    only and cannot be materialized here.
    """

    order: int
    in_scope: bool
    route: str | None


@dataclass(frozen=True)
class Decision:
    n: int
    status: Status
    reason: str
    plan: tuple[Block, ...] = ()


def single_block_route(q: int, p: int | None = None) -> str | None:
    """Search route expected to produce an order-q block, or None.

    q must be an odd prime power (p its characteristic, factored out here
    when not supplied).  "general" marks the exhaustively searched small
    range, "theorem" the slope pairs (a, a*a) found by the condition scan.
    """
    if q < 9 or q == 11:
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


def _even_blocks(v2: int) -> list[Block]:
    """Split an even 2-adic valuation (not 2 or 4) over exponents 10, 8, 6."""
    if v2 == 0:
        return []
    for k10 in range(v2 // 10, -1, -1):
        rest = v2 - 10 * k10
        for k8 in range(rest // 8, -1, -1):
            if (rest - 8 * k8) % 6 == 0:
                k6 = (rest - 8 * k8) // 6
                exps = [10] * k10 + [8] * k8 + [6] * k6
                return [Block(2**e, in_scope=False, route=None) for e in exps]
    raise InternalCheckError(f"2-adic valuation {v2} has no block decomposition")


def _odd_blocks(p: int, v: int) -> list[Block]:
    """Fewest buildable blocks p^k summing to valuation v, smallest parts first."""
    allowed = [k for k in range(1, v + 1) if single_block_route(p**k, p) is not None]
    # best[j]: lexicographically smallest ascending exponent tuple of minimal
    # length summing to j, or None when j is not reachable
    best: list[tuple[int, ...] | None] = [None] * (v + 1)
    best[0] = ()
    for j in range(1, v + 1):
        for k in allowed:
            if k > j or best[j - k] is None:
                continue
            cand = tuple(sorted(best[j - k] + (k,)))
            if best[j] is None or (len(cand), cand) < (len(best[j]), best[j]):
                best[j] = cand
    if best[v] is None:
        raise InternalCheckError(f"valuation {v} of prime {p} has no block decomposition")
    return [Block(p**k, in_scope=True, route=single_block_route(p**k, p)) for k in best[v]]


def _plan_from_valuations(vals: Counter[int]) -> tuple[Block, ...]:
    blocks = _even_blocks(vals.get(2, 0))
    for p in sorted(vals):
        if p != 2:
            blocks.extend(_odd_blocks(p, vals[p]))
    return tuple(blocks)


def decide(n: int) -> Decision:
    """Three-valued existence verdict for order n, with a plan when positive."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    if n == 1:
        return Decision(1, Status.EXISTS, "trivial-order", ())
    if n in REGISTRY_NOT_EXIST:
        return Decision(n, Status.NOT_EXIST, "small-order-registry", ())
    vals = Counter(factor(n))
    v2 = vals.get(2, 0)
    if v2 % 2 == 1 or v2 in (2, 4):
        return Decision(n, Status.NOT_GUARANTEED, "two-adic-valuation", ())
    for p in CRITICAL_ODD_PRIMES:
        if vals.get(p, 0) == 1:
            return Decision(n, Status.NOT_GUARANTEED, f"{p}-adic-valuation", ())
    plan = _plan_from_valuations(vals)
    if prod(b.order for b in plan) != n:
        raise InternalCheckError(f"plan for {n} does not multiply back")
    return Decision(n, Status.EXISTS, "valuation-criteria", plan)


def build_plan(n: int) -> tuple[Block, ...]:
    """Block decomposition for an order already known to satisfy decide()."""
    d = decide(n)
    if d.status is not Status.EXISTS:
        raise ValueError(f"no construction plan: order {n} is {d.status.value}")
    return d.plan


def _block_witness(q: int) -> tuple[int, int, str]:
    """(a, b, method) for an order-q block; condition scan first, then general."""
    found = find_witness(field_for_order(q))
    if found is None:
        raise InternalCheckError(f"no witness found for planned block of order {q}")
    return found


def _certified_block(q: int, cap: int) -> OpTable:
    """The table of a searched order-q witness, certified in O(e*q^2).

    The table must be Latin, idempotent and exactly the operation of its
    slopes (is_two_slope_table), whose O(q) orbit count must be q.
    """
    field = field_for_order(q)
    a, b, _ = _block_witness(q)
    t = build_table(field, a, b, cap=cap)
    if not (is_latin(t) and is_idempotent(t) and is_two_slope_table(field, t, a, b)):
        raise InternalCheckError(f"block table of order {q} failed structural checks")
    got = count_associative_orbit(field, a, b).total
    if got != q:
        raise InternalCheckError(f"block of order {q} has {got} associative triples, wanted {q}")
    return t


def materialize(blocks, cap: int = DEFAULT_TABLE_CAP) -> OpTable:
    """Build a certified order-n table from in-scope blocks (orders or Blocks).

    Each block gets a searched witness and a certified table
    (_certified_block), the block tables are folded with the direct product
    in the given order, and every fold is checked in O(n^2) to be exactly
    the product of its operands (is_product_of). Triples of a product are
    associative exactly when both components are, so the count is the
    product of the block counts, n, with no O(n^3) recount; `verify` on the
    saved file still recounts naively. Raises ValueError for out-of-scope
    blocks or a product beyond cap, InternalCheckError when a search or a
    check fails.
    """
    orders: list[int] = []
    for blk in blocks:
        q = blk.order if isinstance(blk, Block) else int(blk)
        if isinstance(blk, Block) and not blk.in_scope:
            raise ValueError(f"block of order {q} is out of scope for materialization")
        if q % 2 == 0 or single_block_route(q) is None:
            raise ValueError(f"block of order {q} is out of scope for materialization")
        orders.append(q)
    if not orders:
        raise ValueError("empty plan")
    n = prod(orders)
    if n > cap:
        raise ValueError(f"product order {n} exceeds table cap {cap}")

    table: OpTable | None = None
    for q in orders:
        block = _certified_block(q, cap)
        if table is None:
            table = block
            continue
        folded = direct_product(table, block, cap=cap)
        if not is_product_of(folded, table, block):
            raise InternalCheckError(f"order-{folded.n} table is not the product of its blocks")
        table = folded
    return table
