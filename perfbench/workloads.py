"""Workload inputs for the benchmark, chosen from pools by seed.

Every pool holds inputs of near-equal cost, so a seed changes which fields
and orders are exercised but not how long a pass takes.  Seed 0 is the
default; it takes the first entry of every pool.  Every input of every pool
has its answer pinned in expected.json (see pin.py).

An item is one unit of work and one answer to check:
  {"key": ..., "kind": "cli", "argv": [...]}          runs mnq.cli.main(argv)
  {"key": ..., "kind": "decide", "start": s, "count": c}
                                   runs mnq.existence.decide(n) for s <= n < s + c
"""
from __future__ import annotations

import random

DEFAULT_SEED = 0
WORKLOADS = ("scan", "census", "build")
CACHE_NAME = "witness_cache.csv"

# scan, small range: every window holds the six condition-silent fields
# 361 373 389 401 443 463, whose general-search fallback is nearly all of
# its cost; the ends only add or drop the cheap theorem fields 347, 349, 467
SCAN_SMALL = [(345, 470), (344, 466), (348, 468), (350, 476)]
# scan, large window: 7^5 = 16807 plus exactly eight prime fields, all of
# which get a theorem hit; cost is the O(q) orbit certificate per field
SCAN_LARGE = [(16747, 16831), (16763, 16871), (16759, 16843), (16741, 16829), (16729, 16823)]

# census: one large prime field (cost linear in q, pool within 0.3 %), the
# fixed extension fields 7^5 and 3^8, one p^2 field, two small --subsets fields
CENSUS_PRIME = [100003, 100019, 100043, 100049, 100057, 100069, 100103, 100109]
CENSUS_FIXED = [16807, 6561]
CENSUS_SQUARE = [10201, 10609]
CENSUS_SUBSETS_A = [101, 97, 103, 107, 109, 113]
CENSUS_SUBSETS_B = [27, 25, 49, 81]

# build: one order per slot; a slot's orders have the same block count, and
# their naive-count costs n^3 differ by under 3 % of a whole pass
BUILD_SLOTS = [
    [117, 153],
    [221, 225, 247],
    [409, 397, 419],
    [441, 437, 425],
    [637],
    [833],
]
# decide: a block of consecutive orders near 10^6
DECIDE_STARTS = [1_000_000 + 4096 * k for k in range(16)]
DECIDE_COUNT = 4096

GLOBAL_FLAGS = ["--workers", "1"]


def _pick(rng: random.Random | None, pool: list):
    return pool[0] if rng is None else rng.choice(pool)


def _cli(argv: list[str], tag: str = "") -> dict:
    key = " ".join(argv) if not tag else f"{tag}: " + " ".join(argv)
    return {"key": key, "kind": "cli", "argv": GLOBAL_FLAGS + argv}


def scan_items(small: tuple[int, int], large: tuple[int, int]) -> list[dict]:
    argvs = [["--cache", CACHE_NAME, "scan", str(lo), str(hi)] for lo, hi in (small, large)]
    return [_cli(a, "cold") for a in argvs] + [_cli(a, "warm") for a in argvs]


def census_items(prime: int, square: int, sub_a: int, sub_b: int) -> list[dict]:
    items = [_cli(["weil", str(q)]) for q in [prime, *CENSUS_FIXED, square]]
    items += [_cli(["weil", str(q), "--subsets"]) for q in (sub_a, sub_b)]
    return items


def build_items(orders: list[int], decide_start: int) -> list[dict]:
    items = []
    for n in orders:
        items.append(_cli(["exists", str(n), "--build"]))
        items.append(_cli(["verify", f"mnq-{n}.json"]))
    items.append({"key": f"decide {decide_start} +{DECIDE_COUNT}", "kind": "decide",
                  "start": decide_start, "count": DECIDE_COUNT})
    return items


def items(workload: str, seed: int) -> list[dict]:
    """The item list of one pass; the same (workload, seed) gives the same list."""
    rng = None if seed == DEFAULT_SEED else random.Random(f"{workload}:{seed}")
    if workload == "scan":
        return scan_items(_pick(rng, SCAN_SMALL), _pick(rng, SCAN_LARGE))
    if workload == "census":
        return census_items(_pick(rng, CENSUS_PRIME), _pick(rng, CENSUS_SQUARE),
                            _pick(rng, CENSUS_SUBSETS_A), _pick(rng, CENSUS_SUBSETS_B))
    if workload == "build":
        return build_items([_pick(rng, slot) for slot in BUILD_SLOTS], _pick(rng, DECIDE_STARTS))
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def pin_groups(workload: str) -> list[list[dict]]:
    """Every item any seed can produce, in groups that each run in a fresh
    directory (a scan window's cold and warm runs share one cache)."""
    if workload == "scan":
        argvs = [["--cache", CACHE_NAME, "scan", str(lo), str(hi)] for lo, hi in SCAN_SMALL + SCAN_LARGE]
        return [[_cli(a, "cold"), _cli(a, "warm")] for a in argvs]
    if workload == "census":
        return [census_items(CENSUS_PRIME[0], CENSUS_SQUARE[0], CENSUS_SUBSETS_A[0], CENSUS_SUBSETS_B[0])
                + [_cli(["weil", str(q)]) for q in CENSUS_PRIME[1:] + CENSUS_SQUARE[1:]]
                + [_cli(["weil", str(q), "--subsets"]) for q in CENSUS_SUBSETS_A[1:] + CENSUS_SUBSETS_B[1:]]]
    if workload == "build":
        orders = sorted({n for slot in BUILD_SLOTS for n in slot})
        return [build_items(orders, DECIDE_STARTS[0])
                + [build_items([], s)[0] for s in DECIDE_STARTS[1:]]]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
