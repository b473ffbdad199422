#!/usr/bin/env python3
"""Sweep odd prime powers and tabulate slope witnesses with dual-route counts.

For each odd prime power q in [qmin, qmax] the first witness is
find_witness's, the one every mnq command takes: up to order 343 the
exhaustive two-slope pair search alone; above it the quadratic-character
condition scan (b = a*a) runs first and, when it is silent, the pair search
takes over, at any order.  The first witness found is certified twice
— by the O(q) orbit count and, for q up to --table-cap, by the O(q^3) naive
count of its table — and the script aborts if the two routes ever disagree.
Above the cap no table is built, and the naive column reads "-".

Examples:
    python scripts/small_order_sweep.py 9 128
    python scripts/small_order_sweep.py 9 343 --csv sweep.csv
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time

from mnq import (
    DEFAULT_TABLE_CAP,
    build_table,
    count_associative_naive,
    count_associative_orbit,
    field_for_order,
    find_witness,
    odd_prime_powers,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("qmin", type=int)
    ap.add_argument("qmax", type=int)
    ap.add_argument("--table-cap", type=int, default=DEFAULT_TABLE_CAP,
                    help="largest order whose table is built and recounted naively")
    ap.add_argument("--csv", help="append result rows to this CSV file")
    args = ap.parse_args(argv)

    writer, fh = None, None
    if args.csv:
        fresh = not os.path.exists(args.csv) or os.path.getsize(args.csv) == 0
        fh = open(args.csv, "a", newline="")
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(["q", "residue", "method", "a", "b", "orbit", "naive", "seconds"])

    header = f"{'q':>6} {'res':>3} {'method':>8} {'a':>6} {'b':>6} {'orbit':>9} {'naive':>9} {'sec':>7}"
    print(header)
    print("-" * len(header))
    empty: list[int] = []
    for q in odd_prime_powers(args.qmin, args.qmax):
        fld = field_for_order(q)
        t0 = time.perf_counter()
        found = find_witness(fld)
        if found is None:
            empty.append(q)
            print(f"{q:>6} {q % 4:>3} {'-':>8}")
            continue
        a, b, method = found
        orbit = count_associative_orbit(fld, a, b).total
        naive = "-"
        if q <= args.table_cap:
            naive = count_associative_naive(build_table(fld, a, b, cap=args.table_cap)).total
            if naive != orbit:
                print(f"FATAL: counting routes disagree at q={q}: {orbit} vs {naive}",
                      file=sys.stderr)
                return 3
        dt = time.perf_counter() - t0
        print(f"{q:>6} {q % 4:>3} {method:>8} {a:>6} {b:>6} {orbit:>9} {naive:>9} {dt:>7.2f}")
        if writer:
            writer.writerow([q, q % 4, method, a, b, orbit, naive, f"{dt:.3f}"])
    if fh:
        fh.close()
    if empty:
        print(f"\nno witness found for: {', '.join(map(str, empty))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
