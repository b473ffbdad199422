#!/usr/bin/env python3
"""Sweep odd prime powers and tabulate slope witnesses with dual-route counts.

For each odd prime power q in [qmin, qmax] the quadratic-character condition
scan (b = a*a) runs first; when it is silent and the table fits under the cap,
the exhaustive two-slope pair search takes over.  The first witness found is
certified twice — by the O(q) orbit count and by the O(q^3) naive count — and
the script aborts if the two routes ever disagree.

Examples:
    python scripts/small_order_sweep.py 9 128
    python scripts/small_order_sweep.py 9 343 --csv sweep.csv
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

from mnq import (
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
    ap.add_argument("--table-cap", type=int, default=4096,
                    help="largest order searched exhaustively / recounted naively")
    ap.add_argument("--csv", help="append result rows to this CSV file")
    args = ap.parse_args(argv)

    writer, fh = None, None
    if args.csv:
        fh = open(args.csv, "a", newline="")
        writer = csv.writer(fh)
        writer.writerow(["q", "residue", "method", "a", "b", "orbit", "naive", "seconds"])

    header = f"{'q':>6} {'res':>3} {'method':>8} {'a':>6} {'b':>6} {'orbit':>9} {'naive':>9} {'sec':>7}"
    print(header)
    print("-" * len(header))
    empty: list[int] = []
    for q in odd_prime_powers(args.qmin, args.qmax):
        fld = field_for_order(q)
        t0 = time.perf_counter()
        found = find_witness(fld, cap=args.table_cap)
        if found is None:
            empty.append(q)
            print(f"{q:>6} {q % 4:>3} {'-':>8}")
            continue
        a, b, method = found
        orbit = count_associative_orbit(fld, a, b).total
        naive = orbit
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
