#!/usr/bin/env python3
"""Chart how the character-sum census floor converges on the actual count.

For odd prime powers in the chosen residue class the script prints the exact
scaled sum 256*S, the root-bound floor, the guaranteed count derived from it,
and the census of elements actually satisfying the slope conditions.  The
margin column (actual minus floor) shows the bound tightening as q grows;
--show-threshold prints the first order where the floor alone certifies a
witness for every larger field in the class.

Examples:
    python scripts/weil_margin.py --residue 1 --qmax 2000
    python scripts/weil_margin.py --residue 3 --qmin 1000 --qmax 5000 --show-threshold
"""

from __future__ import annotations

import argparse
import sys

from mnq import (
    census_report,
    field_for_order,
    odd_prime_powers,
    theorem_conditions,
    threshold,
    weil_constant,
)


def class_orders(residue: int, lo: int, hi: int):
    return [q for q in odd_prime_powers(lo, hi) if q % 4 == residue]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--residue", type=int, choices=(1, 3), required=True,
                    help="residue class of q modulo 4")
    ap.add_argument("--qmin", type=int, default=9)
    ap.add_argument("--qmax", type=int, default=2003)
    ap.add_argument("--limit", type=int, default=40,
                    help="at most this many fields, evenly thinned (default 40)")
    ap.add_argument("--show-threshold", action="store_true",
                    help="also print the root-bound constant and the guarantee threshold")
    args = ap.parse_args(argv)

    cs = theorem_conditions(args.residue)
    orders = class_orders(args.residue, args.qmin, args.qmax)
    if len(orders) > args.limit:
        step = len(orders) / args.limit
        orders = [orders[int(i * step)] for i in range(args.limit)]

    header = (f"{'q':>7} {'256*S':>10} {'floor':>12} "
              f"{'guaranteed':>10} {'actual':>7} {'margin':>9}")
    print(header)
    print("-" * len(header))
    for q in orders:
        rep = census_report(field_for_order(q), cs)
        margin = rep.actual_count - rep.weil_floor
        print(f"{q:>7} {rep.s_scaled:>10} {rep.weil_floor:>12.3f} "
              f"{rep.guaranteed_count:>10} {rep.actual_count:>7} {margin:>9.3f}")

    if args.show_threshold:
        print(f"\nroot-bound constant: {weil_constant(cs)}")
        print(f"floor > 14 for every prime power q >= {threshold(cs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
