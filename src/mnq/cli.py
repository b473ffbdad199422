"""Command line front end tying the search, census, and planning layers together.

Ten subcommands cover the package surface: construct / verify / product for
table work, search / scan / cases for witness discovery and its audit trail,
weil / disc / threshold for the character-sum census, and exists for order
decisions.  All machine output is JSON with sorted keys on stdout (scan emits
one JSON object per line so interrupted runs keep every finished field);
identical invocations produce byte-identical output.  Timestamps exist only
inside the witness cache CSV.

Exit codes: 0 success or positive verdict, 1 verified negative (empty
search, non-MNQ table, order not guaranteed), 2 usage or domain errors,
3 failed internal invariants or any other unexpected error (for example
MemoryError), always reported as one line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .construct import (
    WitnessRecord,
    append_witness,
    build_table,
    check_slope,
    find_witness,
    load_cache,
    recertify,
    search_general,
    search_theorem,
    theorem_conditions,
    verify_case_tables,
)
from .existence import GENERAL_ROUTE_MAX, SEARCHED_RANGE_HOLES, Status, decide, materialize
from .fields import InternalCheckError, field_for_order, odd_prime_powers
from .intpoly import discriminant_reports, exceptional_primes
from .quasigroup import (
    DEFAULT_TABLE_CAP,
    OpTable,
    count_associative_naive,
    direct_product,
    is_idempotent,
    is_latin,
    is_product_of,
    load_table,
    save_table,
)
from .weil import census_report, threshold

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

CACHE_ENV = "MNQ_CACHE"
DEFAULT_CACHE = "witness_cache.csv"

# orders where a fruitless search is a theorem, not a discovery
KNOWN_EMPTY = frozenset({3, 5, 7, 11}) | SEARCHED_RANGE_HOLES


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def _table_verdict(t: OpTable) -> dict:
    latin = is_latin(t)
    count = count_associative_naive(t).total
    return {
        "n": t.n,
        "latin": latin,
        "idempotent": is_idempotent(t),
        "assoc_count": count,
        "mnq": bool(latin and count == t.n),
    }


def _cmd_construct(ns: argparse.Namespace) -> int:
    fld = field_for_order(ns.q)
    a = ns.a
    check_slope(fld, "a", a)
    b = fld.mul(a, a) if ns.b is None else ns.b
    check_slope(fld, "b", b)
    t = build_table(fld, a, b, cap=ns.table_cap)
    doc = _table_verdict(t)
    doc.update(q=fld.q, p=fld.p, e=fld.e, modulus=fld.modulus_encoding, a=a, b=b)
    del doc["n"]
    if ns.output:
        save_table(t, ns.output, fmt=ns.fmt)
        doc["output"] = ns.output
    _emit(doc)
    return EXIT_OK if doc["mnq"] else EXIT_NEGATIVE


def _cmd_verify(ns: argparse.Namespace) -> int:
    doc = _table_verdict(load_table(ns.file, cap=ns.table_cap))
    _emit(doc)
    return EXIT_OK if doc["mnq"] else EXIT_NEGATIVE


def _cmd_search(ns: argparse.Namespace) -> int:
    fld = field_for_order(ns.q)
    mode = ns.mode or ("general" if fld.q <= GENERAL_ROUTE_MAX else "theorem")
    first = not ns.all_witnesses
    if mode == "theorem":
        hits = search_theorem(fld, stop_at_first=first, workers=ns.workers)
        witnesses = [[a, fld.mul(a, a)] for a in hits]
    else:
        pairs = search_general(fld, stop_at_first=first, workers=ns.workers, cap=ns.table_cap)
        witnesses = [list(p) for p in pairs]
    _emit({"q": fld.q, "mode": mode, "witnesses": witnesses})
    return EXIT_OK if witnesses else EXIT_NEGATIVE


def _cmd_scan(ns: argparse.Namespace) -> int:
    if not 0 < ns.qmin <= ns.qmax:
        raise ValueError("scan needs 0 < qmin <= qmax")
    cache_path = ns.cache or os.environ.get(CACHE_ENV, DEFAULT_CACHE)
    cache = load_cache(cache_path)
    failures = 0
    for q in odd_prime_powers(ns.qmin, ns.qmax):
        if q in KNOWN_EMPTY:
            _emit({"q": q, "status": "known-empty"})
            continue
        fld = field_for_order(q)
        if q in cache:
            rec = cache[q]
            if recertify(fld, rec):
                _emit({"q": q, "status": "cached", "a": rec.a, "b": rec.b,
                       "method": rec.method, "assoc_count": rec.assoc_count})
                continue
            print(f"warning: cached witness ({rec.a}, {rec.b}) for q={q} fails "
                  "re-certification; searching again", file=sys.stderr)
        found = find_witness(fld, cap=ns.table_cap)
        if found is None:
            failures += 1
            _emit({"q": q, "status": "empty"})
            continue
        a, b, method = found
        rec = WitnessRecord.for_witness(fld, a, b, method, assoc_count=q)
        append_witness(cache_path, rec)
        _emit({"q": q, "status": "found", "a": a, "b": b,
               "method": method, "assoc_count": q})
    return EXIT_NEGATIVE if failures else EXIT_OK


def _cmd_cases(ns: argparse.Namespace) -> int:
    fld = field_for_order(ns.q)
    report = verify_case_tables(fld, ns.a)
    _emit({
        "q": report.q,
        "a": report.a,
        "residue": report.residue,
        "all_passed": report.all_passed,
        "rows": [
            {"probe": r.probe, "parities": "".join(r.parities),
             "passed": r.passed, "detail": r.detail}
            for r in report.rows
        ],
    })
    return EXIT_OK if report.all_passed else EXIT_NEGATIVE


def _cmd_weil(ns: argparse.Namespace) -> int:
    fld = field_for_order(ns.q)
    rep = census_report(fld, with_subsets=ns.subsets)
    doc = {
        "q": rep.q,
        "residue": rep.residue,
        "s_scaled": rep.s_scaled,
        "s": str(rep.s),
        "weil_floor": rep.weil_floor,
        "guaranteed_count": rep.guaranteed_count,
        "actual_count": rep.actual_count,
    }
    if ns.subsets:
        doc["subset_sums"] = [
            {"mask": m, "sum": v} for m, v in sorted(rep.subset_sums.items())
        ]
    _emit(doc)
    return EXIT_OK


def _cmd_disc(ns: argparse.Namespace) -> int:
    cs = theorem_conditions(ns.residue)
    doc = {
        "residue": ns.residue,
        "exceptional_primes": sorted(exceptional_primes(cs)),
        "subsets": [
            {"mask": r.subset, "degree": r.degree, "discriminant": r.discriminant,
             "odd_prime_factors": list(r.odd_prime_factors)}
            for r in discriminant_reports(cs)
        ],
    }
    if ns.direct:
        direct = sorted(exceptional_primes(cs, direct=True))
        doc["direct_route_primes"] = direct
        if direct != doc["exceptional_primes"]:
            raise InternalCheckError(
                f"discriminant routes disagree for residue {ns.residue}: "
                f"{doc['exceptional_primes']} vs {direct}"
            )
    _emit(doc)
    return EXIT_OK


def _cmd_threshold(ns: argparse.Namespace) -> int:
    sys.stdout.write(f"{threshold(theorem_conditions(1))}\n")
    return EXIT_OK


def _cmd_exists(ns: argparse.Namespace) -> int:
    d = decide(ns.n)
    doc = {
        "n": d.n,
        "status": d.status.value,
        "reason": d.reason,
        "plan": [
            {"order": blk.order, "in_scope": blk.in_scope, "route": blk.route}
            for blk in d.plan
        ],
    }
    if ns.build:
        if d.status is not Status.EXISTS:
            raise ValueError(f"cannot build order {d.n}: {d.status.value}")
        table = materialize(d.plan, cap=ns.table_cap)
        out = ns.output or f"mnq-{d.n}.json"
        save_table(table, out, fmt=ns.fmt)
        doc["output"] = out
        doc["assoc_count"] = d.n
    _emit(doc)
    return EXIT_OK if d.status is Status.EXISTS else EXIT_NEGATIVE


def _cmd_product(ns: argparse.Namespace) -> int:
    t1 = load_table(ns.file1, cap=ns.table_cap)
    t2 = load_table(ns.file2, cap=ns.table_cap)
    t = direct_product(t1, t2, cap=ns.table_cap)
    doc = {"n": t.n, "latin": True, "idempotent": is_idempotent(t), "output": ns.output}
    if ns.certify:
        # a(T1 x T2) = a(T1) * a(T2) for any tables: n1^3 + n2^3 work, not n^3
        counts = [count_associative_naive(f).total for f in (t1, t2)]
        if not is_product_of(t, t1, t2):
            raise InternalCheckError(f"order-{t.n} table is not the product of its factors")
        doc["assoc_count"] = counts[0] * counts[1]
        doc["mnq"] = doc["assoc_count"] == t.n
    save_table(t, ns.output, fmt=ns.fmt)
    _emit(doc)
    return EXIT_OK


_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "scan": _cmd_scan,
    "cases": _cmd_cases,
    "weil": _cmd_weil,
    "disc": _cmd_disc,
    "threshold": _cmd_threshold,
    "exists": _cmd_exists,
    "product": _cmd_product,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mnq",
        description="Construct, certify, and count maximally nonassociative quasigroups.",
    )
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel workers for search --all, the only command that "
                             "uses them; every other command runs serially. At least 1; "
                             "at most one process per CPU is started (default 1)")
    parser.add_argument("--table-cap", type=int, default=DEFAULT_TABLE_CAP,
                        help=f"largest materialized table order (default {DEFAULT_TABLE_CAP})")
    parser.add_argument("--cache", default=None,
                        help=f"witness cache CSV (default ${CACHE_ENV} or {DEFAULT_CACHE})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the two-slope table for (q, a, b) and certify it")
    p.add_argument("q", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int, nargs="?", default=None,
                   help="second slope; defaults to a*a in GF(q)")
    p.add_argument("-o", "--output", help="write the table to this file")
    p.add_argument("--format", dest="fmt", choices=("json", "text"),
                   help="table file format (default: by extension)")

    p = sub.add_parser("verify", help="re-certify a table file by the naive triple count")
    p.add_argument("file")

    p = sub.add_parser("search", help="find certified slope witnesses for order q")
    p.add_argument("q", type=int)
    p.add_argument("--mode", choices=("theorem", "general"),
                   help="theorem: a with b=a*a via the condition scan; "
                        f"general: exhaustive (a, b) pairs (default: general up to {GENERAL_ROUTE_MAX})")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--all", dest="all_witnesses", action="store_true",
                   help="collect every witness")
    g.add_argument("--first", dest="all_witnesses", action="store_false",
                   help="stop at the first witness (default)")

    p = sub.add_parser("scan", help="discover witnesses for all odd prime powers in a range")
    p.add_argument("qmin", type=int)
    p.add_argument("qmax", type=int)

    p = sub.add_parser("cases", help="run the associativity case analysis for a condition witness")
    p.add_argument("q", type=int)
    p.add_argument("a", type=int)

    p = sub.add_parser("weil", help="exact census of condition-satisfying elements of GF(q)")
    p.add_argument("q", type=int)
    p.add_argument("--subsets", action="store_true",
                   help="include all 255 subset character sums and check the expansion identity")

    p = sub.add_parser("disc", help="discriminant survey of the condition polynomials")
    p.add_argument("--residue", type=int, choices=(1, 3), required=True)
    p.add_argument("--direct", action="store_true",
                   help="cross-check against factoring full product discriminants")

    sub.add_parser("threshold", help="smallest q where the census floor clears every root bound")

    p = sub.add_parser("exists", help="decide existence of an order-n specimen")
    p.add_argument("n", type=int)
    p.add_argument("--build", action="store_true",
                   help="materialize the plan into a certified table file")
    p.add_argument("-o", "--output", help="table file for --build (default mnq-<n>.json)")
    p.add_argument("--format", dest="fmt", choices=("json", "text"))

    p = sub.add_parser("product", help="direct product of two table files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", dest="fmt", choices=("json", "text"))
    p.add_argument("--certify", action="store_true",
                   help="also count associative triples: naively in each factor "
                        "(n1^3 + n2^3 work), times each other once the output "
                        "is checked to be their exact product")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if ns.workers < 1:
        print(f"error: --workers must be at least 1, got {ns.workers}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[ns.command](ns)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        msg = " ".join(str(exc).split())
        print(f"unexpected error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
