"""Answer checks for every benchmark item, run outside the timed passes.

Each item's answer is checked two ways:
  * against the pinned answer in expected.json (stdout bytes, exit code and,
    for built tables, the table file's sha256), when pins are given;
  * independently, for any seed, by the benchmark's own numpy code on top of
    mnq's field arithmetic only: every scan witness is recounted by the O(q)
    orbit count (the three probes (0,0), (0,1), (0,eta)), and when
    q <= NAIVE_MAX also by a Latin check and the O(q^3) naive count;
    prime-field censuses are recomputed from the eight condition polynomials;
    --subsets output must satisfy the census expansion identity; built table
    files are parsed and checked Latin, idempotent and naive-counted; and
    existence decisions are re-derived from the valuation criteria.
An item whose output is byte-identical to one already checked shares its
verdict, so repeated passes cost one comparison each.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from math import isqrt, prod, sqrt
from pathlib import Path

import numpy as np

NAIVE_MAX = 470
EVEN_BLOCKS = {2**6, 2**8, 2**10}
REGISTRY_NOT_EXIST = {2, 3, 4, 5, 6, 7, 8, 10}
SCAN_KEYS = {"a", "assoc_count", "b", "method", "q", "status"}
WEIL_KEYS = {"actual_count", "guaranteed_count", "q", "residue", "s", "s_scaled", "weil_floor"}
EXISTS_KEYS = {"assoc_count", "n", "output", "plan", "reason", "status"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _factor(n: int) -> Counter:
    """Trial division; the benchmark's own, independent of mnq.intpoly."""
    out = Counter()
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] += 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] += 1
    return out


def _factor_block(start: int, count: int) -> list[Counter]:
    """Factorizations of start .. start+count-1 by a segmented sieve."""
    end = start + count
    rest = list(range(start, end))
    facs = [Counter() for _ in rest]
    limit = isqrt(end) + 1
    is_p = bytearray([1]) * (limit + 1)
    for p in range(2, limit + 1):
        if not is_p[p]:
            continue
        is_p[p * p::p] = bytearray(len(is_p[p * p::p]))
        for i in range(-start % p, count, p):
            while rest[i] % p == 0:
                facs[i][p] += 1
                rest[i] //= p
    for i, r in enumerate(rest):
        if r > 1:
            facs[i][r] += 1
    return facs


def odd_prime_powers(lo: int, hi: int) -> list[int]:
    return [q for q in range(max(lo, 3) | 1, hi + 1, 2) if len(_factor(q)) == 1]


def expected_decision(n: int, fac: Counter) -> tuple[str, str]:
    """(status, reason) from the valuation criteria of the existence theorem."""
    if n == 1:
        return "exists", "trivial-order"
    if n in REGISTRY_NOT_EXIST:
        return "does-not-exist", "small-order-registry"
    v2 = fac.get(2, 0)
    if v2 % 2 == 1 or v2 in (2, 4):
        return "not-guaranteed", "two-adic-valuation"
    for p in (3, 5, 7, 11):
        if fac.get(p, 0) == 1:
            return "not-guaranteed", f"{p}-adic-valuation"
    return "exists", "valuation-criteria"


def prime_field_census(p: int, polys, signs, with_subsets: bool):
    """(s_scaled, actual_count, subset sums) over GF(p) by numpy, p prime."""
    x = np.arange(p, dtype=np.int64)
    square = np.zeros(p, dtype=bool)
    square[x * x % p] = True
    chis = []
    for f in polys:
        v = np.zeros(p, dtype=np.int64)
        for c in reversed(f):
            v = (v * x + c) % p
        chis.append(np.where(v == 0, 0, np.where(square[v], 1, -1)))
    chis = np.array(chis)
    eps = np.array(signs)[:, None]
    s_scaled = int(np.prod(1 + eps * chis, axis=0).sum())
    actual = int(np.all(chis == eps, axis=0).sum())
    subsets = None
    if with_subsets:
        subsets = [int(np.prod(chis[[i for i in range(len(polys)) if m >> i & 1]], axis=0).sum())
                   for m in range(1, 1 << len(polys))]
    return s_scaled, actual, subsets


class TwoSlope:
    """x*y = x + s(y-x)*(y-x), s = b on non-squares and a otherwise, over
    numpy arrays of encodings; only Field's add/sub/mul and parity table."""

    def __init__(self, fld, a: int, b: int):
        self.fld = fld
        chi = fld.parity_table
        self.step = np.array([fld.mul(b if chi[d] < 0 else a, d) for d in range(fld.q)],
                             dtype=np.int64)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.fld.bulk_add(x, self.step[self.fld.bulk_sub(y, x)])

    def completions(self, u: int) -> int:
        """Number of z with (0*u)*z == 0*(u*z)."""
        q = self.fld.q
        z = np.arange(q, dtype=np.int64)
        zero = np.zeros(q, dtype=np.int64)
        m = np.full(q, self(zero[:1], np.array([u]))[0], dtype=np.int64)
        return int(np.count_nonzero(self(m, z) == self(zero, self(np.full(q, u), z))))

    def table(self) -> np.ndarray:
        q = self.fld.q
        x, y = np.divmod(np.arange(q * q, dtype=np.int64), q)
        return self(x, y).reshape(q, q)


def is_latin(t: np.ndarray) -> bool:
    want = np.arange(len(t))
    return bool((np.sort(t, axis=0) == want[:, None]).all() and (np.sort(t, axis=1) == want).all())


def naive_count(t: np.ndarray) -> int:
    """Triples with (x*y)*z == x*(y*z), all n^3 of them, int16 gathers."""
    a = t.astype(np.int16)
    return sum(int(np.count_nonzero(np.take(a, row, axis=0) == np.take(row, a))) for row in a)


class Checker:
    """Checks item outputs; pins=None runs the independent checks only."""

    def __init__(self, mnq, pins: dict | None):
        self.mnq = mnq
        self.pins = pins
        self._verdicts: dict[tuple, list[str]] = {}
        self._witnesses: dict[tuple, list[str]] = {}

    def check(self, item: dict, result: dict, passdir: Path) -> list[str]:
        """Problems found with one item's answer; empty when it is correct."""
        if result["error"] is not None:
            return [f"raised {result['error'].strip().splitlines()[-1]}"]
        table = None
        argv = item.get("argv", [])
        if "exists" in argv:
            path = passdir / f"mnq-{argv[argv.index('exists') + 1]}.json"
            table = path.read_bytes() if path.is_file() else None
        memo = (item["key"], result["rc"], sha256(result["stdout"].encode()),
                table and sha256(table))
        if memo not in self._verdicts:
            problems = self._pinned(item, result, table) + self._independent(item, result, passdir, table)
            self._verdicts[memo] = problems
        return self._verdicts[memo]

    def _pinned(self, item, result, table) -> list[str]:
        if self.pins is None:
            return []
        pin = self.pins.get(item["key"])
        if pin is None:
            return ["no pinned answer"]
        problems = []
        if result["rc"] != pin["rc"]:
            problems.append(f"exit code {result['rc']}, pinned {pin['rc']}")
        if sha256(result["stdout"].encode()) != pin["stdout_sha256"]:
            problems.append("stdout differs from the pinned bytes")
        if "table_sha256" in pin and (table is None or sha256(table) != pin["table_sha256"]):
            problems.append("table file differs from the pinned sha256")
        return problems

    def _independent(self, item, result, passdir, table) -> list[str]:
        out = result["stdout"]
        if result["rc"] != 0:
            return [f"exit code {result['rc']}"]
        argv = item.get("argv", [])
        try:
            if item["kind"] == "decide":
                return self.check_decide(item["start"], item["count"], out)
            if "scan" in argv:
                i = argv.index("scan")
                warm = item["key"].startswith("warm")
                return self.check_scan(int(argv[i + 1]), int(argv[i + 2]), out, warm)
            if "weil" in argv:
                return self.check_weil(int(argv[argv.index("weil") + 1]), "--subsets" in argv, out)
            if "exists" in argv:
                n = int(argv[argv.index("exists") + 1])
                return self.check_exists(n, out, passdir / f"mnq-{n}.json" if table else None)
            if "verify" in argv:
                return self.check_verify(out)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            return [f"malformed output: {exc!r}"]
        return [f"no check for item {item['key']!r}"]

    # -- scan ------------------------------------------------------------------

    def check_scan(self, lo: int, hi: int, out: str, warm: bool) -> list[str]:
        lines = [json.loads(ln) for ln in out.splitlines()]
        problems = []
        if [d.get("q") for d in lines] != odd_prime_powers(lo, hi):
            problems.append(f"scan {lo} {hi} did not list exactly the odd prime powers in range")
        want = "cached" if warm else "found"
        for d in lines:
            if set(d) != SCAN_KEYS or d["status"] != want or d["assoc_count"] != d["q"]:
                problems.append(f"bad scan line {d}")
                continue
            problems += self.check_witness(d["q"], d["a"], d["b"], d["method"])
        return problems

    def check_witness(self, q: int, a: int, b: int, method: str) -> list[str]:
        """Recount one witness: O(q) orbit count, plus the naive count when q is small."""
        key = (q, a, b, method)
        if key not in self._witnesses:
            self._witnesses[key] = self._recount(q, a, b, method)
        return self._witnesses[key]

    def _recount(self, q, a, b, method) -> list[str]:
        if method not in ("theorem", "general") or not (0 < a < q and 0 < b < q):
            return [f"q={q}: malformed witness ({a}, {b}, {method})"]
        fld = self.mnq.field_for_order(q)
        if method == "theorem" and b != fld.mul(a, a):
            return [f"q={q}: theorem witness ({a}, {b}) has b != a*a"]
        op = TwoSlope(fld, a, b)
        orbits = tuple(op.completions(u) for u in (0, 1, fld.non_square))
        if orbits != (1, 0, 0):
            total = q * orbits[0] + q * (q - 1) // 2 * (orbits[1] + orbits[2])
            return [f"q={q}: witness ({a}, {b}) has {total} associative triples {orbits}"]
        if q <= NAIVE_MAX:
            t = op.table()
            if not is_latin(t):
                return [f"q={q}: witness ({a}, {b}) table is not Latin"]
            naive = naive_count(t)
            if naive != q:
                return [f"q={q}: witness ({a}, {b}) naive count {naive}"]
        return []

    # -- census ----------------------------------------------------------------

    def check_weil(self, q: int, subsets: bool, out: str) -> list[str]:
        doc = json.loads(out)
        keys = WEIL_KEYS | ({"subset_sums"} if subsets else set())
        if set(doc) != keys or doc["q"] != q or doc["residue"] != q % 4:
            return [f"weil {q}: unexpected document keys or q/residue"]
        cs = self.mnq.theorem_conditions(q % 4)
        scale = 1 << len(cs.polys)
        problems = []
        s_scaled, actual, guaranteed = doc["s_scaled"], doc["actual_count"], doc["guaranteed_count"]
        if Fraction(doc["s"]) * scale != s_scaled:
            problems.append(f"weil {q}: s does not equal s_scaled / {scale}")
        if guaranteed != max(0, -((cs.degree_sum * scale - s_scaled) // scale)):
            problems.append(f"weil {q}: guaranteed_count is not ceil(S - {cs.degree_sum})")
        if guaranteed > actual:
            problems.append(f"weil {q}: guaranteed {guaranteed} exceeds actual {actual}")
        floor = (q - self.mnq.weil_constant(cs) * sqrt(q)) / scale
        if abs(doc["weil_floor"] - floor) > 1e-6 * max(1.0, abs(floor)):
            problems.append(f"weil {q}: weil_floor {doc['weil_floor']} != {floor}")
        sums = None
        if subsets:
            sums = [d["sum"] for d in doc["subset_sums"]]
            if [d["mask"] for d in doc["subset_sums"]] != list(range(1, scale)):
                return problems + [f"weil {q}: subset masks are not 1..{scale - 1}"]
            expansion = sum(
                prod(cs.signs[i] for i in range(len(cs.polys)) if m >> i & 1) * v
                for m, v in enumerate(sums, start=1)
            )
            if expansion != s_scaled - q:
                problems.append(f"weil {q}: expansion identity fails ({expansion} != {s_scaled - q})")
        if len(_factor(q)) == 1 and _factor(q)[q] == 1:
            want = prime_field_census(q, cs.polys, cs.signs, subsets)
            if (s_scaled, actual) != want[:2]:
                problems.append(f"weil {q}: (s_scaled, actual) {(s_scaled, actual)} != recomputed {want[:2]}")
            if subsets and sums != want[2]:
                problems.append(f"weil {q}: subset sums differ from the recomputed ones")
        return problems

    # -- build -----------------------------------------------------------------

    def check_exists(self, n: int, out: str, path: Path | None) -> list[str]:
        doc = json.loads(out)
        if (set(doc) != EXISTS_KEYS or doc["n"] != n or doc["status"] != "exists"
                or doc["assoc_count"] != n or doc["output"] != f"mnq-{n}.json"):
            return [f"exists {n}: unexpected document {doc}"]
        problems = self._plan_problems(n, [(b["order"], b["in_scope"]) for b in doc["plan"]])
        if path is None:
            return problems + [f"exists {n}: no table file written"]
        doc = json.loads(path.read_text())
        t = np.array(doc["rows"], dtype=np.int64)
        if doc["n"] != n or t.shape != (n, n) or t.min() < 0 or t.max() >= n:
            return problems + [f"exists {n}: table file is not an order-{n} table"]
        if not is_latin(t) or not np.array_equal(np.diagonal(t), np.arange(n)):
            return problems + [f"exists {n}: table is not an idempotent Latin square"]
        naive = naive_count(t)
        if naive != n:
            problems.append(f"exists {n}: table has {naive} associative triples")
        return problems

    def check_verify(self, out: str) -> list[str]:
        doc = json.loads(out)
        n = doc.get("n")
        want = {"assoc_count": n, "idempotent": True, "latin": True, "mnq": True, "n": n}
        return [] if doc == want else [f"verify: unexpected document {doc}"]

    def check_decide(self, start: int, count: int, out: str) -> list[str]:
        lines = [json.loads(ln) for ln in out.splitlines()]
        if [d["n"] for d in lines] != list(range(start, start + count)):
            return [f"decide {start}: wrong orders"]
        problems = []
        for d, fac in zip(lines, _factor_block(start, count)):
            status, reason = expected_decision(d["n"], fac)
            if (d["status"], d["reason"]) != (status, reason):
                problems.append(f"decide {d['n']}: {d['status']}/{d['reason']}, want {status}/{reason}")
            elif status == "exists":
                problems += self._plan_problems(d["n"], [(b[0], b[1]) for b in d["plan"]])
            elif d["plan"]:
                problems.append(f"decide {d['n']}: plan given for a negative verdict")
        return problems

    def _plan_problems(self, n: int, blocks: list[tuple[int, bool]]) -> list[str]:
        if prod(order for order, _ in blocks) != n:
            return [f"plan for {n} does not multiply back"]
        for order, in_scope in blocks:
            if order % 2 == 0:
                if order not in EVEN_BLOCKS or in_scope:
                    return [f"plan for {n}: bad even block {order}"]
            elif len(_factor(order)) != 1 or not in_scope:
                return [f"plan for {n}: bad odd block {order}"]
        return []
