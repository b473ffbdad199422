"""The two-slope quasigroup construction over GF(q) and its certification.

The operation sends (x, y) to x + a*(y-x) when y-x is a nonzero square, to
x + b*(y-x) when it is a non-square, and to x on the diagonal. For odd q
the affine maps u -> alpha*u + beta with alpha a nonzero square preserve
the construction, so the pairs (x, y) fall into three orbits (diagonal,
square difference, non-square difference) and the full associative-triple
count follows from the three representative pairs (0,0), (0,1) and
(0, eta) with eta the canonical non-square. That is the O(q) certificate:
the (0,0) count has a closed form in chi(a) and chi(b), O(1), and the
(0,1) and (0, eta) counts are O(q) probes over the difference vector.

count_associative decides how any table is counted. For each divisor m
of n it reads candidate factors off the table and keeps them if
quasigroup.is_product_of holds, so a product is counted through its
factors. A factor that does not split and whose order is an odd prime
power q may be a two-slope table over GF(q): its row 0 is c, so its
slopes are read off it, is_two_slope_table checks the whole table
against them in O(e*q^2), and only then does the O(q) orbit count give
its total. So `verify`, `construct` and `product --certify` count a
product file through its factors, a two-slope factor by recognition plus
orbit count, and any other table by the O(n^3) naive counter,
quasigroup.count_associative_naive, which stays the tests' independent
oracle.

Everything fast here is built on one vector: c(d) = slope(d)*d for every
difference d, so that x*y = x + c(y-x). Tables, orbit probes and the
automorphism test are numpy passes over c; entry() stays as the
one-element oracle. Both use the Field operations, which have one path
for every extension degree e: they work on base-p digits, lowest first.
A translation w -> w + v (the orbit probes' u and m, the Latin mask's
b - 1, the table check's generator shifts) needs no digit arithmetic: an
encoding is an index of the (p,)*e grid of its digits, so w + v for every w
is that grid rolled by v's digits, and a row costs gathers from c only; a
probe reads w + u at a block of consecutive z as a slice of its table. The
rolled tables are built per call and dropped, so nothing q-sized is kept;
an orbit probe holds two beside c.

Searches come in two modes. "theorem" takes as a, with b = a*a, the columns
of chi_matrix (the 8 x q character matrix of the condition polynomials, also
read by the weil census) where all eight conditions hold, which provably
force a minimal table; it walks the matrix block by block, so a first-hit
search stops at the first block with a hit. The proof is CASE_ROWS, which
catalog_proof checks once per process and residue class over Z[a], so a
hit is certified in O(1) (_theorem_failure: its characters, the Latin
test, the closed-form (0,0) count and the checked catalog), not by the
O(q) probes.
"general" scans all pairs, one slope a at a time: a character-vector mask
keeps the b's that pass the O(1) Latin test; the u = 1 probe's test at the
one point z = 0, run for all of them at once, drops each b it finds
associative there (every b when a and 1 - a are squares); the two probes
over the stacked difference vectors of the rest keep those with breakdown
(1, 0, 0), the diagonal count being 1 for every Latin pair. Neither mode
builds a table, so no table cap bounds them. find_witnesses is the one
place that picks between them. Asked for a mode, it runs that search. Asked
for none, it runs the general search up to GENERAL_ROUTE_MAX, and above it
the theorem scan, then the general search if the scan finds nothing; so an
empty answer follows only searches run to the end. search calls it; scan,
exists --build and the sweep script share its first-witness form,
find_witness, so every command takes the same first witness of a field.
"""
from __future__ import annotations

import csv
import operator
import os
import sys
from concurrent import futures
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import cache, partial
from itertools import product
from typing import get_type_hints

import numpy as np

from .fields import (
    BULK_BLOCK,
    CharacteristicError,
    Field,
    InternalCheckError,
    Parity,
    _blocks,
    cached_field,
)
from .intpoly import factor, normalize, poly_add, poly_divexact, poly_mul, poly_sub
from .quasigroup import (
    DEFAULT_TABLE_CAP,
    AssocCount,
    OpTable,
    _usable_cpus,
    count_associative_naive,
    is_product_of,
)

# find_witnesses without a mode takes the general search alone up to this
# order, where 51 of the 78 odd prime powers have no theorem hit, and
# existence labels these blocks "general", the search that builds them
GENERAL_ROUTE_MAX = 343


def check_slope(field: Field, name: str, v: int) -> None:
    """Refuse a slope that is not an encoding in [0, q)."""
    if not 0 <= v < field.q:
        raise ValueError(f"slope {name}={v} is not a canonical encoding below {field.q}")


def entry(field: Field, a: int, b: int, x: int, y: int) -> int:
    """One table entry of the two-slope operation."""
    check_slope(field, "a", a)
    check_slope(field, "b", b)
    d = field.sub(y, x)
    slope = b if field.parity(d) == Parity.NON_SQUARE else a
    return field.add(x, field.mul(slope, d))


def _diff_vector(field: Field, a: int, b: int | np.ndarray) -> np.ndarray:
    """c(d) = slope(d)*d for every encoding d, so that x*y = x + c(y-x).

    The slope is b on non-squares and a elsewhere; c(0) = 0 keeps the
    diagonal idempotent; an array of k slopes b gives the (k, q) stack. One
    bulk_mul per block of BULK_BLOCK encodings keeps temporaries small.
    """
    chi = field.parity_table
    b = np.asarray(b, dtype=np.int64)[..., None]
    c = np.empty(b.shape[:-1] + (field.q,), dtype=np.int64)
    for d in _blocks(0, field.q):
        i = slice(d[0], d[-1] + 1)
        c[..., i] = field.bulk_mul(d, np.where(chi[i] < 0, b, a))
    return c


def build_table(field: Field, a: int, b: int, cap: int = DEFAULT_TABLE_CAP) -> OpTable:
    """Materialize the full operation table, exact and numpy-built."""
    check_slope(field, "a", a)
    check_slope(field, "b", b)
    q = field.q
    if field.p == 2:
        raise CharacteristicError("two-slope tables need an odd field")
    if q > cap:
        raise ValueError(f"order {q} exceeds table cap {cap}; raise cap explicitly")
    c = _diff_vector(field, a, b)
    d = np.arange(q, dtype=np.int64)
    rows = np.empty((q, q), dtype=np.int32)
    step = max(1, BULK_BLOCK // q)  # rows per bulk pass: about BULK_BLOCK entries
    for lo in range(0, q, step):
        x = np.arange(lo, min(lo + step, q), dtype=np.int64)[:, None]
        rows[lo:lo + step] = field.bulk_add(x, c[field.bulk_sub(d, x)])
    return OpTable(rows)


def is_two_slope_table(field: Field, t: OpTable, a: int, b: int) -> bool:
    """Is t exactly the (a, b) operation? O(e*q^2), independent of build_table.

    Row 0 must be c. Then t(x+g, y+g) = t(x, y) + g for each additive
    generator g = p**i; these translations generate the additive group, so
    t(x, y) = x + t(0, y-x) = x + c(y-x) everywhere.
    """
    check_slope(field, "a", a)
    check_slope(field, "b", b)
    T = t.entries
    if t.n != field.q or not np.array_equal(T[0], _diff_vector(field, a, b)):
        return False
    for i in range(field.e):
        shift = _rolled_table(field, field.p**i)  # u + p**i for every u
        if not np.array_equal(T[np.ix_(shift, shift)], shift[T]):
            return False
    return True


def is_latin_pair(field: Field, a: int, b: int) -> bool:
    """Exact O(1) Latin test: chi(ab) = 1 and chi((a-1)(b-1)) = 1.

    Row x of the table is y -> x + c(y-x), a permutation iff c is one, that
    is iff a and b are nonzero with equal character. Column y is
    x -> y - (d - c(d)) with d = y-x, a permutation iff 1-a and 1-b are
    nonzero with equal character (quadratic orthomorphisms).
    """
    chi = field.parity
    return (chi(a) * chi(b) == 1
            and chi(field.sub(a, 1)) * chi(field.sub(b, 1)) == 1)


# ---------------------------------------------------------------------------
# Orbit counting.

def _rolled_table(field: Field, v: int) -> np.ndarray:
    """w + v for every encoding w, an int32 q-length permutation.

    An encoding is the index of the (p,)*e grid with digit i on axis
    e-1-i, and w + v adds digitwise mod p, so this is np.arange(q) on that
    grid rolled by v's digits. It is built in place, with no divmod: count
    up from v, then take p**(i+1) back on the slice of axis e-1-i where
    digit i carried. q <= DENSE_MAX keeps every sum inside int32.
    """
    t = np.arange(v, v + field.q, dtype=np.int32)
    grid = t.reshape((field.p,) * field.e)
    for i, d in enumerate(field.decode(v)):
        if d:
            carried = [slice(None)] * field.e
            carried[field.e - 1 - i] = slice(field.p - d, None)
            grid[tuple(carried)] -= field.p ** (i + 1)
    return t


def _translation(field: Field, v: int | np.ndarray, sign: int):
    """The map w -> w + sign*v (sign 1 or -1) on index arrays, v one value
    for all rows or one per row (shape (k, 1)): a gather from rolled tables
    built per call, one if v is shared by every row, else one per row.

    A shared v indexes its table itself, so a slice of w's reads a slice of
    it without a gather. A v that differs per row occurs only in a stack of
    several rows, so q <= BULK_BLOCK/2 and its k tables hold at most
    BULK_BLOCK int32s.
    """
    vs = np.ravel(v).tolist()
    if len(set(vs)) == 1:
        vs = vs[:1]
    tables = [_rolled_table(field, s if sign > 0 else field.neg(s)) for s in vs]
    if len(tables) == 1:
        return tables[0].__getitem__
    flat = np.array(tables, dtype=np.int32).ravel()  # table r at r*q, as c.ravel() holds row r
    row = np.arange(0, flat.size, field.q).reshape(np.shape(v))
    return lambda w: flat[row + w]


def _assoc_completions(field: Field, c: np.ndarray, u: int) -> np.ndarray:
    """For each row of the (k, q) stack c, the number of z making (0, u, z)
    associative, O(q) a row; z runs over slices of BULK_BLOCK consecutive
    encodings, so a pass holds k*BULK_BLOCK encodings at most. The
    certificate probes u = 1 and u = eta; u = 0, which
    _diagonal_completions gives in O(1), stays as the tests' oracle.

    With m = 0*u = c(u), the test m + c(z - m) = c(u + c(z - u)) becomes,
    for z = y + u and after taking m from both sides,
    c(y + u - m) = c(u + c(y)) - m: it needs only w -> w + u and w -> w - m.
    Both come from rolled tables (_translation). u is one value on every
    row, so w + u at a block's y is a slice of its table and only its values
    at c(y) are gathered; m is 0 for u = 0 and a for u = 1 (1 is a square)
    on every row, one table, and the eta probe's m = b*eta differs per row
    of a stack of several b's, one table per row. Row r of c is
    flat[r*q:(r+1)*q].
    """
    add_u = _translation(field, u, 1)
    sub_m = _translation(field, c[:, u:u + 1], -1)
    flat = c.ravel()
    row = np.arange(0, c.size, field.q)[:, None]
    n = np.zeros(len(c), dtype=np.int64)
    for lo in range(0, field.q, BULK_BLOCK):
        y = slice(lo, lo + BULK_BLOCK)
        lhs = flat[row + sub_m(add_u(y))]               # c(z - m)
        rhs = sub_m(flat[row + add_u(c[:, y])])         # c(u*z) - m
        n += np.count_nonzero(lhs == rhs, axis=1)
    return n


def _diagonal_completions(field: Field, a: int, b: int) -> int:
    """The number of z making (0, 0, z) associative, in closed form: O(1),
    exact for every (a, b), two characters read through Field.parity.

    The test is c(z) = c(c(z)), true at z = 0. On the h = (q-1)/2 nonzero
    squares c(z) = a*z, of character chi(a); on the h non-squares
    c(z) = b*z, of character -chi(b). So a half completes whole when its
    slope is 0 or when c takes slope 1 at its image (slope b at a
    non-square, a elsewhere), and at no z otherwise.
    """
    chi = field.parity
    h = (field.q - 1) // 2
    squares = a == 0 or (b if chi(a) < 0 else a) == 1
    non_squares = b == 0 or (b if chi(b) > 0 else a) == 1
    return 1 + h * (squares + non_squares)


def count_associative_orbit(field: Field, a: int, b: int) -> AssocCount:
    """Exact triple count from the three orbit representatives: the (0,0)
    count in closed form, O(1), and the (0,1) and (0, eta) probes, O(q)."""
    check_slope(field, "a", a)
    check_slope(field, "b", b)
    if field.p == 2:
        raise CharacteristicError("orbit counting needs an odd field")
    q = field.q
    c = _diff_vector(field, a, [b])
    n_sq, n_nsq = (int(_assoc_completions(field, c, u)[0]) for u in (1, field.non_square))
    n_diag = _diagonal_completions(field, a, b)
    total = q * n_diag + (q * (q - 1) // 2) * (n_sq + n_nsq)
    return AssocCount(total=total, breakdown=(n_diag, n_sq, n_nsq))


def count_associative(t: OpTable) -> AssocCount:
    """Exact count of associative triples, through direct factors where t has them.

    For each divisor m of n, smallest first, the candidate factors are read
    off t: with pairs encoded i1*m + i2, t1 = T[::m, ::m] // m and
    t2 = T[:m, :m] % m. If t is exactly their product (is_product_of, a
    complete O(n^2) check for any table), the count is the product of
    theirs. A table with no split whose order is an odd prime power q gets
    the orbit count of the slopes a = t(0, 1) and b = t(0, eta)/eta once
    is_two_slope_table (complete, O(e*q^2)) finds it exactly their
    operation; the total alone is returned, as the naive count returns it.
    Any other table is counted naively.
    """
    T = t.entries
    for m in range(2, t.n):
        # O(n) first: every row and column of such a product splits the
        # same way, so a divisor that rows and columns 0 and m - 1 refuse
        # costs no O(n^2) pass. Row m - 1 sees a carry into the high part,
        # as in the table of Z/n, whose row and column 0 split for every m.
        if t.n % m or not all(np.array_equal(v, np.add.outer(v[::m] // m * m, v[:m] % m).ravel())
                              for v in (T[0], T[:, 0], T[m - 1], T[:, m - 1])):
            continue
        t1 = OpTable(T[::m, ::m] // m)
        t2 = OpTable(T[:m, :m] % m)
        if is_product_of(t, t1, t2):
            return AssocCount(total=count_associative(t1).total * count_associative(t2).total)
    primes = factor(t.n)  # [] for n = 1
    if len(set(primes)) == 1 and primes[0] > 2:
        field = cached_field(primes[0], len(primes))
        eta = field.non_square  # row 0 is c: c(1) = a and c(eta) = b*eta
        a, b = int(T[0, 1]), field.mul(int(T[0, eta]), field.inv(eta))
        if is_two_slope_table(field, t, a, b):
            return AssocCount(total=count_associative_orbit(field, a, b).total)
    return count_associative_naive(t)


def is_automorphism(field: Field, a: int, b: int, alpha: int, beta: int) -> bool:
    """Does u -> alpha*u + beta commute with the (a, b) operation?

    f(x)*f(y) = f(x) + c(alpha*(y-x)) and f(x*y) = f(x) + alpha*c(y-x), so
    the map commutes iff c(alpha*d) = alpha*c(d) for every d; beta cancels,
    but it must still be an element.
    """
    check_slope(field, "a", a)
    check_slope(field, "b", b)
    check_slope(field, "alpha", alpha)
    check_slope(field, "beta", beta)
    if alpha == 0:
        return False
    c = _diff_vector(field, a, b)
    scale = _diff_vector(field, alpha, alpha)  # alpha*d for every d
    return bool(np.array_equal(c[scale], scale[c]))


# ---------------------------------------------------------------------------
# Character condition sets, one per residue class of q mod 4.

@dataclass(frozen=True)
class ConditionSet:
    """Eight integer polynomials whose values at a must hit fixed parities.

    The first square_count entries of polys must evaluate to nonzero squares
    at a, the rest to non-squares; a itself must avoid {-1, 0, 1}. Under
    these conditions the table of (a, a*a) is Latin with minimal triple
    count. Polynomials are integer coefficient tuples, lowest degree first.
    """
    residue: int
    polys: tuple[tuple[int, ...], ...]
    square_count: int

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(1 if i < self.square_count else -1 for i in range(len(self.polys)))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(f) - 1 for f in self.polys)

    @property
    def degree_sum(self) -> int:
        return sum(self.degrees)


_CONDITIONS_R1 = ConditionSet(
    residue=1,
    polys=(
        (0, 1),          # x
        (1, 1),          # x + 1
        (-1, -1, 0, 1),  # x^3 - x - 1
        (-1, 1),         # x - 1
        (1, 0, 1),       # x^2 + 1
        (-1, -1, 1),     # x^2 - x - 1
        (1, 1, 1),       # x^2 + x + 1
        (-1, 1, 1),      # x^2 + x - 1
    ),
    square_count=3,
)

_CONDITIONS_R3 = ConditionSet(
    residue=3,
    polys=(
        (0, 1),          # x
        (1, 1),          # x + 1
        (-1, 1),         # x - 1
        (1, 0, 1),       # x^2 + 1
        (-1, 0, 1, 1),   # x^3 + x^2 - 1
        (1, -1, 1),      # x^2 - x + 1
        (1, 1, 1),       # x^2 + x + 1
        (-1, 1, 1),      # x^2 + x - 1
    ),
    square_count=5,
)


def theorem_conditions(residue: int) -> ConditionSet:
    if residue == 1:
        return _CONDITIONS_R1
    if residue == 3:
        return _CONDITIONS_R3
    raise ValueError(f"residue class must be 1 or 3, got {residue}")


def _chi_blocks(field: Field, cs: ConditionSet):
    """(s, chi(f_i(x)) for x in s) over the ascending blocks s of
    Field.eval_blocks; q above DENSE_MAX is refused before any block.

    Below that order p < 2**24 as well, so eval_blocks is exact in int64:
    per block it forms the shared powers x, x^2, x^3 and combines their
    digits into all eight condition values, which stay below 4*(p - 1)**2.
    """
    chi = field.parity_table
    return ((s, chi[v]) for s, v in field.eval_blocks(cs.polys))


def chi_matrix(field: Field, cs: ConditionSet) -> np.ndarray:
    """int8 matrix with row i equal to chi(f_i(x)) for every encoding x."""
    blocks = _chi_blocks(field, cs)  # refuses q above DENSE_MAX before out exists
    out = np.empty((len(cs.polys), field.q), dtype=np.int8)
    for s, block in blocks:
        out[:, s] = block
    return out


def conditions_hold(chi: np.ndarray, cs: ConditionSet) -> np.ndarray:
    """Boolean mask of the columns of chi_matrix where every row equals its sign.

    Both condition sets hold x, x + 1 and x - 1, whose character is 0 at
    the excluded values 0, -1 and 1, so those columns drop out by themselves.
    """
    ok = np.ones(chi.shape[1], dtype=bool)
    for want, row in zip(cs.signs, chi):
        ok &= row == want
    return ok


def satisfies_conditions(field: Field, a: int, cs: ConditionSet) -> bool:
    """Check the eight character conditions (and the excluded values) at a.

    The characters are worked out afresh at a, as Field.eval_blocks does
    for a block: the powers a, ..., a^d (d = 3 for both condition sets)
    are decoded once, and each condition value is one digitwise integer
    combination of their digits, joined by one encode.
    """
    check_slope(field, "a", a)
    if field.q % 4 != cs.residue:
        raise ValueError(f"field has q = {field.q} = {field.q % 4} mod 4, condition set wants {cs.residue}")
    if a in (0, 1, field.neg(1)):
        return False
    powers = [a]
    for _ in range(max(map(len, cs.polys)) - 2):
        powers.append(field.mul(powers[-1], a))
    columns = list(zip(*map(field.decode, powers)))  # digit j of a, a^2, ...
    for (c0, *coeffs), want in zip(cs.polys, cs.signs):
        value = [sum(map(operator.mul, coeffs, col)) for col in columns]
        value[0] += c0
        if int(field.parity(field.encode(value))) != want:
            return False
    return True


# ---------------------------------------------------------------------------
# Searches.

def search_theorem(field: Field, stop_at_first: bool = False) -> list[int]:
    """All a (ascending encoding) passing the condition set, each certified
    by _theorem_failure in O(1).

    Reads the columns of conditions_hold, so it refuses q above DENSE_MAX.
    """
    if field.p == 2:
        raise CharacteristicError("search needs an odd field")
    cs = theorem_conditions(field.q % 4)
    hits = []
    for s, block in _chi_blocks(field, cs):
        hits += (s.start + np.flatnonzero(conditions_hold(block, cs))).tolist()
        if stop_at_first and hits:
            hits = hits[:1]
            break
    for a in hits:
        why = _theorem_failure(field, a)
        if why:  # a bug in the scan or the catalog, not a verdict
            raise InternalCheckError(f"a={a} is a condition hit for q={field.q} but {why}")
    return hits


def _theorem_failure(field: Field, a: int) -> str | None:
    """Why (a, a*a) is not a theorem witness, or None when it is: the one
    certificate of a theorem hit, O(1) at any order up to MAX_ORDER.

    It takes the eight characters at a (satisfies_conditions), the O(1)
    Latin test, the closed-form (0,0) count and catalog_proof of q's
    residue class: that proof shows that the conditions leave no
    associative completion of (0, 1) or (0, eta), so the breakdown is
    (1, 0, 0) and the count q. Every character is read through
    Field.parity, so no array of size q is built above PARITY_TABLE_MAX.
    No O(q) orbit probe runs; verify, exists --build and the tests keep
    count_associative_orbit as the oracle.
    """
    residue = field.q % 4
    b = field.mul(a, a)
    if not satisfies_conditions(field, a, theorem_conditions(residue)):
        return "fails the conditions"
    if not is_latin_pair(field, a, b):
        return "is not Latin"
    n_diag = _diagonal_completions(field, a, b)
    if n_diag != 1:
        return f"certifies a (0,0) count of {n_diag}, not 1"
    catalog_proof(residue)
    return None


def search_general(field: Field, stop_at_first: bool = False, workers: int = 1) -> list[tuple[int, int]]:
    """All nonzero pairs (a, b), a then b ascending, with exactly q
    associative triples. The O(1) Latin test plus the orbit breakdown
    (1, 0, 0) is an exact certificate, so no table is built or counted
    naively and no table cap applies; the character table refuses q above
    DENSE_MAX before any pair is tried."""
    if field.p == 2:
        raise CharacteristicError("search needs an odd field")
    if workers > 1 and not stop_at_first:
        # contiguous chunks of the slopes a, one per worker up to one per
        # slope, merged in chunk order; a fork pool starts all of its
        # processes at the first submit, so it has no more than there are
        # chunks or usable CPUs. futures loads the process pool (and
        # multiprocessing, a large share of import time) on first access
        chunks = [c.tolist() for c in np.array_split(np.arange(1, field.q), min(workers, field.q - 1))]
        with futures.ProcessPoolExecutor(max_workers=min(len(chunks), _usable_cpus())) as pool:
            return [pair for part in pool.map(partial(_general_pairs, field), chunks) for pair in part]
    return _general_pairs(field, range(1, field.q), stop_at_first)


def _latin_mask(field: Field):
    """The map a -> is_latin_pair(field, a, b) for every encoding b, as one
    boolean array; chi(b - 1) for every b is worked out once per call, not
    once per slope."""
    chi = field.parity_table
    chi1 = chi[_rolled_table(field, field.neg(1))]  # chi(b-1) for every b
    return lambda a: (chi * chi[a] == 1) & (chi1 * chi1[a] == 1)


def _z0_survivors(field: Field, a: int, b: np.ndarray) -> np.ndarray:
    """The b's of the (k,) array b for which (0, 1, 0) is not associative;
    the u = 1 probe, which wants no completion, would reject the others.

    At z = 0 that probe's test (m = c(1) = a) reads c(-a) = c(1 + c(-1)) - a,
    tried here for every b at once with c worked out at those points only,
    so no difference vector is built for a b it drops. When a and 1 - a are
    nonzero squares it holds for every Latin b, in both residue classes of
    q mod 4: the slope a is dropped whole, about a quarter of all slopes.

    c(-1) = -s, s the slope at -1, takes no product; 1 - s is q - 1 - s (p - 1
    minus each digit, no borrow) rolled by 1 + (1, ..., 1): two products per b,
    BULK_BLOCK b's at a time, which bounds their digit temporaries.
    """
    chi = field.parity_table
    ones = (field.q - 1) // (field.p - 1)  # the encoding whose every digit is 1
    one_minus, sub_a = _rolled_table(field, field.add(1, ones)), _rolled_table(field, field.neg(a))

    def c(d, bs):
        return field.bulk_mul(d, np.where(chi[d] < 0, bs, a))

    keep = np.empty(len(b), dtype=bool)
    for i in _blocks(0, len(b)):
        s = np.where(chi[field.neg(1)] < 0, b[i], a)  # one per b, also where it is a
        keep[i] = c(field.neg(a), b[i]) != sub_a[c(one_minus[field.q - 1 - s], b[i])]
    return b[keep]


def _slope_stacks(field: Field, a: int, b: np.ndarray, rows: int):
    """(s, _diff_vector(field, a, s)) for the stacks s of at most rows b's.

    a*d, the half every b shares, is worked out once per slope; a stack
    multiplies only the non-square d by its b's, a block of them at a time.
    """
    square = _diff_vector(field, a, a)  # a*d for every d
    nsq = np.flatnonzero(field.parity_table < 0)
    for lo in range(0, len(b), rows):
        s = b[lo:lo + rows]
        c = np.empty((len(s), field.q), dtype=np.int64)
        c[:] = square
        for i in _blocks(0, len(nsq)):
            d = nsq[i]
            c[:, d] = field.bulk_mul(d, s[:, None])
        yield s, c


def _general_pairs(field: Field, slopes, stop_at_first: bool = False) -> list[tuple[int, int]]:
    """The certified pairs for each a in slopes: its Latin b's that pass
    _z0_survivors, in stacks of about BULK_BLOCK encodings, through the
    u = 1 probe, which rejects most, then the eta probe; a slope with no
    survivor builds no stack, and a stack with no row left is not probed
    further. _z0_survivors only drops b's the u = 1 probe would drop, so the
    pairs and their order are those of the certificate alone. A Latin pair
    has a, b outside {0, 1}, so its closed-form diagonal count is 1 and no
    b needs that test."""
    rows = max(1, BULK_BLOCK // field.q)
    latin = _latin_mask(field)
    out = []
    for a in slopes:
        b = np.flatnonzero(latin(a))
        if len(b):  # a = 1 has none
            b = _z0_survivors(field, a, b)
        if not len(b):
            continue
        for b, c in _slope_stacks(field, a, b, rows):
            for u in (1, field.non_square):
                keep = _assoc_completions(field, c, u) == 0
                b, c = b[keep], c[keep]
                if not len(b):
                    break
            out += [(a, int(x)) for x in b]
            if stop_at_first and out:
                return out[:1]
    return out


def find_witnesses(field: Field, mode: str | None = None, first: bool = True,
                   workers: int = 1) -> tuple[str, list[tuple[int, int]]]:
    """(mode, pairs): the witnesses of the search that ran last, the first
    one only when first is set. With no mode, a field of order at most
    GENERAL_ROUTE_MAX takes mode "general", so the search order is decided
    here and nowhere else. The condition scan runs unless mode is "general",
    its hits a paired with b = a*a; the general search runs when mode is
    "general", or when mode is None and the scan found nothing. workers
    splits only a general search for every pair."""
    if mode is None and field.q <= GENERAL_ROUTE_MAX:
        mode = "general"
    if mode != "general":
        pairs = [(a, field.mul(a, a)) for a in search_theorem(field, stop_at_first=first)]
        if pairs or mode == "theorem":
            return "theorem", pairs
    return "general", search_general(field, stop_at_first=first, workers=workers)


def find_witness(field: Field) -> tuple[int, int, str] | None:
    """First witness (a, b, method) of find_witnesses without a mode; None
    only when both searches ran to the end and failed."""
    mode, pairs = find_witnesses(field)
    return (*pairs[0], mode) if pairs else None


# ---------------------------------------------------------------------------
# Case-by-case verification of the sixteen parity cases per residue class.
#
# For the probe pairs (0, 1) and (0, eta) the associativity equation, under
# an assumed parity for each of the three branch differences, is linear in
# z. Each catalog row records the transcribed unique solution z* (or None
# when the equation degenerates to an impossible constant) plus the closed
# form of the element whose actual character contradicts the assumption.
# Both forms are rational functions of a, read times the probe's u: that
# is all the eta a row of the (0, eta) probe carries (see below), so no row
# states a power of eta. The verifier re-derives everything numerically, at
# one field and one a: it rebuilds the linear equation from the assumed
# branches, solves it, compares against the transcribed z*, recomputes the
# contradiction element from its definition and only then applies the
# character test.
# catalog_proof, below, checks the same rows symbolically for every field
# of a residue class at once; it is what certifies theorem hits, and the
# numeric verifier stays the cases command and its oracle in the tests.

@dataclass(frozen=True)
class RationalForm:
    """num(a) / den(a), with integer coefficient tuples; read times the
    probe's u (see evaluate)."""
    num: tuple[int, ...]
    den: tuple[int, ...] = (1,)

    def evaluate(self, field: Field, a: int, u: int) -> int:
        """u * num(a) / den(a): the form's value at the probe (0, u)."""
        den = field.eval_poly(self.den, a)
        if den == 0:
            raise InternalCheckError(f"denominator {self.den} vanished at a={a}")
        return field.mul(field.mul(u, field.eval_poly(self.num, a)), field.inv(den))


@dataclass(frozen=True)
class CaseRow:
    """One assumed-parity case: 'S'/'N' per branch difference.

    check_index selects which of the three elements carries the
    contradiction (0: z - m, 1: z - u, 2: the inner product value);
    expected is the parity that actually holds there, refuting the
    assumption. Rows with zstar None degenerate to an unsatisfiable
    constant equation and need no character check.
    """
    parities: tuple[str, str, str]
    zstar: RationalForm | None
    check_index: int | None = None
    check_form: RationalForm | None = None
    expected: str | None = None


def _r(num, den=(1,)):
    return RationalForm(tuple(num), tuple(den))


# Probe (0, 1), residue 1 mod 4.
_CASES_R1_ONE = (
    CaseRow(("S", "S", "S"), _r((0,)), 2, _r((1, -1)), "N"),
    CaseRow(("S", "S", "N"), _r((-1, 1), (1, 1)), 0, _r((-1, 0, -1), (1, 1)), "N"),
    CaseRow(("S", "N", "S"), _r((0, 1), (1, 1)), 1, _r((-1,), (1, 1)), "S"),
    CaseRow(("S", "N", "N"), _r((-1, 1, 1), (1, 1, 1)), 2, _r((1, 1, -1), (1, 1, 1)), "S"),
    CaseRow(("N", "S", "S"), None),
    CaseRow(("N", "S", "N"), _r((-1,), (0, 1)), 2, _r((0, -1)), "S"),
    CaseRow(("N", "N", "S"), _r((0,)), 0, _r((0, -1)), "S"),
    CaseRow(("N", "N", "N"), _r((-1, 1), (0, 1)), 1, _r((-1,), (0, 1)), "S"),
)

# Probe (0, eta), residue 1 mod 4.
_CASES_R1_ETA = (
    CaseRow(("S", "S", "S"), _r((1, -1)), 1, _r((0, -1)), "N"),
    CaseRow(("S", "S", "N"), _r((0,)), 1, _r((-1,)), "N"),
    CaseRow(("S", "N", "S"), _r((1,), (1, 1)), 2, _r((1, 1, 0, -1), (1, 1)), "N"),
    CaseRow(("S", "N", "N"), _r((0, 0, 1), (1, 1, 1)), 1, _r((-1, -1), (1, 1, 1)), "S"),
    CaseRow(("N", "S", "S"), None),
    CaseRow(("N", "S", "N"), _r((0, -1)), 1, _r((-1, -1)), "N"),
    CaseRow(("N", "N", "S"), _r((1, 0, -1), (0, 1)), 1, _r((1, -1, -1), (0, 1)), "S"),
    CaseRow(("N", "N", "N"), _r((0,)), 2, _r((1, 0, -1)), "S"),
)

# Probe (0, 1), residue 3 mod 4.
_CASES_R3_ONE = (
    CaseRow(("S", "S", "S"), _r((0,)), 1, _r((-1,)), "N"),
    CaseRow(("S", "S", "N"), _r((-1, 1), (1, 1)), 0, _r((-1, 0, -1), (1, 1)), "N"),
    CaseRow(("S", "N", "S"), _r((0, 1), (1, 1)), 0, _r((0, 0, -1), (1, 1)), "N"),
    CaseRow(("S", "N", "N"), _r((-1, 1, 1), (1, 1, 1)), 0, _r((-1, 0, 0, -1), (1, 1, 1)), "N"),
    CaseRow(("N", "S", "S"), None),
    CaseRow(("N", "S", "N"), _r((-1,), (0, 1)), 1, _r((-1, -1), (0, 1)), "N"),
    CaseRow(("N", "N", "S"), _r((0,)), 2, _r((1, 0, -1)), "N"),
    CaseRow(("N", "N", "N"), _r((-1, 1), (0, 1)), 0, _r((-1, 1, -1), (0, 1)), "S"),
)

# Probe (0, eta), residue 3 mod 4.
_CASES_R3_ETA = (
    CaseRow(("S", "S", "S"), _r((1, -1)), 0, _r((1, -1, -1)), "N"),
    CaseRow(("S", "S", "N"), _r((0,)), 2, _r((1, -1)), "S"),
    CaseRow(("S", "N", "S"), _r((1,), (1, 1)), 1, _r((0, -1), (1, 1)), "S"),
    CaseRow(("S", "N", "N"), _r((0, 0, 1), (1, 1, 1)), 0, _r((0, 0, 0, -1, -1), (1, 1, 1)), "N"),
    CaseRow(("N", "S", "S"), None),
    CaseRow(("N", "S", "N"), _r((0, -1)), 0, _r((0, -1, -1)), "S"),
    CaseRow(("N", "N", "S"), _r((1, 0, -1), (0, 1)), 0, _r((1, 0, -1, -1), (0, 1)), "S"),
    CaseRow(("N", "N", "N"), _r((0,)), 0, _r((0, 0, -1)), "S"),
)

CASE_ROWS: dict[tuple[int, str], tuple[CaseRow, ...]] = {
    (1, "one"): _CASES_R1_ONE,
    (1, "eta"): _CASES_R1_ETA,
    (3, "one"): _CASES_R3_ONE,
    (3, "eta"): _CASES_R3_ETA,
}


@dataclass
class RowResult:
    probe: str
    parities: tuple[str, str, str]
    passed: bool
    detail: str


@dataclass
class CaseReport:
    q: int
    a: int
    residue: int
    rows: list[RowResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _verify_row(field: Field, a: int, u: int, row: CaseRow) -> RowResult:
    b = field.mul(a, a)
    m = entry(field, a, b, 0, u)  # a*u: the left operand after the first product
    s = [a if p == "S" else b for p in row.parities]

    def eq(z):
        # L(m, z) - s3 * L(u, z) under the assumed branch slopes
        lhs = field.add(m, field.mul(s[0], field.sub(z, m)))
        inner = field.add(u, field.mul(s[1], field.sub(z, u)))
        return field.sub(lhs, field.mul(s[2], inner))

    u0 = eq(0)
    slope = field.sub(eq(1), u0)

    if row.zstar is None:
        if slope != 0:
            return RowResult("", row.parities, False, "expected a degenerate equation, got slope != 0")
        if u0 == 0:
            return RowResult("", row.parities, False, "degenerate equation is satisfiable")
        return RowResult("", row.parities, True, "equation reduces to a nonzero constant")

    if slope == 0:
        return RowResult("", row.parities, False, "case equation unexpectedly degenerate")
    zsol = field.mul(field.neg(u0), field.inv(slope))
    ztab = row.zstar.evaluate(field, a, u)
    if ztab != zsol:
        return RowResult("", row.parities, False, f"transcribed z*={ztab} but equation solves to {zsol}")

    elems = (
        field.sub(zsol, m),
        field.sub(zsol, u),
        field.add(u, field.mul(s[1], field.sub(zsol, u))),
    )
    v = elems[row.check_index]
    vtab = row.check_form.evaluate(field, a, u)
    if vtab != v:
        return RowResult("", row.parities, False, f"transcribed element {vtab} but recomputed {v}")
    par = field.parity(v)
    want = Parity.SQUARE if row.expected == "S" else Parity.NON_SQUARE
    if par != want:
        return RowResult("", row.parities, False, f"element has parity {par.name}, expected {row.expected}")
    if row.expected == row.parities[row.check_index]:
        return RowResult("", row.parities, False, "catalog error: no contradiction in this row")
    return RowResult("", row.parities, True, f"z*={zsol}, contradiction element {v} is {par.name}")


def verify_case_tables(field: Field, a: int) -> CaseReport:
    """Numerically verify every parity case for this field's residue class."""
    if field.p == 2:
        raise CharacteristicError("cases needs an odd field")
    residue = field.q % 4
    cs = theorem_conditions(residue)
    if not satisfies_conditions(field, a, cs):
        raise ValueError(f"a={a} does not satisfy the residue-{residue} conditions for q={field.q}")
    rows = []
    for probe_name, u in (("one", 1), ("eta", field.non_square)):
        for row in CASE_ROWS[(residue, probe_name)]:
            res = _verify_row(field, a, u, row)
            res.probe = probe_name
            rows.append(res)
    return CaseReport(q=field.q, a=a, residue=residue, rows=rows)


# ---------------------------------------------------------------------------
# The same catalog checked once, symbolically, for every field of a residue
# class.
#
# In both probes every term carries the same power eta^k (k = 0 for u = 1;
# k = 1 for u = eta, whose m = b*eta = a^2*eta), so with z = eta^k * z',
# u = eta^k and m = eta^k * m' the case equation divides by eta^k into
#   (s0 - s2*s1)*z' + m'*(1 - s0) - s2*(1 - s1) = 0,   s_i in {a, a^2},
# an equation over Z[a], and so are the three branch differences. So z*
# and the contradiction element are u times a form in a alone, and the
# catalog stores that form: RationalForm.evaluate multiplies by u, and
# eta^k enters the proof only as the character chi(eta^k) = (-1)^k. A
# polynomial that is +-1 times a product of condition polynomials is nonzero
# at every condition hit, and its character there is fixed by the signs.

_SLOPE_POLY = {"S": (0, 1), "N": (0, 0, 1)}  # a and b = a^2 as polynomials in a


def _hit_character(f, cs: ConditionSet) -> int | None:
    """chi(f(a)) at every a meeting cs, when f is +-1 times a product of
    powers of cs's polynomials; None for any other f, zero included.
    chi(-1) is 1 for q = 1 mod 4 and -1 for q = 3 mod 4."""
    f = normalize(f)
    if not f:
        return None
    chi = 1
    for g, sign in zip(cs.polys, cs.signs):
        while len(g) <= len(f) and (quot := poly_divexact(f, g)) is not None:
            f, chi = quot, chi * sign
    if f == (1,):
        return chi
    if f == (-1,):
        return chi if cs.residue == 1 else -chi
    return None


def _row_failure(cs: ConditionSet, probe: str, row: CaseRow) -> str | None:
    """Why row does not prove its case over Z[a], or None when it does."""
    k, m = (0, (0, 1)) if probe == "one" else (1, (0, 0, 1))
    s0, s1, s2 = (_SLOPE_POLY[p] for p in row.parities)
    slope = poly_sub(s0, poly_mul(s2, s1))
    const = poly_sub(poly_mul(m, poly_sub((1,), s0)), poly_mul(s2, poly_sub((1,), s1)))
    if row.zstar is None:
        if slope:
            return "the equation is not degenerate"
        if _hit_character(const, cs) is None:
            return "its constant is no product of condition polynomials"
        return None
    if _hit_character(slope, cs) is None:
        return "its slope is no product of condition polynomials"
    z, d = row.zstar.num, row.zstar.den
    if _hit_character(d, cs) is None:
        return "z* has a denominator that is no product of condition polynomials"
    if poly_add(poly_mul(slope, z), poly_mul(const, d)):
        return "z* does not solve the equation"
    form = row.check_form
    if form is None or row.check_index not in (0, 1, 2):
        return "no contradiction element"
    elems = (poly_sub(z, poly_mul(m, d)), poly_sub(z, d),   # z - m, z - u
             poly_add(d, poly_mul(s1, poly_sub(z, d))))     # u + s1*(z - u); all over d
    if poly_sub(poly_mul(elems[row.check_index], form.den), poly_mul(form.num, d)):
        return "check_form is not the contradiction element"
    chi_num, chi_den = _hit_character(form.num, cs), _hit_character(form.den, cs)
    if chi_num is None or chi_den is None:
        return "check_form is no product of condition polynomials"
    forced = "S" if chi_num * chi_den * (-1) ** k == 1 else "N"  # chi(eta) = -1
    if forced != row.expected:
        return f"the conditions force {forced}, the catalog expects {row.expected}"
    if forced == row.parities[row.check_index]:
        return "the forced character is the assumed one"
    return None


@cache
def catalog_proof(residue: int) -> None:
    """Check CASE_ROWS of one residue class of q mod 4 over Z[a], once per
    process; InternalCheckError names the first row that fails.

    Each probe's rows must be the eight parity triples. A row with a z*
    passes when its equation's slope is a condition product (nonzero at a
    hit), z* solves the equation identically, check_form equals the
    contradiction element and is a condition product whose forced character
    is the row's expected one, against its assumption; a degenerate row when
    its slope is 0 and its constant a condition product. Then at any a
    meeting the conditions no z completes (0, 1) or (0, eta) associatively:
    a zero branch difference fits either assumption, and the contradiction
    element is never zero.
    """
    cs = theorem_conditions(residue)
    for probe in ("one", "eta"):
        rows = CASE_ROWS[(residue, probe)]
        for row in rows:
            why = _row_failure(cs, probe, row)
            if why:
                raise InternalCheckError(
                    f"case catalog, residue {residue}, probe {probe}, case {''.join(row.parities)}: {why}")
        if sorted(r.parities for r in rows) != sorted(product("SN", repeat=3)):
            raise InternalCheckError(
                f"case catalog, residue {residue}, probe {probe}: the cases are not the eight parity triples")


# ---------------------------------------------------------------------------
# Witness records and the append-only CSV cache.

@dataclass(frozen=True)
class WitnessRecord:
    q: int
    p: int
    e: int
    modulus: int  # encoding of the reduction modulus, leading term included
    a: int
    b: int
    method: str   # "theorem" | "general"
    assoc_count: int
    timestamp: str

    @classmethod
    def for_witness(cls, field: Field, a: int, b: int, method: str, assoc_count: int):
        return cls(
            q=field.q, p=field.p, e=field.e, modulus=field.modulus_encoding,
            a=a, b=b, method=method, assoc_count=assoc_count,
            timestamp=datetime.now(timezone.utc).isoformat(),
        )


CACHE_FIELDS = tuple(f.name for f in fields(WitnessRecord))  # the CSV columns, in order


@cache
def _column_types() -> dict[str, type]:
    """WitnessRecord's field types by name, resolved once: a call takes
    about 0.1 ms, more than reading a short cache file."""
    return get_type_hints(WitnessRecord)


def load_cache(path) -> dict[int, WitnessRecord]:
    """Last row per q; a torn or malformed row is skipped with a warning.

    Columns are read by name, each converted to its WitnessRecord field's
    type, so their order does not matter and an extra one is ignored.
    """
    out: dict[int, WitnessRecord] = {}
    if not os.path.exists(str(path)):
        return out
    kinds = _column_types()
    with open(str(path), newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                if None in row or None in row.values():
                    raise ValueError("wrong number of fields")
                rec = WitnessRecord(**{name: kind(row[name]) for name, kind in kinds.items()})
            except (KeyError, ValueError) as exc:
                print(f"warning: {path}: skipping malformed cache row {reader.line_num}: {exc}",
                      file=sys.stderr)
                continue
            out[rec.q] = rec
    return out


def recertify(field: Field, rec: WitnessRecord) -> bool:
    """Re-check a cached witness for this field before it is reused.

    The row must name this field's encoding and claim the minimal count q.
    A "theorem" row needs b = a*a and the search's own certificate,
    _theorem_failure, O(1); a "general" row the O(1) Latin test and the
    O(q) orbit count; any other method is refused. Up to GENERAL_ROUTE_MAX
    find_witnesses runs the general search alone, so a row there with
    another method was written under an older search order and is refused
    too, and the caller searches again. Above it a row that certifies but is
    not the current search's first witness cannot be told apart without
    running that search, so it is kept.
    """
    q = field.q
    if (rec.q, rec.p, rec.e, rec.modulus) != (q, field.p, field.e, field.modulus_encoding):
        return False
    if rec.assoc_count != q or not (0 < rec.a < q and 0 < rec.b < q):
        return False
    if q <= GENERAL_ROUTE_MAX and rec.method != "general":
        return False
    if rec.method == "theorem":
        return rec.b == field.mul(rec.a, rec.a) and _theorem_failure(field, rec.a) is None
    if rec.method != "general":
        return False
    return is_latin_pair(field, rec.a, rec.b) and count_associative_orbit(field, rec.a, rec.b).total == q


def append_witness(path, rec: WitnessRecord) -> None:
    """Append one row, writing the header on first use; flushed per call."""
    path = str(path)
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    torn = False
    if not fresh:
        with open(path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            torn = fh.read(1) != b"\n"
    with open(path, "a", newline="") as fh:
        w = csv.writer(fh)
        if fresh:
            w.writerow(CACHE_FIELDS)
        elif torn:
            fh.write("\r\n")  # end a torn last line so the new row stands alone
        w.writerow(getattr(rec, name) for name in CACHE_FIELDS)  # astuple would deep-copy
        fh.flush()
