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
quasigroup.count_associative takes it for any table is_two_slope_table
finds to be the operation of the slopes read off its row 0; the O(q^3)
naive counter, quasigroup.count_associative_naive, stays the tests'
independent oracle.

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
force a minimal table, and orbit-certifies them; it walks the matrix block
by block, so a first-hit search stops at the first block with a hit.
"general" scans all pairs, one slope a at a time: a character-vector mask
keeps the b's that pass the O(1) Latin test; the u = 1 probe's test at the
one point z = 0, run for all of them at once, drops each b it finds
associative there (every b when a and 1 - a are squares); the closed form
and the two probes over the stacked difference vectors of the rest keep
those with breakdown (1, 0, 0). Neither mode builds a table. find_witness
runs the first, then the second for q up to the table cap; scan,
exists --build and the sweep script share it.
"""
from __future__ import annotations

import csv
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial

import numpy as np

from .fields import (
    BULK_BLOCK,
    DENSE_MAX,  # re-exported: the theorem scan refuses fields above it
    CharacteristicError,
    Field,
    InternalCheckError,
    Parity,
    _blocks,
)
from .quasigroup import (
    DEFAULT_TABLE_CAP,
    AssocCount,
    OpTable,
    _usable_cpus,
)


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
    return OpTable(n=q, entries=rows)


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


def _diagonal_completions(field: Field, a: int, b: int | np.ndarray) -> np.ndarray:
    """The number of z making (0, 0, z) associative, for one slope b or an
    array of them, in closed form: O(1) each, exact for every (a, b).

    The test is c(z) = c(c(z)), true at z = 0. On the h = (q-1)/2 nonzero
    squares c(z) = a*z, of character chi(a); on the h non-squares
    c(z) = b*z, of character -chi(b). So a half completes whole when its
    slope is 0 or when c takes slope 1 at its image (slope b at a
    non-square, a elsewhere), and at no z otherwise.
    """
    chi = field.parity_table
    b = np.asarray(b, dtype=np.int64)
    h = (field.q - 1) // 2
    squares = (a == 0) | (np.where(chi[a] < 0, b, a) == 1)
    non_squares = (b == 0) | (np.where(chi[b] > 0, b, a) == 1)
    # int64 before h: numpy 1.x types h * (bool array) by the smallest type
    # holding h, int16 for q up to 65535, where a count q > 32767 overflows
    return 1 + h * (squares.astype(np.int64) + non_squares)


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
    n_diag = int(_diagonal_completions(field, a, b))
    total = q * n_diag + (q * (q - 1) // 2) * (n_sq + n_nsq)
    return AssocCount(total=total, breakdown=(n_diag, n_sq, n_nsq))


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
    """Check the eight character conditions (and the excluded values) at a."""
    check_slope(field, "a", a)
    if field.q % 4 != cs.residue:
        raise ValueError(f"field has q = {field.q} = {field.q % 4} mod 4, condition set wants {cs.residue}")
    if a in (0, 1, field.neg(1)):
        return False
    for f, want in zip(cs.polys, cs.signs):
        if int(field.parity(field.eval_poly(f, a))) != want:
            return False
    return True


# ---------------------------------------------------------------------------
# Searches.

def search_theorem(field: Field, stop_at_first: bool = False, workers: int = 1) -> list[int]:
    """All a (ascending encoding) passing the condition set, orbit-certified.

    Reads the columns of conditions_hold, so it refuses q above DENSE_MAX.
    """
    if field.p == 2:
        raise CharacteristicError("search needs an odd field")
    if field.q < 5:
        raise ValueError("theorem search needs q >= 5")
    cs = theorem_conditions(field.q % 4)
    hits = []
    for s, block in _chi_blocks(field, cs):
        hits += (s.start + np.flatnonzero(conditions_hold(block, cs))).tolist()
        if stop_at_first and hits:
            break  # frees the block evaluator before the certificate
    if stop_at_first:
        return _certified(field, hits[:1])
    if workers > 1:
        return _in_chunks(_certified, field, hits, workers)
    return _certified(field, hits)


def _certified(field: Field, hits: list[int]) -> list[int]:
    """hits, each checked Latin and orbit-certified with b = a*a."""
    for a in hits:
        b = field.mul(a, a)
        if not is_latin_pair(field, a, b):
            raise InternalCheckError(f"a={a} satisfies the conditions for q={field.q} but is not Latin")
        cert = count_associative_orbit(field, a, b)
        if cert.total != field.q:
            raise InternalCheckError(
                f"a={a} satisfies the conditions for q={field.q} but certifies {cert.total} != q"
            )
    return hits


def search_general(
    field: Field,
    stop_at_first: bool = False,
    workers: int = 1,
    cap: int = DEFAULT_TABLE_CAP,
) -> list[tuple[int, int]]:
    """All nonzero pairs (a, b), a then b ascending, with exactly q
    associative triples; q above cap is refused before any pair is tried.

    The O(1) Latin test plus the orbit breakdown (1, 0, 0) is an exact
    certificate, so no table is built or counted naively.
    """
    if field.p == 2:
        raise CharacteristicError("search needs an odd field")
    if field.q > cap:
        raise ValueError(f"order {field.q} exceeds table cap {cap}; raise cap explicitly")
    if workers > 1 and not stop_at_first:
        return _in_chunks(_general_pairs, field, range(1, field.q), workers)
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
    """
    chi = field.parity_table
    add_1, sub_a = _rolled_table(field, 1), _rolled_table(field, field.neg(a))

    def c(d):
        return field.bulk_mul(d, np.where(chi[d] < 0, b, a))

    return b[c(field.neg(a)) != sub_a[c(add_1[c(field.neg(1))])]]


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
    """The certified pairs for each a in slopes: its Latin b's with the
    closed-form diagonal count 1 that pass _z0_survivors, in stacks of
    about BULK_BLOCK encodings, through the u = 1 probe, which rejects most,
    then the eta probe; a slope with no survivor builds no stack, and a
    stack with no row left is not probed further. _z0_survivors only drops
    b's the u = 1 probe would drop, so the pairs and their order are those
    of the certificate alone."""
    rows = max(1, BULK_BLOCK // field.q)
    latin = _latin_mask(field)
    out = []
    for a in slopes:
        b = np.flatnonzero(latin(a))
        if len(b):  # a = 1 has none
            b = _z0_survivors(field, a, b[_diagonal_completions(field, a, b) == 1])
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


def find_witness(field: Field, cap: int = DEFAULT_TABLE_CAP) -> tuple[int, int, str] | None:
    """First witness (a, b, method): the condition scan (q >= 5), then, for
    q up to cap, the exhaustive pair search; None if both fail."""
    hits = search_theorem(field, stop_at_first=True) if field.q >= 5 else []
    if hits:
        return hits[0], field.mul(hits[0], hits[0]), "theorem"
    if field.q <= cap:
        pairs = search_general(field, stop_at_first=True, cap=cap)
        if pairs:
            return pairs[0][0], pairs[0][1], "general"
    return None


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures' process pool, imported when a pool starts: with
    multiprocessing it is a large share of the package's import time, and
    only --workers > 1 uses it."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def _in_chunks(fn, field: Field, candidates, workers: int) -> list:
    """fn(field, chunk) over contiguous chunks of the ascending candidate
    a's, one per worker; merged in chunk order so output is deterministic.

    The pool never has more processes than chunks or usable CPUs: a fork
    pool starts all of its processes at the first submit.
    """
    chunks = [c.tolist() for c in np.array_split(np.asarray(candidates, dtype=np.int64), workers)
              if len(c)]
    if not chunks:
        return []
    out = []
    with ProcessPoolExecutor(max_workers=min(len(chunks), _usable_cpus())) as pool:
        for part in pool.map(partial(fn, field), chunks):
            out.extend(part)
    return out


# ---------------------------------------------------------------------------
# Case-by-case verification of the sixteen parity cases per residue class.
#
# For the probe pairs (0, 1) and (0, eta) the associativity equation, under
# an assumed parity for each of the three branch differences, is linear in
# z. Each catalog row records the transcribed unique solution z* (or None
# when the equation degenerates to an impossible constant) plus the closed
# form of the element whose actual character contradicts the assumption.
# The verifier re-derives everything numerically: it rebuilds the linear
# equation from the assumed branches, solves it, compares against the
# transcribed z*, recomputes the contradiction element from its definition
# and only then applies the character test.

@dataclass(frozen=True)
class RationalForm:
    """eta^eta_deg * num(a) / den(a), with integer coefficient tuples."""
    num: tuple[int, ...]
    den: tuple[int, ...] = (1,)
    eta_deg: int = 0

    def evaluate(self, field: Field, a: int) -> int:
        den = field.eval_poly(self.den, a)
        if den == 0:
            raise InternalCheckError(f"denominator {self.den} vanished at a={a}")
        v = field.mul(field.eval_poly(self.num, a), field.inv(den))
        if self.eta_deg:
            v = field.mul(v, field.pow(field.non_square, self.eta_deg))
        return v


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


def _r(num, den=(1,), eta=0):
    return RationalForm(tuple(num), tuple(den), eta)


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
    CaseRow(("S", "S", "S"), _r((1, -1), eta=1), 1, _r((0, -1), eta=1), "N"),
    CaseRow(("S", "S", "N"), _r((0,)), 1, _r((-1,), eta=1), "N"),
    CaseRow(("S", "N", "S"), _r((1,), (1, 1), eta=1), 2, _r((1, 1, 0, -1), (1, 1), eta=1), "N"),
    CaseRow(("S", "N", "N"), _r((0, 0, 1), (1, 1, 1), eta=1), 1, _r((-1, -1), (1, 1, 1), eta=1), "S"),
    CaseRow(("N", "S", "S"), None),
    CaseRow(("N", "S", "N"), _r((0, -1), eta=1), 1, _r((-1, -1), eta=1), "N"),
    CaseRow(("N", "N", "S"), _r((1, 0, -1), (0, 1), eta=1), 1, _r((1, -1, -1), (0, 1), eta=1), "S"),
    CaseRow(("N", "N", "N"), _r((0,)), 2, _r((1, 0, -1), eta=1), "S"),
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
    CaseRow(("S", "S", "S"), _r((1, -1), eta=1), 0, _r((1, -1, -1), eta=1), "N"),
    CaseRow(("S", "S", "N"), _r((0,)), 2, _r((1, -1), eta=1), "S"),
    CaseRow(("S", "N", "S"), _r((1,), (1, 1), eta=1), 1, _r((0, -1), (1, 1), eta=1), "S"),
    CaseRow(("S", "N", "N"), _r((0, 0, 1), (1, 1, 1), eta=1), 0, _r((0, 0, 0, -1, -1), (1, 1, 1), eta=1), "N"),
    CaseRow(("N", "S", "S"), None),
    CaseRow(("N", "S", "N"), _r((0, -1), eta=1), 0, _r((0, -1, -1), eta=1), "S"),
    CaseRow(("N", "N", "S"), _r((1, 0, -1), (0, 1), eta=1), 0, _r((1, 0, -1, -1), (0, 1), eta=1), "S"),
    CaseRow(("N", "N", "N"), _r((0,)), 0, _r((0, 0, -1), eta=1), "S"),
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
    ztab = row.zstar.evaluate(field, a)
    if ztab != zsol:
        return RowResult("", row.parities, False, f"transcribed z*={ztab} but equation solves to {zsol}")

    elems = (
        field.sub(zsol, m),
        field.sub(zsol, u),
        field.add(u, field.mul(s[1], field.sub(zsol, u))),
    )
    v = elems[row.check_index]
    vtab = row.check_form.evaluate(field, a)
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
# Witness records and the append-only CSV cache.

CACHE_FIELDS = ("q", "p", "e", "modulus", "a", "b", "method", "assoc_count", "timestamp")


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


def load_cache(path) -> dict[int, WitnessRecord]:
    """Last row per q; a torn or malformed row is skipped with a warning."""
    out: dict[int, WitnessRecord] = {}
    if not os.path.exists(str(path)):
        return out
    with open(str(path), newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                if None in row or None in row.values():
                    raise ValueError("wrong number of fields")
                rec = WitnessRecord(
                    q=int(row["q"]), p=int(row["p"]), e=int(row["e"]), modulus=int(row["modulus"]),
                    a=int(row["a"]), b=int(row["b"]), method=row["method"],
                    assoc_count=int(row["assoc_count"]), timestamp=row["timestamp"],
                )
            except (KeyError, ValueError) as exc:
                print(f"warning: {path}: skipping malformed cache row {reader.line_num}: {exc}",
                      file=sys.stderr)
                continue
            out[rec.q] = rec
    return out


def recertify(field: Field, rec: WitnessRecord) -> bool:
    """Re-check a cached witness for this field in O(q) before it is reused.

    The row must name this field's encoding, claim the minimal count q and a
    method whose precondition holds, and its pair must pass the O(1) Latin
    test and the orbit count.
    """
    q = field.q
    if (rec.q, rec.p, rec.e, rec.modulus) != (q, field.p, field.e, field.modulus_encoding):
        return False
    if rec.assoc_count != q or not (0 < rec.a < q and 0 < rec.b < q):
        return False
    if rec.method == "theorem":
        if rec.b != field.mul(rec.a, rec.a) or not satisfies_conditions(
                field, rec.a, theorem_conditions(q % 4)):
            return False
    elif rec.method != "general":
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
        w.writerow([rec.q, rec.p, rec.e, rec.modulus, rec.a, rec.b,
                    rec.method, rec.assoc_count, rec.timestamp])
        fh.flush()
