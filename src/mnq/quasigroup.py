"""Dense operation tables and exact associative-triple counting.

A table of order n stores entries[x][y] = x*y as integers in [0, n). The
naive counter enumerates all n^3 triples with the middle element y outside:
for fixed y both products are row gathers of the table indexed by a row,
so the inner two loops collapse to two gathers and one difference per y,
which keeps exhaustive certification usable into the thousands. The rows x
are split into one contiguous slab per usable CPU, each counted by its own
thread, and the count is the sum of the slab counts; tables too small to
pay for a thread stay on the calling one.

A direct product needs no recount: its triples are associative exactly
when both components are, so a(T1 x T2) = a(T1) * a(T2) for any tables,
and is_product_of checks in O(n^2) that a table is exactly that product.
`exists --build` multiplies O(q) orbit certificates of its blocks this
way. count_associative finds the factors of a bare table itself: for each
divisor m of n it reads the candidate factors off the table and keeps
them if is_product_of holds. A factor that does not split and whose
order is an odd prime power q may be a two-slope table over GF(q): its
slopes are read off row 0, construct.is_two_slope_table checks the whole
table against them in O(e*q^2), and only then does the O(q) orbit count
give its total. So `verify`, `construct` and `product --certify` count a
product file through its factors, a two-slope factor by recognition plus
orbit count, and any other table naively.
"""
from __future__ import annotations

import contextlib
import json
import os
import re
import stat
import warnings
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fields import cached_field
from .intpoly import factor

DEFAULT_TABLE_CAP = 4096
# fewest table cells per slab of the naive count: on 2 CPUs two slabs
# break even with one at n = 261 (34k cells each), are 7 % slower at 221
# and 7-10 % faster from 281 up
_SLAB_MIN_CELLS = 1 << 15


@dataclass
class AssocCount:
    """Exact count of associative triples, optionally with orbit breakdown.

    breakdown, when present, is (n_diag, n_sq, n_nsq): the number of
    associative completions z of the three representative pairs (0,0),
    (0,1) and (0, non-square).
    """
    total: int
    breakdown: tuple[int, int, int] | None = None
    aborted: bool = False  # no count stops early; kept because perfbench/tracing.py reads it


@dataclass
class OpTable:
    n: int
    entries: np.ndarray
    latin: bool | None = None
    idempotent: bool | None = None

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.int32)
        if arr.shape != (self.n, self.n):
            raise ValueError(f"expected a {self.n}x{self.n} table, got shape {arr.shape}")
        if self.n > 0 and (arr.min() < 0 or arr.max() >= self.n):
            raise ValueError("table entries must lie in [0, n)")
        arr.setflags(write=False)
        self.entries = arr


def make_table(rows) -> OpTable:
    try:
        arr = np.asarray(rows, dtype=np.int32)
    except OverflowError:
        raise ValueError("table entries must lie in [0, n)") from None
    return OpTable(n=len(arr), entries=arr)


def is_latin(t: OpTable) -> bool:
    """Every row and every column is a permutation; result cached on t."""
    if t.latin is None:
        want = np.arange(t.n, dtype=t.entries.dtype)
        t.latin = bool(
            np.array_equal(np.sort(t.entries, axis=1), np.broadcast_to(want, (t.n, t.n)))
            and np.array_equal(np.sort(t.entries, axis=0), np.broadcast_to(want[:, None], (t.n, t.n)))
        )
    return t.latin


def is_idempotent(t: OpTable) -> bool:
    if t.idempotent is None:
        t.idempotent = bool(np.array_equal(np.diagonal(t.entries), np.arange(t.n)))
    return t.idempotent


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else all of them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _count_slab(T: np.ndarray, x0: int, x1: int) -> int:
    """Associative triples (x, y, z) with x0 <= x < x1.

    With Tk the slab's columns, Tk[c] = (x*c for x in the slab),
    (x*y)*z = T[Tk[y]][x, z] and x*(y*z) = Tk[T[y]][z, x], so one y costs
    two gathers of w x n entries; the triple is associative exactly where
    their difference is 0.
    """
    Tk = np.ascontiguousarray(T[x0:x1].T)
    nonassoc = 0
    for y in range(len(T)):
        # an in-place difference keeps two temporaries per y; a third (a
        # compare result) makes malloc trim the heap and fault it back in
        # on every y
        left = T[Tk[y]]
        left -= Tk[T[y]].T
        nonassoc += np.count_nonzero(left)
    return (x1 - x0) * len(T) ** 2 - int(nonassoc)


def count_associative_naive(t: OpTable) -> AssocCount:
    """Count triples with (x*y)*z == x*(y*z) by full enumeration.

    The rows x are cut into k contiguous slabs, one thread each, the
    calling thread working the first: k is the number of usable CPUs, cut
    down so that every slab holds at least _SLAB_MIN_CELLS table cells
    (a thread costs more than it saves below that). numpy releases the GIL
    in the gathers and the count, so the slabs run in parallel, and their
    temporaries together are the size of two tables whatever k is. The
    count is the sum of the slabs' counts (_count_slab).
    """
    T = t.entries
    if t.n <= np.iinfo(np.int16).max:
        T = T.astype(np.int16)  # halves the memory traffic of both gathers
    k = max(1, min(_usable_cpus(), t.n * t.n // _SLAB_MIN_CELLS))
    edges = [t.n * i // k for i in range(k + 1)]
    with ThreadPoolExecutor(max_workers=max(k - 1, 1)) as pool:  # no thread until a submit
        rest = [pool.submit(_count_slab, T, edges[i], edges[i + 1]) for i in range(1, k)]
        total = _count_slab(T, edges[0], edges[1])
        total += sum(done.result() for done in rest)  # re-raises a slab's exception here
    return AssocCount(total=total)


def count_associative(t: OpTable) -> AssocCount:
    """Exact count of associative triples, through direct factors where t has them.

    For each divisor m of n, smallest first, the candidate factors are read
    off t: with pairs encoded i1*m + i2, t1 = T[::m, ::m] // m and
    t2 = T[:m, :m] % m. If t is exactly their product (is_product_of, a
    complete O(n^2) check for any table), the count is the product of
    theirs. A table with no split whose order is an odd prime power q gets
    the orbit count of the slopes a = t(0, 1) and b = t(0, eta)/eta once
    construct.is_two_slope_table (complete, O(e*q^2)) finds it exactly
    their operation; the total alone is returned, as the naive count
    returns it. Any other table is counted naively.
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
        t1 = OpTable(n=t.n // m, entries=T[::m, ::m] // m)
        t2 = OpTable(n=m, entries=T[:m, :m] % m)
        if is_product_of(t, t1, t2):
            return AssocCount(total=count_associative(t1).total * count_associative(t2).total)
    primes = factor(t.n)  # [] for n = 1
    if len(set(primes)) == 1 and primes[0] > 2:
        from .construct import count_associative_orbit, is_two_slope_table  # construct imports this module
        field = cached_field(primes[0], len(primes))
        eta = field.non_square  # row 0 is c: c(1) = a and c(eta) = b*eta
        a, b = int(T[0, 1]), field.mul(int(T[0, eta]), field.inv(eta))
        if is_two_slope_table(field, t, a, b):
            return AssocCount(total=count_associative_orbit(field, a, b).total)
    return count_associative_naive(t)


def direct_product(t1: OpTable, t2: OpTable, cap: int = DEFAULT_TABLE_CAP) -> OpTable:
    """Componentwise product table on pairs, encoded as i1*n2 + i2."""
    if not is_latin(t1) or not is_latin(t2):
        raise ValueError("direct product requires two Latin squares")
    n1, n2 = t1.n, t2.n
    n = n1 * n2
    if n > cap:
        raise ValueError(f"product order {n} exceeds cap {cap}")
    a = t1.entries.astype(np.int64)
    b = t2.entries.astype(np.int64)
    prod = (a[:, None, :, None] * n2 + b[None, :, None, :]).reshape(n, n)
    idem = True if (t1.idempotent and t2.idempotent) else None
    return OpTable(n=n, entries=prod.astype(np.int32), latin=True, idempotent=idem)


def is_product_of(t: OpTable, t1: OpTable, t2: OpTable) -> bool:
    """Is t exactly the direct product of t1 and t2, pairs encoded i1*n2 + i2?

    Read as an (n1, n2, n1, n2) array indexed by (i1, i2, j1, j2), every
    entry must split by divmod(., n2) into (t1[i1, j1], t2[i2, j2]). OpTable
    keeps t2's entries in [0, n2), so that is one exact comparison with
    t1[i1, j1]*n2 + t2[i2, j2], below n and so inside int32. O(n^2), for
    any tables, Latin or not.
    """
    n1, n2 = t1.n, t2.n
    if t.n != n1 * n2:
        return False
    e = t.entries.reshape(n1, n2, n1, n2)
    return bool(np.array_equal(e, t1.entries[:, None, :, None] * n2 + t2.entries[None, :, None, :]))


# ---------------------------------------------------------------------------
# File formats. Text: first line n, then n rows of n space-separated entries.
# JSON: {"n": n, "rows": [[...], ...]}. Both round-trip bit-exactly. One
# writer, _table_blocks, gives a file's bytes as its header and then blocks
# of whole rows of about _BLOCK_CELLS cells each: save_table writes them in
# binary mode one at a time and never holds the whole file. The exact bytes
# dump_json writes are read in one numpy pass and kept only if writing the
# table back gives those bytes again, compared block by block; any other
# input, and every text file, goes through the strict parser, which alone
# decides what else is accepted and with which message it is refused.

# table cells per block: a block's index, gathered tokens and bytes take
# about 20 bytes a cell, so the writer holds about 1 MB whatever n is
_BLOCK_CELLS = 1 << 16

# per format: the header (of n), the separator before every value but a
# row's first, the end of every row but the last, and the end of the last
_LAYOUT = {
    "json": ('{"n":%d,"rows":[[', ",", "],[", "]]}\n"),
    "text": ("%d\n", " ", "\n", "\n"),
}


def _table_blocks(t: OpTable, fmt: str) -> Iterator[bytes]:
    """The bytes of t in format fmt: the header, then blocks of whole rows.

    No Python list of entries: each value v has two fixed-width byte
    tokens, str(v) for column 0 and sep + str(v) for the others. A block
    gathers its rows' tokens into a (rows, n + 1) array whose last column
    ends each row, and drops the tokens' NUL padding from the array's bytes.
    """
    head, sep, row_end, last_end = _LAYOUT[fmt]
    n = t.n
    yield (head % n).encode("ascii")
    tokens = np.array([str(v) for v in range(n)] + [sep + str(v) for v in range(n)]
                      + [row_end, last_end], dtype=bytes)
    step = max(1, _BLOCK_CELLS // n)
    idx = np.empty((min(step, n), n + 1), dtype=np.intp)
    idx[:, n] = 2 * n
    for r0 in range(0, n, step):
        rows = t.entries[r0:r0 + step]
        block = idx[:len(rows)]
        block[:, 0] = rows[:, 0]
        np.add(rows[:, 1:], n, out=block[:, 1:n])
        if r0 + step >= n:
            block[-1, n] = 2 * n + 1
        yield tokens[block].tobytes().translate(None, b"\0")


def dump_text(t: OpTable) -> str:
    return b"".join(_table_blocks(t, "text")).decode("ascii")


def _check_order(n: int, cap: int | None) -> None:
    if n < 1:
        raise ValueError(f"table order must be at least 1, got {n}")
    if cap is not None and n > cap:
        raise ValueError(f"table order {n} exceeds table cap {cap}")


def _decimals(line: str) -> list[int]:
    """The numbers of one line. Only ASCII decimal numerals are read, as
    dump_text writes them: int() alone would also take signs, underscores
    and non-ASCII digits."""
    tokens = line.split()
    joined = "".join(tokens)
    if not (joined.isascii() and joined.isdigit()):
        raise ValueError("table text must hold ASCII decimal integers only")
    return [int(v) for v in tokens]


def parse_text(s: str, cap: int | None = None) -> OpTable:
    lines = [ln for ln in s.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty table file")
    header = _decimals(lines[0])
    if len(header) != 1:
        raise ValueError("the first line must hold the order n alone")
    n = header[0]
    _check_order(n, cap)
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = _decimals(ln)
        if len(row) != n:
            raise ValueError(f"row of length {len(row)}, expected {n}")
        rows.append(row)
    return make_table(rows)


def dump_json(t: OpTable) -> str:
    """The text of json.dumps({"n": n, "rows": rows}, sort_keys=True,
    separators=(",", ":")) + "\n", written without it."""
    return b"".join(_table_blocks(t, "json")).decode("ascii")


def _read_canonical(s: str, cap: int | None) -> OpTable | None:
    """The table dump_json turns into exactly s, else None; the cap is
    checked on the header alone. fromstring takes 00, -0, +0 and stray
    spaces and wraps values past int32, so the byte-for-byte comparison
    with the writer's blocks decides: each block must be the next slice of
    s, the first that is not ends the check, and the blocks must end where
    s does."""
    if (m := re.match(r'\{"n":([1-9][0-9]*),"rows":\[\[', s)) is None:
        return None
    n = int(m[1])
    _check_order(n, cap)
    # dropping every bracket turns each "],[" into ","; what else it
    # joins, the comparison below refuses
    body = s[m.end():-len("]]}\n")].translate(str.maketrans("", "", "[]"))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # older numpy only warns where it stops early
            values = np.fromstring(body, dtype=np.int32, sep=",")
        t = OpTable(n=n, entries=values.reshape(n, n))  # ValueError unless n*n values in [0, n)
    except (ValueError, Warning):
        return None
    at = 0
    for block in _table_blocks(t, "json"):
        if not s.startswith(block.decode("ascii"), at):
            return None
        at += len(block)
    return t if at == len(s) else None


def parse_json(s: str, cap: int | None = None) -> OpTable:
    """Parse {"n": n, "rows": [[...], ...]}; n and every entry must be JSON integers."""
    if (t := _read_canonical(s, cap)) is not None:
        return t
    try:
        doc = json.loads(s)
    except RecursionError:  # json's decoder recurses once per nesting level
        raise ValueError("table JSON is nested too deeply") from None
    if not isinstance(doc, dict) or "n" not in doc or "rows" not in doc:
        raise ValueError("expected an object with keys n and rows")
    n = doc["n"]
    rows = doc["rows"]
    # type() is int, not isinstance: numpy would coerce bools, floats and
    # numeric strings without a word
    if type(n) is not int:
        raise ValueError(f"n must be an integer, found {type(n).__name__}")
    _check_order(n, cap)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("rows must be a list of lists")
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, found {len(rows)}")
    if any(set(map(type, row)) - {int} for row in rows):
        raise ValueError("table entries must be integers")
    return make_table(rows)


def save_table(t: OpTable, path, fmt: str | None = None) -> None:
    """Write t to path: JSON for fmt "json" or a name ending in .json, else text.

    A regular file at the path itself that may be written is unlinked
    first, and the table goes to a new file: ext4 writes a file truncated
    on open back to disk when it is closed, which made a rewrite about 100x
    slower than a first write. Anything else there (a symlink, a device
    such as /dev/null, a FIFO, a directory) or nothing at all is left to
    open as before, which truncates what it may write and refuses the rest
    in one line.
    """
    path = str(path)
    fmt = "json" if fmt == "json" or (fmt is None and path.endswith(".json")) else "text"
    with contextlib.suppress(OSError):  # open reports what is wrong with the path
        if stat.S_ISREG(os.lstat(path).st_mode) and os.access(path, os.W_OK):
            os.unlink(path)
    with open(path, "wb") as fh:
        fh.writelines(_table_blocks(t, fmt))


def load_table(path, cap: int | None = None) -> OpTable:
    """Read a text or JSON table file; ValueError for one of order above cap."""
    with open(str(path)) as fh:
        s = fh.read()
    # JSON when "{" is the first character after an optional BOM and
    # whitespace; a match reads that prefix without copying s. A BOM then
    # reaches json.loads, whose error names it.
    return parse_json(s, cap) if re.match(r"\ufeff?\s*\{", s) else parse_text(s, cap)
