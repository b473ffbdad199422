"""Dense operation tables and exact associative-triple counting.

A table of order n stores entries[x][y] = x*y as integers in [0, n). The
naive counter enumerates all n^3 triples with the middle element y outside:
for fixed y both products are row gathers of the table indexed by a row,
so the inner two loops collapse to two gathers and one difference per y,
which keeps exhaustive certification usable into the thousands. The rows x
are split into one contiguous slab per usable CPU, each counted by its own
thread; tables too small to pay for a thread stay on the calling one.

Which command certifies how: `verify FILE` runs the naive count, since a
bare file has no structure to lean on. A direct product needs no recount:
its triples are associative exactly when both components are, so
a(T1 x T2) = a(T1) * a(T2), and is_product_of checks in O(n^2) that a
table is exactly that product. `exists --build` multiplies O(q) orbit
certificates of its blocks this way, `product --certify` naive counts of
its two factors.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

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
    aborted: bool = False


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


def _count_slab(T: np.ndarray, x0: int, x1: int, out: np.ndarray) -> None:
    """out[y] = associative triples (x, y, z) with x0 <= x < x1, for each y.

    With Tk the slab's columns, Tk[c] = (x*c for x in the slab),
    (x*y)*z = T[Tk[y]][x, z] and x*(y*z) = Tk[T[y]][z, x], so one y costs
    two gathers of w x n entries; the triple is associative exactly where
    their difference is 0.
    """
    Tk = np.ascontiguousarray(T[x0:x1].T)
    cells = (x1 - x0) * len(T)
    for y in range(len(T)):
        # an in-place difference keeps two temporaries per y; a third (a
        # compare result) makes malloc trim the heap and fault it back in
        # on every y
        left = T[Tk[y]]
        left -= Tk[T[y]].T
        out[y] = cells - np.count_nonzero(left)


def count_associative_naive(t: OpTable, abort_above: int | None = None) -> AssocCount:
    """Count triples with (x*y)*z == x*(y*z) by full enumeration.

    The rows x are cut into k contiguous slabs, one thread each, the
    calling thread working the first: k is the number of usable CPUs, cut
    down so that every slab holds at least _SLAB_MIN_CELLS table cells
    (a thread costs more than it saves below that). numpy releases the GIL
    in the gathers and the count, so the slabs run in parallel, and their
    temporaries together are the size of two tables whatever k is. Each
    slab counts per middle element y (_count_slab), and the sum over the
    slabs is the count of each y.

    If abort_above is given and the running count over y = 0, 1, ... exceeds
    it, returns aborted=True with the running count after the first y that
    passes it. The check comes after the full pass, so it saves no time; a
    non-aborted result is always the exact total.
    """
    T = t.entries
    if t.n <= np.iinfo(np.int16).max:
        T = T.astype(np.int16)  # halves the memory traffic of both gathers
    k = max(1, min(_usable_cpus(), t.n * t.n // _SLAB_MIN_CELLS))
    edges = [t.n * i // k for i in range(k + 1)]
    per_slab = np.zeros((k, t.n), dtype=np.int64)
    with ThreadPoolExecutor(max_workers=max(k - 1, 1)) as pool:  # no thread until a submit
        rest = [pool.submit(_count_slab, T, edges[i], edges[i + 1], per_slab[i]) for i in range(1, k)]
        _count_slab(T, edges[0], edges[1], per_slab[0])
        for done in rest:
            done.result()  # re-raises a slab's exception here
    per_y = per_slab.sum(axis=0)
    total = int(per_y.sum())
    if abort_above is not None and total > abort_above:
        running = np.cumsum(per_y)
        return AssocCount(total=int(running[np.argmax(running > abort_above)]), aborted=True)
    return AssocCount(total=total)


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

    Decodes t instead of rebuilding the product: read as an
    (n1, n2, n1, n2) array indexed by (i1, i2, j1, j2), every entry must
    split by divmod(., n2) into (t1[i1, j1], t2[i2, j2]). O(n^2), for any
    tables, Latin or not.
    """
    n1, n2 = t1.n, t2.n
    if t.n != n1 * n2:
        return False
    e = t.entries.reshape(n1, n2, n1, n2)
    return bool((e // n2 == t1.entries[:, None, :, None]).all()
                and (e % n2 == t2.entries[None, :, None, :]).all())


# ---------------------------------------------------------------------------
# File formats. Text: first line n, then n rows of n space-separated entries.
# JSON: {"n": n, "rows": [[...], ...]}. Both round-trip bit-exactly.

def dump_text(t: OpTable) -> str:
    lines = [str(t.n)]
    lines.extend(" ".join(map(str, row)) for row in t.entries.tolist())
    return "\n".join(lines) + "\n"


def _check_order(n: int, cap: int | None) -> None:
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
    doc = {"n": t.n, "rows": t.entries.tolist()}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def parse_json(s: str, cap: int | None = None) -> OpTable:
    """Parse {"n": n, "rows": [[...], ...]}; n and every entry must be JSON integers."""
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
    path = str(path)
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "text"
    text = dump_json(t) if fmt == "json" else dump_text(t)
    with open(path, "w") as fh:
        fh.write(text)


def load_table(path, cap: int | None = None) -> OpTable:
    """Read a text or JSON table file; ValueError for one of order above cap."""
    with open(str(path)) as fh:
        s = fh.read()
    return parse_json(s, cap) if s.lstrip().startswith("{") else parse_text(s, cap)
