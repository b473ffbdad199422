"""Shared fixtures and deliberately naive reference implementations.

The oracles here pin the fast paths: a cubic pure-Python associativity
count with no vectorization or shortcuts, and Latin squares produced by
relabeling the cyclic-group table, which exercise the generic code with
inputs the package itself never generates.
"""

from __future__ import annotations

import numpy as np
import pytest

import mnq.quasigroup
from mnq.fields import cached_field
from mnq.quasigroup import OpTable


def triple_count_oracle(rows) -> int:
    """Number of triples (x, y, z) with x*(y*z) == (x*y)*z, counted plainly."""
    n = len(rows)
    total = 0
    for x in range(n):
        for y in range(n):
            xy = rows[x][y]
            for z in range(n):
                if rows[x][rows[y][z]] == rows[xy][z]:
                    total += 1
    return total


def cyclic(n: int) -> OpTable:
    """Addition table of Z/n: Latin and fully associative."""
    return OpTable((np.arange(n)[:, None] + np.arange(n)[None, :]) % n)


def swap_01(t: OpTable) -> OpTable:
    """An isomorphic copy of t with elements 0 and 1 exchanged: as Latin,
    as idempotent and as associative as t, but a different table."""
    sigma = np.arange(t.n)
    sigma[[0, 1]] = [1, 0]
    return OpTable(sigma[t.entries[np.ix_(sigma, sigma)]])


def random_latin(rng: np.random.Generator, n: int) -> OpTable:
    """Latin square: cyclic addition table with rows/columns/symbols renamed."""
    base = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    r, c, s = rng.permutation(n), rng.permutation(n), rng.permutation(n)
    return OpTable(s[base[np.ix_(r, c)]])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)


@pytest.fixture(scope="session")
def gf13():
    return cached_field(13)


@pytest.fixture(scope="session")
def gf9():
    return cached_field(3, 2)


@pytest.fixture(scope="session")
def gf27():
    return cached_field(3, 3)


@pytest.fixture
def force_slabs(monkeypatch):
    """force_slabs(k) makes count_associative_naive cut every table of order
    n >= k into exactly k slabs, whatever the CPUs and the table size, and
    returns the list that collects the rows (x0, x1) of every slab counted."""
    worked = []
    count_slab = mnq.quasigroup._count_slab

    def spy(T, x0, x1):
        worked.append((x0, x1))
        return count_slab(T, x0, x1)

    def force(k: int) -> list:
        monkeypatch.setattr(mnq.quasigroup, "_usable_cpus", lambda: k)
        monkeypatch.setattr(mnq.quasigroup, "_SLAB_MIN_CELLS", 1)
        monkeypatch.setattr(mnq.quasigroup, "_count_slab", spy)
        return worked

    return force
