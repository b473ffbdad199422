"""Character sums over GF(q) and the square-root guarantee for witnesses.

The number of a passing all eight character conditions is, up to boundary
terms, the field average of prod(1 + eps_i*chi(f_i(a)))/2^8. Expanding the
product expresses that census through the 255 subset character sums, each
bounded by (deg - 1)*sqrt(q); collecting the degrees gives a single
constant (1537 for both residue classes), so the census is at least
(q - 1537*sqrt(q))/2^8 and outgrows the 14 possible polynomial roots once
q clears an explicit threshold. Everything here is exact: the scaled sum
2^8*S is an integer, the expansion identity is checked as integers, and
the threshold predicate compares squared integers.

The sums are taken over the whole field at once: construct.chi_matrix holds
chi(f_i(x)) for every condition polynomial f_i and every x, and the census,
the subset sums and weil_spot_check are sums of products of its rows;
char_sum reads one polynomial's values block by block (Field.eval_blocks).
The matrix lives in construct, beside the condition sets, because the
theorem search reads its hits from the same mask, conditions_hold, whose
count is the census's actual_count.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import sqrt

import numpy as np

from .fields import CharacteristicError, Field, InternalCheckError
# DENSE_MAX is re-exported: the census refuses fields above it
from .construct import DENSE_MAX, ConditionSet, chi_matrix, conditions_hold, theorem_conditions
from .intpoly import exceptional_primes


def char_sum(field: Field, coeffs) -> int:
    """Sum of the quadratic character of f(x) over the whole field."""
    if field.p == 2:
        raise CharacteristicError("character sums need an odd field")
    if not any(c % field.p for c in coeffs):
        raise ValueError("polynomial vanishes identically mod p")
    chi = field.parity_table  # refuses q above DENSE_MAX before eval_blocks
    return sum(int(chi[v[0]].sum()) for _, v in field.eval_blocks([coeffs]))


@dataclass
class WeilReport:
    """Census of condition-satisfying elements with its proven floor.

    s_scaled is the exact integer 2^n * S; s = S as a Fraction. The floor
    (q - c*sqrt(q))/2^n with c the collected subset-degree constant is kept
    as a float for display; guaranteed_count = max(0, ceil(S - degree_sum))
    is the exact consequence used anywhere it matters.
    """
    q: int
    residue: int
    s_scaled: int
    s: Fraction
    weil_floor: float
    guaranteed_count: int
    actual_count: int
    subset_sums: dict[int, int] | None = None


def _subset_sums(rows: np.ndarray) -> list[int]:
    """sums[m] = sum over x of the product of rows[i] for the bits i of m.

    Depth first over the mask bits, so at most len(rows) + 1 product rows
    are live at once.
    """
    n = len(rows)
    sums = [0] * (1 << n)

    def walk(mask: int, prod: np.ndarray | None, start: int) -> None:
        for j in range(start, n):
            m = mask | 1 << j
            row = rows[j] if prod is None else prod * rows[j]
            sums[m] = int(row.sum())
            walk(m, row, j + 1)

    walk(0, None, 0)
    return sums


def census_report(field: Field, with_subsets: bool = False) -> WeilReport:
    """Exact scaled census, floor and actual count from the character matrix
    of the field's own condition set, theorem_conditions(q % 4).

    With with_subsets=True also computes all 255 subset character sums and
    checks the product-expansion identity
    2^n*S - q = sum over subsets of sign(I) * charsum(prod_{i in I} f_i)
    as exact integers.
    """
    if field.p == 2:
        raise CharacteristicError("census needs an odd field")
    cs = theorem_conditions(field.q % 4)
    n = len(cs.polys)
    masks = 1 << n
    signs = cs.signs
    chi = chi_matrix(field, cs)
    term = np.ones(field.q, dtype=np.int16)  # 0 <= term <= 2**8: eight factors in {0, 1, 2}
    for eps, row in zip(signs, chi):
        term *= 1 + eps * row
    s_scaled = int(term.sum())
    actual = int(np.count_nonzero(conditions_hold(chi, cs)))
    subset_sums = None
    if with_subsets:
        subset_sums = _subset_sums(chi)
        expansion = 0
        for m in range(1, masks):
            sign = 1
            for i in range(n):
                if m >> i & 1:
                    sign *= signs[i]
            expansion += sign * subset_sums[m]
        if s_scaled - field.q != expansion:
            raise InternalCheckError(
                f"census expansion identity failed for q={field.q}: "
                f"{s_scaled} - {field.q} != {expansion}"
            )
    c = weil_constant(cs)
    s = Fraction(s_scaled, masks)
    guaranteed = max(0, -((cs.degree_sum * masks - s_scaled) // masks))
    return WeilReport(
        q=field.q,
        residue=cs.residue,
        s_scaled=s_scaled,
        s=s,
        weil_floor=(field.q - c * sqrt(field.q)) / masks,
        guaranteed_count=guaranteed,
        actual_count=actual,
        subset_sums={m: v for m, v in enumerate(subset_sums) if m} if subset_sums else None,
    )


@lru_cache(maxsize=None)
def weil_constant(cs: ConditionSet) -> int:
    """Sum of (deg of subset product - 1) over all nonempty subsets."""
    degs = cs.degrees
    n = len(degs)
    total = 0
    for m in range(1, 1 << n):
        total += sum(degs[i] for i in range(n) if m >> i & 1) - 1
    return total


def min_order_with_margin(constant: int, floor_target: int, scale: int) -> int:
    """Smallest integer q with (q - constant*sqrt(q))/scale > floor_target.

    Binary search with an exact predicate: q - R > 0 and (q - R)^2 > c^2*q
    where R = floor_target*scale. The left side is negative up to q = c^2,
    then strictly increasing, so the predicate is monotone.
    """
    r = floor_target * scale
    c = constant

    def ok(q: int) -> bool:
        d = q - r
        return d > 0 and d * d > c * c * q

    hi = 4
    while not ok(hi):
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def threshold(cs: ConditionSet) -> int:
    """Smallest q whose census floor exceeds the possible root count."""
    return min_order_with_margin(weil_constant(cs), cs.degree_sum, 1 << len(cs.polys))


@lru_cache(maxsize=None)
def _exceptional(cs: ConditionSet) -> frozenset[int]:
    return frozenset(exceptional_primes(cs))


def weil_spot_check(field: Field, cs: ConditionSet, indices) -> bool:
    """Exact |charsum|^2 <= (deg-1)^2*q for one subset of the family.

    Refuses fields whose characteristic divides one of the subset product
    discriminants (the inequality is not guaranteed there).
    """
    if field.p in _exceptional(cs):
        raise ValueError(f"characteristic {field.p} is exceptional for this family")
    idx = sorted(set(indices))
    if not idx or idx[0] < 1 or idx[-1] > len(cs.polys):
        raise ValueError(f"subset indices must be within 1..{len(cs.polys)}")
    rows = [i - 1 for i in idx]
    deg = sum(cs.degrees[i] for i in rows)
    total = int(np.prod(chi_matrix(field, cs)[rows], axis=0).sum())
    return total * total <= (deg - 1) ** 2 * field.q
