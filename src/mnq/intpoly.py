"""Exact integer polynomial machinery: resultants, discriminants, factoring.

Polynomials are sequences of arbitrary-precision integer coefficients,
lowest degree first, so (c0, c1, c2) means c0 + c1*x + c2*x**2. All results
are exact; nothing here ever touches floating point.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

Coeffs = Sequence[int]

TRIAL_DIVISION_BOUND = 10**6
RHO_STEPS = 1 << 23  # map evaluations one _pollard_rho call may make, over all c


def normalize(f: Coeffs) -> tuple[int, ...]:
    """Drop trailing zero coefficients; the zero polynomial becomes ()."""
    f = tuple(map(int, f))
    d = len(f)
    while d and f[d - 1] == 0:
        d -= 1
    return f[:d]


def degree(f: Coeffs) -> int:
    """Degree of f, with the zero polynomial at -1."""
    return len(normalize(f)) - 1


def poly_mul(f: Coeffs, g: Coeffs) -> tuple[int, ...]:
    nf, ng = normalize(f), normalize(g)
    if not nf or not ng:
        return ()
    out = [0] * (len(nf) + len(ng) - 1)
    for i, a in enumerate(nf):
        if a == 0:
            continue
        for j, b in enumerate(ng):
            out[i + j] += a * b
    return tuple(out)


def poly_add(f: Coeffs, g: Coeffs) -> tuple[int, ...]:
    nf, ng = normalize(f), normalize(g)
    if len(nf) < len(ng):
        nf, ng = ng, nf
    return normalize(tuple(a + b for a, b in zip(nf, ng)) + nf[len(ng):])


def poly_sub(f: Coeffs, g: Coeffs) -> tuple[int, ...]:
    return poly_add(f, tuple(-c for c in normalize(g)))


def poly_divexact(f: Coeffs, g: Coeffs) -> tuple[int, ...] | None:
    """f / g when g divides f in Z[x], else None; g must be nonzero."""
    r, ng = list(normalize(f)), normalize(g)
    if not ng:
        raise ZeroDivisionError("division by the zero polynomial")
    quot = [0] * max(len(r) - len(ng) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        c, rem = divmod(r[i + len(ng) - 1], ng[-1])
        if rem:
            return None
        quot[i] = c
        for j, b in enumerate(ng):
            r[i + j] -= c * b
    return None if any(r) else normalize(quot)


def poly_eval(f: Coeffs, x: int) -> int:
    acc = 0
    for c in reversed(normalize(f)):
        acc = acc * x + c
    return acc


def derivative(f: Coeffs) -> tuple[int, ...]:
    nf = normalize(f)
    return normalize(tuple(i * c for i, c in enumerate(nf))[1:])


def _det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    a = [row[:] for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss update: division by the previous pivot is exact
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[-1][-1]


def resultant(f: Coeffs, g: Coeffs) -> int:
    """Resultant of f and g via the Sylvester matrix, exact integers."""
    nf, ng = normalize(f), normalize(g)
    if not nf or not ng:
        raise ValueError("resultant of the zero polynomial is undefined")
    m, n = len(nf) - 1, len(ng) - 1
    if m == 0:
        return nf[0] ** n
    if n == 0:
        return ng[0] ** m
    size = m + n
    rows = []
    fh = list(reversed(nf))  # highest degree first
    gh = list(reversed(ng))
    for i in range(n):
        rows.append([0] * i + fh + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gh + [0] * (size - n - 1 - i))
    return _det_bareiss(rows)


def discriminant(f: Coeffs) -> int:
    """disc(f) = (-1)^(d(d-1)/2) * Res(f, f') / lc(f), exact."""
    nf = normalize(f)
    d = len(nf) - 1
    if d < 1:
        raise ValueError("discriminant requires degree >= 1")
    r = resultant(nf, derivative(nf))
    lc = nf[-1]
    if r % lc != 0:
        raise ArithmeticError("resultant not divisible by leading coefficient")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * (r // lc)


# ---------------------------------------------------------------------------
# Integer factorization: one numpy remainder pass over a kept table of the
# primes up to L = min(isqrt(n), 10**6) finds every small prime factor; a
# cofactor below (L+1)**2 is then prime, and only a larger one goes to
# deterministic Miller-Rabin and Pollard rho.

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with a fixed base set, deterministic below ~3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, whole: int) -> int:
    """A nontrivial factor of an odd composite n, itself a factor of whole:
    Brent's variant of Pollard rho on y -> y*y + c mod n for c = 1, 2, ...,
    one gcd per batch of 128 differences.

    RHO_STEPS bounds the work of one call over every c together. Each round
    of r is charged 2*r evaluations of the map before it starts, and a batch
    whose gcd takes all of n is replayed once, so a call makes at most
    RHO_STEPS evaluations plus one batch per c, whatever n is: on a 150-bit
    n that is about 4 s on one core of a 2 vCPU host (Python 3.11). That is
    what the bound guarantees; a split is not guaranteed. A prime factor p
    is found once y mod p has closed its cycle, after O(sqrt(p)) steps on
    average, and the bound completes every round of c = 1 up to
    r = RHO_STEPS / 4: a product of two primes near 2**40 splits well
    inside it, while an n whose least prime factor is far larger, such as
    (2**61 - 1)*(2**89 - 1), exhausts it. Then a ValueError names n, and
    whole too when that is another number.
    """
    of = "" if whole == n else f", a factor of {whole},"
    steps = 0
    for c in itertools.count(1):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > RHO_STEPS:
                raise ValueError(f"Pollard rho found no factor of {n}{of} within {RHO_STEPS} steps")
            steps += 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = math.gcd(acc, n)
                if g != 1:
                    break
            r *= 2
        if g == n:  # the batch's gcd took all of n: replay it a step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


# (limit, primes): every prime <= limit, ascending, as int64. One tuple, so
# a thread that reads it never pairs a new limit with an old table.
_sieved: tuple[int, np.ndarray] = (1, np.zeros(0, dtype=np.int64))


def _primes_upto(L: int) -> np.ndarray:
    """The primes <= L, L <= TRIAL_DIVISION_BOUND, from the kept table.

    The table is sieved again only when L passes its limit, and then to at
    least twice that limit (capped at the bound), so a run of growing n
    sieves O(log bound) times.
    """
    global _sieved
    limit, primes = _sieved
    if L > limit:
        limit = min(max(L, 2 * limit), TRIAL_DIVISION_BOUND)
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        primes = np.flatnonzero(sieve).astype(np.int64)
        _sieved = (limit, primes)
    return primes[:primes.searchsorted(L, "right")]


def factor(n: int) -> list[int]:
    """Prime factors of |n| with multiplicity, ascending. Rejects 0.

    With L = min(isqrt(|n|), TRIAL_DIVISION_BOUND), one vectorised |n| mod P
    over the primes P <= L finds every small prime factor, and only those
    are divided out. The remainder is taken in 32-bit limbs of |n|, most
    significant first, by Horner's rule r <- (r * 2**32 + limb) mod P: r
    stays below 2**20, so every step fits in int64 whatever the size of n.
    A cofactor m > 1 has no prime factor <= L, so m < (L+1)**2 is prime;
    only a larger one (possible when |n| > TRIAL_DIVISION_BOUND**2) goes to
    is_prime and Pollard rho, whose step bound makes a cofactor it cannot
    split a ValueError naming it and |n|, not an endless run.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    whole = n = abs(n)
    L = min(math.isqrt(n), TRIAL_DIVISION_BOUND)
    primes = _primes_upto(L)
    top = 32 * ((n.bit_length() - 1) // 32)
    r = np.int64(n >> top) % primes
    for shift in range(top - 32, -1, -32):
        r = (r * np.int64(1 << 32) + np.int64(n >> shift & 0xFFFFFFFF)) % primes
    out: list[int] = []
    for p in primes[np.logical_not(r)].tolist():  # the primes with r == 0
        while n % p == 0:
            out.append(p)
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < (L + 1) ** 2 or is_prime(m):
            out.append(m)
            continue
        d = _pollard_rho(m, whole)
        stack.extend((d, m // d))
    out.sort()
    return out


def prime_support(n: int) -> set[int]:
    """Distinct prime divisors of |n|; empty for n = +-1."""
    if n in (1, -1):
        return set()
    return set(factor(n))


# ---------------------------------------------------------------------------
# Discriminant survey over subsets of a fixed polynomial family.

@dataclass(frozen=True)
class DiscriminantReport:
    """Discriminant of the product over one even-degree subset.

    mask is the subset as a bitmask over the family, bit i for the (i+1)-th
    polynomial.
    """
    mask: int
    degree: int
    discriminant: int
    odd_prime_factors: tuple[int, ...]


def _family_polys(family) -> list[tuple[int, ...]]:
    polys = getattr(family, "polys", family)
    return [normalize(f) for f in polys]


def _even_degree_subsets(degs: Sequence[int]) -> Iterable[int]:
    n = len(degs)
    for mask in range(1, 1 << n):
        total = sum(degs[i] for i in range(n) if mask >> i & 1)
        if total % 2 == 0:
            yield mask


def discriminant_reports(family) -> list[DiscriminantReport]:
    """One report per nonempty even-degree subset of the family."""
    polys = _family_polys(family)
    degs = [len(f) - 1 for f in polys]
    out = []
    for mask in _even_degree_subsets(degs):
        prod: tuple[int, ...] = (1,)
        for i, f in enumerate(polys):
            if mask >> i & 1:
                prod = poly_mul(prod, f)
        disc = discriminant(prod)
        if disc == 0:
            raise ArithmeticError(f"subset {mask:#x} has a repeated root; must not occur")
        odd = tuple(sorted(p for p in prime_support(disc) if p % 2))
        out.append(DiscriminantReport(mask, len(prod) - 1, disc, odd))
    return out


def exceptional_primes(family) -> set[int]:
    """Primes dividing the discriminant of some even-degree subset product.

    Only even-degree subsets count, as the Weil bound's hypothesis is on
    their products' character sums. The discriminant of a product is the
    product of its members' discriminants times their squared pairwise
    resultants, so this factors just those pieces (of the 8 discriminants
    and 28 resultants of a condition set) that some even-degree subset
    contains. The reference route factors each discriminant of
    discriminant_reports outright; both must give the same set, and the
    tests and disc --direct hold them to that.
    """
    polys = _family_polys(family)
    degs = [len(f) - 1 for f in polys]
    masks = list(_even_degree_subsets(degs))  # a piece counts if one of them holds it
    primes: set[int] = set()
    for i, f in enumerate(polys):
        if degs[i] >= 2 and any(m >> i & 1 for m in masks):  # a linear f has discriminant 1
            d = discriminant(f)
            if d == 0:
                raise ArithmeticError(f"family member {i + 1} is not squarefree")
            primes |= prime_support(d)
        for j in range(i + 1, len(polys)):
            if not any(m >> i & m >> j & 1 for m in masks):
                continue
            r = resultant(f, polys[j])
            if r == 0:
                raise ArithmeticError(f"family members share a root ({f}, {polys[j]})")
            primes |= prime_support(r)
    return primes
