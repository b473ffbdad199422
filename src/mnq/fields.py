"""Exact arithmetic in GF(p^e) on a canonical integer encoding.

The element with coefficient vector (c0, ..., c_{e-1}) over GF(p) is encoded
as sum(c_i * p**i), an integer in [0, q). That encoding is the interchange
format for every table, cache file and CLI surface in this package. For
prime fields the encoding is just the residue itself. An encoding is also
the C-order index of the (p,)*e grid of digits, c0 on the last axis, so
np.arange(q).reshape((p,)*e) holds every element at its digits, and
adding v to every element rolls that grid by v's digits: that is how
construct builds every translation it gathers through.

Every operation has one code path for all e, prime fields included: scalar
and bulk arithmetic both work on the e base-p digits of an encoding, lowest
first, split and joined by decode/encode for ints and by _digit_arrays/
_from_digits for arrays; products are polynomial products reduced by the
modulus. The scalar side stays pure Python (add and sub digitwise, and one
core on coefficient tuples, _polymulmod, _powmod and _gcd, behind mul, pow
and the modulus search); the tests check the numpy bulk path against it.
Every array reduction mod p on the bulk side, the digit split included,
goes through one helper, _divmod_p: floor division by p and the remainder
a - (a // p)*p, which numpy computes faster than a % p or np.divmod.

The reduction modulus is deterministic: the monic irreducible of degree e
whose non-leading coefficient tuple has the smallest encoding. Likewise the
canonical non-square is the non-square element of smallest encoding, so two
contexts for the same (p, e) are always interchangeable.

A Field is built with its modulus only. The character table (parity_table)
and the canonical non-square are worked out on first use; the table exists
for odd q <= DENSE_MAX only, and just the one read last is kept, in one
module slot that holds the table together with its field. parity(u) reads
it up to PARITY_TABLE_MAX and, above that, while the slot holds this field
(as right after a whole-field scan); otherwise it takes Euler's criterion,
so it builds no table above PARITY_TABLE_MAX.
"""
from __future__ import annotations

import enum
import operator
from functools import cached_property, lru_cache

import numpy as np

from .intpoly import factor, is_prime, normalize

MAX_ORDER = 1 << 62          # refuse fields beyond the supported word size
PARITY_TABLE_MAX = 1 << 20   # parity() builds the character table up to this order
BULK_BLOCK = 1 << 12         # elements per block in whole-field passes (bounds temporaries)
DENSE_MAX = 1 << 24          # largest field order the whole-field arrays are built for


class CharacteristicError(ValueError):
    """A square/non-square distinction was requested in characteristic 2."""


class InternalCheckError(RuntimeError):
    """A must-not-happen condition fired; indicates a bug, not bad input."""


class Parity(enum.IntEnum):
    """Quadratic character value: 0 at zero, +1 on squares, -1 otherwise."""

    ZERO = 0
    SQUARE = 1
    NON_SQUARE = -1


class Field:
    """Immutable context for GF(p^e); all methods take and return encodings."""

    def __init__(self, p: int, e: int = 1):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p!r}")
        if not isinstance(e, int) or e < 1:
            raise ValueError(f"extension degree must be a positive integer, got {e!r}")
        q = p**e
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds the supported maximum {MAX_ORDER}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = self._find_modulus()

    # -- construction helpers ------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        """Monic irreducible of degree e with the smallest coefficient encoding."""
        p, e = self.p, self.e
        if e == 1:
            return (0, 1)
        for low_enc in range(p**e):
            cand = self.decode(low_enc) + (1,)
            if self._is_irreducible(cand):
                return cand
        raise InternalCheckError(f"no irreducible of degree {e} over GF({p})")

    def _is_irreducible(self, f: tuple[int, ...]) -> bool:
        """Monic f of degree e is irreducible iff x^(p^e) = x mod f and
        gcd(x^(p^(e/r)) - x, f) = 1 for every prime r dividing e."""
        p, e = self.p, self.e
        x = (0, 1)
        if self._powmod(x, p**e, f) != x:
            return False
        for r in set(factor(e)):
            t = [*self._powmod(x, p ** (e // r), f), 0]
            t[1] -= 1  # x^(p^(e/r)) - x
            if len(self._gcd(t, f)) > 1:
                return False
        return True

    def _powmod(self, a, k: int, f) -> tuple[int, ...]:
        """a**k reduced mod (f, p), coefficient tuples lowest first."""
        result = (1,)
        while k:
            if k & 1:
                result = self._polymulmod(result, a, f)
            a = self._polymulmod(a, a, f)
            k >>= 1
        return result

    def _polymulmod(self, a, b, f):
        p = self.p
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
        e = len(f) - 1
        for i in range(len(out) - 1, e - 1, -1):
            c = out[i]
            if c:
                out[i] = 0
                for j in range(e):
                    out[i - e + j] = (out[i - e + j] - c * f[j]) % p
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return tuple(out)

    def _gcd(self, a, b) -> tuple[int, ...]:
        """A gcd of a and b over GF(p) by Euclid, without trailing zeros."""
        p = self.p
        a, b = normalize([c % p for c in a]), normalize([c % p for c in b])
        while b:
            r = list(a)
            lead = pow(b[-1], p - 2, p)
            while len(r) >= len(b):
                c, shift = r[-1] * lead % p, len(r) - len(b)
                for j, bj in enumerate(b):
                    r[shift + j] = (r[shift + j] - c * bj) % p
                r = list(normalize(r))  # the leading coefficient cancelled
            a, b = b, tuple(r)
        return a

    def _build_parity_table(self) -> np.ndarray:
        q = self.q
        table = np.full(q, -1, dtype=np.int8)
        table[0] = 0
        for u in _blocks(1, q):
            table[self.bulk_mul(u, u)] = 1
        return table

    # -- encoding ------------------------------------------------------------

    def decode(self, u: int) -> tuple[int, ...]:
        """Coefficient vector (length e) of an encoding."""
        p = self.p
        out = []
        for _ in range(self.e):
            out.append(u % p)
            u //= p
        return tuple(out)

    def encode(self, coeffs) -> int:
        out = 0
        m = 1
        for c in coeffs:
            out += (c % self.p) * m
            m *= self.p
        return out

    @property
    def modulus_encoding(self) -> int:
        """Integer encoding of the modulus including its leading 1."""
        return self.encode(self.modulus)

    # -- arithmetic ----------------------------------------------------------

    def add(self, u: int, v: int) -> int:
        return self.encode(map(operator.add, self.decode(u), self.decode(v)))

    def sub(self, u: int, v: int) -> int:
        return self.encode(map(operator.sub, self.decode(u), self.decode(v)))

    def neg(self, u: int) -> int:
        return self.sub(0, u)

    def mul(self, u: int, v: int) -> int:
        return self.encode(self._polymulmod(self.decode(u), self.decode(v), self.modulus))

    def inv(self, u: int) -> int:
        if u == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(u, self.q - 2)

    def pow(self, u: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(u), -k)
        return self.encode(self._powmod(self.decode(u), k, self.modulus))

    # -- quadratic character ---------------------------------------------------

    @property
    def parity_table(self) -> np.ndarray:
        """int(chi(u)) for every encoding u, as int8, built on first use.

        Only the table read last is kept, in the slot _kept with its field,
        so at most DENSE_MAX bytes of tables are alive at once; larger
        fields are refused before any whole-field array exists.
        """
        if self.p == 2:
            raise CharacteristicError("no square/non-square split in characteristic 2")
        if self.q > DENSE_MAX:
            raise ValueError(
                f"q = {self.q} is above {DENSE_MAX}, the largest order whose character "
                "sums are computed over the whole field"
            )
        global _kept
        if _kept is None or _kept[0] != self:
            _kept = None  # the old table goes before the new one is built
            table = self._build_parity_table()
            table.flags.writeable = False
            _kept = (self, table)
        return _kept[1]

    @cached_property
    def non_square(self) -> int:
        """The canonical non-square: the one of smallest encoding.

        For even e every element of GF(p) is a square (GF(p^2) is a subfield
        and holds every root of x^2 - c, c in GF(p)), so the walk starts at
        p, the first encoding outside GF(p); for odd e it starts at 2.
        """
        u = self.p if self.e % 2 == 0 else 2  # 0 and 1 are never non-squares
        while self.parity(u) != Parity.NON_SQUARE:
            u += 1
        return u

    def parity(self, u: int) -> Parity:
        """Quadratic character of the encoding u: a table lookup up to
        PARITY_TABLE_MAX, and above it while the slot _kept holds this
        field's table; otherwise Euler's criterion, since building the table
        above PARITY_TABLE_MAX would cost far more than a few powers. u
        outside [0, q) is refused on both routes."""
        if not 0 <= u < self.q:
            raise ValueError(f"{u} is not an encoding of GF({self.q}), which lie in [0, {self.q})")
        if self.q <= PARITY_TABLE_MAX or (_kept is not None and _kept[0] == self):
            return Parity(int(self.parity_table[u]))
        return self.parity_by_pow(u)

    def parity_by_pow(self, u: int) -> Parity:
        """Quadratic character via u^((q-1)/2); the table-free route."""
        if self.p == 2:
            raise CharacteristicError("no square/non-square split in characteristic 2")
        if u == 0:
            return Parity.ZERO
        r = self.pow(u, (self.q - 1) // 2)
        if r == 1:
            return Parity.SQUARE
        if r == self.neg(1):
            return Parity.NON_SQUARE
        raise InternalCheckError(f"u^((q-1)/2) landed outside {{1,-1}} for u={u}")

    # -- integer polynomial evaluation -----------------------------------------

    def eval_poly(self, coeffs, u: int) -> int:
        """Evaluate an integer-coefficient polynomial at u, coefficients mod p."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, u), c % self.p)
        return acc

    def eval_blocks(self, polys):
        """Every polynomial of polys at every encoding, one block at a time.

        Yields (s, v) for consecutive blocks of BULK_BLOCK encodings,
        ascending: s is the block's slice of [0, q) and v[i, j] is
        eval_poly(polys[i], s.start + j). The powers x, ..., x^d (d the
        largest degree) cost d - 1 bulk products per block; _digit_arrays
        splits each once, so a block's d*e digit arrays are live together (at
        most 3*15*BULK_BLOCK int64, 1.5 MB, for the condition sets' cubics at
        q <= DENSE_MAX). Digit j of each value is an integer combination of
        the powers' digits j, each coefficient taken as its signed residue
        in [-(p - 1)/2, (p - 1)/2] (0 or 1 for p = 2), so a coefficient
        +-1 costs one add or subtract, not a product by p - 1, and a zero
        one nothing. A digit's combination is then at most
        (d + 1)*(p - 1)**2/2 in absolute value for odd p, half of the
        unsigned bound (d + 1)*(p - 1)**2 that is still required to fit in
        int64, and _from_digits reduces and joins them.
        """
        p, e = self.p, self.e
        h = (p - 1) // 2  # coefficients as signed residues in [-h, p - 1 - h]
        coef = [[(c + h) % p - h for c in f] or [0] for f in polys]
        deg = max(map(len, coef)) - 1
        if (deg + 1) * (p - 1) ** 2 >= 1 << 63:
            raise ValueError(f"GF({p}^{e}) degree-{deg} values overflow int64 in bulk arithmetic")
        for x in _blocks(0, self.q):
            powers = [x]
            for _ in range(deg - 1):
                powers.append(self.bulk_mul(powers[-1], x))
            digits = [self._digit_arrays(u) for u in powers]
            v = np.empty((len(coef), len(x)), dtype=np.int64)
            for row, (c0, *cs) in zip(v, coef):
                value = [c0] + [0] * (e - 1)
                for c, d in zip(cs, digits):
                    for j in range(e):
                        if c == 1:
                            value[j] = value[j] + d[j]
                        elif c == -1:
                            value[j] = value[j] - d[j]
                        elif c:
                            value[j] = value[j] + c * d[j]
                row[:] = self._from_digits(value)
            yield slice(x[0], x[-1] + 1), v

    # -- bulk helpers (exact, numpy-backed) -------------------------------------

    def _digit_arrays(self, u_arr: np.ndarray) -> list[np.ndarray]:
        """The e digit arrays of an encoding array, lowest first: each digit
        is the remainder of _divmod_p and the quotient is split further."""
        digits = []
        for _ in range(self.e - 1):
            u_arr, d = _divmod_p(u_arr, self.p)
            digits.append(d)
        digits.append(u_arr)  # u < p**e, so what is left is the top digit
        return digits

    def _from_digits(self, digits: list[np.ndarray]) -> np.ndarray:
        """Encodings of e digit arrays, lowest first. Each digit, an integer
        combination that may be negative (bulk_sub, bulk_mul's reduction,
        eval_blocks's signed coefficients), is reduced into [0, p) by
        _divmod_p before the digits are joined by Horner's rule."""
        p = self.p
        out = _divmod_p(digits[-1], p)[1]
        for d in reversed(digits[:-1]):
            out = out * p + _divmod_p(d, p)[1]
        return out

    def bulk_mul(self, u_arr: np.ndarray, v_arr: np.ndarray) -> np.ndarray:
        """Elementwise field product on encoding arrays, as int64.

        The digit vectors are convolved and the convolution is reduced by the
        modulus, as _polymulmod does, one array operation per digit pair:
        each coefficient above degree e - 1 is reduced into [0, p) by
        _divmod_p, highest first, and its multiple of the modulus subtracted
        from the coefficients below it. Intermediate values stay within
        [-(e - 1)*(p - 1)**2, e*(p - 1)**2], inside the checked bound
        (2e - 1)*(p - 1)**2 < 2**63 with more than p to spare, as _divmod_p
        needs; _from_digits reduces the e low coefficients.
        """
        p, e, f = self.p, self.e, self.modulus
        if (2 * e - 1) * (p - 1) ** 2 >= 1 << 63:
            raise ValueError(f"GF({p}^{e}) products overflow int64 in bulk arithmetic")
        a = self._digit_arrays(np.asarray(u_arr, dtype=np.int64))
        b = self._digit_arrays(np.asarray(v_arr, dtype=np.int64))
        t: list = [None] * (2 * e - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                t[i + j] = ai * bj if t[i + j] is None else t[i + j] + ai * bj
        for k in range(2 * e - 2, e - 1, -1):
            c = _divmod_p(t[k], p)[1]
            for j in range(e):
                if f[j]:
                    t[k - e + j] -= c * f[j]
        return self._from_digits(t[:e])

    def bulk_add(self, u_arr: np.ndarray, v_arr: np.ndarray) -> np.ndarray:
        """Elementwise field sum on encoding arrays (or ints), as int64."""
        a = self._digit_arrays(np.asarray(u_arr, dtype=np.int64))
        b = self._digit_arrays(np.asarray(v_arr, dtype=np.int64))
        return self._from_digits([x + y for x, y in zip(a, b)])

    def bulk_sub(self, u_arr: np.ndarray, v_arr: np.ndarray) -> np.ndarray:
        """Elementwise field difference on encoding arrays (or ints), as int64."""
        a = self._digit_arrays(np.asarray(u_arr, dtype=np.int64))
        b = self._digit_arrays(np.asarray(v_arr, dtype=np.int64))
        return self._from_digits([x - y for x, y in zip(a, b)])

    # ---------------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Field(p={self.p}, e={self.e}, q={self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self) -> int:
        return hash((self.p, self.e))


def _divmod_p(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(a // p, a mod p) for an int64 array a, the remainder in [0, p) for
    negative a too: the one reduction mod p of every bulk operation.

    The remainder is a - (a // p)*p, not a % p or np.divmod: numpy divides an
    int64 array by a scalar integer with a multiply and a shift, but computes
    % with one hardware division per element, more slowly still for negative
    operands; on a block of BULK_BLOCK values this takes about half the time.
    Floor division keeps the remainder in [0, p) and (a // p)*p within p - 1
    of a, so all is exact while |a| + p <= 2**63, which the overflow checks
    of bulk_mul and eval_blocks leave room for.
    """
    hi = a // p
    return hi, a - hi * p


def _blocks(start: int, stop: int):
    """Consecutive int64 aranges of at most BULK_BLOCK elements covering [start, stop)."""
    for lo in range(start, stop, BULK_BLOCK):
        yield np.arange(lo, min(lo + BULK_BLOCK, stop), dtype=np.int64)


# The one character table kept, with its field (Field.parity_table fills
# it): a field's repeated whole-field passes (a Latin mask per slope, a
# difference vector per certificate) build it once, and a scan over many
# fields holds at most DENSE_MAX bytes of them. Every caller gets the same
# array, so it is read-only.
_kept: tuple[Field, np.ndarray] | None = None


@lru_cache(maxsize=64)
def _cached_field(p: int, e: int) -> Field:
    return Field(p, e)


def cached_field(p: int, e: int = 1) -> Field:
    """Shared Field instances; safe because all of a context is fixed by (p, e).

    Only the 64 most recently used are kept. They hold no character tables:
    the one table alive at a time is kept in the slot _kept.
    """
    return _cached_field(p, e)


def field_for_order(q: int) -> Field:
    """Field of order q = p^e, refusing non-prime-powers."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fs = factor(q)
    p = fs[0]
    if any(f != p for f in fs):
        raise ValueError(f"{q} is not a prime power")
    return cached_field(p, len(fs))


def odd_prime_powers(lo: int, hi: int):
    """The odd prime powers q with lo <= q <= hi, ascending."""
    for q in range(max(lo, 3) | 1, hi + 1, 2):
        if len(set(factor(q))) == 1:
            yield q
