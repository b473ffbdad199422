"""Field arithmetic on canonical integer encodings, parity, and bulk ops.

Frozen values below were hand-checked: GF(13) is plain modular arithmetic,
GF(9) = GF(3)[x]/(x^2+1) is small enough to multiply by hand, and the
deterministic modulus search makes the chosen reduction polynomials stable.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnq import fields
from mnq.fields import (
    CharacteristicError,
    Field,
    Parity,
    _cached_field,
    cached_field,
    field_for_order,
    odd_prime_powers,
)

SAMPLE_ORDERS = [(13, 1), (3, 2), (5, 2), (3, 3), (7, 2), (2, 3)]


def _field_and_elems(min_elems=3):
    def expand(args):
        p, e = args
        f = cached_field(p, e)
        return st.tuples(
            st.just(f), st.lists(st.integers(0, f.q - 1), min_size=min_elems, max_size=min_elems)
        )
    return st.sampled_from(SAMPLE_ORDERS).flatmap(expand)


# --- frozen small-field facts ------------------------------------------------

def test_gf13_squares_and_inverse(gf13):
    squares = {u for u in range(1, 13) if gf13.parity(u) is Parity.SQUARE}
    assert squares == {1, 3, 4, 9, 10, 12}
    assert gf13.parity(2) is Parity.NON_SQUARE
    assert gf13.parity(0) is Parity.ZERO
    assert gf13.inv(2) == 7
    assert gf13.eval_poly((-1, -1, 0, 1), 3) == 10  # 27 - 3 - 1 mod 13


def test_gf9_structure(gf9):
    assert gf9.modulus_encoding == 10  # x^2 + 1, the smallest-encoded irreducible
    assert gf9.mul(3, 3) == 2          # x * x = -1
    assert gf9.non_square == 4         # x + 1
    squares = {u for u in range(1, 9) if gf9.parity(u) is Parity.SQUARE}
    assert squares == {1, 2, 3, 6}


def test_deterministic_moduli_for_larger_fields():
    assert cached_field(7, 3).modulus_encoding == 345  # x^3 + 2
    assert cached_field(2, 3).modulus_encoding == 11   # x^3 + x + 1
    assert Field(3, 2).modulus == cached_field(3, 2).modulus


def test_characteristic_two_rejects_parity():
    f8 = cached_field(2, 3)
    with pytest.raises(CharacteristicError):
        f8.parity_table
    with pytest.raises(CharacteristicError):
        f8.parity(1)
    with pytest.raises(CharacteristicError):
        f8.parity_by_pow(3)
    # arithmetic still works
    assert f8.mul(2, 2) == 4  # x * x = x^2
    assert f8.mul(4, 2) == 3  # x^3 = x + 1 under the modulus
    assert f8.add(3, 5) == 6


def test_field_for_order():
    f = field_for_order(49)
    assert (f.p, f.e) == (7, 2)
    assert field_for_order(13) is cached_field(13)
    for bad in (0, 1, 12, 100):
        with pytest.raises(ValueError):
            field_for_order(bad)


def test_odd_prime_powers():
    assert list(odd_prime_powers(1, 30)) == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29]
    assert list(odd_prime_powers(344, 366)) == [347, 349, 353, 359, 361]
    assert list(odd_prime_powers(30, 30)) == []

    def odd_prime_power(q):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        while q % p == 0:
            q //= p
        return q == 1 and p != 2

    assert list(odd_prime_powers(1, 2000)) == [q for q in range(2, 2001) if odd_prime_power(q)]


def test_order_cap():
    with pytest.raises(ValueError):
        Field(3, 50)


# --- parity -------------------------------------------------------------------

@pytest.mark.parametrize("p,e", [(13, 1), (3, 2), (5, 2), (7, 2)])
def test_parity_table_matches_exponentiation(p, e):
    f = cached_field(p, e)
    for u in range(f.q):
        assert f.parity(u) is f.parity_by_pow(u)


@pytest.mark.parametrize("p,e", [(13, 1), (3, 2)])
def test_parity_is_multiplicative_including_zero(p, e):
    f = cached_field(p, e)
    for u in range(f.q):
        for v in range(f.q):
            assert int(f.parity(f.mul(u, v))) == int(f.parity(u)) * int(f.parity(v))


def test_square_and_nonsquare_counts():
    for p, e in [(13, 1), (3, 2), (3, 3), (5, 2)]:
        f = cached_field(p, e)
        pars = [f.parity(u) for u in range(f.q)]
        assert pars.count(Parity.ZERO) == 1
        assert pars.count(Parity.SQUARE) == (f.q - 1) // 2
        assert pars.count(Parity.NON_SQUARE) == (f.q - 1) // 2
        assert f.parity(f.non_square) is Parity.NON_SQUARE
        assert all(f.parity(u) is not Parity.NON_SQUARE for u in range(f.non_square))


# --- arithmetic axioms ----------------------------------------------------------

@given(_field_and_elems())
@settings(max_examples=120, deadline=None)
def test_ring_axioms(args):
    f, (u, v, w) = args
    assert f.add(u, v) == f.add(v, u)
    assert f.mul(u, v) == f.mul(v, u)
    assert f.add(f.add(u, v), w) == f.add(u, f.add(v, w))
    assert f.mul(f.mul(u, v), w) == f.mul(u, f.mul(v, w))
    assert f.mul(u, f.add(v, w)) == f.add(f.mul(u, v), f.mul(u, w))
    assert f.sub(f.add(u, v), v) == u
    assert f.add(u, f.neg(u)) == 0
    assert f.mul(u, 1) == u and f.mul(u, 0) == 0


@given(_field_and_elems())
@settings(max_examples=80, deadline=None)
def test_inverse_and_pow(args):
    f, (u, v, _) = args
    if u:
        assert f.mul(u, f.inv(u)) == 1
        assert f.pow(u, -1) == f.inv(u)
        assert f.pow(u, f.q - 1) == 1  # unit group order
    assert f.pow(v, 3) == f.mul(v, f.mul(v, v))
    assert f.pow(v, 0) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_encode_decode_roundtrip(gf27):
    for u in range(gf27.q):
        assert gf27.encode(gf27.decode(u)) == u
    assert gf27.decode(5) == (2, 1, 0)  # 2 + x
    assert gf27.encode((2, 1)) == 5     # short vectors are padded implicitly


def test_bulk_ops_match_scalar(rng):
    for p, e, sample in [(13, 1, None), (5, 2, None), (3, 3, None), (7, 5, 20000)]:
        f = cached_field(p, e)
        if sample is None:  # every pair
            u, v = np.divmod(np.arange(f.q * f.q, dtype=np.int64), f.q)
        else:
            u, v = rng.integers(0, f.q, (2, sample))
        assert f.bulk_add(u, v).tolist() == [f.add(int(a), int(b)) for a, b in zip(u, v)]
        assert f.bulk_sub(u, v).tolist() == [f.sub(int(a), int(b)) for a, b in zip(u, v)]
        # the int-operand forms used by build_table, _assoc_completions and
        # is_two_slope_table
        z = u[:f.q]
        for x in {0, 1, f.q - 1, int(v[0])} | {p**i for i in range(e)}:
            assert f.bulk_add(x, z).tolist() == [f.add(x, int(a)) for a in z]
            assert f.bulk_add(z, x).tolist() == [f.add(int(a), x) for a in z]
            assert f.bulk_sub(z, x).tolist() == [f.sub(int(a), x) for a in z]


@pytest.mark.parametrize("p,sample", [(13, None), (1048583, 300), (2**61 - 1, 300)])
def test_prime_field_arithmetic_matches_builtins(p, sample):
    # mul, pow and inv have no prime-field shortcut; Python's modular
    # arithmetic is the independent reference
    f = Field(p)
    if sample is None:
        pairs = [(u, v) for u in range(p) for v in range(p)]
    else:
        r = random.Random(p)
        pairs = [(r.randrange(p), r.randrange(p)) for _ in range(sample)]
    for u, v in pairs:
        assert f.mul(u, v) == u * v % p
        assert f.pow(u, v) == pow(u, v, p)
        if u:
            assert f.inv(u) == pow(u, p - 2, p)
            assert f.pow(u, -v) == pow(u, -v, p)


@pytest.mark.parametrize("p,e", [(3, 3), (5, 2), (2, 4)])
def test_bulk_mul_matches_mul_on_all_pairs(p, e):
    f = cached_field(p, e)
    u, v = np.divmod(np.arange(f.q * f.q, dtype=np.int64), f.q)
    want = np.array([f.mul(int(a), int(b)) for a, b in zip(u, v)])
    assert np.array_equal(f.bulk_mul(u, v), want)


def test_bulk_mul_matches_mul_on_sample_gf243():
    f = cached_field(3, 5)
    rng = np.random.default_rng(243)
    u = rng.integers(0, f.q, 4000)
    v = rng.integers(0, f.q, 4000)
    want = np.array([f.mul(int(a), int(b)) for a, b in zip(u, v)])
    assert np.array_equal(f.bulk_mul(u, v), want)


def test_bulk_mul_refuses_int64_overflow():
    # (p - 1)^2 >= 2^63 from this prime on, so u*v would wrap in int64
    f = Field(3037000507)
    with pytest.raises(ValueError, match="overflow"):
        f.bulk_mul(np.array([2]), np.array([3]))
    assert Field(3037000493).bulk_mul(np.array([2]), np.array([3]))[0] == 6


@pytest.mark.parametrize("q", [13, 25, 27, 81, 343, 211, 243])
def test_eval_all_matches_eval_poly(q, monkeypatch):
    # blocks of 64: every field here above 64 spans several
    monkeypatch.setattr(fields, "BULK_BLOCK", 64)
    f = field_for_order(q)
    # the last has coefficients beyond int64, to be reduced mod p before use
    for coeffs in [(-1, -1, 0, 1), (1, 1, 1), (5, 0, 0, 0, 2), (7,), (), (3, -1, 0, 2, 5, 1),
                   (0, 0, 0, 0, 0, 0, 0, -4), (3**50, 1, -2**70, 0, 1)]:
        want = [f.eval_poly(coeffs, x) for x in range(q)]
        assert f.eval_all(coeffs).tolist() == want


def test_parity_table_of_large_extension_is_the_square_set():
    # 3^11 is built from one bulk squaring; compare with scalar mul squares
    f = cached_field(3, 11)
    sample = range(1, f.q, 997)
    squares = {f.mul(u, u) for u in sample}
    assert all(f.parity_table[s] == 1 for s in squares)
    for u in range(1, f.q, 4999):
        assert f.parity(u) is f.parity_by_pow(u)


def test_field_is_built_with_its_modulus_only(monkeypatch):
    # every element of GF(1000003) is a square in GF(1000003^2)
    def spy(self, *args):
        raise AssertionError("character data worked out at construction")

    for name in ("parity_by_pow", "_build_parity_table"):
        monkeypatch.setattr(Field, name, spy)
    assert Field(1000003, 2).modulus == (1, 0, 1)


def test_parity_reads_the_table_up_to_parity_table_max(monkeypatch):
    def spy(self, *args):
        raise AssertionError("wrong parity route")

    small, large = cached_field(13), field_for_order(1048583)
    monkeypatch.setattr(Field, "parity_by_pow", spy)
    assert [small.parity(u) for u in (0, 1, 2)] == [Parity.ZERO, Parity.SQUARE, Parity.NON_SQUARE]
    monkeypatch.undo()
    fields._kept_character_table.cache_clear()
    monkeypatch.setattr(Field, "_build_parity_table", spy)
    assert large.parity(2) is Parity.SQUARE  # 1048583 = 7 mod 8


def test_only_one_character_table_is_kept():
    for q in (13, 1049):
        table = field_for_order(q).parity_table
        assert table[0] == 0 and not table.flags.writeable
    assert fields._kept_character_table.cache_info().currsize == 1
    assert fields._kept_character_table.cache_info().maxsize == 1


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (7, 2), (11, 2), (3, 4), (3, 3), (101, 2), (1031, 2)])
def test_non_square_is_found_on_first_use(p, e):
    f = Field(p, e)
    assert "non_square" not in vars(f)
    smallest = next(u for u in range(f.q) if f.parity_by_pow(u) is Parity.NON_SQUARE)
    assert f.non_square == smallest


def test_even_degree_non_square_walk_skips_the_prime_field(monkeypatch):
    # GF(4093) is all squares in GF(4093^2), so the walk starts at x = 4093
    calls = []
    pow_parity = Field.parity_by_pow
    monkeypatch.setattr(Field, "parity_by_pow", lambda self, u: calls.append(u) or pow_parity(self, u))
    f = Field(4093, 2)
    assert f.q > fields.PARITY_TABLE_MAX  # so parity() goes through parity_by_pow
    assert f.non_square >= f.p and 1 <= len(calls) <= 4
    assert pow_parity(f, f.non_square) is Parity.NON_SQUARE


@pytest.mark.parametrize("q", [9, 409, 1048583])  # 1048583: above PARITY_TABLE_MAX
def test_parity_refuses_non_encodings(q):
    f = field_for_order(q)
    for u in (-1, -q, q, q + 2, 2 * q):
        with pytest.raises(ValueError, match="not an encoding"):
            f.parity(u)
    assert f.parity(0) is Parity.ZERO and f.parity(q - 1) is f.parity_by_pow(q - 1)


def test_field_cache_is_bounded():
    bound = _cached_field.cache_info().maxsize
    assert bound == 64
    orders = list(odd_prime_powers(1000, 2000))[:bound + 6]
    first = field_for_order(orders[0])
    for q in orders[1:]:
        field_for_order(q)
    assert _cached_field.cache_info().currsize == bound
    assert field_for_order(orders[0]) is not first  # evicted, so built again
    assert field_for_order(orders[0]) is field_for_order(orders[0])


def test_field_identity_semantics():
    assert cached_field(13) is cached_field(13, 1)
    assert Field(3, 2) == Field(3, 2)
    assert hash(Field(5, 1)) == hash(cached_field(5))
    assert Field(3, 2) != Field(3, 3)
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(3, 0)
