"""Character sums, the exact census identity, constants, and the threshold."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mnq.fields
import mnq.weil
from mnq.construct import satisfies_conditions, theorem_conditions
from mnq.fields import CharacteristicError, cached_field, field_for_order
from mnq.fields import PARITY_TABLE_MAX
from mnq.intpoly import exceptional_primes
from mnq.weil import (
    DENSE_MAX,
    chi_matrix,
    census_report,
    char_sum,
    min_order_with_margin,
    threshold,
    weil_constant,
    weil_spot_check,
)


# --- character sums against closed forms ------------------------------------

def test_char_sum_frozen_value(gf13):
    assert char_sum(gf13, (1, 0, 1)) == -1


@given(q=st.sampled_from([13, 17, 29, 9]), a=st.integers(1, 28), b=st.integers(0, 28))
@settings(max_examples=60, deadline=None)
def test_char_sum_of_nonconstant_linear_is_zero(q, a, b):
    f = field_for_order(q)
    # coefficients live in the prime subfield: reduced mod p, not mod q
    a, b = a % f.p, b % f.p
    if a == 0:
        a = 1
    # x -> ax + b is a bijection, so the sum sweeps chi over the whole field
    assert char_sum(f, (b, a)) == 0


@given(q=st.sampled_from([13, 17, 19, 23]), b=st.integers(0, 22), c=st.integers(0, 22))
@settings(max_examples=80, deadline=None)
def test_char_sum_of_monic_quadratic(q, b, c):
    # classic evaluation: sum chi(x^2 + bx + c) is q - 1 when the quadratic
    # is a perfect square mod p, and -1 otherwise
    f = field_for_order(q)
    b, c = b % q, c % q
    disc = (b * b - 4 * c) % q
    expected = q - 1 if disc == 0 else -1
    assert char_sum(f, (c, b, 1)) == expected


def test_char_sum_above_parity_table_max():
    # the first prime above PARITY_TABLE_MAX: parity() skips the table, but
    # char_sum reads the one built on first use
    f = field_for_order(1048583)
    assert f.q > PARITY_TABLE_MAX
    assert char_sum(f, (5, 3)) == 0
    assert char_sum(f, (-4, 0, 1)) == -1        # x^2 - 4: discriminant 16 != 0
    assert char_sum(f, (9, 6, 1)) == f.q - 1    # (x + 3)^2


def test_char_sum_rejections():
    with pytest.raises(CharacteristicError):
        char_sum(cached_field(2, 3), (0, 1))
    with pytest.raises(ValueError):
        char_sum(cached_field(13), (13, 26))


# --- census -------------------------------------------------------------------

@pytest.mark.parametrize("q", [13, 25, 27, 81, 343, 243, 361, 729])
def test_chi_matrix_rows_match_scalar_character(q, monkeypatch):
    # blocks of 64: every field here above 64 spans several
    monkeypatch.setattr(mnq.fields, "BULK_BLOCK", 64)
    f = field_for_order(q)
    cs = theorem_conditions(q % 4)
    chi = chi_matrix(f, cs)
    assert chi.shape == (8, q) and chi.dtype == np.int8
    for row, poly in zip(chi, cs.polys):
        assert row.tolist() == [int(f.parity_by_pow(f.eval_poly(poly, x))) for x in range(q)]


@pytest.mark.parametrize("q", [29, 27])
def test_subset_sums_match_element_products(q):
    f = field_for_order(q)
    cs = theorem_conditions(q % 4)
    chis = [[int(f.parity_by_pow(f.eval_poly(poly, x))) for poly in cs.polys] for x in range(q)]
    rep = census_report(f, with_subsets=True)
    for mask, got in rep.subset_sums.items():
        want = sum(np.prod([c[i] for i in range(8) if mask >> i & 1]) for c in chis)
        assert got == want


def test_dense_sums_refuse_oversized_fields():
    # 2^61 - 1 is prime; the guard fires before any whole-field array exists
    f = field_for_order(2305843009213693951)
    assert f.q > DENSE_MAX
    cs = theorem_conditions(f.q % 4)
    with pytest.raises(ValueError, match=str(DENSE_MAX)):
        census_report(f)
    with pytest.raises(ValueError, match=str(DENSE_MAX)):
        char_sum(f, (1, 1))
    with pytest.raises(ValueError, match=str(DENSE_MAX)):
        weil_spot_check(f, cs, [1])


@pytest.mark.parametrize("q", [13, 29, 81, 101, 1009, 19, 27, 103, 1019])
def test_census_identity_and_oracle_scan(q):
    f = field_for_order(q)
    cs = theorem_conditions(q % 4)
    rep = census_report(f, with_subsets=True)  # raises if the identity fails
    oracle = sum(satisfies_conditions(f, a, cs) for a in range(q))
    assert rep.actual_count == oracle
    assert rep.actual_count >= rep.guaranteed_count
    assert rep.s == Fraction(rep.s_scaled, 256)
    assert len(rep.subset_sums) == 255
    # mask with one bit recovers the plain character sum of that polynomial
    for i, poly in enumerate(cs.polys):
        assert rep.subset_sums[1 << i] == char_sum(f, poly)


def test_census_without_subsets_is_lighter(gf13):
    rep = census_report(gf13)
    assert rep.subset_sums is None
    assert rep.s_scaled == 0 and rep.actual_count == 0


def test_census_validation(gf13):
    with pytest.raises(ValueError):
        census_report(gf13, cs=theorem_conditions(3))
    with pytest.raises(CharacteristicError):
        census_report(cached_field(2, 3))


# --- constants and threshold -----------------------------------------------------

def test_weil_constant_both_residues():
    for residue in (1, 3):
        cs = theorem_conditions(residue)
        assert weil_constant(cs) == 1537
        # independent recomputation straight from the degree multiset
        degs = cs.degrees
        brute = sum(
            sum(degs[i] for i in range(8) if m >> i & 1) - 1 for m in range(1, 256)
        )
        assert brute == 1537


def test_threshold_value_and_tightness():
    t = threshold(theorem_conditions(1))
    assert t == threshold(theorem_conditions(3)) == 2369532

    def clears(q):
        d = q - 14 * 256
        return d > 0 and d * d > 1537 * 1537 * q

    assert clears(t) and not clears(t - 1)


def test_min_order_with_margin_degenerate():
    assert min_order_with_margin(0, 0, 256) == 1
    assert min_order_with_margin(1, 0, 1) == 2  # q - sqrt(q) > 0 from q = 2 on


# --- per-subset inequality ----------------------------------------------------

def test_spot_check_all_subsets_clean_prime():
    f = cached_field(101)
    cs = theorem_conditions(1)
    for mask in range(1, 256):
        indices = [i + 1 for i in range(8) if mask >> i & 1]
        assert weil_spot_check(f, cs, indices)


def test_spot_check_computes_exceptional_primes_once_per_family(monkeypatch):
    calls = []

    def counting(cs):
        calls.append(cs)
        return exceptional_primes(cs)

    monkeypatch.setattr(mnq.weil, "exceptional_primes", counting)
    mnq.weil._exceptional.cache_clear()
    cs1, cs3 = theorem_conditions(1), theorem_conditions(3)
    for q in (101, 109):
        for indices in ([1], [2, 5], [1, 2, 3]):
            assert weil_spot_check(cached_field(q), cs1, indices)
    assert weil_spot_check(cached_field(103), cs3, [4])
    with pytest.raises(ValueError):
        weil_spot_check(cached_field(23), cs3, [1])
    assert calls == [cs1, cs3]
    mnq.weil._exceptional.cache_clear()


def test_spot_check_rejections():
    cs1, cs3 = theorem_conditions(1), theorem_conditions(3)
    with pytest.raises(ValueError):
        weil_spot_check(cached_field(5, 2), cs1, [1])  # 5 divides a survey discriminant
    with pytest.raises(ValueError):
        weil_spot_check(cached_field(23), cs3, [1])
    f = cached_field(101)
    for bad in ([], [0], [9]):
        with pytest.raises(ValueError):
            weil_spot_check(f, cs1, bad)
