"""Integer polynomial layer: resultants, discriminants, factoring, and the
discriminant survey feeding the exceptional-characteristic sets."""

from __future__ import annotations

import inspect
from functools import reduce
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mnq.intpoly
from mnq.construct import theorem_conditions
from mnq.intpoly import (
    degree,
    discriminant,
    discriminant_reports,
    exceptional_primes,
    factor,
    is_prime,
    normalize,
    poly_add,
    poly_divexact,
    poly_eval,
    poly_mul,
    poly_sub,
    prime_support,
    resultant,
)


def _poly(min_deg=1, max_deg=4, coeff=6):
    return (
        st.lists(st.integers(-coeff, coeff), min_size=min_deg + 1, max_size=max_deg + 1)
        .map(lambda c: normalize(tuple(c)))
        .filter(lambda f: degree(f) >= min_deg)
    )


# --- resultants -------------------------------------------------------------

def test_resultant_of_linear_factors():
    # res(x - a, x - b) evaluates the second polynomial at a
    assert resultant((-2, 1), (-3, 1)) == -1
    assert resultant((-3, 1), (-2, 1)) == 1
    assert resultant((5, 1), (5, 1)) == 0


def test_resultant_constant_cases():
    assert resultant((7,), (1, 2, 1)) == 49
    assert resultant((1, 2, 1), (7,)) == 49
    assert resultant((3,), (5,)) == 1


@given(f=_poly(), g=_poly())
@settings(max_examples=60)
def test_resultant_swap_symmetry(f, g):
    sign = -1 if (degree(f) * degree(g)) % 2 else 1
    assert resultant(f, g) == sign * resultant(g, f)


@given(f=_poly(), g=_poly(max_deg=3), h=_poly(max_deg=3))
@settings(max_examples=60)
def test_resultant_multiplicative_in_second_argument(f, g, h):
    assert resultant(f, poly_mul(g, h)) == resultant(f, g) * resultant(f, h)


@given(f=_poly(), a=st.integers(-8, 8))
@settings(max_examples=60)
def test_resultant_against_root_evaluation(f, a):
    # res(f, x - a) = f(a) up to the swap sign, since x - a has the lone root a
    assert resultant((-a, 1), f) == poly_eval(f, a)


# --- arithmetic ------------------------------------------------------------

@given(f=_poly(min_deg=0), g=_poly(min_deg=0), x=st.integers(-8, 8))
@settings(max_examples=60)
def test_poly_add_and_sub_evaluate_pointwise(f, g, x):
    assert poly_eval(poly_add(f, g), x) == poly_eval(f, x) + poly_eval(g, x)
    assert poly_eval(poly_sub(f, g), x) == poly_eval(f, x) - poly_eval(g, x)
    assert poly_sub(f, f) == () and poly_add(f, ()) == normalize(f)


@given(f=_poly(min_deg=0), g=_poly(min_deg=0))
@settings(max_examples=60)
def test_poly_divexact_inverts_poly_mul(f, g):
    assert poly_divexact(poly_mul(f, g), g) == normalize(f)
    assert poly_divexact((), g) == ()


def test_poly_divexact_refuses_a_remainder():
    assert poly_divexact((1, 0, 1), (1, 1)) is None      # x^2 + 1 = (x + 1)(x - 1) + 2
    assert poly_divexact((1, 1), (0, 2)) is None         # x + 1 over 2x: 1/2 is no integer
    assert poly_divexact((-1,), (1, 1)) is None          # a constant over a linear polynomial
    assert poly_divexact((0, -2, 0, 2), (0, 2)) == (-1, 0, 1)
    with pytest.raises(ZeroDivisionError):
        poly_divexact((1, 1), (0,))


# --- discriminants ----------------------------------------------------------

@given(a=st.integers(-9, 9).filter(bool), b=st.integers(-9, 9), c=st.integers(-9, 9))
def test_discriminant_quadratic_closed_form(a, b, c):
    assert discriminant((c, b, a)) == b * b - 4 * a * c


@given(p=st.integers(-9, 9), q=st.integers(-9, 9))
def test_discriminant_depressed_cubic_closed_form(p, q):
    assert discriminant((q, p, 0, 1)) == -4 * p**3 - 27 * q * q


def test_discriminant_known_cubics():
    # both condition families carry one cubic; each has discriminant -23
    assert discriminant((-1, -1, 0, 1)) == -23
    assert discriminant((-1, 0, 1, 1)) == -23


def test_discriminant_detects_repeated_roots():
    assert discriminant(poly_mul((-1, 1), (-1, 1))) == 0
    assert discriminant((1, 2, 1)) == 0


@given(f=_poly(max_deg=3, coeff=4), g=_poly(max_deg=3, coeff=4))
@settings(max_examples=60)
def test_discriminant_of_product(f, g):
    df, dg, r = discriminant(f), discriminant(g), resultant(f, g)
    assert discriminant(poly_mul(f, g)) == df * dg * r * r


def test_discriminant_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        discriminant((5,))
    with pytest.raises(ValueError):
        discriminant((0,))


# --- integer factoring ------------------------------------------------------

def test_is_prime_small_and_pseudoprimes():
    primes = {2, 3, 5, 7, 11, 13, 97, 7919, 2**31 - 1}
    composites = {0, 1, 341, 561, 1105, 4294967297, 2**31 + 1}
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_factor_examples():
    assert factor(2**10 * 3 * 5) == [2] * 10 + [3, 5]
    assert factor(-360) == [2, 2, 2, 3, 3, 5]
    assert factor(1) == []
    assert factor(1000003 * 1000033) == [1000003, 1000033]
    assert factor(4294967297) == [641, 6700417]
    with pytest.raises(ValueError):
        factor(0)


@given(n=st.integers(2, 10**6))
@settings(max_examples=80)
def test_factor_multiplies_back_with_prime_parts(n):
    fs = factor(n)
    prod = 1
    for p in fs:
        assert is_prime(p)
        prod *= p
    assert prod == n


def trial_division(n: int) -> list[int]:
    """Prime factors of n >= 1 by plain trial division, an oracle for factor."""
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1 if p == 2 else 2
    return out + [n] if n > 1 else out


def test_factor_above_int64():
    assert factor(2**64 + 1) == [274177, 67280421310721]
    assert factor(-(2**64 + 1)) == [274177, 67280421310721]
    assert factor((2**61 - 1) * (2**31 - 1)) == [2**31 - 1, 2**61 - 1]
    assert factor(7 * (10**30 + 57)) == [7, 10**30 + 57]
    assert factor(2**100 * 3**5) == [2] * 100 + [3] * 5
    assert factor(2**89 - 1) == [2**89 - 1]  # a Mersenne prime


@pytest.fixture
def is_prime_calls(monkeypatch):
    """The arguments of every is_prime call factor makes."""
    calls = []
    real = mnq.intpoly.is_prime
    monkeypatch.setattr(mnq.intpoly, "is_prime", lambda m: calls.append(m) or real(m))
    return calls


def test_factor_around_the_trial_division_bound(is_prime_calls):
    # 999983 is the largest prime below the bound: it is divided out, and
    # the cofactor 1000003 < (bound + 1)**2 is prime by the table alone
    assert factor(999983 * 1000003) == [999983, 1000003]
    assert is_prime_calls == []
    # no prime <= bound divides these: the cofactor is n itself, at least
    # (bound + 1)**2, so is_prime refuses it and rho splits it
    assert factor(1000003**2) == [1000003, 1000003]
    assert is_prime_calls[0] == 1000003**2
    assert factor(999983**2) == [999983, 999983]


def test_factor_equals_trial_division_below_the_bound_squared(is_prime_calls):
    # 10**6 ... 10**6 + 4095 is the block the benchmark's decide pass draws;
    # below bound**2 the prime table settles every cofactor without is_prime
    bound = mnq.intpoly.TRIAL_DIVISION_BOUND
    for n in chain(range(1, 20001), range(10**6, 10**6 + 4096),
                   (999983 * 999979, 999999999989, bound**2 - 1)):
        assert factor(n) == trial_division(n), n
    assert factor(-(bound**2 - 1)) == trial_division(bound**2 - 1)
    assert is_prime_calls == []


# the primes on either side of 2^40: rho splits their product in about
# 2^20 steps, well inside RHO_STEPS
NEAR_2_40 = (1099511627689, 1099511627791)


def test_factor_splits_two_primes_near_2_to_40():
    assert factor(NEAR_2_40[0] * NEAR_2_40[1]) == list(NEAR_2_40)


def test_rho_step_bound_raises_a_value_error_naming_n(monkeypatch):
    n = NEAR_2_40[0] * NEAR_2_40[1]
    monkeypatch.setattr(mnq.intpoly, "RHO_STEPS", 1 << 12)
    with pytest.raises(ValueError, match=f"^Pollard rho found no factor of {n} within 4096 steps$"):
        factor(n)
    assert factor(1000003**2) == [1000003, 1000003]  # a few thousand steps suffice here


def test_rho_step_bound_names_the_cofactor_and_the_number_factored(monkeypatch):
    n = NEAR_2_40[0] * NEAR_2_40[1]
    monkeypatch.setattr(mnq.intpoly, "RHO_STEPS", 1 << 12)
    with pytest.raises(ValueError, match=f"^Pollard rho found no factor of {n}, "
                                         f"a factor of {6 * n}, within 4096 steps$"):
        factor(-6 * n)


def test_factor_sieves_only_as_far_as_a_call_needs(monkeypatch):
    monkeypatch.setattr(mnq.intpoly, "_sieved", (1, np.zeros(0, dtype=np.int64)))
    assert factor(10**6 + 3) == [1000003]
    assert mnq.intpoly._sieved[0] == 1000  # isqrt(10**6 + 3)
    assert factor(10**6 + 4095) == trial_division(10**6 + 4095)
    assert mnq.intpoly._sieved[0] == 2000  # grown to twice the old limit
    assert factor(2**64 + 1) == [274177, 67280421310721]
    limit, primes = mnq.intpoly._sieved
    assert limit == mnq.intpoly.TRIAL_DIVISION_BOUND
    assert len(primes) == 78498 and primes[-1] == 999983  # pi(10**6)


def test_prime_support():
    assert prime_support(1) == set()
    assert prime_support(-1) == set()
    assert prime_support(-600) == {2, 3, 5}


# --- survey of the condition-family discriminants ---------------------------

def test_survey_covers_every_even_degree_subset():
    for residue in (1, 3):
        reports = discriminant_reports(theorem_conditions(residue))
        # 8 polynomials, 4 of odd degree: half of the 256 subsets have even
        # total degree, minus the empty one
        assert len(reports) == 127
        seen = set()
        for rep in reports:
            assert rep.mask not in seen
            seen.add(rep.mask)
            assert rep.degree % 2 == 0
            assert rep.discriminant != 0
            assert set(rep.odd_prime_factors) == {
                p for p in prime_support(rep.discriminant) if p % 2
            }


def _survey_primes(family):
    """The reference route: every discriminant of the survey, factored outright."""
    return set().union(*(prime_support(rep.discriminant) for rep in discriminant_reports(family)))


def test_exceptional_primes_exact_sets_both_routes():
    want = {1: {2, 3, 5, 23}, 3: {2, 3, 5, 7, 23}}
    for residue, expected in want.items():
        cs = theorem_conditions(residue)
        assert exceptional_primes(cs) == expected
        assert _survey_primes(cs) == expected


def test_exceptional_primes_has_one_route():
    assert list(inspect.signature(exceptional_primes).parameters) == ["family"]


@given(family=st.lists(st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(lambda c: (*c, 1)),
                       min_size=2, max_size=4))
@settings(max_examples=100, deadline=None)
def test_exceptional_primes_routes_agree_on_squarefree_families(family):
    # monic members of degree 1-3: exceptional_primes factors only the pieces
    # (member discriminants, pair resultants) that some even-degree subset
    # contains, the survey every even-degree subset product outright
    assume(discriminant(reduce(poly_mul, family)) != 0)  # no repeated or shared root
    assert exceptional_primes(family) == _survey_primes(family)


def test_survey_rejects_families_with_shared_or_repeated_roots():
    with pytest.raises(ArithmeticError):
        discriminant_reports([(-1, 1), (-1, 1)])
    with pytest.raises(ArithmeticError):
        exceptional_primes([(1, 2, 1), (1, 0, 1)])
