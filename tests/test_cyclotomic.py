from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reflpvi.cyclotomic import (CycloNum, NotRootOfUnityError,
                                cyclotomic_polynomial, log_root_of_unity,
                                root_of_unity)

CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12]


def small_rationals():
    return st.builds(Fraction,
                     st.integers(min_value=-6, max_value=6),
                     st.integers(min_value=1, max_value=5))


@st.composite
def cyclos(draw):
    from reflpvi.cyclotomic import euler_phi
    n = draw(st.sampled_from(CONDUCTORS))
    coeffs = draw(st.lists(small_rationals(), min_size=euler_phi(n),
                           max_size=euler_phi(n)))
    return CycloNum.from_fractions(n, coeffs)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_basic_relations():
    z4 = root_of_unity(4)
    assert z4 * z4 == CycloNum.from_rational(-1)
    z3 = root_of_unity(3)
    assert (1 + z3 + z3 * z3).is_zero()
    z7 = root_of_unity(7)
    assert z7 ** 3 * z7 ** 4 == CycloNum.one(1)


def test_root_of_unity_normalization():
    assert root_of_unity(1, 0) == CycloNum.one(1)
    assert root_of_unity(2, 1) == CycloNum.from_rational(-1)
    assert root_of_unity(6, 2) == root_of_unity(3, 1)
    assert root_of_unity(10, 3) == root_of_unity(10, 13)


def test_division():
    a = CycloNum.from_fractions(5, [1, 2, 0, Fraction(1, 3)])
    b = root_of_unity(5, 2) + 2
    assert a / b * b == a
    with pytest.raises(ZeroDivisionError):
        a / CycloNum.zero(5)


def test_log_root_of_unity():
    assert log_root_of_unity(CycloNum.from_rational(-1)) == Fraction(1, 2)
    assert log_root_of_unity(CycloNum.one(1)) == Fraction(0)
    assert log_root_of_unity(root_of_unity(3)) == Fraction(1, 3)
    with pytest.raises(NotRootOfUnityError):
        log_root_of_unity(CycloNum.from_rational(2))
    with pytest.raises(NotRootOfUnityError):
        log_root_of_unity(root_of_unity(7) + 1)


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=-30, max_value=30))
@settings(max_examples=60, deadline=None)
def test_log_inverts_root(n, k):
    q = Fraction(k % n, n)
    assert log_root_of_unity(root_of_unity(n, k)) == q


@given(cyclos(), cyclos(), cyclos())
@settings(max_examples=40, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(cyclos())
@settings(max_examples=40, deadline=None)
def test_inverse_and_canonical_idempotence(a):
    if not a.is_zero():
        assert a * a.inverse() == CycloNum.one(1)
    c = a.canonical()
    assert c.canonical().key() == c.key()
    assert c == a


@given(cyclos(), cyclos())
@settings(max_examples=40, deadline=None)
def test_complex_embedding_is_ring_hom(a, b):
    assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-12
    assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-12


def test_serialization_round_trip():
    a = CycloNum.from_fractions(7, [Fraction(1, 2), 2, 0, Fraction(-1, 3), 0, 5])
    assert CycloNum.from_dict(a.to_dict()) == a
    d = a.to_dict()
    assert d["conductor"] == 7
    assert len(d["coeffs"]) == 6


def test_cross_conductor_arithmetic():
    z3 = root_of_unity(3)
    z4 = root_of_unity(4)
    prod = z3 * z4
    assert prod.n == 12
    assert prod == root_of_unity(12, 7)
    assert z3 + z4 == z4 + z3
