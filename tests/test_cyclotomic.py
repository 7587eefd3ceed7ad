import cmath
import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from reflpvi.cyclotomic import (CycloNum, NotRootOfUnityError,
                                _canonical, cyclotomic_polynomial, euler_phi, field,
                                log_root_of_unity, reduce_power_coeffs,
                                root_of_unity)

CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12]


def from_fractions(n, coeffs):
    """The CycloNum at conductor n with the given rational coefficients."""
    coeffs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in coeffs))
    return CycloNum(n, [int(c * den) for c in coeffs], den)


def small_rationals():
    return st.builds(Fraction,
                     st.integers(min_value=-6, max_value=6),
                     st.integers(min_value=1, max_value=5))


@st.composite
def cyclos(draw, conductors=CONDUCTORS):
    from reflpvi.cyclotomic import euler_phi
    n = draw(st.sampled_from(conductors))
    coeffs = draw(st.lists(small_rationals(), min_size=euler_phi(n),
                           max_size=euler_phi(n)))
    return from_fractions(n, coeffs)


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
    a = from_fractions(5, [1, 2, 0, Fraction(1, 3)])
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


@given(cyclos(), cyclos([15, 21, 30]))
@settings(max_examples=40, deadline=None)
def test_inverse_and_canonical_idempotence(a, wide):
    # wide is at a conductor with phi(n) >= 8
    for x in (a, wide):
        if not x.is_zero():
            assert x * x.inverse() == CycloNum.one(1)
    c = a.canonical()
    assert c.canonical().key() == c.key()
    assert c == a


def test_root_of_unity_inverse_matches_euclid(monkeypatch):
    # the root-of-unity table against the general (Galois norm) path
    def general(u):
        return (lambda v: (v.n, v.den, v.nums))(u._norm_inverse())

    roots = [s * root_of_unity(n, k) for n in range(1, 25) for k in range(n) for s in (1, -1)]
    expected = [general(u) for u in roots]
    others = [root_of_unity(n) + 2 for n in range(3, 25)]
    others += [root_of_unity(n) * Fraction(1, 3) for n in range(3, 25)]

    def refused(*args):
        raise AssertionError("a root of unity took the general path")
    monkeypatch.setattr(CycloNum, "_norm_inverse", refused)
    for u, want in zip(roots, expected):
        inv = u.inverse()
        assert (inv.n, inv.den, inv.nums) == want
        assert u * inv == CycloNum.one(1)
    monkeypatch.undo()
    for u in others:
        assert u * u.inverse() == CycloNum.one(1)


def test_log_root_of_unity_signs():
    # -zeta_n^k for odd n is a 2n-th root of unity found under conductor n
    assert log_root_of_unity(-root_of_unity(3)) == Fraction(5, 6)
    assert log_root_of_unity(-root_of_unity(4, 3)) == Fraction(1, 4)
    assert log_root_of_unity(root_of_unity(6, 2).lift(12)) == Fraction(1, 3)
    with pytest.raises(NotRootOfUnityError):
        log_root_of_unity(root_of_unity(5) * Fraction(1, 2))


def _canonical_triple(a):
    c = a.canonical()
    # the descended element must still be the same complex number
    assert abs(c.to_complex() - a.to_complex()) < 1e-9
    return (c.n, c.den, c.nums)


@given(cyclos(), st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=40, deadline=None)
def test_descent_undoes_lift(a, k):
    # lift is a separate code path: descending its image must give back
    # the canonical form of a
    assert _canonical_triple(a.lift(a.n * k)) == _canonical_triple(a)


# p exactly divides the lifted conductor (3->15, 5->15, 3->21) or p^2 does
# (3->9, 9->27, 4->8)
@pytest.mark.parametrize("n, k", [(3, 5), (5, 3), (3, 7), (3, 3), (9, 3), (4, 2)])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_descent_undoes_lift_per_prime_pattern(n, k, data):
    a = data.draw(cyclos(conductors=[n]))
    assert _canonical_triple(a.lift(n * k)) == _canonical_triple(a)


def test_descent_direct_cases():
    assert root_of_unity(15, 1).canonical().n == 15
    assert _canonical_triple(root_of_unity(15, 5)) == _canonical_triple(root_of_unity(3, 1))
    assert root_of_unity(15, 5).canonical().n == 3
    assert _canonical_triple(root_of_unity(15, 3)) == _canonical_triple(root_of_unity(5, 1))
    assert root_of_unity(15, 3).canonical().n == 5
    q = CycloNum.from_rational(Fraction(-7, 3)).lift(84)
    assert q.n == 84
    assert _canonical_triple(q) == (1, 3, (-7,))


def test_cyclonum_is_immutable():
    """key() and canonical() write nothing onto a value, and equal values
    built separately get one canonical object, from the value-keyed cache."""
    assert CycloNum.__slots__ == ("n", "nums", "den")
    values = [root_of_unity(15, 5), root_of_unity(3, 1).lift(15), root_of_unity(15, 1),
              CycloNum.from_rational(Fraction(-7, 3)).lift(84)]
    for v in values:
        before = tuple(getattr(v, slot) for slot in CycloNum.__slots__)
        v.key()
        v.canonical()
        assert tuple(getattr(v, slot) for slot in CycloNum.__slots__) == before
    a, b = values[0], values[1]
    assert a is not b and a == b
    assert a.canonical() is b.canonical()


@given(cyclos(), cyclos())
@settings(max_examples=40, deadline=None)
def test_complex_embedding_is_ring_hom(a, b):
    assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-12
    assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-12


@st.composite
def dot_inputs(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 7, 15]))
    count = draw(st.sampled_from([1, 3, 9]))
    tup = st.lists(st.integers(min_value=-9, max_value=9),
                   min_size=euler_phi(n), max_size=euler_phi(n)).map(tuple)
    return n, draw(st.lists(st.tuples(tup, tup), min_size=count, max_size=count))


@given(dot_inputs())
@settings(max_examples=60, deadline=None)
def test_dot_matches_complex_sum_of_products(case):
    n, pairs = case
    z = cmath.exp(2j * cmath.pi / n)

    def value(coeffs):
        return sum(c * z ** k for k, c in enumerate(coeffs))

    expected = sum(value(x) * value(y) for x, y in pairs)
    assert abs(CycloNum(n, field(n).dot(pairs)).to_complex() - expected) < 1e-9


def test_field_is_one_frozen_object_per_conductor():
    for n in (1, 3, 12):
        f = field(n)
        assert field(n) is f
        assert (f.n, f.phi) == (n, euler_phi(n))
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.phi = 0


def _value(n, coeffs):
    """The complex value of sum_k coeffs[k] zeta_n^k."""
    z = cmath.exp(2j * cmath.pi / n)
    return sum(c * z ** k for k, c in enumerate(coeffs))


@pytest.mark.parametrize("n", [5, 9, 12, 21])
def test_field_dot_folds_the_top_exponent(n):
    """Pairs whose top coefficients are nonzero reach exponent 2 phi - 2,
    the last fold row; dot matches complex arithmetic there."""
    rng = random.Random(n)
    phi = euler_phi(n)

    def element():
        return tuple(rng.randint(-9, 9) for _ in range(phi - 1)) + (rng.choice((-3, 2, 7)),)

    for count in (1, 2, 3):
        pairs = [(element(), element()) for _ in range(count)]
        expected = sum(_value(n, x) * _value(n, y) for x, y in pairs)
        out = field(n).dot(pairs)
        assert len(out) == phi
        assert abs(_value(n, out) - expected) < 1e-6


@pytest.mark.parametrize("n", [5, 9, 12, 21])
def test_reduce_power_coeffs_beyond_one_product(n):
    """A coefficient list longer than 2 phi - 1 wraps x^m to zeta_n^(m mod n)."""
    rng = random.Random(100 + n)
    coeffs = [rng.randint(-9, 9) for _ in range(2 * n + 3)]
    out = reduce_power_coeffs(n, coeffs)
    assert len(out) == euler_phi(n)
    assert abs(_value(n, out) - _value(n, coeffs)) < 1e-6


def test_serialization_round_trip():
    a = from_fractions(7, [Fraction(1, 2), 2, 0, Fraction(-1, 3), 0, 5])
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
