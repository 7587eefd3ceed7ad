import random
from fractions import Fraction

import pytest

from reflpvi.cyclotomic import CycloNum, log_root_of_unity, root_of_unity
from reflpvi.groups import GroupSpec, build_group
from reflpvi.linalg3 import (Mat3, SingularMatrixError, SpectrumError,
                             finite_order_spectrum, is_pseudo_reflection, row_map)


def test_matrix_suite_basics():
    ident = Mat3.identity()
    assert ident.trace() == CycloNum.from_rational(3)
    assert ident.det() == CycloNum.one(1)
    t = root_of_unity(5)
    d = Mat3.diag(t, CycloNum.one(1), CycloNum.one(1))
    assert d.det() == t
    c1 = Mat3.permutation([1, 2, 0])
    c2 = Mat3.permutation([2, 0, 1])
    assert c1 * c2 == Mat3.identity()


def test_inverse_and_errors():
    m = Mat3.from_rationals([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
    assert m * m.inverse() == Mat3.identity()
    with pytest.raises(SingularMatrixError):
        Mat3.from_rationals([[1, 2, 3], [2, 4, 6], [0, 0, 1]]).inverse()


def test_charpoly_and_cayley_hamilton():
    m = Mat3.from_rationals([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
    c0, c1, c2, c3 = m.charpoly()
    assert c3 == CycloNum.one(1)
    acc = m * m * m + (m * m).scale(c2) + m.scale(c1) + Mat3.identity().scale(c0)
    assert acc == Mat3.zero()


def test_cayley_hamilton_on_group_elements(g336):
    rng = random.Random(0)
    for g in rng.sample(list(g336.elements), 12):
        c0, c1, c2, _ = g.charpoly()
        acc = g * g * g + (g * g).scale(c2) + g.scale(c1) + Mat3.identity().scale(c0)
        assert acc == Mat3.zero()


def test_is_pseudo_reflection():
    one = CycloNum.one(1)
    m1 = CycloNum.from_rational(-1)
    assert is_pseudo_reflection(Mat3.diag(m1, one, one)) == m1
    assert is_pseudo_reflection(Mat3.identity()) is None
    assert is_pseudo_reflection(Mat3.diag(m1, m1, one)) is None


def test_is_pseudo_reflection_rank_one_edge_cases():
    # M - I has rank one but t = tr M - 2 = det M = 0: not a pseudo-reflection
    zero, one = CycloNum.zero(1), CycloNum.one(1)
    assert is_pseudo_reflection(Mat3.diag(zero, one, one)) is None
    # a transvection has rank(M - I) = 1 and t = det M = 1
    assert is_pseudo_reflection(Mat3.from_rationals([[1, 1, 0], [0, 1, 0], [0, 0, 1]])) == one


def test_is_pseudo_reflection_hand_made_cases():
    one = CycloNum.one(1)
    # the identity: M - I has no nonzero entry
    assert is_pseudo_reflection(Mat3.identity(7)) is None
    # M - I = u v^T with u = (1, 1, 0), v = (0, 1, 1): the first nonzero
    # entry is off the diagonal, and t = 1 + v.u = 2
    m = Mat3.from_rationals([[1, 1, 1], [0, 2, 1], [0, 0, 1]])
    assert is_pseudo_reflection(m) == CycloNum.from_rational(2) == m.det()
    # M - I of rank two whose pivot row and second row look rank one: in
    # the first, row 2 is twice the pivot row and only row 3 shows the
    # second rank; in the second, row 2 is twice the pivot row except in
    # column 3, so only the minor through column 3 shows it
    for rows in ([[2, 0, 0], [2, 1, 0], [0, 1, 1]], [[2, 2, 0], [2, 5, 1], [0, 0, 1]]):
        m = Mat3.from_rationals(rows)
        assert (m - Mat3.identity()).rank() == 2
        assert is_pseudo_reflection(m) is None
    # M - I of rank one, but M = I + u v^T with v.u = -1 is singular (t = 0)
    m = Mat3.from_rationals([[0, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert (m - Mat3.identity()).rank() == 1 and m.det().is_zero()
    assert is_pseudo_reflection(m) is None
    # a reflection at a conductor above 1, pivot on the diagonal
    z = root_of_unity(3)
    assert is_pseudo_reflection(Mat3.diag(one, z, one)) == z


def test_is_pseudo_reflection_matches_rank_and_det(g213, g333, icosa, g336):
    g313 = build_group(GroupSpec.imprimitive(3, 1))
    for group in (g213, g333, g313, icosa, g336):
        ident = Mat3.identity(group.elements[0].n)
        for g in group.elements:
            t = is_pseudo_reflection(g)
            det = g.det()
            assert (t is not None) == ((g - ident).rank() == 1 and not det.is_zero())
            if t is not None:
                assert (t.n, t.den, t.nums) == (det.n, det.den, det.nums)


def test_reflection_trace_det_identity(g336, g333):
    # every reflection satisfies det = t and trace = 2 + t
    for group in (g336, g333):
        for r in group.reflections:
            t = is_pseudo_reflection(r)
            assert t is not None
            assert r.det() == t
            assert r.trace() == t + 2


def test_finite_order_spectrum_basics():
    m1 = CycloNum.from_rational(-1)
    one = CycloNum.one(1)
    sp = finite_order_spectrum(Mat3.diag(m1, one, one), 2)
    assert list(sp) == [Fraction(0), Fraction(0), Fraction(1, 2)]
    sp = finite_order_spectrum(Mat3.permutation([1, 2, 0]), 3)
    assert list(sp) == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
    # the order 3 passes the claimed 2; it is within 4 but does not divide it
    for claimed in (2, 4):
        with pytest.raises(SpectrumError, match="claimed order"):
            finite_order_spectrum(Mat3.permutation([1, 2, 0]), claimed)


def test_klein_standard_product_spectrum(g336):
    r1, r2, r3 = g336.generators
    prod = r1 * r2 * r3
    assert prod.order(100) == 14
    sp = finite_order_spectrum(prod, 14)
    assert list(sp) == [Fraction(3, 14), Fraction(5, 14), Fraction(13, 14)]


def test_spectrum_sum_matches_det(g336):
    rng = random.Random(1)
    for g in rng.sample(list(g336.elements), 8):
        order = g.order(100)
        sp = finite_order_spectrum(g, order)
        total = sum(sp)
        det_log = log_root_of_unity(g.det())
        assert total - det_log == int(total - det_log)


def _order_by_index(group, i):
    # the least k with x^k = 1, stepping x -> x i in the Cayley graph
    x, k = i, 1
    while x:
        x, k = group.product_index(x, i), k + 1
    return k


def test_order_matches_the_cayley_graph():
    g313 = build_group(GroupSpec.parse("G(3,1,3)"))
    assert [g313.element(i).order(100) for i in range(g313.order)] == \
        [_order_by_index(g313, i) for i in range(g313.order)]
    g2160 = build_group(GroupSpec.parse("G2160"))
    for i in random.Random(7).sample(range(g2160.order), 50):
        assert g2160.element(i).order(100) == _order_by_index(g2160, i)


def test_order_raises_past_its_bound():
    one = CycloNum.one(1)
    z7 = Mat3.diag(root_of_unity(7), one, one)
    assert z7.order(7) == 7
    with pytest.raises(ValueError, match="exceeds bound 6"):
        z7.order(6)
    with pytest.raises(ValueError, match="exceeds bound"):
        Mat3.from_rationals([[1, 0, 0], [0, 1, 0], [0, 0, 0]]).order(50)


@pytest.mark.parametrize("label, order, conductor", [("G(5,1,3)", 15, 5), ("G336", 14, 7),
                                                     ("G2160", 30, 15)])
def test_spectrum_at_an_order_beyond_the_conductor(monkeypatch, label, order, conductor):
    # lcm(order, n) != n: the candidate roots of unity live above the
    # matrix's field, and the exponents are still the published mu
    group = build_group(GroupSpec.parse(label))
    r1, r2, r3 = group.generators
    prod = r1 * r2 * r3

    def refuse(*args):
        raise AssertionError("matrix product in finite_order_spectrum")
    # the claimed order is checked by walking rows, not by forming M^order
    monkeypatch.setattr(Mat3, "__mul__", refuse)
    assert (prod.order(1000), prod.n) == (order, conductor)
    expected = tuple(Fraction(d - 1, group.degrees[2]) for d in group.degrees)
    assert finite_order_spectrum(prod, order) == expected
    # any multiple of the order is accepted with the same exponents
    assert finite_order_spectrum(prod, 2 * order) == expected
    with pytest.raises(SpectrumError, match="claimed order"):
        finite_order_spectrum(prod, order - 1)


def test_rows_invert_from_rows(g336):
    n = g336.n
    d = len(g336.generators[0].lift(n).nums[0])
    rng = random.Random(4)
    dense = Mat3(n, [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(d)]
                     for _ in range(9)], 5)
    mats = [g.lift(n) for g in g336.generators] + [dense]
    assert max(m.den for m in mats[:3]) == 4 and dense.den > 1
    for m in mats:
        rows = m.rows()
        assert Mat3.from_rows(n, rows) == m
        # e_k M is row k of M, in the form row_map gives it
        apply = row_map(m)
        assert rows == tuple(apply(e) for e in Mat3.identity(n).rows())


def test_rank():
    assert Mat3.zero().rank() == 0
    assert Mat3.identity().rank() == 3
    assert Mat3.from_rationals([[1, 1, 1], [1, 1, 1], [1, 1, 1]]).rank() == 1
    assert Mat3.from_rationals([[1, 0, 0], [0, 1, 0], [1, 1, 0]]).rank() == 2


def _cofactor_det_and_e2(m):
    """det M and the sum of M's principal 2x2 minors, by cofactor expansion."""
    e = m.entries()
    det = (e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
           - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
           + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0]))
    e2 = (e[0][0] * e[1][1] - e[0][1] * e[1][0]
          + e[0][0] * e[2][2] - e[0][2] * e[2][0]
          + e[1][1] * e[2][2] - e[1][2] * e[2][1])
    return det, e2


@pytest.mark.parametrize("label, conductor", [("G(4,1,3)", 4), ("G336", 7), ("G2160", 15)])
def test_adjugate_path_on_group_elements(label, conductor):
    group = build_group(GroupSpec.parse(label))
    ident = Mat3.identity(conductor)
    rng = random.Random(2)
    for g in rng.sample(list(group.elements), 10):
        assert g.n == conductor
        assert g * g.inverse() == ident
        det, e2 = _cofactor_det_and_e2(g)
        assert g.det() == det
        assert g.charpoly() == (-det, e2, -g.trace(), CycloNum.one(1))
        assert g.rank() == 3


def test_rank_above_conductor_one():
    z = root_of_unity(7)
    one, zero = CycloNum.one(7), CycloNum.zero(7)
    row = [z, one + z * z, z ** 3]
    # row 2 = z * row 0 + 3 * row 1, with rows 0 and 1 independent
    rank2 = Mat3.from_entries([row, [one, z, zero],
                               [z * row[0] + 3, z * row[1] + 3 * z, z * row[2]]])
    assert rank2.det().is_zero()
    assert rank2.rank() == 2
    with pytest.raises(SingularMatrixError):
        rank2.inverse()
    rank1 = Mat3.from_entries([[u * v for v in row] for u in (one, z + 2, z ** 5)])
    assert rank1.rank() == 1
