import random
from fractions import Fraction
from itertools import permutations

import pytest

from reflpvi.groups import GroupSpec, build_group
from reflpvi.params import (CubicForm, LambdaMu, SumConstraintError, Theta,
                            canonical_theta, cubic_coeffs, expected_theta_row,
                            f_hitchin_squared, f_squared, lambda_mu_of_triple,
                            mu_from_degrees, normalize_cubic, pvi_abcd,
                            random_lambda_mu, table1, theta_map)

F = Fraction


def test_mu_from_degrees():
    assert mu_from_degrees((4, 6, 14)) == (F(3, 14), F(5, 14), F(13, 14))
    assert mu_from_degrees((2, 6, 10)) == (F(1, 10), F(1, 2), F(9, 10))
    m = 5
    assert mu_from_degrees((3, m, 2 * m)) == (F(2, 2 * m), F(m - 1, 2 * m),
                                              F(2 * m - 1, 2 * m))
    with pytest.raises(ValueError):
        mu_from_degrees((6, 4, 14))


def test_lambda_mu_of_triple(g336):
    lm = lambda_mu_of_triple(g336.generators)
    assert lm.lambdas == (F(1, 2), F(1, 2), F(1, 2))
    assert lm.mus == (F(3, 14), F(5, 14), F(13, 14))


def test_lambda_mu_commuting_triple():
    from reflpvi.linalg3 import Mat3
    r1 = Mat3.from_rationals([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    r2 = Mat3.from_rationals([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    r3 = Mat3.from_rationals([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    lm = lambda_mu_of_triple([r1, r2, r3])
    assert lm.lambdas == (F(1, 2),) * 3
    assert lm.mus == (F(1, 2),) * 3


def test_non_integral_lambda_enforced():
    with pytest.raises(ValueError):
        LambdaMu((F(1), F(1, 2), F(1, 2)), (F(1, 2),) * 3)


def test_theta_map_signed():
    lm = LambdaMu((F(1, 2),) * 3, (F(3, 14), F(5, 14), F(13, 14)))
    th = theta_map(lm)  # identity permutation
    assert th.as_tuple() == (F(2, 7), F(2, 7), F(2, 7), F(-4, 7))


def test_canonical_theta_rows():
    cases = [
        (((F(1, 2),) * 3), (F(3, 14), F(5, 14), F(13, 14)),
         (F(2, 7), F(2, 7), F(2, 7), F(4, 7))),
        (((F(2, 3),) * 3), (F(5, 12), F(8, 12), F(11, 12)),
         (F(0), F(0), F(0), F(1, 2))),
        (((F(1, 2),) * 3), (F(1, 10), F(1, 2), F(9, 10)),
         (F(0), F(0), F(0), F(4, 5))),
        ((F(1, 2), F(2, 3), F(2, 3)), (F(5, 18), F(11, 18), F(17, 18)),
         (F(2, 9), F(7, 18), F(7, 18), F(2, 3))),
    ]
    for lams, mus, expected in cases:
        th = canonical_theta(LambdaMu(lams, mus))
        assert th.as_tuple() == expected


def test_canonical_theta_mu_permutation_invariant():
    rng = random.Random(11)
    for _ in range(10):
        exact = random_lambda_mu(rng)
        m3 = F(rng.randrange(-8, 8), rng.randrange(1, 9))
        lm = LambdaMu(exact.lambdas, exact.mus[:2] + (m3,))
        base = canonical_theta(lm)
        for perm in permutations(lm.mus):
            assert canonical_theta(LambdaMu(lm.lambdas, perm)) == base


def test_pvi_abcd():
    assert pvi_abcd(Theta(F(0), F(0), F(0), F(1))) == (F(0), F(0), F(0), F(1, 2))
    assert pvi_abcd(Theta(F(2, 7), F(2, 7), F(2, 7), F(4, 7))) == \
        (F(9, 98), F(-2, 49), F(2, 49), F(45, 98))
    assert pvi_abcd(Theta(F(0), F(0), F(0), F(0))) == (F(1, 2), F(0), F(0), F(1, 2))


def test_expected_rows_formulas():
    assert expected_theta_row(GroupSpec.imprimitive(3, 3)).as_tuple() == \
        (F(1, 6), F(1, 6), F(1, 6), F(1, 2))
    assert expected_theta_row(GroupSpec.imprimitive(3, 1)).as_tuple() == \
        (F(1, 18), F(1, 18), F(2, 18), F(12, 18))
    assert expected_theta_row(GroupSpec.exceptional("G2160")).as_tuple() == \
        (F(5, 15), F(5, 15), F(5, 15), F(9, 15))


def test_sum_constraints():
    lm = LambdaMu((F(1, 2),) * 3, (F(1, 4), F(1, 4), F(1, 4)))
    assert lm.sum_discrepancy() == F(-3, 4)
    with pytest.raises(SumConstraintError):
        lm.with_exact_sums()
    with pytest.raises(SumConstraintError):
        cubic_coeffs(lm)
    lm2 = LambdaMu((F(1, 2),) * 3, (F(3, 14), F(5, 14), F(13, 14)))
    assert lm2.sums_exact()
    lm3 = LambdaMu((F(1, 2),) * 3, (F(1, 2), F(1, 2), F(3, 2)))
    fixed = lm3.with_exact_sums()
    assert fixed.sums_exact() and fixed.lambdas == (F(3, 2), F(1, 2), F(1, 2))


def test_cubic_coeffs_examples():
    lm = LambdaMu((F(1, 2),) * 3, (F(1, 2),) * 3)
    assert cubic_coeffs(lm) == (0, 0, 0, 0)
    lm = LambdaMu((F(1, 2),) * 3, (F(1, 4), F(1, 2), F(3, 4)))
    assert cubic_coeffs(lm) == (0, 0, 0, F(1, 16))


def test_lemma_params_identity():
    rng = random.Random(13)
    for _ in range(100):
        lm = random_lambda_mu(rng)
        x = F(rng.randrange(-9, 9), rng.randrange(1, 8))
        y = F(rng.randrange(-9, 9), rng.randrange(1, 8))
        lhs = f_squared((x, y), lm)
        for perm in permutations(range(3)):
            th = theta_map(lm, perm)
            rhs = f_hitchin_squared((x - th.t1 * th.t3 / 2,
                                     y - th.t2 * th.t3 / 2), th)
            assert lhs == rhs


def test_f_squared_at_origin():
    rng = random.Random(17)
    lm = random_lambda_mu(rng)
    a, b, k, c = cubic_coeffs(lm)
    assert f_squared((F(0), F(0)), lm) == k * k


def test_hitchin_zero_row_example():
    th = Theta(F(0), F(0), F(0), F(1))
    assert f_hitchin_squared((F(0), F(0)), th) == 0


def _evaluate(form, x, y):
    """The value of a CubicForm at (x, y)."""
    return sum(v * x ** i * y ** j for (i, j), v in form.coeffs.items())


def test_cubic_form_evaluation_matches():
    rng = random.Random(19)
    lm = random_lambda_mu(rng)
    cub = CubicForm.from_lambda_mu(lm)
    th = theta_map(lm, (2, 0, 1))
    hit = CubicForm.from_theta(th)
    for _ in range(20):
        x = F(rng.randrange(-6, 6), rng.randrange(1, 5))
        y = F(rng.randrange(-6, 6), rng.randrange(1, 5))
        assert _evaluate(cub, x, y) == f_squared((x, y), lm)
        assert _evaluate(hit, x, y) == f_hitchin_squared((x, y), th)


def test_normalize_cubic():
    # already normalized input: zero shift
    cub = CubicForm({(2, 1): 4, (1, 2): 4, (1, 1): F(3), (1, 0): F(-1),
                     (0, 1): F(2), (0, 0): F(5)})
    (a, b, c, d), (x0, y0) = normalize_cubic(cub)
    assert (x0, y0) == (0, 0)
    assert (a, b, c, d) == (3, -1, 2, 5)
    # explicit square term: shift solves the linear system
    cub = CubicForm({(2, 1): 4, (1, 2): 4, (2, 0): 4})
    (_, _, _, _), (x0, y0) = normalize_cubic(cub)
    assert (x0, y0) == (0, -1)
    shifted = cub.shifted(x0, y0)
    assert shifted.coeff(2, 0) == 0 and shifted.coeff(0, 2) == 0
    assert shifted.shifted(-x0, -y0) == cub
    with pytest.raises(ValueError):
        normalize_cubic(CubicForm({(3, 0): 1}))


def test_lambda_mu_and_hitchin_normal_forms_agree():
    # the two cubics agree after the shift, so their normal forms coincide
    rng = random.Random(23)
    for _ in range(10):
        lm = random_lambda_mu(rng)
        cub = CubicForm.from_lambda_mu(lm)
        consts, _ = normalize_cubic(cub)
        th = theta_map(lm, (0, 1, 2))
        hit = CubicForm.from_theta(th)
        consts_h, _ = normalize_cubic(hit)
        assert consts == consts_h


def test_table1(g336):
    rows = table1(groups={"G336": g336})
    assert all(r.matches for r in rows)
    labels = [r.spec.label() for r in rows]
    assert "G(3,3,3)" in labels and "G2160" in labels and len(rows) == 13


def test_lambda_mu_walks_the_order_once(monkeypatch):
    """lambda_mu_of_triple finds the order of r1 r2 r3 by one row walk and
    reads the spectrum at that order without a second walk; Table 1 and the
    mus of the checked `finite_order_spectrum` are unchanged."""
    import reflpvi.params as params_mod
    from reflpvi.linalg3 import Mat3, finite_order_spectrum
    from reflpvi.params import DEFAULT_TABLE_SPECS
    groups = {spec.label(): build_group(spec) for spec in DEFAULT_TABLE_SPECS}
    walks, calls = [], []
    order = Mat3.order

    def counted_order(m, *args, **kwargs):
        walks.append(m)
        return order(m, *args, **kwargs)

    def counted_lambda_mu(triple):
        lm = lambda_mu_of_triple(triple)
        calls.append((triple, lm))
        return lm

    monkeypatch.setattr(Mat3, "order", counted_order)
    monkeypatch.setattr(params_mod, "lambda_mu_of_triple", counted_lambda_mu)
    rows = table1(groups=groups)
    monkeypatch.undo()
    assert len(calls) == len(walks) == len(rows) == 13
    assert all(r.matches for r in rows)
    for triple, lm in calls:
        prod = triple[0] * triple[1] * triple[2]
        assert lm.mus == finite_order_spectrum(prod, prod.order(1000))
