import dataclasses
import random

import pytest

from fractions import Fraction

from reflpvi.cyclotomic import CycloNum, log_root_of_unity, root_of_unity
from reflpvi.groups import (ClosureBoundError, GroupSpec, build_group,
                            enumerate_elements, reflections_of)
from reflpvi.linalg3 import Mat3, is_pseudo_reflection


def test_spec_parsing():
    assert GroupSpec.parse("G336").name == "G336"
    assert GroupSpec.parse("g(4,1,3)") == GroupSpec.imprimitive(4, 1)
    assert GroupSpec.parse("icosa").name == "icosahedral"
    with pytest.raises(ValueError):
        GroupSpec.parse("G99")
    with pytest.raises(ValueError):
        GroupSpec.imprimitive(4, 2)   # p must be 1 or m
    with pytest.raises(ValueError):
        GroupSpec.imprimitive(1, 1)


def test_enumerate_s3():
    els = enumerate_elements([Mat3.permutation([1, 0, 2]),
                              Mat3.permutation([0, 2, 1]),
                              Mat3.permutation([2, 1, 0])])
    assert len(els) == 6


def test_enumerate_single_involution():
    els = enumerate_elements([Mat3.from_rationals([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])])
    assert len(els) == 2


def test_enumerate_bound():
    z = root_of_unity(7)
    with pytest.raises(ClosureBoundError):
        enumerate_elements([Mat3.diag(z, CycloNum.one(1), CycloNum.one(1))], bound=3)


def test_closure_generator_order_independent():
    gens = [Mat3.permutation([1, 0, 2]), Mat3.permutation([0, 2, 1]),
            Mat3.diag(root_of_unity(3), CycloNum.one(1), CycloNum.one(1))]
    a = {g.key() for g in enumerate_elements(gens)}
    b = {g.key() for g in enumerate_elements(gens[::-1])}
    assert a == b


def test_octahedral_and_tetrahedral_orders():
    assert build_group(GroupSpec.imprimitive(2, 1)).order == 48
    assert build_group(GroupSpec.imprimitive(2, 2)).order == 24


def test_imprimitive_family(g333):
    assert g333.order == 54
    assert len(g333.reflections) == 9
    g = build_group(GroupSpec.imprimitive(4, 1))
    assert g.order == 384
    assert g.degrees == (4, 8, 12)
    assert len(g.reflections) == 21


def test_reflection_invariants(g213):
    # |reflections| = sum of exponents, degree product = order
    d1, d2, d3 = g213.degrees
    assert d1 * d2 * d3 == g213.order
    assert len(g213.reflections) == (d1 - 1) + (d2 - 1) + (d3 - 1) == 9
    assert reflections_of(g213.elements) == list(g213.reflections)


def test_generators_are_reflections(g336, g213, g333, icosa):
    for group in (g336, g213, g333, icosa):
        for r in group.generators:
            assert is_pseudo_reflection(r) is not None
        assert group.generated_order(group.generators) == group.order


def test_klein_reflections(g336):
    assert len(g336.reflections) == 21
    minus_one = CycloNum.from_rational(-1)
    assert all(r.det() == minus_one for r in g336.reflections)
    assert g336.reflections_single_class


def test_hessian_reflection_eigenvalues():
    g648 = build_group(GroupSpec.exceptional("G648"))
    omega = root_of_unity(3)
    omega2 = omega * omega
    dets = {r.det().key() for r in g648.reflections}
    assert dets == {omega.key(), omega2.key()}
    assert not g648.reflections_single_class


def test_generated_order(g336):
    r = g336.reflections[0]
    assert g336.generated_order((r, r, r)) == 2
    assert g336.generated_order(g336.generators) == 336


def test_group_serialization(g336):
    d = g336.to_dict()
    assert d == {"spec": "G336", "order": 336, "degrees": [4, 6, 14],
                 "reflections": 21}


def test_lambda_representatives(g336):
    for r in g336.generators:
        assert log_root_of_unity(r.det()) == Fraction(1, 2)


def test_index_core_matches_exact_arithmetic(g213, g333, icosa, g336):
    rng = random.Random(29)
    for group in (g213, g333, icosa, g336):
        els = group.elements
        for _ in range(30):
            i, j = rng.randrange(len(els)), rng.randrange(len(els))
            assert els[group.product_index(i, j)] == els[i] * els[j]
            assert els[group.inverse_index(i)] == els[i].inverse()
            assert group.trace_index(i) == els[i].trace()
            assert group.det_index(i) == els[i].det()
        r = group.reflections[0]
        brute = {group.index_of(g.inverse() * r * g) for g in els}
        assert group.conjugacy_class(group.index_of(r)) == brute
        with pytest.raises(dataclasses.FrozenInstanceError):
            group.generators = group.generators
