import random

import pytest

from reflpvi.cyclotomic import CycloNum
from reflpvi.fingerprints import (NotAReflectionError, classify_triples,
                                  fingerprint, fingerprint_by_indices)
from reflpvi.groups import GroupSpec, build_group
from reflpvi.linalg3 import Mat3


def test_commuting_diagonal_triple():
    r1 = Mat3.from_rationals([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    r2 = Mat3.from_rationals([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    r3 = Mat3.from_rationals([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    fp = fingerprint([r1, r2, r3])
    zero = CycloNum.zero(1)
    assert fp.quintuple() == (zero, zero, zero, zero, zero)
    minus_one = CycloNum.from_rational(-1)
    assert (fp.t1, fp.t2, fp.t3) == (minus_one, minus_one, minus_one)


def test_repeated_reflection_triple():
    r = Mat3.from_rationals([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    fp = fingerprint([r, r, r])
    four = CycloNum.from_rational(4)
    minus_eight = CycloNum.from_rational(-8)
    assert fp.quintuple() == (four, four, four, minus_eight, minus_eight)
    assert fp.p * fp.q == fp.w * fp.x * fp.y  # = 64


def test_rejects_non_reflection():
    with pytest.raises(NotAReflectionError):
        fingerprint([Mat3.identity(), Mat3.identity(), Mat3.identity()])


def test_klein_standard_regression(g336):
    # frozen exact values over the conductor-7 field
    fp = fingerprint(list(g336.generators))
    two = CycloNum.from_rational(2)
    assert (fp.w, fp.x, fp.y) == (two, two, two)
    assert fp.p.canonical().key() == (7, 1, (-2, 1, 1, 0, 1, 0))
    assert fp.q.canonical().key() == (7, 1, (-3, -1, -1, 0, -1, 0))
    assert fp.p * fp.q == CycloNum.from_rational(8) == fp.w * fp.x * fp.y


def test_conjugation_invariance(g336):
    rng = random.Random(3)
    triple = list(g336.generators)
    base = fingerprint(triple)
    for g in rng.sample(list(g336.elements), 6):
        gi = g.inverse()
        conj = [gi * r * g for r in triple]
        assert fingerprint(conj) == base


def test_component_permutation_changes_fingerprint(g336):
    r1, r2, r3 = g336.generators
    assert fingerprint([r1, r2, r3]) != fingerprint([r1, r3, r2])


def test_fingerprint_by_indices_agrees(g336):
    rng = random.Random(4)
    refl = g336.refl_idx
    els = g336.elements
    for _ in range(10):
        idx = (rng.choice(refl), rng.choice(refl), rng.choice(refl))
        direct = fingerprint([els[i] for i in idx])
        assert fingerprint_by_indices(g336, idx) == direct


def test_klein_classification(g336):
    classes = classify_triples(g336, first_fixed=g336.generators[0])
    assert len(classes) == 45
    assert sum(c.multiplicity for c in classes) == 441
    for c in classes:
        assert c.fingerprint.p * c.fingerprint.q == \
            c.fingerprint.w * c.fingerprint.x * c.fingerprint.y
        assert c.multiplicity >= 1
        assert 336 % c.generated_order == 0
    # deterministic ordering
    again = classify_triples(g336, first_fixed=g336.generators[0])
    assert [c.fingerprint.key() for c in again] == \
        [c.fingerprint.key() for c in classes]


def test_unrestricted_classification_s3_style(g213):
    # brute force over all 9^3 reflection triples of the octahedral group
    classes = classify_triples(g213)
    assert sum(c.multiplicity for c in classes) == 9 ** 3
    for c in classes:
        assert c.fingerprint.p * c.fingerprint.q == \
            c.fingerprint.w * c.fingerprint.x * c.fingerprint.y


def test_first_fixed_must_be_reflection(g336):
    with pytest.raises(NotAReflectionError):
        classify_triples(g336, first_fixed=Mat3.identity())


def _bucketed(group, firsts):
    """Classes by bucketing every triple on its full Fingerprint key, with
    generated orders from a breadth-first walk on `product_index`."""
    refl = group.refl_idx
    buckets = {}
    for i in firsts:
        for j in refl:
            for k in refl:
                key = fingerprint_by_indices(group, (i, j, k)).key()
                if key in buckets:
                    buckets[key][1] += 1
                else:
                    buckets[key] = [(i, j, k), 1]
    out = []
    for key in sorted(buckets):
        idx, count = buckets[key]
        seen = {0}                          # element 0 is the identity
        frontier = list(seen)
        while frontier:
            frontier = [y for y in {group.product_index(x, g) for x in frontier for g in idx}
                        if y not in seen]
            seen.update(frontier)
        out.append((key, idx, count, len(seen)))
    return out


@pytest.mark.parametrize("spec, fixed_first", [
    (GroupSpec.imprimitive(2, 1), False),
    (GroupSpec.imprimitive(3, 1), False),
    (GroupSpec.imprimitive(4, 1), False),
    (GroupSpec.exceptional("icosahedral"), False),
    (GroupSpec.exceptional("G336"), False),
    (GroupSpec.exceptional("G336"), True),
    (GroupSpec.exceptional("G648"), True),
    (GroupSpec.exceptional("G648"), False),
], ids=lambda v: v.label() if isinstance(v, GroupSpec) else ("fixed" if v else "all"))
def test_classify_matches_fingerprint_buckets(spec, fixed_first):
    group = build_group(spec)
    first = group.generators[0] if fixed_first else None
    firsts = [group.index_of(first)] if fixed_first else group.refl_idx
    classes = classify_triples(group, first_fixed=first)
    expected = _bucketed(group, firsts)
    els = group.elements
    assert len(classes) == len(expected)
    for cls, (key, idx, count, order) in zip(classes, expected):
        assert cls.fingerprint.key() == key
        assert cls.fingerprint == fingerprint_by_indices(group, idx)
        assert cls.representative == tuple(els[i] for i in idx)
        assert cls.multiplicity == count
        assert cls.generated_order == order


@pytest.mark.parametrize("spec", [GroupSpec.exceptional("G648"), GroupSpec.imprimitive(4, 1),
                                  GroupSpec.exceptional("G336")], ids=lambda s: s.label())
def test_class_data_matches_the_representative(spec):
    """With the first reflection fixed, each class's fingerprint and
    generated order, read off the scan's columns, are those of its
    representative triple computed from the matrices."""
    group = build_group(spec)
    classes = classify_triples(group, first_fixed=group.generators[0])
    for cls in classes:
        assert cls.generated_order == group.generated_order(cls.representative)
        direct = fingerprint(cls.representative)
        assert cls.fingerprint == direct and cls.fingerprint.key() == direct.key()


@pytest.mark.parametrize("spec", [GroupSpec.parse(s) for s in (
    "G(2,1,3)", "G(2,2,3)", "G(3,3,3)", "G(4,4,3)", "G(5,5,3)", "G(6,6,3)", "G(3,1,3)",
    "G(4,1,3)", "G(5,1,3)", "G(6,1,3)", "icosahedral", "G336", "G648", "G1296", "G2160")],
    ids=lambda s: s.label())
def test_multiplicities_count_every_triple(spec):
    """Every reflection triple lands in one class: the multiplicities sum to
    |R|^3, and to |R|^2 with the first reflection fixed."""
    group = build_group(spec)
    r = len(group.reflections)
    assert sum(c.multiplicity for c in classify_triples(group)) == r ** 3
    fixed = classify_triples(group, first_fixed=group.generators[0])
    assert sum(c.multiplicity for c in fixed) == r ** 2
