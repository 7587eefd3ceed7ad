import dataclasses
import hashlib
import math
import random
import re

import numpy as np
import pytest

from fractions import Fraction

from reflpvi.cyclotomic import (CycloNum, cyclotomic_polynomial, log_root_of_unity,
                                root_of_unity)
from reflpvi.fingerprints import Fingerprint, classify_triples, fingerprint
from reflpvi import groups
from reflpvi.groups import (ClosureBoundError, GroupSpec, GroupValidationError, _close,
                            _generating_set, build_group, enumerate_elements,
                            reflections_of)
from reflpvi.linalg3 import Mat3, is_pseudo_reflection, row_map
from reflpvi.params import DEFAULT_TABLE_SPECS


def test_spec_parsing():
    assert GroupSpec.parse("G336").name == "G336"
    assert GroupSpec.parse("g(4,1,3)") == GroupSpec.imprimitive(4, 1)
    assert GroupSpec.parse("icosa").name == "icosahedral"
    for text in ("G99", "G(x,1,3)", "G(3,y,3)"):
        with pytest.raises(ValueError, match="cannot parse group spec"):
            GroupSpec.parse(text)
    with pytest.raises(ValueError):
        GroupSpec.imprimitive(4, 2)   # p must be 1 or m
    with pytest.raises(ValueError):
        GroupSpec.imprimitive(1, 1)


@pytest.mark.parametrize("name", [*groups.EXCEPTIONAL_DATA, "icosa", "h3"])
def test_exceptional_spec_names_parse_in_any_case(name):
    expected = "icosahedral" if name in ("icosa", "h3") else name
    for text in (name.lower(), name.upper(), f" {name} "):
        assert GroupSpec.parse(text) == GroupSpec.exceptional(expected)


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


def test_exceptional_standard_triples_are_pinned():
    # the generators are the Cartan triple of each group, so the group is
    # built in the basis of the triple's root vectors
    pins = {"G336": "8ddaed58f7ff900f", "G648": "b93351cfcc532202",
            "G1296": "3d3d54341bb4e27e", "G2160": "cc57c7e7283806c4"}
    # the key-sorted reflections pin that basis
    reflection_pins = {"G336": "ab759a00d136cdd3", "G648": "f53ee71d3f5d4d59",
                       "G1296": "913356fef60307d2", "G2160": "c52819bf47e0c95d"}
    for name, digest in pins.items():
        group = build_group(GroupSpec.exceptional(name))
        keys = [r.key() for r in group.generators]
        assert hashlib.sha256(repr(keys).encode()).hexdigest()[:16] == digest, name
        keys = [r.key() for r in group.reflections]
        assert hashlib.sha256(repr(keys).encode()).hexdigest()[:16] == reflection_pins[name], name


def _exceptional_fingerprints():
    z5, z7, w, z = (root_of_unity(n) for n in (5, 7, 3, 15))
    tau2 = 1 - z5 ** 2 - z5 ** 3                  # the golden ratio squared
    alpha = z7 + z7 ** 2 + z7 ** 4
    w2 = w ** 2
    return {  # t1, t2, t3, w, x, y, p, q
        "icosahedral": (-1, -1, -1, tau2, 0, 1, 0, 0),
        "G336": (-1, -1, -1, 2, 2, 2, alpha - 2, -3 - alpha),
        "G648": (w2, w2, w2, 0, -w2, -w2, 0, 0),
        "G1296": (-1, w2, w2, 2 + w, 2 + w, -w2, -2 - w, -1 - 2 * w),
        "G2160": (-1, -1, -1, 1, tau2, 2, -2 + z + z ** 2 - z ** 3 + z ** 4 + z ** 7,
                  -1 - z - z ** 4),
    }


@pytest.mark.parametrize("name", ["icosahedral", "G336", "G648", "G1296", "G2160"])
def test_exceptional_triples_keep_their_fingerprint(name):
    # the fingerprint fixes a triple up to simultaneous conjugation, so this
    # pin holds in any basis the group is built in
    expected = Fingerprint(*(v if isinstance(v, CycloNum) else CycloNum.from_rational(v)
                             for v in _exceptional_fingerprints()[name]))
    group = build_group(GroupSpec.exceptional(name))
    assert fingerprint(list(group.generators)).key() == expected.key()


def test_product_spectrum_is_checked(monkeypatch):
    # the mirror of G336's matrix swaps p and q: it closes to order 336 with
    # 21 reflections, but r1 r2 r3 has exponents (1/14, 9/14, 11/14), not
    # the (3/14, 5/14, 13/14) of the degrees (4, 6, 14)
    z = root_of_unity(7)
    alpha = z + z ** 2 + z ** 4
    mirror = groups._cartan_triple([[-2, 1, (alpha - 2) / 4], [2, -2, 1],
                                    [-3 - alpha, 2, -2]])
    elements = enumerate_elements(mirror)
    assert (len(elements), len(reflections_of(elements))) == (336, 21)
    monkeypatch.setattr(groups, "_generating_set", lambda spec: mirror)
    with pytest.raises(GroupValidationError, match=re.escape("G336: r1 r2 r3")):
        build_group(GroupSpec.exceptional("G336"))


def test_cartan_triple_has_the_braid_invariants():
    a = [[Fraction(-3, 2), 2, Fraction(1, 3)], [5, Fraction(1, 2), -1], [Fraction(-2, 7), 3, 4]]
    fp = fingerprint(groups._cartan_triple(a))
    expected = (1 + a[0][0], 1 + a[1][1], 1 + a[2][2], a[0][1] * a[1][0],
                a[0][2] * a[2][0], a[1][2] * a[2][1], a[0][1] * a[1][2] * a[2][0],
                a[0][2] * a[2][1] * a[1][0])
    assert fp.key() == Fingerprint(*map(CycloNum.from_rational, expected)).key()


@pytest.mark.parametrize("label, other", [("G(3,1,3)", "G(2,1,3)"),   # closes to 48 < 162
                                          ("G(2,1,3)", "G(3,1,3)"),   # overruns 48
                                          ("G2160", "icosahedral")])  # H3 alone: 120
def test_wrong_generating_set_is_refused(monkeypatch, label, other):
    wrong = _generating_set(GroupSpec.parse(other))
    monkeypatch.setattr(groups, "_generating_set", lambda spec: wrong)
    with pytest.raises(GroupValidationError, match=re.escape(f"{label}: generating set")):
        build_group(GroupSpec.parse(label))


def test_non_reflection_generator_is_refused(monkeypatch):
    cycle = [Mat3.permutation([1, 0, 2]), Mat3.permutation([1, 2, 0]),
             Mat3.permutation([0, 2, 1])]
    monkeypatch.setattr(groups, "_generating_set", lambda spec: cycle)
    with pytest.raises(GroupValidationError, match=re.escape("G(2,2,3): generators")):
        build_group(GroupSpec.parse("G(2,2,3)"))


def test_index_of_at_a_multiple_of_the_conductor(g336):
    r = g336.generators[0]
    i = g336.index_of(r)
    assert g336.index_of(r.lift(14)) == i
    assert g336.index_of(r * Mat3.identity(4)) == i
    wide = classify_triples(g336, first_fixed=r * Mat3.identity(4))
    assert wide == classify_triples(g336, first_fixed=r)
    for outside in (r.scale(root_of_unity(3)).lift(21),     # no lift to conductor 7
                    r.scale(CycloNum.from_rational(2)).lift(14)):
        with pytest.raises(ValueError, match="does not belong"):
            g336.index_of(outside)


@pytest.fixture(scope="module")
def table1_groups():
    return {spec.label(): build_group(spec) for spec in DEFAULT_TABLE_SPECS}


def test_row_map_matches_the_matrix_product(table1_groups):
    # every closure generator of these groups, and a matrix whose
    # coefficients are all nonzero, on every vector of S
    dens = set()
    rng = random.Random(3)
    for label in ("G(4,1,3)", "G336", "G648", "G2160"):
        c = table1_groups[label]
        d = len(c.vectors[0][1][0])
        zero = (1, ((0,) * d,) * 3)
        mats = [g.lift(c.n) for g in _generating_set(GroupSpec.parse(label))]
        dense = Mat3(c.n, [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(d)]
                           for _ in range(9)], 5)
        for m in mats + [dense]:
            dens.add(m.den)
            apply = row_map(m)
            for row in c.vectors:
                product = Mat3.from_rows(c.n, [row, zero, zero]) * m
                assert apply(row) == (product.den, product.nums[:3])
    assert max(dens) > 1      # the gcd pass has a denominator to clear


@pytest.mark.parametrize("label", [spec.label() for spec in DEFAULT_TABLE_SPECS])
def test_reflection_prescan_finds_reflections_and_identity(table1_groups, label):
    group = table1_groups[label]
    candidates = {i for i in range(group.order) if group.traces[i] == group.dets[i] + 2}
    assert candidates == set(group.refl_idx) | {0}
    assert list(group.refl_idx) == [group.index_of(r) for r in group.reflections]
    # build_group reads the reflections off trace = det + 2; the adjugate
    # test of `is_pseudo_reflection` on every element is the independent check
    assert reflections_of(group.elements) == list(group.reflections)


# whether the reflections form one conjugacy class: G(m,1,3) has the
# transpositions and the diagonal reflections, G648 and G1296 two classes too
_SINGLE_CLASS = {"G(3,3,3)": True, "G(4,4,3)": True, "G(5,5,3)": True, "G(6,6,3)": True,
                 "G(3,1,3)": False, "G(4,1,3)": False, "G(5,1,3)": False, "G(6,1,3)": False,
                 "icosahedral": True, "G336": True, "G648": False, "G1296": False,
                 "G2160": True}


@pytest.mark.parametrize("label", [spec.label() for spec in DEFAULT_TABLE_SPECS])
def test_reflections_single_class_matches_exact_conjugation(table1_groups, label):
    group = table1_groups[label]
    r = group.reflections[0]
    conjugates = {(x.inverse() * r * x).key() for x in group.elements}
    single = conjugates == {s.key() for s in group.reflections}
    assert group.reflections_single_class == single == _SINGLE_CLASS[label]


@pytest.mark.parametrize("label", ["G336", "G2160"])
def test_only_the_generators_get_the_reflection_test(monkeypatch, label):
    calls = []

    def counted(m):
        calls.append(m)
        return is_pseudo_reflection(m)
    monkeypatch.setattr(groups, "is_pseudo_reflection", counted)
    group = build_group(GroupSpec.parse(label))
    assert calls == list(group.generators)


def test_index_of_refuses_a_singular_matrix(g336):
    # every row of this matrix is e1, a vector of S, but no element has it
    e1 = Mat3.identity(g336.n).rows()[0]
    with pytest.raises(ValueError, match="does not belong"):
        g336.index_of(Mat3.from_rows(g336.n, [e1, e1, e1]))


# -- the row-action closure against an exact one -----------------------------

def _exact_close(generators, bound):
    """Reference closure: every element times every generator, exactly,
    keyed on the exact matrix.  Returns, in discovery order, each
    element's Mat3.key(), the columns right[g][i], the words, the dets and
    each trace as (n, nums, den), summed off the diagonal.

    A matrix over Q(zeta_n) is kept as den and an integer 3d x 3d matrix
    (d = phi(n)) whose (i, j) block is multiplication by the (i, j) entry
    on the power basis, so products are integer matrix products: in int64
    while every entry stays below 2^24, in Python ints for large generators.
    """
    n = 1
    for g in generators:
        n = n * g.n // math.gcd(n, g.n)
    small = all(g.den < 2 ** 10 and all(abs(c) < 2 ** 10 for e in g.nums for c in e)
                for g in generators)
    dtype = np.int64 if small else object
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    zeta = np.zeros((d, d), dtype=dtype)         # multiplication by zeta_n
    zeta[1:, :-1] = np.eye(d - 1, dtype=dtype)
    zeta[:, -1] = [-c for c in phi[:-1]]
    powers = [np.linalg.matrix_power(zeta, k) for k in range(d)]

    def normal(den, big):
        assert not small or np.abs(big).max() < 2 ** 24
        g = math.gcd(den, int(np.gcd.reduce(big, axis=None)))
        return den // g, big // g

    def regular(m):
        m = m.lift(n)
        return m.den, np.block([[sum(c * powers[k] for k, c in enumerate(m.nums[3 * i + j]))
                                 for j in range(3)] for i in range(3)])

    def key(den, big):
        # Mat3.key(): entry (i, j) has column 0 of block (i, j) as coefficients
        nums = big[:, ::d].reshape(3, d, 3).transpose(0, 2, 1).reshape(9, d).tolist()
        return n, den, tuple(map(tuple, nums))

    gens = [regular(g) for g in generators]
    gen_dets = [g.lift(n).det() for g in generators]
    ident = (1, np.eye(3 * d, dtype=dtype))
    index = {key(*ident): 0}
    elements, words, dets = [ident], [()], [CycloNum.one(n)]
    right = [[] for _ in gens]
    i = 0
    while i < len(elements):
        for g, (den, big) in enumerate(gens):
            prod = normal(elements[i][0] * den, elements[i][1] @ big)
            k = key(*prod)
            j = index.get(k)
            if j is None:
                if len(elements) >= bound:
                    raise ClosureBoundError(f"closure exceeded safety bound {bound}")
                j = index[k] = len(elements)
                elements.append(prod)
                words.append(words[i] + (g,))
                dets.append(dets[i] * gen_dets[g])
            right[g].append(j)
        i += 1
    traces = []
    for _, den, nums in index:
        t = CycloNum(n, [sum(c) for c in zip(nums[0], nums[4], nums[8])], den)
        traces.append((t.n, t.nums, t.den))
    return list(index), right, words, dets, traces


def _same_closure(generators, bound):
    got = _close(generators, bound)
    keys, right, words, dets, traces = _exact_close(generators, bound)
    assert [Mat3.from_rows(got["n"], [got["vectors"][s] for s in key]).key()
            for key in got["keys"]] == keys
    assert [list(col) for col in got["right"]] == right
    assert list(got["words"]) == words
    assert [d.key() for d in got["dets"]] == [d.key() for d in dets]
    assert [(t.n, t.nums, t.den) for t in got["traces"]] == traces


_CLOSURE_SPECS = ["G(2,1,3)", "G(2,2,3)", "G(3,3,3)", "G(4,4,3)", "G(5,5,3)",
                  "G(6,6,3)", "G(3,1,3)", "G(4,1,3)", "G(5,1,3)", "G(6,1,3)",
                  "icosahedral", "G336", "G648", "G1296", "G2160"]


# Named for the mod-p shadow closure it first checked; it now checks the
# row-action closure against the same exact BFS.
@pytest.mark.parametrize("label", _CLOSURE_SPECS)
def test_shadow_closure_matches_exact(label):
    spec = GroupSpec.parse(label)
    _same_closure(_generating_set(spec), spec.expected_order())


def _reducible_sets():
    one, z3, z4 = CycloNum.one(1), root_of_unity(3), root_of_unity(4)
    minus = CycloNum.from_rational(-1)
    swap12, swap23 = Mat3.permutation([1, 0, 2]), Mat3.permutation([0, 2, 1])
    # e1's orbit is {e1, -e1}, and e2's orbit holds e3, so the seed e3 is
    # seen and skipped
    yield [Mat3.diag(minus, one, one), Mat3.diag(one, z3, one), swap23], 36
    # e1's orbit holds e2, so the seed e2 is seen and skipped, and e3's
    # orbit is {e3, -e3}
    yield [swap12, Mat3.diag(z4, one, one), Mat3.diag(one, one, minus)], 64
    # the generators fix e1, whose orbit is the seed alone, and e2's orbit
    # holds e3
    yield [swap23, Mat3.diag(one, z3, one)], 18


@pytest.mark.parametrize("gens, order", list(_reducible_sets()))
def test_closure_of_reducible_sets_matches_exact(gens, order):
    _same_closure(gens, order)
    assert len(_close(gens, order)["keys"]) == order
    with pytest.raises(ClosureBoundError):
        _close(gens, order - 1)


@pytest.mark.parametrize("label", ["G(4,1,3)", "icosahedral", "G648", "G2160"])
def test_closure_needs_no_matrix_products(monkeypatch, label):
    # an element is keyed on its own rows, so neither building the group nor
    # reading its elements multiplies or inverts a matrix
    def refuse(*args):
        raise AssertionError("matrix arithmetic in the closure")
    monkeypatch.setattr(Mat3, "__mul__", refuse)
    monkeypatch.setattr(Mat3, "inverse", refuse)
    spec = GroupSpec.parse(label)
    group = build_group(spec)
    assert len(group.elements) == spec.expected_order()
    assert len(enumerate_elements(_generating_set(spec))) == spec.expected_order()


def test_denominator_prime_is_skipped():
    # G(3,1,3) conjugated by diag(p0, 1, 1), so that a large prime p0 is a
    # generator denominator
    p0 = 1048609
    one = CycloNum.one(1)
    s = Mat3.diag(CycloNum.from_rational(p0), one, one)
    s_inv = Mat3.diag(CycloNum.from_rational(Fraction(1, p0)), one, one)
    gens = [s_inv * g * s for g in _generating_set(GroupSpec.imprimitive(3, 1))]
    assert {g.den for g in gens} == {1, p0}
    _same_closure(gens, 162)


def test_infinite_order_shadow_identity_is_refused():
    m = Mat3.from_rationals([[1 + 1048609, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ClosureBoundError):
        _close([m], 50)
    with pytest.raises(ClosureBoundError):
        enumerate_elements([m], bound=50)


def test_singular_generator_is_refused():
    # {E, F} is a finite monoid, not a group
    e = Mat3.from_rationals([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    f = Mat3.from_rationals([[1, 1048609, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="invertible"):
        enumerate_elements([e, f])
