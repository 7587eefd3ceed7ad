import random

import pytest

from reflpvi.braid import (LETTERS, GenusError, OrbitBoundError, braid_act,
                           braid_act_quintuple, cover_genus, cycle_type, orbit,
                           orbit_partition)
from reflpvi.cyclotomic import CycloNum, _canonical
from reflpvi.fingerprints import Fingerprint, classify_triples, fingerprint
from reflpvi.groups import GroupSpec, build_group
from reflpvi.linalg3 import Mat3
from reflpvi.params import DEFAULT_TABLE_SPECS


def braid_act_word(word, triple):
    """The triple acted on by each letter of `word` in turn."""
    for letter in word:
        triple = braid_act(letter, triple)
    return triple


def _zero_fp():
    z = CycloNum.zero(1)
    m = CycloNum.from_rational(-1)
    return Fingerprint(m, m, m, z, z, z, z, z)


def test_commuting_triple_swap():
    r1 = Mat3.from_rationals([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    r2 = Mat3.from_rationals([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    r3 = Mat3.from_rationals([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    image = braid_act("b1", [r1, r2, r3])
    assert image == (r2, r1, r3)


def test_braid_relation_and_inverses(g336, g213):
    rng = random.Random(5)
    pool = list(g213.elements) + list(g336.elements)
    for _ in range(25):
        triple = [rng.choice(pool) for _ in range(3)]
        lhs = braid_act_word(("b1", "b2", "b1"), triple)
        rhs = braid_act_word(("b2", "b1", "b2"), triple)
        assert all(a == b for a, b in zip(lhs, rhs))
        for letter, inv in (("b1", "b1i"), ("b2", "b2i")):
            back = braid_act(inv, braid_act(letter, triple))
            assert all(a == b for a, b in zip(back, triple))


def test_product_invariance(g336):
    rng = random.Random(6)
    for _ in range(10):
        triple = [rng.choice(g336.reflections) for _ in range(3)]
        prod = triple[0] * triple[1] * triple[2]
        for letter in ("b1", "b2", "b1i", "b2i"):
            im = braid_act(letter, triple)
            assert im[0] * im[1] * im[2] == prod


def test_pure_braid_preserves_component_classes(g336):
    rng = random.Random(7)
    for _ in range(5):
        triple = [rng.choice(g336.reflections) for _ in range(3)]
        squared = braid_act_word(("b1", "b1"), triple)
        for r, s in zip(triple, squared):
            assert r.det() == s.det() and r.trace() == s.trace()
        squared = braid_act_word(("b2", "b2"), triple)
        for r, s in zip(triple, squared):
            assert r.det() == s.det() and r.trace() == s.trace()


def test_quintuple_fixed_points():
    fp = _zero_fp()
    for letter in ("b1", "b2", "b1i", "b2i"):
        assert braid_act_quintuple(letter, fp) == fp


def test_quintuple_rrr_fixed_point():
    m = CycloNum.from_rational(-1)
    four = CycloNum.from_rational(4)
    meight = CycloNum.from_rational(-8)
    fp = Fingerprint(m, m, m, four, four, four, meight, meight)
    assert braid_act_quintuple("b2", fp) == fp
    assert braid_act_quintuple("b1", fp) == fp


def test_quintuple_any_order_and_zero_t():
    # t = 1 with a zero quintuple is a fixed point of every letter ...
    one = CycloNum.one(1)
    z = CycloNum.zero(1)
    fp = Fingerprint(one, one, one, z, z, z, z, z)
    for letter in LETTERS:
        assert braid_act_quintuple(letter, fp) == fp
    # ... while a zero t_i has no inverse and fails loudly
    degenerate = Fingerprint(z, z, z, z, z, z, z, z)
    for letter in LETTERS:
        with pytest.raises(ZeroDivisionError):
            braid_act_quintuple(letter, degenerate)


@pytest.mark.parametrize("group_fixture", [
    pytest.param("g336", id="G336"),
    pytest.param("g648", id="G648"),
    pytest.param("g413", id="G(4,1,3)"),  # orders 2 and 4 mixed
    pytest.param("icosa", id="icosahedral"),
])
def test_quintuple_matches_triple_action(group_fixture, request):
    group = request.getfixturevalue(group_fixture)
    rng = random.Random(8)
    for _ in range(15):
        triple = [rng.choice(group.reflections) for _ in range(3)]
        fp = fingerprint(triple)
        for letter in LETTERS:
            assert fingerprint(braid_act(letter, triple)) == \
                braid_act_quintuple(letter, fp)


def test_klein_orbits(g336):
    fp = fingerprint(list(g336.generators))
    full = orbit(fp, "full")
    pure = orbit(fp, "pure")
    assert full.branches == 7
    assert pure.branches == 7
    assert all(ct == (3, 2, 2) for ct in pure.cycle_types)
    assert pure.genus == 0
    # permutations are bijections
    for sigma in (pure.sigma1, pure.sigma2, pure.sigma_prod):
        assert sorted(sigma) == list(range(7))


def test_orbit_lifts_a_mixed_conductor_seed(g336):
    # t = -1 and w = x = y = 2 at conductor 1, p and q at 7: unlifted, a
    # slot would hold 2 at conductor 1 in one state and at 7 in another,
    # so keys on raw coefficients would split one state in two
    fp = fingerprint(list(g336.generators))
    mixed = Fingerprint(*(v.canonical() for v in fp._values()))
    assert {v.n for v in fp._values()} == {7}
    assert [v.n for v in mixed._values()] == [1] * 6 + [7] * 2
    for generators in ("full", "pure"):
        plain, lifted = orbit(fp, generators), orbit(mixed, generators)
        assert lifted.branches == plain.branches == 7
        assert (lifted.sigma1, lifted.sigma2, lifted.sigma_prod) == \
            (plain.sigma1, plain.sigma2, plain.sigma_prod)
        assert lifted.orbit == plain.orbit


def test_commuting_orbit_is_fixed():
    rep = orbit(_zero_fp(), "full")
    assert rep.branches == 1
    assert rep.genus == 0


def test_orbit_seed_by_triple(g336):
    rep = orbit(list(g336.generators), "pure")
    assert rep.branches == 7


def _triple_level_orbit(triple, generators):
    """Reference orbit walked on exact triples: fingerprint keys in BFS order."""
    words = {"full": (("b1",), ("b2",)), "pure": (("b1", "b1"), ("b2", "b2"))}[generators]
    keys = [fingerprint(triple).key()]
    reps = [tuple(triple)]
    i = 0
    while i < len(reps):
        for word in words:
            image = braid_act_word(word, reps[i])
            key = fingerprint(image).key()
            if key not in keys:
                keys.append(key)
                reps.append(image)
        i += 1
    return keys


def test_orbit_order_three_seed(g648):
    triple = list(g648.generators)
    assert all(r.det() != CycloNum.from_rational(-1) for r in triple)
    for generators in ("full", "pure"):
        by_triple = orbit(triple, generators)
        by_fingerprint = orbit(fingerprint(triple), generators)
        assert by_triple == by_fingerprint
        assert [fp.key() for fp in by_triple.orbit] == \
            _triple_level_orbit(triple, generators)


def test_orbit_partition_g648(g648):
    classes = classify_triples(g648)
    assert len(classes) == 120
    assert orbit_partition(classes) == [1] * 8 + [3] * 8 + [4] * 4 + [6] * 6 + [9] * 4


def test_orbit_squares_from_walk(g648, monkeypatch):
    """sigma1, sigma2 equal the squares applied afresh to every state, and a
    pure orbit costs four raw letter maps per state, a full one two."""
    import reflpvi.braid as braid_mod
    calls = []
    raw_act = braid_mod._act

    def counting(letter, *args):
        calls.append(letter)
        return raw_act(letter, *args)

    classes = classify_triples(g648)
    monkeypatch.setattr(braid_mod, "_act", counting)
    for generators, per_state in (("pure", 4), ("full", 2)):
        seen = set()
        for cls in classes:
            if cls.fingerprint.key() in seen:
                continue
            del calls[:]
            rep = orbit(cls.fingerprint, generators)
            assert len(calls) == per_state * rep.branches
            seen.update(fp.key() for fp in rep.orbit)
            index = {fp.key(): i for i, fp in enumerate(rep.orbit)}
            for letter, sigma in (("b1", rep.sigma1), ("b2", rep.sigma2)):
                squares = [braid_act_quintuple(letter, braid_act_quintuple(letter, fp))
                           for fp in rep.orbit]
                assert sigma == tuple(index[fp.key()] for fp in squares)


def test_keying_orbit_states_descends_each_value_once(g648):
    """Keying every state of every pure orbit runs one canonical descent
    per distinct raw value, though equal values are separate objects."""
    reports = [orbit(cls.fingerprint, "pure") for cls in classify_triples(g648)]
    values = {(v.n, v.nums, v.den) for rep in reports for fp in rep.orbit for v in fp._values()}
    _canonical.cache_clear()
    for rep in reports:
        for fp in rep.orbit:
            fp.key()
    assert _canonical.cache_info().misses == len(values)
    assert len(values) < 8 * sum(rep.branches for rep in reports)


def test_orbit_partition(g336):
    classes = classify_triples(g336, first_fixed=g336.generators[0])
    assert orbit_partition(classes) == [1, 1, 3, 3, 4, 4, 6, 7, 7, 9]
    size7 = [c for c in classes if c.generated_order == 336]
    assert len(size7) == 14
    # every class outside the size-7 orbits generates a proper subgroup
    for cls in classes:
        rep = orbit(cls.fingerprint, "full")
        if rep.branches == 7:
            assert cls.generated_order == 336
        else:
            assert cls.generated_order < 336


def test_orbit_partition_small(g213):
    classes = classify_triples(g213)
    sizes = orbit_partition(classes)
    assert sum(sizes) == len(classes)


@pytest.mark.parametrize("spec, fixed_first",
                         [(s, False) for s in DEFAULT_TABLE_SPECS]
                         + [(GroupSpec.exceptional("G336"), True)],
                         ids=lambda v: v.label() if isinstance(v, GroupSpec)
                         else ("fixed" if v else "all"))
def test_class_graph_follows_the_fingerprint_maps(spec, fixed_first):
    """Each class's braid images are the classes that the fingerprint maps
    send its fingerprint to, and the generated order given to each braid
    orbit is that of every representative in it."""
    group = build_group(spec)
    classes = classify_triples(group, first_fixed=group.generators[0] if fixed_first else None)
    cols = {r: group.column(r) for r in group.refl_idx}
    for cls in classes:
        for letter, image in zip(("b1", "b2"), cls.braid_images):
            assert image is not None
            assert classes[image].fingerprint == braid_act_quintuple(letter, cls.fingerprint)
        rep = [cols[group.index_of(r)] for r in cls.representative]
        assert cls.generated_order == group.generated_order_by_columns(rep)


@pytest.mark.parametrize("name", ["g336", "g648", "icosa", "g413"])
def test_class_orbit_is_its_fingerprint_orbit(name, request):
    """The classes whose fingerprints lie in the full braid orbit of a
    class's fingerprint are exactly those that share its `orbit`."""
    classes = classify_triples(request.getfixturevalue(name))
    by_key = {cls.fingerprint.key(): p for p, cls in enumerate(classes)}
    for cls in classes:
        reached = {by_key[fp.key()] for fp in orbit(cls.fingerprint, "full").orbit}
        assert reached == {p for p, other in enumerate(classes) if other.orbit == cls.orbit}


@pytest.mark.parametrize("name", ["g648", "g413"])
def test_orbit_partition_refuses_classes_braid_moves_leave(name, request):
    """With the first reflection fixed in a group of two reflection classes,
    beta1 can move the first reflection into the other class."""
    group = request.getfixturevalue(name)
    assert not group.reflections_single_class
    classes = classify_triples(group, first_fixed=group.generators[0])
    assert any(image is None for cls in classes for image in cls.braid_images)
    with pytest.raises(OrbitBoundError):
        orbit_partition(classes)


def test_orbit_bound():
    m = CycloNum.from_rational(-1)
    three = CycloNum.from_rational(3)
    fp = Fingerprint(m, m, m, three, three, three,
                     CycloNum.one(1), CycloNum.from_rational(2))
    with pytest.raises(OrbitBoundError):
        orbit(fp, "full", max_size=50)


def test_cycle_type():
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 0)) == (3,)


def test_cover_genus():
    assert cover_genus(7, [(3, 2, 2)] * 3) == 0
    assert cover_genus(1, [(1,), (1,), (1,)]) == 0
    assert cover_genus(2, [(2,), (2,), (1, 1)]) == 0
    assert cover_genus(3, [(3,), (3,), (3,)]) == 1
    with pytest.raises(GenusError):
        cover_genus(3, [(3,), (3,), (2,)])
    with pytest.raises(GenusError):
        cover_genus(2, [(2,), (1, 1), (1, 1)])
