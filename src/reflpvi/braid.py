"""Braid group action on reflection triples and induced fingerprint maps.

The three-string braid group acts on triples by

    beta1(r1, r2, r3) = (r2, r2^-1 r1 r2, r3)
    beta2(r1, r2, r3) = (r1, r3, r3^-1 r2 r3)

For pseudo-reflections of any order the action descends to rational maps
of the fingerprint (t1, t2, t3, w, x, y, p, q).  Write r_i = 1 + e_i (x) alpha_i
and a_ij = alpha_i(e_j), so t_i = 1 + a_ii, r_i^-1 = 1 - e_i (x) alpha_i / t_i,

    w = a12 a21,  x = a13 a31,  y = a23 a32,
    p = a12 a23 a31,  q = a13 a32 a21.

Conjugating r1 by r2 replaces e1 by e1 - (a21/t2) e2 and alpha1 by
alpha1 + a12 alpha2; reading off the new a_ij gives, with one shorthand
value u per letter,

    beta1:    t -> (t2, t1, t3),  u = (q + wy)/t2,
              (w, x, y, p, q) -> (w, y, x + p - u, u, t2 p - wy)
    beta2:    t -> (t1, t3, t2),  u = (q + xy)/t3,
              (w, x, y, p, q) -> (x, w + p - u, y, u, t3 p - xy)
    beta1^-1: t -> (t2, t1, t3),  u = (q + wx)/t1,
              (w, x, y, p, q) -> (w, y + p - u, x, u, t1 p - wx)
    beta2^-1: t -> (t1, t3, t2),  u = (q + wy)/t2,
              (w, x, y, p, q) -> (x + p - u, w, y, u, t2 p - wy)

At t1 = t2 = t3 = -1 these are the polynomial maps of the real case.  All
four satisfy fingerprint(beta(T)) = beta_hat(fingerprint(T)) exactly,
which the test suite checks on whole groups, so braid orbits are walked on
fingerprints alone, as raw integer coefficient tuples (`_act`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .cyclotomic import CycloNum, Field, _normalize, field
from .linalg3 import Mat3
from .fingerprints import Fingerprint, TripleClass, fingerprint

LETTERS = ("b1", "b2", "b1i", "b2i")


class OrbitBoundError(RuntimeError):
    pass


class GenusError(ValueError):
    pass


def braid_act(letter: str, triple: Sequence[Mat3]) -> Tuple[Mat3, Mat3, Mat3]:
    r1, r2, r3 = triple
    if letter == "b1":
        return (r2, r2.inverse() * r1 * r2, r3)
    if letter == "b2":
        return (r1, r3, r3.inverse() * r2 * r3)
    if letter == "b1i":
        return (r1 * r2 * r1.inverse(), r1, r3)
    if letter == "b2i":
        return (r1, r2 * r3 * r2.inverse(), r2)
    raise ValueError(f"unknown braid letter {letter!r}")


def _shorthand(f: Field, t, a, b, p, q, inverses: Dict[tuple, tuple]):
    """u = (q + ab)/t and t p - ab, for raw (nums, den) values in the field f.

    1/t is read from `inverses`, and made and kept there on first use; a
    zero t has no inverse and raises ZeroDivisionError.
    """
    (an, ad), (bn, bd), (pn, pd), (qn, qd), (tn, td) = a, b, p, q, t
    ab, abd = f.dot(((an, bn),)), ad * bd
    if t not in inverses:
        inv = CycloNum(f.n, tn, td, _normalized=True).inverse()
        inverses[t] = (inv.nums, inv.den)
    tin, tid = inverses[t]
    u = _normalize(f.dot((([c * abd + e * qd for c, e in zip(qn, ab)], tin),)),
                   qd * abd * tid)
    tp, tpd = f.dot(((tn, pn),)), td * pd
    v = _normalize([c * abd - e * tpd for c, e in zip(tp, ab)], tpd * abd)
    return u, v


def _plus_p_minus_u(s, p, u):
    """s + p - u for raw (nums, den) values."""
    (sn, sd), (pn, pd), (un, ud) = s, p, u
    den = lcm(sd, pd, ud)
    ks, kp, ku = den // sd, den // pd, den // ud
    return _normalize([a * ks + b * kp - c * ku for a, b, c in zip(sn, pn, un)], den)


def _act(letter: str, state: tuple, f: Field, inverses: Dict[tuple, tuple]) -> tuple:
    """The letter's map (see the module docstring) on a raw state: the eight
    fingerprint values (t1, t2, t3, w, x, y, p, q) as lowest-terms
    (nums, den) in the field f = `field(n)`, which the maps keep.
    `inverses` keeps 1/t by raw t (see `_shorthand`)."""
    t1, t2, t3, w, x, y, p, q = state
    if letter == "b1":
        u, v = _shorthand(f, t2, w, y, p, q, inverses)
        return (t2, t1, t3, w, y, _plus_p_minus_u(x, p, u), u, v)
    if letter == "b2":
        u, v = _shorthand(f, t3, x, y, p, q, inverses)
        return (t1, t3, t2, x, _plus_p_minus_u(w, p, u), y, u, v)
    if letter == "b1i":
        u, v = _shorthand(f, t1, w, x, p, q, inverses)
        return (t2, t1, t3, w, _plus_p_minus_u(y, p, u), x, u, v)
    if letter == "b2i":
        u, v = _shorthand(f, t2, w, y, p, q, inverses)
        return (t1, t3, t2, _plus_p_minus_u(x, p, u), w, y, u, v)
    raise ValueError(f"unknown braid letter {letter!r}")


def _raw_state(fp: Fingerprint) -> Tuple[int, tuple]:
    """The common conductor n of fp's values, and fp as a raw state at n."""
    n = lcm(*(v.n for v in fp._values()))
    values = [v.lift(n) for v in fp._values()]
    return n, tuple((v.nums, v.den) for v in values)


def _fingerprints(n: int, states: Sequence[tuple]) -> List[Fingerprint]:
    """The raw states at conductor n as Fingerprints, one new CycloNum per
    entry; keying them descends each distinct value once (`CycloNum.canonical`)."""
    return [Fingerprint(*(CycloNum(n, nums, den, _normalized=True) for nums, den in state))
            for state in states]


def braid_act_quintuple(letter: str, fp: Fingerprint) -> Fingerprint:
    """Induced action on the fingerprint, for reflections of any order.

    The map is `_act` on fp's values lifted to their common conductor, so
    the image has every value at that conductor.  A zero t_i has no
    inverse and raises ZeroDivisionError.
    """
    n, state = _raw_state(fp)
    return _fingerprints(n, [_act(letter, state, field(n), {})])[0]


@dataclass
class OrbitReport:
    orbit: List[Fingerprint]
    sigma1: Tuple[int, ...]
    sigma2: Tuple[int, ...]
    sigma_prod: Tuple[int, ...]
    cycle_types: Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]
    genus: Optional[int]
    branches: int


def cycle_type(perm: Sequence[int]) -> Tuple[int, ...]:
    n = len(perm)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def cover_genus(branches: int, cycle_types: Sequence[Sequence[int]]) -> int:
    """Genus of the smooth cover of the thrice-punctured sphere with the
    given branch-cycle data (Euler-characteristic count)."""
    if len(cycle_types) != 3:
        raise GenusError("expected cycle types over exactly three branch points")
    n = branches
    for ct in cycle_types:
        if sum(ct) != n:
            raise GenusError("cycle type is not a partition of the branch count")
    euler = 2 * n - sum(n - len(ct) for ct in cycle_types)
    if euler % 2 != 0:
        raise GenusError("branch data gives a non-integral genus")
    g = (2 - euler) // 2
    if g < 0:
        raise GenusError("branch data gives negative genus")
    return g


def orbit(seed: Union[Fingerprint, Sequence[Mat3]], generators: str = "full",
          max_size: int = 1_000_000) -> OrbitReport:
    """Closure of a fingerprint class under the chosen braid generators.

    A triple seed is replaced by its fingerprint.  generators = "full" uses
    beta1, beta2 (the full braid group on three strings); "pure" uses their
    squares (the pure braid group).  The report always records the
    permutations sigma1, sigma2 induced by the squares on the orbit, their
    composition (apply beta1^2 then beta2^2), all three cycle types and the
    cover genus they determine.  The squares are read off the walk's own
    transitions, so a state costs four letter maps (`_act`, "pure") or two
    ("full").

    The seed is lifted once to the common conductor of its entries, which
    the braid maps keep and where coefficients are unique, and the walk
    runs on raw states, the values' (nums, den), which are also its keys.
    The maps only permute t1, t2, t3, so each 1/t_i is made once per walk.
    The reported Fingerprints are built from the raw states, all at that
    conductor; a `key()` of every state descends each distinct value once,
    through the value-keyed cache of `CycloNum.canonical`.
    """
    if generators not in ("full", "pure"):
        raise ValueError("generators must be 'full' or 'pure'")
    start = seed if isinstance(seed, Fingerprint) else fingerprint(seed)
    n, start = _raw_state(start)
    f = field(n)
    inverses: Dict[tuple, tuple] = {}
    letter_words = {
        "full": (("b1",), ("b2",)),
        "pure": (("b1", "b1"), ("b2", "b2")),
    }[generators]

    index: Dict[tuple, int] = {}
    states: List[tuple] = []
    # moves[w][i]: index of the image of state i under letter_words[w]
    moves: Tuple[List[int], ...] = tuple([] for _ in letter_words)

    def visit(state: tuple) -> int:
        idx = index.get(state)
        if idx is None:
            if len(states) >= max_size:
                raise OrbitBoundError(
                    f"orbit exceeded bound {max_size}; diverging input?")
            idx = index[state] = len(states)
            states.append(state)
        return idx

    visit(start)
    act = _act
    i = 0
    while i < len(states):          # states doubles as the BFS queue
        for w, word in enumerate(letter_words):
            state = states[i]
            for letter in word:
                state = act(letter, state, f, inverses)
            moves[w].append(visit(state))
        i += 1

    # the pure walk's transitions are the squares; a full walk's, applied twice
    sigma1, sigma2 = (tuple(m) if generators == "pure" else tuple(m[j] for j in m)
                      for m in moves)
    sigma_prod = tuple(sigma2[sigma1[i]] for i in range(len(states)))
    types = (cycle_type(sigma1), cycle_type(sigma2), cycle_type(sigma_prod))
    try:
        genus = cover_genus(len(states), types)
    except GenusError:
        genus = None
    return OrbitReport(
        orbit=_fingerprints(n, states),
        sigma1=sigma1,
        sigma2=sigma2,
        sigma_prod=sigma_prod,
        cycle_types=types,
        genus=genus,
        branches=len(states),
    )


def orbit_partition(classes: Sequence[TripleClass]) -> List[int]:
    """Sizes of the full-braid-group orbits on a set of triple classes.

    `classes` is a list as `classify_triples` returns it.  The orbits are
    the pieces of its class graph: each class's `braid_images` are the
    positions of the classes of beta1 and beta2 of its representative, so
    the walk is integer work, with no fingerprint map and no key.  A class
    whose image is not in the list (None) raises OrbitBoundError.
    """
    seen = [False] * len(classes)
    sizes = []
    for start in range(len(classes)):
        if seen[start]:
            continue
        seen[start] = True
        piece = [start]                 # doubles as the walk's queue
        for c in piece:
            for d in classes[c].braid_images:
                if d is None:
                    raise OrbitBoundError(
                        "braid image leaves the supplied class set; "
                        "classify without first_fixed restriction first")
                if not seen[d]:
                    seen[d] = True
                    piece.append(d)
        sizes.append(len(piece))
    return sorted(sizes)
