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
fingerprints alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

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


def braid_act_word(word: Sequence[str], triple: Sequence[Mat3]):
    for letter in word:
        triple = braid_act(letter, triple)
    return triple


def braid_act_quintuple(letter: str, fp: Fingerprint) -> Fingerprint:
    """Induced action on the fingerprint, for reflections of any order.

    A zero t_i has no inverse and raises ZeroDivisionError.
    """
    t1, t2, t3 = fp.t1, fp.t2, fp.t3
    w, x, y, p, q = fp.quintuple()
    if letter == "b1":
        wy = w * y
        u = (q + wy) / t2
        return Fingerprint(t2, t1, t3, w, y, x + p - u, u, t2 * p - wy)
    if letter == "b2":
        xy = x * y
        u = (q + xy) / t3
        return Fingerprint(t1, t3, t2, x, w + p - u, y, u, t3 * p - xy)
    if letter == "b1i":
        wx = w * x
        u = (q + wx) / t1
        return Fingerprint(t2, t1, t3, w, y + p - u, x, u, t1 * p - wx)
    if letter == "b2i":
        wy = w * y
        u = (q + wy) / t2
        return Fingerprint(t1, t3, t2, x + p - u, w, y, u, t2 * p - wy)
    raise ValueError(f"unknown braid letter {letter!r}")


@dataclass
class OrbitReport:
    orbit: List[Fingerprint]
    sigma1: Tuple[int, ...]
    sigma2: Tuple[int, ...]
    sigma_prod: Tuple[int, ...]
    cycle_types: Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]
    genus: Optional[int]
    branches: int

    def to_dict(self) -> dict:
        return {
            "branches": self.branches,
            "orbit": [fp.to_dict() for fp in self.orbit],
            "sigma1": list(self.sigma1),
            "sigma2": list(self.sigma2),
            "sigma_prod": list(self.sigma_prod),
            "cycle_types": [list(ct) for ct in self.cycle_types],
            "genus": self.genus,
        }


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

    A triple seed is replaced by its fingerprint; the walk itself only
    applies `braid_act_quintuple`.  generators = "full" uses beta1, beta2
    (the full braid group on three strings); "pure" uses their squares (the
    pure braid group).  The report always records the permutations sigma1,
    sigma2 induced by the squares on the orbit, their composition (apply
    beta1^2 then beta2^2), all three cycle types and the cover genus they
    determine.  The squares are read off the walk's own transitions, so a
    state costs four `braid_act_quintuple` calls ("pure") or two ("full").
    The seed is lifted once to the common conductor of its entries, which
    the braid maps keep and where coefficients are unique, so states are
    keyed on raw (nums, den).
    """
    if generators not in ("full", "pure"):
        raise ValueError("generators must be 'full' or 'pure'")
    start = seed if isinstance(seed, Fingerprint) else fingerprint(seed)
    n = lcm(*(v.n for v in start._values()))
    start = Fingerprint(*(v.lift(n) for v in start._values()))
    letter_words = {
        "full": (("b1",), ("b2",)),
        "pure": (("b1", "b1"), ("b2", "b2")),
    }[generators]

    index: Dict[tuple, int] = {}
    states: List[Fingerprint] = []
    # moves[w][i]: index of the image of state i under letter_words[w]
    moves: Tuple[List[int], ...] = tuple([] for _ in letter_words)

    def visit(fp: Fingerprint) -> int:
        key = tuple((v.nums, v.den) for v in fp._values())
        idx = index.get(key)
        if idx is None:
            if len(states) >= max_size:
                raise OrbitBoundError(
                    f"orbit exceeded bound {max_size}; diverging input?")
            idx = len(states)
            index[key] = idx
            states.append(fp)
        return idx

    visit(start)
    i = 0
    while i < len(states):          # states doubles as the BFS queue
        for w, word in enumerate(letter_words):
            fp = states[i]
            for letter in word:
                fp = braid_act_quintuple(letter, fp)
            moves[w].append(visit(fp))
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
        orbit=states,
        sigma1=sigma1,
        sigma2=sigma2,
        sigma_prod=sigma_prod,
        cycle_types=types,
        genus=genus,
        branches=len(states),
    )


def orbit_partition(classes: Sequence[TripleClass]) -> List[int]:
    """Sizes of the full-braid-group orbits on a set of triple classes."""
    index = {cls.fingerprint.key(): i for i, cls in enumerate(classes)}
    seen = [False] * len(classes)
    sizes = []
    for i, cls in enumerate(classes):
        if seen[i]:
            continue
        rep = orbit(cls.fingerprint, generators="full")
        count = 0
        for fp in rep.orbit:
            j = index.get(fp.key())
            if j is None:
                raise OrbitBoundError(
                    "braid image leaves the supplied class set; "
                    "classify without first_fixed restriction first")
            if not seen[j]:
                seen[j] = True
                count += 1
        if count != rep.branches:
            raise OrbitBoundError("classes duplicate fingerprints in the orbit")
        sizes.append(rep.branches)
    return sorted(sizes)
