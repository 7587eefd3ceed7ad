"""Construction and enumeration of the triply-generated 3-dimensional
complex reflection groups.

Covered: the two imprimitive families G(m,1,3) and G(m,m,3) for m >= 2,
the icosahedral Coxeter group H3, and the four exceptional groups of
orders 336, 648, 1296 and 2160.  Every group is the closure of its
standard triple of reflections.  An exceptional triple is built from its
Cartan matrix a_ij = alpha_i(e_j) (`_cartan_triple`), which fixes the
triple up to conjugacy, so the group comes out in the basis of the
triple's root vectors.  Every construction is validated at build time by
its order, its reflection count and the spectrum of the product r1 r2 r3,
so a transcription slip cannot survive.

A group is one frozen `ReflectionGroup`, which holds its closure as a
Cayley graph on element indices and answers every group question by
index: `index_of` a matrix, `product_index`, `inverse_index`,
`trace_index`, `det_index`, `column` (right multiplication by an element),
`conjugacy_class` and the generated orders.  An exact matrix is built
only on request (`element`, `elements`) and for the reflections.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import lcm
from operator import add
from typing import Callable, Dict, List, Sequence, Tuple

from .cyclotomic import CycloNum, root_of_unity
from .linalg3 import Mat3, is_pseudo_reflection, row_map


class ClosureBoundError(RuntimeError):
    """Breadth-first closure exceeded its safety bound."""


class GroupValidationError(RuntimeError):
    """A constructed group failed an order/degree/reflection check."""


EXCEPTIONAL_DATA = {
    # name -> (order, ascending degrees)
    "icosahedral": (120, (2, 6, 10)),
    "G336": (336, (4, 6, 14)),
    "G648": (648, (6, 9, 12)),
    "G1296": (1296, (6, 12, 18)),
    "G2160": (2160, (6, 12, 30)),
}

# lowercased spec name -> exceptional group name
_EXCEPTIONAL_NAMES = {**{name.lower(): name for name in EXCEPTIONAL_DATA},
                     "icosa": "icosahedral", "h3": "icosahedral"}


@dataclass(frozen=True)
class GroupSpec:
    kind: str                      # "imprimitive" or "exceptional"
    m: int = 0
    p: int = 0
    name: str = ""

    def __post_init__(self):
        if self.kind == "imprimitive":
            if self.m < 2:
                raise ValueError("imprimitive groups need m >= 2")
            if self.p not in (1, self.m):
                raise ValueError("G(m,p,3) is triply generated only for p in {1, m}")
        elif self.kind == "exceptional":
            if self.name not in EXCEPTIONAL_DATA:
                raise ValueError(f"unknown exceptional group {self.name!r}")
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")

    @staticmethod
    def imprimitive(m: int, p: int) -> "GroupSpec":
        return GroupSpec(kind="imprimitive", m=m, p=p)

    @staticmethod
    def exceptional(name: str) -> "GroupSpec":
        return GroupSpec(kind="exceptional", name=name)

    @staticmethod
    def parse(text: str) -> "GroupSpec":
        low = text.strip().lower()
        if low in _EXCEPTIONAL_NAMES:
            return GroupSpec.exceptional(_EXCEPTIONAL_NAMES[low])
        match = re.fullmatch(r"g\(([-+]?\d+),([-+]?\d+),3\)", "".join(low.split()))
        if match:
            return GroupSpec.imprimitive(int(match[1]), int(match[2]))
        raise ValueError(f"cannot parse group spec {text!r}")

    def label(self) -> str:
        if self.kind == "exceptional":
            return self.name
        return f"G({self.m},{self.p},3)"

    def expected_order(self) -> int:
        if self.kind == "exceptional":
            return EXCEPTIONAL_DATA[self.name][0]
        return 6 * self.m ** 3 // self.p

    def degrees(self) -> Tuple[int, int, int]:
        if self.kind == "exceptional":
            return EXCEPTIONAL_DATA[self.name][1]
        m = self.m
        if self.p == 1:
            return (m, 2 * m, 3 * m)
        return tuple(sorted((3, m, 2 * m)))


def _row_action(n: int, gens: Sequence[Mat3], bound: int):
    """The generated group G as permutations of a finite set of row vectors.

    The generators are at conductor n, each compiled once by `row_map`.
    Walks the exact orbits of the row vectors e1, e2 and e3 under
    v -> v g, skipping a seed already seen, so each orbit is a contiguous
    run of S.  A finite set S with S g in S for every generator g is
    permuted by each g, so G acts on S; S holds the rows e_k x of every
    element x, so the action is faithful and G is finite.  One orbit has
    at most |G| vectors, so an orbit of more than `bound` vectors raises
    ClosureBoundError.

    Returns S, its index (vector -> position) and perms, with perms[g][s]
    the index in S of S[s] g.
    """
    index: Dict[tuple, int] = {}
    vectors: List[tuple] = []        # S in discovery order, doubling as the BFS queue
    perms: List[List[int]] = [[] for _ in gens]
    maps = [row_map(g) for g in gens]
    for seed in Mat3.identity(n).rows():
        if seed in index:
            continue
        start = s = index[seed] = len(vectors)
        vectors.append(seed)
        while s < len(vectors):
            for times_g, perm in zip(maps, perms):
                w = times_g(vectors[s])
                t = index.get(w)
                if t is None:
                    if len(vectors) - start >= bound:
                        raise ClosureBoundError(
                            f"an orbit exceeded safety bound {bound}")
                    t = index[w] = len(vectors)
                    vectors.append(w)
                perm.append(t)
            s += 1
    return vectors, index, perms


def _close(generators: Sequence[Mat3], bound: int) -> dict:
    """Breadth-first closure of a generating set, kept as its Cayley graph.

    Returns the closure's fields of `ReflectionGroup` (`n` to `dets`).
    The search runs on the permutation action of `_row_action`.  An
    element x is keyed on the indices in S of its own rows e1 x, e2 x,
    e3 x, so the identity is the key of the three unit rows, and a
    generator maps each index through its permutation: no matrix product.
    An element's determinant is its parent's times the generator's on its
    first edge; determinants are roots of unity, so each distinct
    (determinant, generator) pair is multiplied once, in a table local to
    the call.  A trace is read off the key (a, b, c) as the sum of entry 0
    of S[a], entry 1 of S[b] and entry 2 of S[c], summed as integer tuples
    over one denominator common to all of S (no per-element rescaling or
    gcd), and the raw sum is the key of one CycloNum per distinct trace.
    More than `bound` elements raise ClosureBoundError.
    """
    n = lcm(*(g.n for g in generators))
    gens = [g.lift(n) for g in generators]
    gen_dets = [g.det() for g in gens]
    if any(d.is_zero() for d in gen_dets):
        # a singular generator makes a monoid, which does not permute S
        raise ValueError("closure generators must be invertible")
    vectors, vector_index, perms = _row_action(n, gens, bound)
    identity = tuple(vector_index[e] for e in Mat3.identity(n).rows())
    keys = [identity]
    index = {identity: 0}
    words, dets = [()], [CycloNum.one(n)]
    det_products: Dict[tuple, CycloNum] = {}    # (det value, generator) -> product
    right: List[List[int]] = [[] for _ in gens]
    i = 0
    while i < len(keys):            # keys doubles as the BFS queue
        a, b, c = keys[i]
        for g, perm in enumerate(perms):
            k = (perm[a], perm[b], perm[c])
            j = index.get(k)
            if j is None:
                if len(keys) >= bound:
                    raise ClosureBoundError(
                        f"closure exceeded safety bound {bound}")
                j = index[k] = len(keys)
                keys.append(k)
                words.append(words[i] + (g,))
                det = dets[i]
                dk = (det.nums, det.den, g)
                product = det_products.get(dk)
                if product is None:
                    product = det_products[dk] = det * gen_dets[g]
                dets.append(product)
            right[g].append(j)
        i += 1
    den = lcm(*(d for d, _ in vectors))
    # entry j of every vector of S, over the one denominator den
    d0, d1, d2 = ([tuple(c * (den // d) for c in e[j]) for d, e in vectors] for j in range(3))
    traces = []
    distinct: Dict[tuple, CycloNum] = {}
    for a, b, c in keys:
        raw = tuple(map(add, map(add, d0[a], d1[b]), d2[c]))
        trace = distinct.get(raw)
        if trace is None:
            trace = distinct[raw] = CycloNum(n, raw, den)
        traces.append(trace)
    return dict(
        n=n, vectors=tuple(vectors), vector_index=vector_index, keys=tuple(keys),
        index=index, right=tuple(tuple(col) for col in right), words=tuple(words),
        traces=tuple(traces), dets=tuple(dets))


def enumerate_elements(generators: Sequence[Mat3], bound: int = 1_000_000) -> List[Mat3]:
    """Breadth-first closure of a generating set, identity first.

    The closure is `_close` (raising ClosureBoundError past `bound`), and
    each element's exact matrix is its key's rows of S.
    """
    c = _close(generators, bound)
    return [Mat3.from_rows(c["n"], [c["vectors"][s] for s in key]) for key in c["keys"]]


# ---------------------------------------------------------------------------
# generator constructions
# ---------------------------------------------------------------------------

def _imprimitive_standard_triple(m: int, p: int) -> List[Mat3]:
    zm = root_of_unity(m, 1)
    zero = CycloNum.zero(1)
    one = CycloNum.one(1)
    p12 = Mat3.permutation([1, 0, 2])
    p23 = Mat3.permutation([0, 2, 1])
    if p == m:
        twisted = Mat3.from_entries([
            [one, zero, zero],
            [zero, zero, zm.inverse()],
            [zero, zm, zero],
        ])
        return [p12, twisted, p23]
    diag = Mat3.diag(one, one, zm.inverse())
    return [p12, p23, diag]


def _cartan_triple(a: Sequence[Sequence]) -> List[Mat3]:
    """The reflections r_i = I + E_i a of the 3x3 matrix a_ij = alpha_i(e_j).

    E_i is the matrix unit at (i, i): row i of r_i is e_i plus row i of a,
    and its other rows are the identity's.  On column vectors this is
    r_i = 1 + e_i (x) alpha_i with alpha_i the row i of a, the form in
    which `braid.py` reads the fingerprint (t_i = 1 + a_ii, w = a12 a21,
    ..., q = a13 a32 a21) off a; the matrix fixes the triple up to
    conjugacy.  All three are lifted to the lcm conductor of a's entries.
    """
    one, zero = CycloNum.one(1), CycloNum.zero(1)
    triple = []
    for i in range(3):
        rows = [[one if j == k else zero for k in range(3)] for j in range(3)]
        rows[i] = [e + a_ik for e, a_ik in zip(rows[i], a[i])]
        triple.append(Mat3.from_entries(rows))
    n = lcm(*(r.n for r in triple))
    return [r.lift(n) for r in triple]


def _exceptional_cartan_matrix(name: str) -> List[list]:
    """The matrix a_ij = alpha_i(e_j) of the exceptional group's standard triple."""
    if name == "icosahedral":
        z = root_of_unity(5, 1)
        tau = -(z ** 2) - z ** 3                  # the golden ratio (1 + sqrt 5)/2
        return [[-2, tau, 0], [tau, -2, 1], [0, 1, -2]]
    if name == "G336":
        z = root_of_unity(7, 1)
        alpha = z + z ** 2 + z ** 4               # (-1 + sqrt -7)/2
        return [[-2, 1, (-3 - alpha) / 4], [2, -2, 1], [alpha - 2, 2, -2]]
    if name in ("G648", "G1296"):
        w = root_of_unity(3, 1)
        s = w ** 2 - 1
        if name == "G648":
            return [[s, 0, 1], [0, s, 1], [-(w ** 2), -(w ** 2), s]]
        return [[-2, 1, -1], [2 + w, s, 1], [-2 - w, -(w ** 2), s]]
    z = root_of_unity(15, 1)
    return [[-2, 1, (-1 - z - z ** 4) / 2], [1, -2, 1],
            [-2 + z + z ** 2 - z ** 3 + z ** 4 + z ** 7, 2, -2]]


# ---------------------------------------------------------------------------
# the group object
# ---------------------------------------------------------------------------

def _reachable(start, moves: Sequence[Callable]) -> set:
    """Everything reachable from `start` under repeated application of `moves`."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for move in moves:
                y = move(x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


_CLOSURE = dict(repr=False, compare=False)   # index data, out of the group's repr and ==


@dataclass(frozen=True)
class ReflectionGroup:
    """A validated reflection group; `build_group` makes it in one step.

    Elements are numbered in breadth-first closure order from the identity,
    0, and every group operation is integer work on these indices with no
    matrix arithmetic: right[g][i] is the index of element i times closure
    generator g, and element i is the product of the closure generators
    words[i], left to right.  Element i is stored only as keys[i], the
    indices in the row orbits `vectors` of its own rows (see `_close`), and
    `element` rebuilds its exact matrix from them.
    """
    spec: GroupSpec
    generators: Tuple[Mat3, Mat3, Mat3]          # standard generating triple
    order: int
    degrees: Tuple[int, int, int]
    reflections: Tuple[Mat3, ...]
    refl_idx: Tuple[int, ...] = field(**_CLOSURE)   # reflections[k] is element refl_idx[k]
    n: int = field(**_CLOSURE)                      # the closure conductor
    vectors: Tuple[tuple, ...] = field(**_CLOSURE)  # the orbits S of e1, e2, e3
    vector_index: Dict[tuple, int] = field(**_CLOSURE)
    keys: Tuple[Tuple[int, int, int], ...] = field(**_CLOSURE)
    index: Dict[tuple, int] = field(**_CLOSURE)     # keys[i] -> i
    right: Tuple[Tuple[int, ...], ...] = field(**_CLOSURE)
    words: Tuple[Tuple[int, ...], ...] = field(**_CLOSURE)
    traces: Tuple[CycloNum, ...] = field(**_CLOSURE)
    dets: Tuple[CycloNum, ...] = field(**_CLOSURE)

    def element(self, i: int) -> Mat3:
        """The exact matrix of element i, whose rows are S[a], S[b], S[c]."""
        return Mat3.from_rows(self.n, [self.vectors[s] for s in self.keys[i]])

    @property
    def elements(self) -> Tuple[Mat3, ...]:
        """All group elements as exact matrices, in closure order with the
        identity first; element indices refer to this.  Each access builds
        every element's matrix from its key (`element`)."""
        return tuple(self.element(i) for i in range(self.order))

    @property
    def reflections_single_class(self) -> bool:
        """Whether the reflections form one conjugacy class."""
        return len(self.conjugacy_class(self.refl_idx[0])) == len(self.reflections)

    def index_of(self, g: Mat3) -> int:
        try:
            if g.n != self.n:
                # a member's entries descend to divisors of n, at any conductor
                g = Mat3.from_entries([[e.canonical().lift(self.n) for e in row]
                                       for row in g.entries()])
            # g is element i when each of its rows e_k g is a vector S[s]
            # of S and these s form keys[i]
            return self.index[tuple(self.vector_index[row] for row in g.rows())]
        except (KeyError, ValueError):
            raise ValueError("element does not belong to the group") from None

    def product_index(self, i: int, j: int) -> int:
        right = self.right
        for g in self.words[j]:
            i = right[g][i]
        return i

    def inverse_index(self, i: int) -> int:
        # the last power of i before the identity, 0
        prev, x = 0, i
        while x:
            prev, x = x, self.product_index(x, i)
        return prev

    def trace_index(self, i: int) -> CycloNum:
        return self.traces[i]

    def det_index(self, i: int) -> CycloNum:
        return self.dets[i]

    def column(self, i: int) -> List[int]:
        """Right multiplication by element i: column(i)[x] = product_index(x, i).

        The generator columns composed along words[i], |G| lookups a letter.
        """
        col = range(self.order)
        for g in self.words[i]:
            right = self.right[g]
            col = [right[x] for x in col]
        return list(col)

    def conjugacy_class(self, i: int) -> frozenset:
        """Indices of the conjugacy class of element i."""
        # x -> g^-1 x g for the closure generators g, which generate the group
        conj = [(col, self.inverse_index(col[0])) for col in self.right]
        moves = [lambda x, col=col, g_inv=g_inv: col[self.product_index(g_inv, x)]
                 for col, g_inv in conj]
        return frozenset(_reachable(i, moves))

    def generated_order(self, triple: Sequence[Mat3]) -> int:
        """Order of the subgroup generated by a triple of group elements."""
        return self.generated_order_by_indices([self.index_of(t) for t in triple])

    def generated_order_by_indices(self, idx: Sequence[int]) -> int:
        return self.generated_order_by_columns([self.column(i) for i in idx])

    def generated_order_by_columns(self, cols: Sequence[Sequence[int]]) -> int:
        """Order of the subgroup generated by the elements whose right
        multiplications are the columns `cols` (see `column`).

        The breadth-first walk steps x -> x g with one lookup per generator
        and state, touching only the subgroup.  A proper subgroup has at
        most |G|/2 elements (Lagrange), so once the walk has seen more, the
        subgroup is the whole group.
        """
        half = self.order // 2
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for col in cols:
                    y = col[x]
                    if y not in seen:
                        if len(seen) == half:
                            return self.order
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return len(seen)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.label(),
            "order": self.order,
            "degrees": list(self.degrees),
            "reflections": len(self.reflections),
        }


def reflections_of(elements: Sequence[Mat3]) -> List[Mat3]:
    """All pseudo-reflections among the given elements, in deterministic order."""
    found = [g for g in elements if is_pseudo_reflection(g) is not None]
    found.sort(key=lambda g: g.key())
    return found


def _generating_set(spec: GroupSpec) -> List[Mat3]:
    """The standard triple, whose closure is the group."""
    if spec.kind == "imprimitive":
        return _imprimitive_standard_triple(spec.m, spec.p)
    return _cartan_triple(_exceptional_cartan_matrix(spec.name))


def build_group(spec: GroupSpec) -> ReflectionGroup:
    """Construct, enumerate and validate a reflection group.

    The group is the closure of its standard triple of reflections: the
    permutation and diagonal reflections of an imprimitive group, or
    `_cartan_triple` of an exceptional group's matrix a_ij = alpha_i(e_j).
    The closure is the only one made; every later step works on its Cayley
    graph.  GroupValidationError, naming the spec, is raised unless the
    three generators are reflections, the closure has the expected order
    (an overrun stops it), the group has sum(d_i - 1) reflections, and the
    product r1 r2 r3 has the eigenvalues zeta_h^(d_i - 1) of a regular
    element, h = d3 the largest degree.

    The closure (`_close`) walks the exact orbits of the row vectors e1,
    e2 and e3, a finite set on which the group acts faithfully.  Elements
    are enumerated on that permutation action, each keyed on its own three
    rows, with their traces and determinants.  The reflections are the
    elements other than the identity with trace = det + 2, so only the
    three generators, checked before the closure shows the group finite,
    go through `is_pseudo_reflection`.  The spectrum of r1 r2 r3 is checked
    on the group once it is built, by element index.
    """
    expected = spec.expected_order()
    degrees = spec.degrees()
    triple = tuple(_generating_set(spec))
    if any(is_pseudo_reflection(r) is None for r in triple):
        raise GroupValidationError(f"{spec.label()}: generators are not all reflections")
    try:
        closure = _close(triple, bound=expected)
    except ClosureBoundError:
        raise GroupValidationError(
            f"{spec.label()}: generating set overruns order {expected}") from None
    keys, vectors = closure["keys"], closure["vectors"]
    if len(keys) != expected:
        raise GroupValidationError(
            f"{spec.label()}: generating set closes to order {len(keys)}, "
            f"expected {expected}")
    # In a finite group, x != 1 is a pseudo-reflection iff tr x = det x + 2:
    # x is diagonalisable with root-of-unity eigenvalues, so tr x^-1 is the
    # conjugate of tr x, e2(x) = det x tr x^-1 = 2 det x + 1 and
    # det(z - x) = (z - 1)^2 (z - det x).  det + 2 is made once per distinct det.
    plus_two: Dict[tuple, CycloNum] = {}
    matrices = {}
    for i, (t, d) in enumerate(zip(closure["traces"], closure["dets"])):
        target = plus_two.get((d.nums, d.den))
        if target is None:
            target = plus_two[(d.nums, d.den)] = d + 2
        if i and t == target:
            matrices[i] = Mat3.from_rows(closure["n"], [vectors[s] for s in keys[i]])
    # sorted by matrix key, the order `reflections_of` gives
    refl_idx = sorted(matrices, key=lambda i: matrices[i].key())
    refl = [matrices[i] for i in refl_idx]
    if len(refl) != sum(d - 1 for d in degrees):
        raise GroupValidationError(
            f"{spec.label()}: {len(refl)} reflections, expected {sum(d - 1 for d in degrees)}")
    d1, d2, d3 = degrees
    if d1 * d2 * d3 != expected:
        raise GroupValidationError(f"{spec.label()}: degree product mismatch")
    group = ReflectionGroup(spec=spec, generators=triple, order=expected, degrees=degrees,
                            reflections=tuple(refl), refl_idx=tuple(refl_idx), **closure)

    # element 0 is the identity and right[g] multiplies by generator g, so
    # the product walks three columns; det(m), tr(m) and e2(m) = det(m)
    # tr(m^-1) give its characteristic polynomial
    m = 0
    for col in group.right:
        m = col[m]
    z1, z2, z3 = (root_of_unity(d3, d - 1) for d in degrees)
    det = group.dets[m]
    if (group.traces[m] != z1 + z2 + z3 or det != z1 * z2 * z3
            or det * group.traces[group.inverse_index(m)] != z1 * z2 + z1 * z3 + z2 * z3):
        raise GroupValidationError(
            f"{spec.label()}: r1 r2 r3 does not have the eigenvalues "
            f"zeta_{d3}^(d_i - 1) of the degrees {degrees}")
    return group
