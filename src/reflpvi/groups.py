"""Construction and enumeration of the triply-generated 3-dimensional
complex reflection groups.

Covered: the two imprimitive families G(m,1,3) and G(m,m,3) for m >= 2,
the icosahedral Coxeter group H3, and the four exceptional groups of
orders 336, 648, 1296 and 2160.  Exceptional generators come from the
classical models (symmetries of the Klein quartic, of the Hesse pencil,
and H3's Coxeter triple plus one reflection for Valentiner's group); every
construction is validated at build time against the known order, degree
table and reflection count, so a transcription slip cannot survive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .cyclotomic import (CycloNum, _normalize, euler_phi, log_root_of_unity,
                         root_of_unity)
from .linalg3 import Mat3, is_pseudo_reflection, row_times


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
        s = text.strip()
        low = s.lower()
        if low in ("icosahedral", "icosa", "h3"):
            return GroupSpec.exceptional("icosahedral")
        if s in EXCEPTIONAL_DATA:
            return GroupSpec.exceptional(s)
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

    The generators are at conductor n.  Walks the exact orbit of the row
    vector e1 under v -> v g, then those of e2 and e3 (skipping a seed
    already seen), until the vectors found span K^3.  A finite set S with
    S g in S for every generator g is permuted by each g, so G acts on S;
    S spans, so the action is faithful and G is finite.  One orbit has at
    most |G| vectors, so an orbit of more than `bound` vectors raises
    ClosureBoundError.

    Returns S, its index (vector -> position), perms with perms[g][s] the
    index in S of S[s] g, and the indices in S of three independent vectors.
    """
    d = euler_phi(n)
    zero, one = (0,) * d, (1,) + (0,) * (d - 1)
    index: Dict[tuple, int] = {}
    vectors: List[tuple] = []        # S in discovery order, doubling as the BFS queue
    perms: List[List[int]] = [[] for _ in gens]
    basis: List[int] = []

    def note(i: int) -> None:
        # keep S[i] if it is independent of the vectors kept so far
        rows = [vectors[b] for b in basis] + [vectors[i]]
        rows += [(1, (zero,) * 3)] * (3 - len(rows))
        if Mat3.from_rows(n, rows).rank() > len(basis):
            basis.append(i)

    s = 0                            # the next vector of S to move
    for k in range(3):
        if len(basis) == 3:
            break
        seed = (1, tuple(one if j == k else zero for j in range(3)))
        if seed in index:
            continue
        start = index[seed] = len(vectors)
        vectors.append(seed)
        note(start)
        while s < len(vectors):
            for g, perm in zip(gens, perms):
                w = row_times(vectors[s], g)
                t = index.get(w)
                if t is None:
                    if len(vectors) - start >= bound:
                        raise ClosureBoundError(
                            f"an orbit exceeded safety bound {bound}")
                    t = index[w] = len(vectors)
                    vectors.append(w)
                    if len(basis) < 3:
                        note(t)
                perm.append(t)
            s += 1
    return vectors, index, perms, tuple(basis)


def _close(generators: Sequence[Mat3], bound: int) -> "_Cayley":
    """Breadth-first closure of a generating set, kept as its Cayley graph.

    The search runs on the permutation action of `_row_action`.  With B
    the matrix of its three independent rows b1, b2, b3, an element x is
    keyed on the indices in S of the rows b1 x, b2 x, b3 x of B x, which
    determine x = B^-1 (B x), and a generator maps each index through its
    permutation: no matrix product.  A determinant is multiplied along
    the element's first edge; a trace is read off the key (a, b, c) as
    tr((B x) B^-1), the sum of entries 0, 1, 2 of S[a], S[b], S[c] times
    B^-1, taken on integer coefficients over one common denominator, with
    one CycloNum per distinct trace.  More than `bound` elements raise
    ClosureBoundError.
    """
    n = lcm(*(g.n for g in generators))
    gens = [g.lift(n) for g in generators]
    gen_dets = [g.det() for g in gens]
    if any(d.is_zero() for d in gen_dets):
        # a singular generator makes a monoid, which does not permute S
        raise ValueError("closure generators must be invertible")
    vectors, vector_index, perms, basis = _row_action(n, gens, bound)
    keys = [basis]
    index = {basis: 0}
    words, dets = [()], [CycloNum.one(n)]
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
                dets.append(dets[i] * gen_dets[g])
            right[g].append(j)
        i += 1
    basis_inv = Mat3.from_rows(n, [vectors[s] for s in basis]).inverse()
    rows = [row_times(v, basis_inv) for v in vectors]   # S[s] B^-1, as integers
    traces = []
    distinct: Dict[tuple, CycloNum] = {}
    for a, b, c in keys:
        (da, ea), (db, eb), (dc, ec) = rows[a], rows[b], rows[c]
        den = lcm(da, db, dc)
        ka, kb, kc = den // da, den // db, den // dc
        key = _normalize([x * ka + y * kb + z * kc
                          for x, y, z in zip(ea[0], eb[1], ec[2])], den)
        trace = distinct.get(key)
        if trace is None:
            trace = distinct[key] = CycloNum(n, *key, _normalized=True)
        traces.append(trace)
    return _Cayley(
        n=n, vectors=tuple(vectors), vector_index=vector_index, basis=basis,
        basis_inv=basis_inv, keys=tuple(keys), index=index,
        right=tuple(tuple(col) for col in right), words=tuple(words),
        traces=tuple(traces), dets=_shared(dets))


def enumerate_elements(generators: Sequence[Mat3], bound: int = 1_000_000) -> List[Mat3]:
    """Breadth-first closure of a generating set, identity first.

    The closure is `_close` (raising ClosureBoundError past `bound`), and
    each element's exact matrix is then one product, `_Cayley.element`.
    """
    cayley = _close(generators, bound)
    return [cayley.element(i) for i in range(len(cayley))]


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


def _icosahedral_standard_triple() -> List[Mat3]:
    # Coxeter generators for H3 on the simple-root basis; golden ratio
    # tau = (1 + sqrt 5)/2 = -zeta5^2 - zeta5^3.
    z = root_of_unity(5, 1)
    tau = -(z ** 2) - (z ** 3)
    one = CycloNum.one(1)
    zero = CycloNum.zero(1)
    m1 = Mat3.from_entries([[-one, tau, zero], [zero, one, zero], [zero, zero, one]])
    m2 = Mat3.from_entries([[one, zero, zero], [tau, -one, one], [zero, zero, one]])
    m3 = Mat3.from_entries([[one, zero, zero], [zero, one, zero], [zero, one, -one]])
    return [m1, m2, m3]


def _klein_generating_set() -> List[Mat3]:
    """Order-336 symmetry group of the Klein quartic, extended by -1.

    Generated by the diagonal order-7 element diag(zeta7, zeta7^4, zeta7^2),
    the coordinate 3-cycle, and the negative of the classical involution h
    with h^2 = 1 built from zeta7^k - zeta7^(-k) over sqrt(-7).
    """
    z = root_of_unity(7, 1)
    sqrt_m7 = 1 + 2 * (z + z ** 2 + z ** 4)      # Gauss sum for conductor 7
    assert sqrt_m7 * sqrt_m7 == CycloNum.from_rational(-7)
    a = {k: z ** k - z ** (7 - k) for k in (1, 2, 4)}
    scale = sqrt_m7 * Fraction(1, 7)             # equals -1/sqrt(-7)
    rows = [[a[1], a[2], a[4]], [a[2], a[4], a[1]], [a[4], a[1], a[2]]]
    h = Mat3.from_entries([[rows[i][j] * scale for j in range(3)] for i in range(3)])
    if h * h != Mat3.identity(1):
        raise GroupValidationError("Klein involution failed h^2 = 1")
    sigma = Mat3.diag(z, z ** 4, z ** 2)
    return [sigma, Mat3.permutation([1, 2, 0]), -h]


def _hessian_generating_set(extended: bool) -> List[Mat3]:
    """The order-648 Hesse-pencil group, or its order-1296 extension."""
    w = root_of_unity(3, 1)
    one = CycloNum.one(1)
    a = Mat3.diag(one, w, w ** 2)
    b = Mat3.permutation([1, 2, 0])
    d = Mat3.diag(one, one, w)
    scale = -(2 * w + 1) * Fraction(1, 3)        # 1/sqrt(-3)
    v_rows = [[one, one, one], [one, w, w ** 2], [one, w ** 2, w]]
    v = Mat3.from_entries([[v_rows[i][j] * scale for j in range(3)] for i in range(3)])
    gens = [a, b, d, v]
    if extended:
        gens.append(Mat3.permutation([0, 2, 1]))
    return gens


# -- Valentiner (order 2160) -------------------------------------------------

def _valentiner_generating_set() -> List[Mat3]:
    """Valentiner's group: H3's Coxeter triple and one reflection outside H3.

    The added r = I + u v^T (v^T u = -2, so r^2 = 1) is the first of the
    group's 45 reflections, in `Mat3.key()` order, not in H3 = A5 x {+-1}.
    Any *reflection* outside H3 generates G2160 = {+-1} x 3.A6 with H3; an
    arbitrary element need not (omega I with H3 generates only 360).  H3's
    traces are real, so a reflection outside H3 (trace 1) is not a
    mu3-multiple of an H3 element, and its image in G2160/Z = A6 lies
    outside H3's image A5.  A5 is maximal in A6, and 3.A6 is a perfect,
    non-split cover, so the generated subgroup, which contains -1 and maps
    onto A6, is the whole group.
    """
    z = root_of_unity(15, 1)
    one = CycloNum.one(1)
    c = z + z ** 4
    u = (2 - z - 2 * z ** 2 + 2 * z ** 3 - z ** 4 + z ** 5 - 2 * z ** 7, 2 * one, one)
    v = (-c, (c + z ** 5) * Fraction(1, 2), CycloNum.zero(1))
    r = Mat3.identity(1) + Mat3.from_entries([[a * b for b in v] for a in u])
    if is_pseudo_reflection(r) is None or r * r != Mat3.identity(1):
        raise GroupValidationError("Valentiner generator is not an order-2 reflection")
    return _icosahedral_standard_triple() + [r]


# ---------------------------------------------------------------------------
# the group object
# ---------------------------------------------------------------------------

def _shared(values: Iterable[CycloNum]) -> Tuple[CycloNum, ...]:
    """The values, with equal ones (all at one conductor) sharing one object."""
    distinct: Dict[tuple, CycloNum] = {}
    return tuple(distinct.setdefault((v.nums, v.den), v) for v in values)


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


@dataclass(frozen=True)
class _Cayley:
    """A group's closure kept as its Cayley graph, by element index.

    Elements are numbered in breadth-first order from the identity, 0.
    right[g][i] is the index of element i times closure generator g, and
    element i is the product of the closure generators words[i], left to
    right, so every group operation below is integer work with no matrix
    arithmetic.  Element i is stored only as keys[i], the indices in the
    spanning orbit `vectors` of the rows of B x (see `_close`), and
    `element` rebuilds its exact matrix.
    """
    n: int                                   # the closure conductor
    vectors: Tuple[tuple, ...]               # the spanning orbit S
    vector_index: Dict[tuple, int]
    basis: Tuple[int, int, int]              # the rows b1, b2, b3 of B, in S
    basis_inv: Mat3
    keys: Tuple[Tuple[int, int, int], ...]
    index: Dict[tuple, int]                  # keys[i] -> i
    right: Tuple[Tuple[int, ...], ...]
    words: Tuple[Tuple[int, ...], ...]
    traces: Tuple[CycloNum, ...]
    dets: Tuple[CycloNum, ...]

    def __len__(self) -> int:
        return len(self.keys)

    def element(self, i: int) -> Mat3:
        """The exact matrix of element i, B^-1 [S[a]; S[b]; S[c]]: one product."""
        return self.basis_inv * Mat3.from_rows(self.n, [self.vectors[s] for s in self.keys[i]])

    def product(self, i: int, j: int) -> int:
        right = self.right
        for g in self.words[j]:
            i = right[g][i]
        return i

    def inverse(self, i: int) -> int:
        # the last power of i before the identity, 0
        prev, x = 0, i
        while x:
            prev, x = x, self.product(x, i)
        return prev

    def column(self, i: int) -> List[int]:
        """Right multiplication by element i: column(i)[x] = product(x, i).

        The generator columns composed along words[i], |G| lookups a letter.
        """
        col = range(len(self))
        for g in self.words[i]:
            right = self.right[g]
            col = [right[x] for x in col]
        return list(col)

    def conjugacy_class(self, i: int) -> frozenset:
        # x -> g^-1 x g for the closure generators g, which generate the group
        conj = [(col, self.inverse(col[0])) for col in self.right]
        moves = [lambda x, col=col, g_inv=g_inv: col[self.product(g_inv, x)]
                 for col, g_inv in conj]
        return frozenset(_reachable(i, moves))

    def generated_order(self, idx: Sequence[int]) -> int:
        """Order of the subgroup generated by the elements idx.

        The breadth-first walk steps x -> x idx[m] along the generator
        columns of words[idx[m]], touching only the subgroup: a full
        `column` per generator costs |G| lookups a letter, more than the
        walk when the subgroup is small.
        """
        right = self.right
        words = [self.words[i] for i in idx]
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for word in words:
                    y = x
                    for g in word:
                        y = right[g][y]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return len(seen)


@dataclass(frozen=True)
class ReflectionGroup:
    """A validated reflection group; `build_group` makes it in one step."""
    spec: GroupSpec
    generators: Tuple[Mat3, Mat3, Mat3]          # standard generating triple
    order: int
    degrees: Tuple[int, int, int]
    reflections: Tuple[Mat3, ...]
    reflections_single_class: bool
    cayley: _Cayley = field(repr=False, compare=False)

    @property
    def elements(self) -> Tuple[Mat3, ...]:
        """All group elements as exact matrices, in closure order with the
        identity first; element indices refer to this.  Each access makes
        one matrix product per element (`_Cayley.element`)."""
        return tuple(self.cayley.element(i) for i in range(self.order))

    # -- index-level operations, answered from the Cayley graph -------------

    def index_of(self, g: Mat3) -> int:
        c = self.cayley
        try:
            if g.n != c.n:
                # a member's entries descend to divisors of n, at any conductor
                g = Mat3.from_entries([[e.canonical().lift(c.n) for e in row]
                                       for row in g.entries()])
            # B g determines g: it is element i when, for each row b of B,
            # b g is the vector S[s] of S and these s form keys[i]
            return c.index[tuple(c.vector_index[row_times(c.vectors[b], g)]
                                 for b in c.basis)]
        except (KeyError, ValueError):
            raise ValueError("element does not belong to the group") from None

    def identity_index(self) -> int:
        return 0

    def product_index(self, i: int, j: int) -> int:
        return self.cayley.product(i, j)

    def inverse_index(self, i: int) -> int:
        return self.cayley.inverse(i)

    def trace_index(self, i: int) -> CycloNum:
        return self.cayley.traces[i]

    def det_index(self, i: int) -> CycloNum:
        return self.cayley.dets[i]

    def reflection_indices(self) -> List[int]:
        return [self.index_of(r) for r in self.reflections]

    def conjugacy_class(self, i: int) -> frozenset:
        """Indices of the conjugacy class of element i."""
        return self.cayley.conjugacy_class(i)

    def generated_order(self, triple: Sequence[Mat3]) -> int:
        """Order of the subgroup generated by a triple of group elements."""
        idx = [self.index_of(t) for t in triple]
        return self.generated_order_by_indices(idx)

    def generated_order_by_indices(self, idx: Sequence[int]) -> int:
        return self.cayley.generated_order(idx)

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


def _standard_triple_exceptional(spec: GroupSpec, cayley: _Cayley,
                                 refl_idx: List[int]) -> Tuple[int, int, int]:
    """Find a generating triple whose product is a regular element realizing
    the exponent spectrum mu_i = (d_i - 1)/d_3; ordered with lambda ascending."""
    d1, d2, d3 = spec.degrees()
    h = d3
    exps = (d1 - 1, d2 - 1, d3 - 1)
    zpow = [root_of_unity(h, k) for k in range(h)]
    e1t = zpow[exps[0]] + zpow[exps[1]] + zpow[exps[2]]
    e2t = (zpow[exps[0]] * zpow[exps[1]] + zpow[exps[0]] * zpow[exps[2]]
           + zpow[exps[1]] * zpow[exps[2]])
    e3t = zpow[sum(exps) % h]
    dets, traces = cayley.dets, cayley.traces

    # group reflections into conjugacy classes, each in key order (that of
    # refl_idx), not in the closure's element order
    position = {i: p for p, i in enumerate(refl_idx)}
    classes: List[List[int]] = []
    assigned = set()
    for i in refl_idx:
        if i in assigned:
            continue
        cls = cayley.conjugacy_class(i)
        classes.append(sorted(cls, key=position.__getitem__))
        assigned |= cls

    def lam(i):
        return log_root_of_unity(dets[i])

    classes.sort(key=lambda cls: lam(cls[0]))
    candidates = []
    for c1 in classes:
        for c2 in classes:
            for c3 in classes:
                if lam(c1[0]) <= lam(c2[0]) <= lam(c3[0]):
                    if dets[c1[0]] * dets[c2[0]] * dets[c3[0]] == e3t:
                        candidates.append((c1, c2, c3))
    # scan class tuples with the largest lambda signature first; when two
    # det-orientations both admit a regular triple this picks the one whose
    # theta tuple matches the published parameter table
    candidates.sort(key=lambda t: (lam(t[0][0]), lam(t[1][0]), lam(t[2][0])),
                    reverse=True)
    for c1, c2, c3 in candidates:
        i1 = c1[0]                    # conjugation lets the first slot be fixed
        for ia in c2:
            pa = cayley.product(i1, ia)
            for ib in c3:
                m = cayley.product(pa, ib)
                if traces[m] != e1t:
                    continue
                # det(m) = e3t already, so the characteristic polynomial
                # matches once e2(m) = det(m) tr(m^-1) does
                if dets[m] * traces[cayley.inverse(m)] != e2t:
                    continue
                if cayley.generated_order((i1, ia, ib)) == spec.expected_order():
                    return (i1, ia, ib)
    raise GroupValidationError(
        f"no standard generating triple found for {spec.label()}")


def _generating_set(spec: GroupSpec) -> List[Mat3]:
    """The generating set whose closure is the group."""
    if spec.kind == "imprimitive":
        return _imprimitive_standard_triple(spec.m, spec.p)
    if spec.name == "icosahedral":
        return _icosahedral_standard_triple()
    if spec.name == "G336":
        return _klein_generating_set()
    if spec.name in ("G648", "G1296"):
        return _hessian_generating_set(extended=spec.name == "G1296")
    return _valentiner_generating_set()


def build_group(spec: GroupSpec) -> ReflectionGroup:
    """Construct, enumerate and validate a reflection group.

    The group is the closure of its one generating set: the standard
    triple of an imprimitive group or H3, the Klein-quartic set, the
    Hesse-pencil set, or H3's triple plus one reflection outside H3 for
    Valentiner's group.  A closure that overruns or
    falls short of the expected order raises GroupValidationError.  That
    closure is the only one made; every later step works on its Cayley
    graph.

    The closure (`_close`) walks the exact orbit of the row vector e1
    (then e2, e3 if needed) until it spans, so the group acts faithfully on
    a finite set.  Elements are enumerated on that permutation action with
    their traces and determinants; exact matrices are built only for the
    trace = det + 2 candidates of the reflection scan.
    """
    expected = spec.expected_order()
    degrees = spec.degrees()
    gens = _generating_set(spec)
    try:
        cayley = _close(gens, bound=expected)
    except ClosureBoundError:
        raise GroupValidationError(
            f"{spec.label()}: generating set overruns order {expected}") from None
    if len(cayley) != expected:
        raise GroupValidationError(
            f"{spec.label()}: generating set closes to order {len(cayley)}, "
            f"expected {expected}")
    # a pseudo-reflection has eigenvalues (1, 1, det), so trace = det + 2
    candidates = [i for i, (t, d) in enumerate(zip(cayley.traces, cayley.dets))
                  if t == d + 2]
    matrices = [cayley.element(i) for i in candidates]
    refl = reflections_of(matrices)
    if len(refl) != sum(d - 1 for d in degrees):
        raise GroupValidationError(
            f"{spec.label()}: {len(refl)} reflections, expected {sum(d - 1 for d in degrees)}")
    d1, d2, d3 = degrees
    if d1 * d2 * d3 != expected:
        raise GroupValidationError(f"{spec.label()}: degree product mismatch")
    where = {g.key(): i for g, i in zip(matrices, candidates)}
    refl_idx = [where[r.key()] for r in refl]

    if spec.kind == "imprimitive" or spec.name == "icosahedral":
        # the closure was made from this triple, so it generates the group
        triple = tuple(gens)
        for r in triple:
            if is_pseudo_reflection(r) is None:
                raise GroupValidationError(f"{spec.label()}: generator is not a reflection")
    else:
        by_index = dict(zip(refl_idx, refl))
        triple = tuple(by_index[i]
                       for i in _standard_triple_exceptional(spec, cayley, refl_idx))

    return ReflectionGroup(
        spec=spec,
        generators=triple,
        order=expected,
        degrees=degrees,
        reflections=tuple(refl),
        reflections_single_class=len(cayley.conjugacy_class(refl_idx[0])) == len(refl),
        cayley=cayley,
    )
