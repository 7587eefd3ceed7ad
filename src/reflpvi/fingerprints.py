"""Conjugacy-class fingerprints of pseudo-reflection triples.

The fingerprint (t1, t2, t3, w, x, y, p, q) is computed from traces of
products: w, x, y from the three pair products, p and q from the two
triple products.  It is invariant under simultaneous conjugation and
satisfies pq = wxy.

It is an invertible affine image of eight values: det(r1), det(r2),
det(r3), tr(r1 r2), tr(r1 r3), tr(r2 r3), tr(r1 r2 r3) and tr(r3 r2 r1)
(`_from_traces`).  Inside one group all of them live at the one conductor
the closure lifts to, where a CycloNum has a unique representation, so
`classify_triples` keys triples on integer ids of those eight values and
does no cyclotomic arithmetic per triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .cyclotomic import CycloNum
from .linalg3 import Mat3, is_pseudo_reflection
from .groups import ReflectionGroup


class NotAReflectionError(ValueError):
    pass


@dataclass(frozen=True)
class Fingerprint:
    t1: CycloNum
    t2: CycloNum
    t3: CycloNum
    w: CycloNum
    x: CycloNum
    y: CycloNum
    p: CycloNum
    q: CycloNum

    def _values(self) -> Tuple[CycloNum, ...]:
        return (self.t1, self.t2, self.t3, self.w, self.x, self.y, self.p, self.q)

    def key(self):
        return tuple(v.key() for v in self._values())

    def all_t_minus_one(self) -> bool:
        minus_one = CycloNum.from_rational(-1)
        return self.t1 == minus_one and self.t2 == minus_one and self.t3 == minus_one

    def to_dict(self) -> dict:
        return {name: getattr(self, name).to_dict()
                for name in ("t1", "t2", "t3", "w", "x", "y", "p", "q")}

    def __repr__(self):
        return ("Fingerprint(t=({}, {}, {}), w={}, x={}, y={}, p={}, q={})"
                .format(self.t1, self.t2, self.t3, self.w, self.x, self.y, self.p, self.q))


def _from_traces(ts, pair_traces, triple_traces) -> Fingerprint:
    """The fingerprint from t_i, tr(r1 r2), tr(r1 r3), tr(r2 r3), tr(r1 r2 r3), tr(r3 r2 r1).

    The eight values are lifted to their common conductor n and put over
    one common denominator, so every sum and difference is integer work on
    coefficient tuples; a CycloNum is made only for each of w, x, y, p and
    q.  The t_i are kept as given.
    """
    values = (*ts, *pair_traces, *triple_traces)
    n = lcm(*{v.n for v in values})
    values = [v.lift(n) for v in values]
    den = lcm(*{v.den for v in values})
    t1, t2, t3, tr12, tr13, tr23, tr123, tr321 = (
        v.nums if v.den == den else [c * (den // v.den) for c in v.nums] for v in values)
    w = [a - b - c for a, b, c in zip(tr12, t1, t2)]
    x = [a - b - c for a, b, c in zip(tr13, t1, t3)]
    y = [a - b - c for a, b, c in zip(tr23, t2, t3)]
    for v in (w, x, y):
        v[0] -= den                     # the 1 in tr(r_i r_j) - 1 - t_i - t_j
    linear = [sum(c) for c in zip(t1, t2, t3, w, x, y)]
    p = [a - b for a, b in zip(tr123, linear)]
    q = [a - b for a, b in zip(tr321, linear)]
    return Fingerprint(*ts, *(CycloNum(n, v, den) for v in (w, x, y, p, q)))


def fingerprint(triple: Sequence[Mat3]) -> Fingerprint:
    """Trace invariants of a triple of pseudo-reflections."""
    r1, r2, r3 = triple
    ts = []
    for r in triple:
        t = is_pseudo_reflection(r)
        if t is None:
            raise NotAReflectionError("triple component is not a pseudo-reflection")
        ts.append(t)
    return _from_traces(ts,
                        (r1.trace_of_product(r2), r1.trace_of_product(r3),
                         r2.trace_of_product(r3)),
                        ((r1 * r2).trace_of_product(r3), (r3 * r2).trace_of_product(r1)))


def fingerprint_by_indices(group: ReflectionGroup, idx: Tuple[int, int, int]) -> Fingerprint:
    """Same invariants computed through the group's Cayley graph, by element index."""
    i, j, k = idx
    prod, trace = group.product_index, group.trace_index
    ij = prod(i, j)
    return _from_traces((group.det_index(i), group.det_index(j), group.det_index(k)),
                        (trace(ij), trace(prod(i, k)), trace(prod(j, k))),
                        (trace(prod(ij, k)), trace(prod(prod(k, j), i))))


@dataclass
class TripleClass:
    """One fingerprint class of reflection triples, as `classify_triples`
    returns it.

    `braid_images` are the positions, in the list this class came in, of
    the classes of beta1 and beta2 of its representative (see
    `reflpvi.braid`), or None where that class is not in the list.  They
    are the edges of the class graph.  `orbit` is the position of the
    first class of this class's piece of it, its braid orbit when no image
    is None.  A braid move keeps the subgroup a triple generates, so
    `generated_order` is one value for every class of a piece.
    """
    fingerprint: Fingerprint
    representative: Tuple[Mat3, Mat3, Mat3]
    multiplicity: int
    generated_order: int
    braid_images: Tuple[Optional[int], Optional[int]]
    orbit: int


def _interned(values: Sequence[CycloNum], n: int) -> List[int]:
    """A small integer id per value, equal ids exactly for equal values.

    All values are at conductor n, where the representation is unique.
    """
    ids: Dict[tuple, int] = {}
    out = []
    for v in values:
        assert v.n == n, "group traces and dets share the closure conductor"
        out.append(ids.setdefault((v.nums, v.den), len(ids)))
    return out


def classify_triples(group: ReflectionGroup,
                     first_fixed: Optional[Mat3] = None) -> List[TripleClass]:
    """Group reflection triples by exact fingerprint equality.

    With `first_fixed` given, triples (first_fixed, a, b) range over all
    reflection pairs (a, b); otherwise over all reflection triples.
    Classes come back sorted by fingerprint key, with multiplicities, the
    order of the subgroup each representative generates and the class
    graph (`TripleClass.braid_images`); the representative of a class is
    its first triple in `refl_idx` order, first element slowest.

    A triple (i, j, k) is keyed by the ids of det(i), det(j), det(k),
    tr(ij), tr(ik), tr(jk), tr(ijk), tr(kji), of which the fingerprint is
    an invertible affine image; all of them sit at the closure conductor,
    where equal values have equal coefficients, so two triples share a key
    exactly when they share a fingerprint.  The scan reads products off one
    right-multiplication column per reflection (`ReflectionGroup.column`);
    a class's Fingerprint is `fingerprint_by_indices` of its representative.

    Without `first_fixed`, only the earliest member of each conjugacy class
    C of reflections is scanned as first element, with weight |C| (with it,
    its one reflection has weight 1).  Conjugation by g maps the triples
    with first element i one to one onto those with first element g i g^-1
    and keeps the eight key values, so a key's multiplicity is the sum over
    C of |C| times its count with the earliest member of C first.  The
    earliest reflection that heads a triple with a given key is the
    earliest member of its class, since each conjugate heads a conjugate
    triple with that key; so the reduced scan finds the full scan's first
    triple of every key, and in the same order.

    The class graph sends each representative (i, j, k) through
    beta1 = (j, j^-1 i j, k) and beta2 = (i, k, k^-1 j k): the conjugates
    are two column lookups from one inverse per reflection, and an image's
    class is the one with its scan key, or None when no class has that key
    (the first reflection fixed, in a group whose reflections form more
    than one conjugacy class).  A braid move keeps the subgroup
    <r1, r2, r3>, since r2^-1 r1 r2 lies in <r1, r2> and r1 in
    <r2, r2^-1 r1 r2>.  So the generated order is walked on the columns
    (`ReflectionGroup.generated_order_by_columns`) from the representative
    of the first class not yet given one, and given with that class's
    position (`TripleClass.orbit`) to every class the graph reaches from
    it: once per braid orbit when no image is None.
    The image of a representative need not be the representative of its
    class; that each class's own representative generates a subgroup of
    the order given is checked on every class of the Table-1 groups by the
    test suite.
    """
    refl_idx = group.refl_idx
    if first_fixed is not None:
        fi = group.index_of(first_fixed)
        if fi not in refl_idx:
            raise NotAReflectionError("first_fixed is not a reflection of the group")
        firsts = [(fi, 1)]
    else:
        placed, firsts = set(), []                     # firsts: (earliest member, |C|)
        for r in refl_idx:
            if r not in placed:
                cls = group.conjugacy_class(r)
                placed |= cls
                firsts.append((r, len(cls)))

    tr = _interned(group.traces, group.n)
    det = _interned(group.dets, group.n)
    col = {r: group.column(r) for r in refl_idx}      # col[r][x] = index of x r
    found: Dict[tuple, list] = {}                      # key -> [i, j, k, count]
    for i, weight in firsts:
        ci = col[i]
        for j in refl_idx:
            cj = col[j]
            ij = cj[i]
            head = (det[i], det[j], tr[ij])
            for k in refl_idx:
                ck = col[k]
                key = head + (det[k], tr[ck[i]], tr[ck[j]], tr[ck[ij]], tr[ci[cj[k]]])
                entry = found.get(key)
                if entry is None:
                    found[key] = [i, j, k, weight]
                else:
                    entry[3] += weight

    rows = sorted(((fingerprint_by_indices(group, (i, j, k)), key, (i, j, k), count)
                   for key, (i, j, k, count) in found.items()),
                  key=lambda row: row[0].key())

    # the class graph: beta1 (i, j, k) = (j, j^-1 i j, k), beta2 (i, j, k) =
    # (i, k, k^-1 j k), looked up by the scan's key of the image
    position = {row[1]: p for p, row in enumerate(rows)}
    inv = {r: group.inverse_index(r) for r in refl_idx}

    def class_of(i, j, k):
        ci, cj, ck = col[i], col[j], col[k]
        ij = cj[i]
        return position.get((det[i], det[j], tr[ij], det[k],
                             tr[ck[i]], tr[ck[j]], tr[ck[ij]], tr[ci[cj[k]]]))

    images = [(class_of(j, col[j][col[i][inv[j]]], k), class_of(i, k, col[k][col[j][inv[k]]]))
              for _, _, (i, j, k), _ in rows]

    # one piece per braid orbit, walked from its first class p: orbit p
    orbits, orders = [None] * len(rows), {}
    for p, (_, _, (i, j, k), _) in enumerate(rows):
        if orbits[p] is None:
            orders[p] = group.generated_order_by_columns((col[i], col[j], col[k]))
            orbits[p], piece = p, [p]
            for q in piece:
                for r in images[q]:
                    if r is not None and orbits[r] is None:
                        orbits[r] = p
                        piece.append(r)
    refl = dict(zip(refl_idx, group.reflections))
    return [TripleClass(fp, (refl[i], refl[j], refl[k]), count, orders[o], pair, o)
            for (fp, _, (i, j, k), count), pair, o in zip(rows, images, orbits)]
