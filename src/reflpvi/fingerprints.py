"""Conjugacy-class fingerprints of pseudo-reflection triples.

The fingerprint (t1, t2, t3, w, x, y, p, q) is computed from traces of
products: w, x, y from the three pair products, p and q from the two
triple products.  It is invariant under simultaneous conjugation and
satisfies pq = wxy.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def key(self):
        return tuple(v.key() for v in
                     (self.t1, self.t2, self.t3, self.w, self.x, self.y, self.p, self.q))

    def __eq__(self, other):
        return isinstance(other, Fingerprint) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def quintuple(self) -> Tuple[CycloNum, CycloNum, CycloNum, CycloNum, CycloNum]:
        return (self.w, self.x, self.y, self.p, self.q)

    def all_t_minus_one(self) -> bool:
        minus_one = CycloNum.from_rational(-1)
        return self.t1 == minus_one and self.t2 == minus_one and self.t3 == minus_one

    def to_dict(self) -> dict:
        return {name: getattr(self, name).to_dict()
                for name in ("t1", "t2", "t3", "w", "x", "y", "p", "q")}

    def __repr__(self):
        return ("Fingerprint(t=({}, {}, {}), w={}, x={}, y={}, p={}, q={})"
                .format(self.t1, self.t2, self.t3, self.w, self.x, self.y, self.p, self.q))


def fingerprint(triple: Sequence[Mat3]) -> Fingerprint:
    """Trace invariants of a triple of pseudo-reflections."""
    r1, r2, r3 = triple
    ts = []
    for r in triple:
        t = is_pseudo_reflection(r)
        if t is None:
            raise NotAReflectionError("triple component is not a pseudo-reflection")
        ts.append(t)
    t1, t2, t3 = ts
    one = CycloNum.one(1)
    w = r1.trace_of_product(r2) - one - t1 - t2
    x = r1.trace_of_product(r3) - one - t1 - t3
    y = r2.trace_of_product(r3) - one - t2 - t3
    tsum = t1 + t2 + t3
    m12 = r1 * r2
    p = m12.trace_of_product(r3) - tsum - w - x - y
    m32 = r3 * r2
    q = m32.trace_of_product(r1) - tsum - w - x - y
    return Fingerprint(t1, t2, t3, w, x, y, p, q)


def fingerprint_by_indices(group: ReflectionGroup, idx: Tuple[int, int, int]) -> Fingerprint:
    """Same invariants computed through the group's Cayley graph, by element index."""
    i, j, k = idx
    t1 = group.det_index(i)
    t2 = group.det_index(j)
    t3 = group.det_index(k)
    one = CycloNum.one(1)
    w = group.trace_index(group.product_index(i, j)) - one - t1 - t2
    x = group.trace_index(group.product_index(i, k)) - one - t1 - t3
    y = group.trace_index(group.product_index(j, k)) - one - t2 - t3
    tsum = t1 + t2 + t3
    p = group.trace_index(group.product_index(group.product_index(i, j), k)) - tsum - w - x - y
    q = group.trace_index(group.product_index(group.product_index(k, j), i)) - tsum - w - x - y
    return Fingerprint(t1, t2, t3, w, x, y, p, q)


@dataclass
class TripleClass:
    fingerprint: Fingerprint
    representative: Tuple[Mat3, Mat3, Mat3]
    multiplicity: int
    generated_order: int

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint.to_dict(),
            "multiplicity": self.multiplicity,
            "generated_order": self.generated_order,
        }


def classify_triples(group: ReflectionGroup,
                     first_fixed: Optional[Mat3] = None) -> List[TripleClass]:
    """Group reflection triples by exact fingerprint equality.

    With `first_fixed` given, triples (first_fixed, a, b) range over all
    reflection pairs (a, b); otherwise all reflection triples are scanned.
    Classes come back sorted by fingerprint key, with multiplicities and
    the order of the subgroup each representative generates.
    """
    refl_idx = group.reflection_indices()
    if first_fixed is not None:
        fi = group.index_of(first_fixed)
        if fi not in refl_idx:
            raise NotAReflectionError("first_fixed is not a reflection of the group")
        firsts = [fi]
    else:
        firsts = refl_idx

    buckets: Dict[tuple, TripleClass] = {}
    for i in firsts:
        for j in refl_idx:
            for k in refl_idx:
                fp = fingerprint_by_indices(group, (i, j, k))
                key = fp.key()
                entry = buckets.get(key)
                if entry is None:
                    rep = (group.elements[i], group.elements[j], group.elements[k])
                    order = group.generated_order_by_indices((i, j, k))
                    buckets[key] = TripleClass(fp, rep, 1, order)
                else:
                    entry.multiplicity += 1
    return [buckets[k] for k in sorted(buckets)]
