"""Exact 3x3 matrices over cyclotomic fields.

A Mat3 keeps all nine entries at one conductor over one common positive
denominator, as integer coefficient tuples on the power basis.  Products
then run in pure integer arithmetic: each entry is one call of the
conductor's compiled product `cyclotomic.field(n).dot` (three
convolutions summed, one reduction), looked up once per matrix, and
a CycloNum's normal form (`cyclotomic._normalize`), taken over all nine
entries at once, makes equal matrices at one conductor have equal keys.
The adjugate of the numerators, nine 2x2 minors by the same kernel,
gives det, charpoly, inverse and rank; the pseudo-reflection test needs
only the four minors through the first nonzero entry of M - I.
`row_map` compiles a matrix into a map on exact row vectors, the form
`Mat3.rows` reads its rows in: the nonzero integer weights of each input
coefficient, no convolution.  `Mat3.order`, and through it the order
check of `finite_order_spectrum`, walks e1, e2, e3 under that map.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import add
from typing import Callable, List, Optional, Sequence, Tuple

from .cyclotomic import (
    CycloNum,
    _normalize,
    cyclotomic_polynomial,
    euler_phi,
    field,
    log_root_of_unity,
)


class SingularMatrixError(ZeroDivisionError):
    pass


class SpectrumError(ValueError):
    pass


# adj[j][i] = m[i+1][j+1] m[i+2][j+2] - m[i+1][j+2] m[i+2][j+1], indices
# mod 3: the entry indices (a, d, b, c) of each minor ad - bc, row-major in adj
_ADJUGATE = tuple((3 * ((i + 1) % 3) + (j + 1) % 3, 3 * ((i + 2) % 3) + (j + 2) % 3,
                   3 * ((i + 1) % 3) + (j + 2) % 3, 3 * ((i + 2) % 3) + (j + 1) % 3)
                  for j in range(3) for i in range(3))


class Mat3:
    __slots__ = ("n", "den", "nums")

    def __init__(self, n: int, nums: Sequence[Sequence[int]], den: int = 1,
                 _normalized: bool = False):
        d = euler_phi(n)
        nums = tuple(tuple(e) for e in nums)
        if len(nums) != 9 or any(len(e) != d for e in nums):
            raise ValueError("Mat3 needs 9 entries of length phi(n)")
        if not _normalized and den != 1:        # den 1 is the normal form already
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            flat, den = _normalize([c for e in nums for c in e], den)
            nums = tuple(flat[k:k + d] for k in range(0, 9 * d, d))
        self.n, self.den, self.nums = n, den, nums

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_entries(entries: Sequence[Sequence[CycloNum]]) -> "Mat3":
        flat = [entries[i][j] for i in range(3) for j in range(3)]
        n = lcm(*(e.n for e in flat))
        flat = [e.lift(n) for e in flat]
        den = lcm(*(e.den for e in flat))
        nums = [tuple(c * (den // e.den) for c in e.nums) for e in flat]
        return Mat3(n, nums, den)

    @staticmethod
    def from_rows(n: int, rows: Sequence[tuple]) -> "Mat3":
        """The matrix whose rows are the exact row vectors `rows`, each
        (den, (e0, e1, e2)) at conductor n as `row_map` makes them."""
        den = lcm(*(d for d, _ in rows))
        return Mat3(n, [tuple(c * (den // d) for c in e) for d, entries in rows
                        for e in entries], den)

    @staticmethod
    def from_rationals(rows: Sequence[Sequence] ) -> "Mat3":
        cy = [[CycloNum.from_rational(Fraction(v)) for v in row] for row in rows]
        return Mat3.from_entries(cy)

    @staticmethod
    def identity(n: int = 1) -> "Mat3":
        d = euler_phi(n)
        one = (1,) + (0,) * (d - 1)
        zero = (0,) * d
        return Mat3(n, [one, zero, zero, zero, one, zero, zero, zero, one], 1,
                    _normalized=True)

    @staticmethod
    def zero(n: int = 1) -> "Mat3":
        d = euler_phi(n)
        z = (0,) * d
        return Mat3(n, [z] * 9, 1, _normalized=True)

    @staticmethod
    def diag(a: CycloNum, b: CycloNum, c: CycloNum) -> "Mat3":
        zero = CycloNum.zero(1)
        return Mat3.from_entries([[a, zero, zero], [zero, b, zero], [zero, zero, c]])

    @staticmethod
    def permutation(perm: Sequence[int]) -> "Mat3":
        """Matrix sending e_j to e_perm[j] (perm is a 0-based image list)."""
        rows = [[0] * 3 for _ in range(3)]
        for j, i in enumerate(perm):
            rows[i][j] = 1
        return Mat3.from_rationals(rows)

    # -- access -----------------------------------------------------------

    def rows(self) -> Tuple[tuple, tuple, tuple]:
        """The rows e_k M in the row form of `row_map`, each over its own
        lowest-terms denominator; `from_rows` is the inverse."""
        den, nums = self.den, self.nums
        out = []
        for row in (nums[0:3], nums[3:6], nums[6:9]):
            g = gcd(den, *(c for e in row for c in e))
            out.append((den // g, tuple(tuple(c // g for c in e) for e in row)))
        return tuple(out)

    def entry(self, i: int, j: int) -> CycloNum:
        return CycloNum(self.n, self.nums[3 * i + j], self.den)

    def entries(self) -> List[List[CycloNum]]:
        return [[self.entry(i, j) for j in range(3)] for i in range(3)]

    def lift(self, m: int) -> "Mat3":
        if m == self.n:
            return self
        return Mat3.from_entries([[self.entry(i, j).lift(m) for j in range(3)]
                                  for i in range(3)])

    def key(self):
        """Hashable canonical key among matrices at the same conductor."""
        return (self.n, self.den, self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat3):
            return NotImplemented
        if self.n == other.n:
            return self.den == other.den and self.nums == other.nums
        m = lcm(self.n, other.n)
        return self.lift(m).key() == other.lift(m).key()

    def __hash__(self):
        return hash(tuple(self.entry(i, j).key() for i in range(3) for j in range(3)))

    def __repr__(self):
        rows = self.entries()
        return "Mat3[" + "; ".join(", ".join(repr(e) for e in row) for row in rows) + "]"

    # -- arithmetic --------------------------------------------------------

    def _match(self, other: "Mat3") -> Tuple["Mat3", "Mat3"]:
        if self.n == other.n:
            return self, other
        m = lcm(self.n, other.n)
        return self.lift(m), other.lift(m)

    def __mul__(self, other: "Mat3") -> "Mat3":
        a, b = self._match(other)
        n, an, bn = a.n, a.nums, b.nums
        cols = (bn[0::3], bn[1::3], bn[2::3])
        dot = field(n).dot
        return Mat3(n, [dot(zip(row, col))
                        for row in (an[0:3], an[3:6], an[6:9]) for col in cols],
                    a.den * b.den)

    def __add__(self, other: "Mat3") -> "Mat3":
        a, b = self._match(other)
        da, db = a.den, b.den
        nums = [tuple(x * db + y * da for x, y in zip(ea, eb))
                for ea, eb in zip(a.nums, b.nums)]
        return Mat3(a.n, nums, da * db)

    def __sub__(self, other: "Mat3") -> "Mat3":
        return self + (-other)

    def __neg__(self) -> "Mat3":
        return Mat3(self.n, tuple(tuple(-c for c in e) for e in self.nums),
                    self.den, _normalized=True)

    def scale(self, c: CycloNum) -> "Mat3":
        return Mat3.from_entries([[self.entry(i, j) * c for j in range(3)]
                                  for i in range(3)])

    def trace(self) -> CycloNum:
        d = len(self.nums[0])
        s = [self.nums[0][k] + self.nums[4][k] + self.nums[8][k] for k in range(d)]
        return CycloNum(self.n, s, self.den)

    def trace_of_product(self, other: "Mat3") -> CycloNum:
        """Tr(self * other) without forming the product matrix."""
        a, b = self._match(other)
        bn = b.nums
        return CycloNum(a.n, field(a.n).dot(zip(a.nums, bn[0::3] + bn[1::3] + bn[2::3])),
                        a.den * b.den)

    def _adjugate(self) -> List[list]:
        """adj(N), the nine 2x2 minors of the numerators N: adj(M) = adj(N) / den^2."""
        nums = self.nums
        neg = [tuple(-c for c in e) for e in nums]
        dot = field(self.n).dot
        return [dot(((nums[a], nums[d]), (neg[b], nums[c])))
                for a, d, b, c in _ADJUGATE]

    def _det_nums(self, adj: List[list]) -> list:
        """det(N) = row 0 of N times column 0 of adj(N)."""
        return field(self.n).dot(zip(self.nums[0:3], adj[0::3]))

    def det(self) -> CycloNum:
        return CycloNum(self.n, self._det_nums(self._adjugate()), self.den ** 3)

    def charpoly(self) -> Tuple[CycloNum, CycloNum, CycloNum, CycloNum]:
        """Coefficients (c0, c1, c2, c3) of det(z - M) = c3 z^3 + c2 z^2 + c1 z + c0."""
        adj = self._adjugate()
        n, den = self.n, self.den
        e2 = CycloNum(n, [x + y + z for x, y, z in zip(*adj[0::4])], den * den)  # tr adj(M)
        d = CycloNum(n, self._det_nums(adj), den ** 3)
        return (-d, e2, -self.trace(), CycloNum.one(1))

    def inverse(self) -> "Mat3":
        """adj(N) den / det(N): one product per entry with the inverse of det(N) / den."""
        adj = self._adjugate()
        det = self._det_nums(adj)
        if not any(det):
            raise SingularMatrixError("matrix is singular")
        dinv = CycloNum(self.n, det, self.den).inverse()
        return Mat3(self.n, [field(self.n).dot(((e, dinv.nums),)) for e in adj], dinv.den)

    def rank(self) -> int:
        # Division-free via the adjugate, whose entries are the 2x2 minors.
        adj = self._adjugate()
        if any(self._det_nums(adj)):
            return 3
        if any(map(any, adj)):
            return 2
        return 1 if any(map(any, self.nums)) else 0

    def order(self, bound: int = 10000) -> int:
        """The least m >= 1 with M^m = I, with no matrix product.

        M^m = I exactly when e_k M^m = e_k for k = 1, 2, 3, so the order is
        the lcm of the orbit lengths of the rows e1, e2, e3 under v -> v M
        (one `row_map` of M).  ValueError when an orbit, or the lcm, passes
        `bound`; a singular M always does, as some e_k never returns.  So
        M^k = I exactly when order(bound=k) returns a divisor of k.
        """
        times_self = row_map(self)
        order = 1
        for start in Mat3.identity(self.n).rows():
            v = start
            for length in range(1, bound + 1):
                v = times_self(v)
                if v == start:
                    break
            else:
                length = bound + 1
            order = lcm(order, length)
            if order > bound:
                raise ValueError(f"element order exceeds bound {bound}")
        return order


def row_map(m: Mat3) -> Callable[[tuple], tuple]:
    """The map row -> row * m, compiled once for many rows.

    A row is (den, (e0, e1, e2)): integer power-basis coefficient tuples
    over one positive denominator at m's conductor.  The 3 phi(n) output
    coefficients of row * m are linear in the row's 3 phi(n) coefficients.
    Input coefficient p of entry k contributes zeta^p times row k of m
    (made here once, each power by one more multiplication by zeta), and
    only the nonzero weights of that contribution are kept.  Applying the
    map adds, for each nonzero input coefficient, its short list of
    weighted outputs: a generator's map is 9-34 % nonzero, and even a
    map 42 % nonzero took 0.03 ms this way over the 27 rows of G648's e1
    orbit, against 0.07 ms as one dot product per output, as an orbit's
    rows are about half zeros.  The result has the row form,
    with the gcd of the denominator and all coefficients divided out, so
    it is a canonical key.
    """
    nums, mden = m.nums, m.den
    d = len(nums[0])
    width = 3 * d
    outputs = range(width)
    phi = cyclotomic_polynomial(m.n)[:-1]     # zeta^d = -sum_i phi[i] zeta^i
    terms = []              # terms[k d + p]: (output j d + i, weight) pairs
    for k in range(3):
        powers = []         # powers[j][p] = zeta^p m[k][j]
        for x in nums[3 * k:3 * k + 3]:
            col = [x]
            for _ in range(d - 1):
                top, x = x[-1], (0,) + x[:-1]
                if top:
                    x = tuple(c - top * f for c, f in zip(x, phi))
                col.append(x)
            powers.append(col)
        for x0, x1, x2 in zip(*powers):
            flat = x0 + x1 + x2
            terms.append(tuple(zip(compress(outputs, flat), filter(None, flat))))

    def apply(row):
        den, (e0, e1, e2) = row
        flat = [0] * width
        for x, pairs in zip(e0 + e1 + e2, terms):
            if x:
                for i, w in pairs:
                    flat[i] += x * w
        den *= mden
        g = gcd(den, *flat)
        if g > 1:
            den //= g
            flat = [c // g for c in flat]
        return den, (tuple(flat[:d]), tuple(flat[d:2 * d]), tuple(flat[2 * d:]))

    return apply


def is_pseudo_reflection(m: Mat3) -> Optional[CycloNum]:
    """The non-unit eigenvalue t if rank(M - I) = 1 and det(M) != 0, else None.

    If rank(M - I) = 1 then M = I + u v^T, whose eigenvalues are (1, 1, t)
    with t = 1 + v^T u = det M = tr M - 2.  The rank test runs on the
    numerators N of M - I, M's with den taken off the diagonal's constant
    coefficients (a scale does not change the rank).  N has rank one
    exactly when it is nonzero and the four 2x2 minors through its first
    nonzero entry N[r][c] vanish: then every row i is N[i][c]/N[r][c]
    times row r.  Last, t = tr M - 2, read off tr N, must be nonzero.
    """
    nums = list(m.nums)
    for i in (0, 4, 8):
        nums[i] = (nums[i][0] - m.den,) + nums[i][1:]
    pivot = next((k for k, e in enumerate(nums) if any(e)), None)
    if pivot is None:
        return None
    r, c = divmod(pivot, 3)
    for j in range(3):
        if j != c:
            neg = tuple(-x for x in nums[3 * r + j])
            for i in range(3):
                # N[r][c] N[i][j] - N[r][j] N[i][c]
                if i != r and any(field(m.n).dot(((nums[pivot], nums[3 * i + j]),
                                                   (neg, nums[3 * i + c])))):
                    return None
    # tr N = den (tr M - 3), so t = tr M - 2 = (tr N + den) / den
    t = [x + y + z for x, y, z in zip(nums[0], nums[4], nums[8])]
    t[0] += m.den
    return CycloNum(m.n, t, m.den) if any(t) else None


def finite_order_spectrum(m: Mat3, order: int) -> Tuple[Fraction, Fraction, Fraction]:
    """Exponents (k1, k2, k3)/order with charpoly(M) = prod (z - zeta_order^ki).

    Verifies M^order = I by `Mat3.order` (a walk of rows, no matrix
    product), then returns `_spectrum_of_order(m, order)`.
    """
    if order < 1:
        raise SpectrumError("order must be positive")
    try:
        divides = order % m.order(bound=order) == 0
    except ValueError:          # M is singular, or its order is past `order`
        divides = False
    if not divides:
        raise SpectrumError("matrix does not have the claimed order")
    return _spectrum_of_order(m, order)


def _spectrum_of_order(m: Mat3, order: int) -> Tuple[Fraction, Fraction, Fraction]:
    """The exponents of `finite_order_spectrum` for an M already known to
    satisfy M^order = I, such as one whose order was just computed.

    Returns the lexicographically first k1 <= k2 <= k3 whose power sums
    match, all exactly, as the ascending tuple of exponents.  tr M and
    e2(M) are lifted once to L = lcm(order, n), where every zeta_order^k
    is an integer power-basis tuple, so each candidate's sums are compared
    with them as (nums, den) at L, with no descent.  det M = zeta_order^k_det
    fixes k3 = k_det - k1 - k2 mod order, so only the pairs (k1, k2) are
    enumerated.
    """
    c0, c1, c2, _ = m.charpoly()
    big = lcm(order, m.n)
    tr, e2 = (-c2).lift(big), c1.lift(big)
    tr, e2 = (tr.nums, tr.den), (e2.nums, e2.den)
    # det = zeta_order^k_det: its log has a denominator dividing order, as
    # det^order = det(M^order) = 1
    det_log = log_root_of_unity(-c0)
    k_det = det_log.numerator * (order // det_log.denominator)
    zpow = field(big).powers[::big // order]      # zeta_order^k at L
    for k1 in range(order):
        for k2 in range(k1, order):
            k3 = (k_det - k1 - k2) % order
            if k3 < k2:
                continue
            if (tuple(map(add, map(add, zpow[k1], zpow[k2]), zpow[k3])), 1) != tr:
                continue
            s2 = map(add, map(add, zpow[(k1 + k2) % order], zpow[(k1 + k3) % order]),
                     zpow[(k2 + k3) % order])
            if (tuple(s2), 1) != e2:
                continue
            return Fraction(k1, order), Fraction(k2, order), Fraction(k3, order)
    raise SpectrumError("no exponent triple matches the characteristic polynomial")


def nullspace(rows: List[List[CycloNum]]) -> List[List[CycloNum]]:
    """Basis of the right nullspace of a small exact matrix over a cyclotomic field."""
    if not rows:
        return []
    ncols = len(rows[0])
    mat = [list(r) for r in rows]
    piv_of_col = {}
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if not mat[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][col].inverse()
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][col].is_zero():
                f = mat[i][col]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        piv_of_col[col] = r
        r += 1
    free_cols = [c for c in range(ncols) if c not in piv_of_col]
    basis = []
    zero = CycloNum.zero(1)
    one = CycloNum.one(1)
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for col, prow in piv_of_col.items():
            vec[col] = -mat[prow][fc]
        basis.append(vec)
    return basis
