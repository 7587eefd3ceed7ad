"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is a polynomial in zeta_n reduced modulo the n-th cyclotomic
polynomial Phi_n, stored on the power basis zeta^0 .. zeta^(phi(n)-1).
Coefficients are rationals kept as a tuple of integer numerators over one
common positive denominator, so group-theoretic hot loops stay in integer
arithmetic.  The representation at a fixed conductor is unique, which gives
exact, hashable equality; equality across conductors goes through descent
to the minimal conductor.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, Optional, Sequence, Tuple


class NotRootOfUnityError(ValueError):
    """Raised when a logarithm is requested of a non root of unity."""


def _prime_divisors(n: int) -> list:
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    for p in _prime_divisors(n):
        result -= result // p
    return result


def _poly_divmod_int(num: Sequence[int], den: Sequence[int]) -> Tuple[list, list]:
    # Exact division of integer polynomials; den monic. Coefficient lists,
    # lowest degree first.
    num = list(num)
    dden = len(den) - 1
    out = [0] * max(len(num) - dden, 0)
    for i in range(len(num) - 1, dden - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - dden] = c
        for j, d in enumerate(den):
            num[i - dden + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return out, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Tuple[int, ...]:
    """Integer coefficients of Phi_n, lowest degree first, monic."""
    if n == 1:
        return (-1, 1)
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
            assert not r, "cyclotomic division must be exact"
            poly = q
    return tuple(poly)


@dataclass(frozen=True, slots=True)
class Field:
    """Q(zeta_n)'s tables and compiled product, made once per n by `field`:
    `powers` holds zeta_n^k for k < n on the power basis; `roots` maps the
    coefficients of each root of unity s zeta_n^k (s = +-1) to (s, k); `folds`
    holds the nonzero (coordinate, coefficient) pairs of zeta_n^m for the
    exponents m = phi .. 2 phi - 2 that a product of two elements reaches."""
    n: int
    phi: int
    powers: Tuple[Tuple[int, ...], ...]
    roots: Dict[Tuple[int, ...], Tuple[int, int]]
    folds: Tuple[Tuple[Tuple[int, int], ...], ...]

    def dot(self, pairs: Iterable[Tuple[Sequence[int], Sequence[int]]]) -> list:
        """sum x y over the pairs (x, y) of integer power-basis tuples: the
        one convolution loop of the exact layer, into one shared coefficient
        list whose exponents from phi on are folded back once by `folds`."""
        phi = self.phi
        conv = [0] * (2 * phi - 1)
        for x, y in pairs:
            for p, xp in enumerate(x):
                if xp:
                    for q, yq in enumerate(y, p):
                        if yq:
                            conv[q] += xp * yq
        out = conv[:phi]
        for c, row in zip(conv[phi:], self.folds):
            if c:
                for i, r in row:
                    out[i] += c * r
        return out


@lru_cache(maxsize=None)
def field(n: int) -> Field:
    """The compiled arithmetic of Q(zeta_n), one shared object per n."""
    low = cyclotomic_polynomial(n)[:-1]       # zeta^d = -sum_i low[i] zeta^i
    d = len(low)
    powers = [(1,) + (0,) * (d - 1)]
    for _ in range(n - 1):      # times zeta: a shift, then zeta^d reduced by Phi_n
        top, x = powers[-1][-1], (0,) + powers[-1][:-1]
        powers.append(tuple(c - top * f for c, f in zip(x, low)) if top else x)
    roots = {}
    for k, nums in enumerate(powers):
        roots.setdefault(nums, (1, k))
        roots.setdefault(tuple(-v for v in nums), (-1, k))
    folds = tuple(tuple((i, r) for i, r in enumerate(powers[m % n]) if r)
                  for m in range(d, 2 * d - 1))
    return Field(n, d, tuple(powers), roots, folds)


def reduce_power_coeffs(n: int, coeffs: Sequence[int]) -> list:
    """Reduce an integer coefficient list modulo Phi_n to length phi(n): x^m
    is zeta_n^(m mod n), read off the power table of `field(n)`."""
    f = field(n)
    out = list(coeffs[:f.phi]) + [0] * max(0, f.phi - len(coeffs))
    for m in range(f.phi, len(coeffs)):
        if coeffs[m]:
            for i, r in enumerate(f.powers[m % n]):
                out[i] += coeffs[m] * r
    return out


def _normalize(nums: Iterable[int], den: int) -> Tuple[Tuple[int, ...], int]:
    nums = tuple(nums)
    if den < 0:
        den = -den
        nums = tuple(-v for v in nums)
    g = den
    for v in nums:
        g = gcd(g, v)
        if g == 1:
            return nums, den
    return tuple(v // g for v in nums), den // g


@lru_cache(maxsize=None)
def _lift_rows(small: int, large: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Images of the power basis of Q(zeta_small) inside Q(zeta_large).

    Row j holds the nonzero (coordinate, coefficient) pairs of zeta_small^j
    on the power basis of Q(zeta_large).
    """
    assert large % small == 0
    step = large // small
    powers = field(large).powers
    return tuple(tuple((i, r) for i, r in enumerate(powers[step * j]) if r)
                 for j in range(euler_phi(small)))


def _combine(coeffs: Sequence[int], rows, width: int) -> list:
    """sum_j coeffs[j] * rows[j] for sparse integer rows, as a dense list."""
    out = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            for i, r in row:
                out[i] += c * r
    return out


def _left_inverse(rows, width: int):
    """Integer left inverse of independent sparse rows, on len(rows) coordinates.

    Returns (solve, scale): if x = sum_j c_j rows[j], then
    c_j = sum(v * x[i] for i, v in solve[j]) / scale.  Gauss-Jordan on the
    equations sum_j rows[j][i] c_j = x[i], augmented with the unit vectors;
    only pivot equations are ever subtracted from others, so each solve[j]
    reads the pivot coordinates alone.  This is the only Fraction arithmetic of
    the descent, and it runs once per (sub, n) pair.
    """
    m = len(rows)
    dense = [dict(row) for row in rows]
    mat = [[Fraction(r.get(i, 0)) for r in dense] + [Fraction(int(k == i)) for k in range(width)]
           for i in range(width)]
    for col in range(m):
        piv = next(i for i in range(col, width) if mat[i][col])
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [v * inv for v in mat[col]]
        for i in range(width):
            if i != col and mat[i][col]:
                f = mat[i][col]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[col])]
    scale = lcm(*(v.denominator for row in mat[:m] for v in row[m:]))
    solve = tuple(tuple((i, int(v * scale)) for i, v in enumerate(row[m:]) if v)
                  for row in mat[:m])
    return solve, scale


@lru_cache(maxsize=None)
def _descent_steps(n: int) -> tuple:
    """(sub, rows, solve, scale) for each prime p | n, ascending, with sub = n/p.

    rows are the lift rows of Q(zeta_sub) in Q(zeta_n) and (solve, scale)
    their integer left inverse from `_left_inverse`.  When p^2 | n the
    rows are the monomials zeta_n^(p j), so solve is the identity on the
    coordinates p j and scale is 1.
    """
    steps = []
    for p in _prime_divisors(n):
        sub = n // p
        rows = _lift_rows(sub, n)
        solve, scale = _left_inverse(rows, euler_phi(n))
        steps.append((sub, rows, solve, scale))
    return tuple(steps)


class CycloNum:
    """An exact element of Q(zeta_n)."""

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, nums: Sequence[int], den: int = 1, _normalized: bool = False):
        if n < 1:
            raise ValueError("conductor must be positive")
        d = euler_phi(n)
        if len(nums) != d:
            raise ValueError(f"expected {d} coefficients for conductor {n}, got {len(nums)}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if _normalized:
            self.nums = tuple(nums)
            self.den = den
        else:
            self.nums, self.den = _normalize(nums, den)
        self.n = n

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycloNum":
        q = Fraction(q)
        return CycloNum(1, (q.numerator,), q.denominator)

    @staticmethod
    def zero(n: int = 1) -> "CycloNum":
        return CycloNum(n, (0,) * euler_phi(n), 1, _normalized=True)

    @staticmethod
    def one(n: int = 1) -> "CycloNum":
        return CycloNum(n, field(n).powers[0], 1, _normalized=True)

    # -- representation -------------------------------------------------

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.nums)

    def is_rational(self) -> Optional[Fraction]:
        if any(v for v in self.nums[1:]):
            return None
        return Fraction(self.nums[0], self.den)

    def lift(self, m: int) -> "CycloNum":
        """Re-express in Q(zeta_m); m must be a multiple of the conductor."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError("can only lift to a multiple of the conductor")
        return CycloNum(m, _combine(self.nums, _lift_rows(self.n, m), euler_phi(m)), self.den)

    def _descend_once(self) -> Optional["CycloNum"]:
        """The element in Q(zeta_{n/p}) for the smallest prime p | n that admits it.

        For each p the sub-field coefficients are read off a few coordinates
        by the precomputed integer left inverse of `_descent_steps` (one
        integer mat-vec), then accepted only if lifting them back gives the
        element exactly.  The coefficients are unique, so a candidate that
        passes the lift-and-compare check is the answer.
        """
        nums = self.nums
        width = len(nums)
        for sub, rows, solve, scale in _descent_steps(self.n):
            cand = [sum(v * nums[i] for i, v in eq) for eq in solve]
            lifted = _combine(cand, rows, width)
            if all(a == scale * b for a, b in zip(lifted, nums)):
                return CycloNum(sub, cand, scale * self.den)
        return None

    def canonical(self) -> "CycloNum":
        """Equivalent element at the minimal conductor, `_canonical` of the
        value: equal values at one conductor get one shared result object."""
        return _canonical(self.n, self.nums, self.den)

    def key(self):
        c = self.canonical()
        return (c.n, c.den, c.nums)

    def __repr__(self) -> str:
        if self.n == 1:
            return str(Fraction(self.nums[0], self.den))
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z{self.n}")
            else:
                terms.append(f"{c}*z{self.n}^{i}")
        return " + ".join(terms) if terms else "0"

    def to_dict(self) -> dict:
        return {
            "conductor": self.n,
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.coeffs],
        }

    # -- arithmetic ------------------------------------------------------

    def _match(self, other) -> Tuple["CycloNum", "CycloNum"]:
        if not isinstance(other, CycloNum):
            other = CycloNum.from_rational(other)
        if self.n == other.n:
            return self, other
        m = lcm(self.n, other.n)
        return self.lift(m), other.lift(m)

    def __add__(self, other) -> "CycloNum":
        a, b = self._match(other)
        da, db = a.den, b.den
        nums = [x * db + y * da for x, y in zip(a.nums, b.nums)]
        return CycloNum(a.n, nums, da * db)

    __radd__ = __add__

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.n, tuple(-v for v in self.nums), self.den, _normalized=True)

    def __sub__(self, other) -> "CycloNum":
        a, b = self._match(other)
        da, db = a.den, b.den
        nums = [x * db - y * da for x, y in zip(a.nums, b.nums)]
        return CycloNum(a.n, nums, da * db)

    def __rsub__(self, other) -> "CycloNum":
        return (-self).__add__(other)

    def __mul__(self, other) -> "CycloNum":
        a, b = self._match(other)
        return CycloNum(a.n, field(a.n).dot(((a.nums, b.nums),)), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """The multiplicative inverse.

        A rational is inverted directly.  A root of unity u of order m has
        inverse u^(m-1), the power just before 1: for u = s zeta_n^k
        (s = +-1) that is s zeta_n^(n-k), read off the tables of `field(n)`.
        Anything else is divided into its Galois norm (`_norm_inverse`).
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        if not any(self.nums[1:]):
            # rational den/num; the constructor normalises the sign
            return CycloNum(self.n, (self.den,) + (0,) * (len(self.nums) - 1), self.nums[0])
        if self.den == 1:
            f = field(self.n)
            found = f.roots.get(self.nums)
            if found is not None:
                sign, k = found
                return CycloNum(self.n, tuple(sign * v for v in f.powers[-k % self.n]), 1,
                                _normalized=True)
        return self._norm_inverse()

    def _norm_inverse(self) -> "CycloNum":
        # x * prod_{k in (Z/n)^x, k != 1} sigma_k(x) is the norm N(x), a
        # rational, where sigma_k sends zeta_n to zeta_n^k
        n = self.n
        rest = CycloNum.one(n)
        for k in range(2, n):
            if gcd(k, n) == 1:
                spread = [0] * n
                for i, c in enumerate(self.nums):
                    spread[i * k % n] += c
                rest = rest * CycloNum(n, reduce_power_coeffs(n, spread), self.den)
        norm = self * rest
        return CycloNum(n, [v * norm.den for v in rest.nums], rest.den * norm.nums[0])

    def __truediv__(self, other) -> "CycloNum":
        a, b = self._match(other)
        return a * b.inverse()

    def __pow__(self, k: int) -> "CycloNum":
        if k < 0:
            return self.inverse() ** (-k)
        result = CycloNum.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        if self.n == other.n:
            return self.nums == other.nums and self.den == other.den
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.n)
        acc = 0j
        for c in reversed(self.nums):
            acc = acc * z + c
        return acc / self.den


@lru_cache(maxsize=None)
def _canonical(n: int, nums: Tuple[int, ...], den: int) -> CycloNum:
    """The element nums/den of Q(zeta_n) at its minimal conductor.

    Descends one prime at a time (`CycloNum._descend_once`): an integer
    mat-vec with a precomputed block inverse proposes the coefficients in
    the sub-field, and an exact lift-and-compare accepts or rejects them.
    No Fraction arithmetic runs per descent step.  The cache is keyed by
    the value's raw (n, nums, den), so each distinct value descends once;
    like `field`, it is unbounded.
    """
    cur = CycloNum(n, nums, den, _normalized=True)
    while (nxt := cur._descend_once()) is not None:
        cur = nxt
    return cur


def root_of_unity(n: int, k: int = 1) -> CycloNum:
    """zeta_n^k in canonical form."""
    if n < 1:
        raise ValueError("order must be positive")
    return CycloNum(n, field(n).powers[k % n], 1)


def log_root_of_unity(c: CycloNum) -> Fraction:
    """Return k/n in [0,1) with c = zeta_n^k, or raise NotRootOfUnityError."""
    found = field(c.n).roots.get(c.nums) if c.den == 1 else None
    if found is None:
        raise NotRootOfUnityError("element is not a root of unity")
    sign, k = found
    return (Fraction(k, c.n) + (Fraction(1, 2) if sign < 0 else 0)) % 1
