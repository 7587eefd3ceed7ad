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
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Optional, Sequence, Tuple


class NotRootOfUnityError(ValueError):
    """Raised when a logarithm is requested of a non root of unity."""


def euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
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


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> Tuple[Tuple[int, ...], ...]:
    """x^m mod Phi_n for m = d .. max(n, 2d-1) - 1, as integer rows (d = phi(n))."""
    phi = list(cyclotomic_polynomial(n))
    d = len(phi) - 1
    top_degree = max(n, 2 * d - 1) - 1
    rows = []
    # current = x^m reduced, starting at m = d
    current = [-c for c in phi[:-1]]
    rows.append(tuple(current))
    for _ in range(top_degree - d):
        current = [0] + current
        top = current.pop()  # coefficient of x^d
        if top:
            current = [c - top * p for c, p in zip(current, phi[:-1])]
        rows.append(tuple(current))
    return tuple(rows)


def reduce_power_coeffs(n: int, coeffs: Sequence[int]) -> list:
    """Reduce an integer coefficient list modulo Phi_n to length phi(n)."""
    d = euler_phi(n)
    if len(coeffs) > max(n, 2 * d - 1):
        # zeta^n = 1: fold exponents mod n before the polynomial reduction
        folded = [0] * n
        for m, c in enumerate(coeffs):
            folded[m % n] += c
        coeffs = folded
    out = list(coeffs[:d]) + [0] * max(0, d - len(coeffs))
    if len(coeffs) > d:
        rows = _reduction_rows(n)
        for m in range(d, len(coeffs)):
            c = coeffs[m]
            if c == 0:
                continue
            row = rows[m - d]
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
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
    if g <= 1:
        if all(v == 0 for v in nums):
            return nums, 1
        return nums, den
    return tuple(v // g for v in nums), den // g


@lru_cache(maxsize=None)
def _lift_rows(small: int, large: int) -> Tuple[Tuple[int, ...], ...]:
    """Images of the power basis of Q(zeta_small) inside Q(zeta_large)."""
    assert large % small == 0
    step = large // small
    d_small = euler_phi(small)
    rows = []
    for j in range(d_small):
        mono = [0] * (step * j) + [1]
        rows.append(tuple(reduce_power_coeffs(large, mono)))
    return tuple(rows)


class CycloNum:
    """An exact element of Q(zeta_n)."""

    __slots__ = ("n", "nums", "den", "_canon")

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
        self._canon = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycloNum":
        q = Fraction(q)
        return CycloNum(1, (q.numerator,), q.denominator)

    @staticmethod
    def from_fractions(n: int, coeffs: Sequence[Fraction]) -> "CycloNum":
        coeffs = [Fraction(c) for c in coeffs]
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        nums = [int(c * den) for c in coeffs]
        return CycloNum(n, nums, den)

    @staticmethod
    def zero(n: int = 1) -> "CycloNum":
        return CycloNum(n, (0,) * euler_phi(n), 1, _normalized=True)

    @staticmethod
    def one(n: int = 1) -> "CycloNum":
        nums = [0] * euler_phi(n)
        nums[0] = 1
        return CycloNum(n, nums, 1, _normalized=True)

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
        rows = _lift_rows(self.n, m)
        out = [0] * euler_phi(m)
        for j, c in enumerate(self.nums):
            if c:
                row = rows[j]
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return CycloNum(m, out, self.den)

    def _descend_once(self) -> Optional["CycloNum"]:
        # Try to express the element in Q(zeta_{n/p}) for some prime p | n.
        n = self.n
        if n == 1:
            return None
        p = 2
        primes = []
        m = n
        while p * p <= m:
            if m % p == 0:
                primes.append(p)
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            primes.append(m)
        for p in primes:
            sub = n // p
            rows = _lift_rows(sub, n)
            sol = _solve_in_span(rows, self.nums, self.den)
            if sol is not None:
                nums, den = sol
                return CycloNum(sub, nums, den)
        return None

    def canonical(self) -> "CycloNum":
        """Equivalent element at the minimal conductor."""
        if self._canon is not None:
            return self._canon
        cur = self
        while True:
            nxt = cur._descend_once()
            if nxt is None:
                break
            cur = nxt
        self._canon = cur
        cur._canon = cur
        return cur

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

    @staticmethod
    def from_dict(d: dict) -> "CycloNum":
        return CycloNum.from_fractions(d["conductor"], [Fraction(s) for s in d["coeffs"]])

    # -- arithmetic ------------------------------------------------------

    def _match(self, other) -> Tuple["CycloNum", "CycloNum"]:
        if not isinstance(other, CycloNum):
            other = CycloNum.from_rational(other)
        if self.n == other.n:
            return self, other
        m = self.n * other.n // gcd(self.n, other.n)
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
        d = len(a.nums)
        conv = [0] * (2 * d - 1)
        an, bn = a.nums, b.nums
        for i, x in enumerate(an):
            if x:
                for j, y in enumerate(bn):
                    if y:
                        conv[i + j] += x * y
        return CycloNum(a.n, reduce_power_coeffs(a.n, conv), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        q = self.is_rational()
        if q is not None:
            inv = 1 / q
            out = [Fraction(0)] * len(self.nums)
            out[0] = inv
            return CycloNum.from_fractions(self.n, out)
        # extended Euclid in Q[x] modulo Phi_n
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.n)]
        a = list(self.coeffs)
        r0, r1 = phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                c = r1[0]
                inv_coeffs = [s / c for s in s1]
                inv_coeffs = inv_coeffs + [Fraction(0)] * max(0, len(self.nums) - len(inv_coeffs))
                # s1 may exceed the basis length before reduction
                den = 1
                for f in inv_coeffs:
                    den = den * f.denominator // gcd(den, f.denominator)
                ints = [int(f * den) for f in inv_coeffs]
                red = reduce_power_coeffs(self.n, ints)
                return CycloNum(self.n, red, den)
            q, r = _poly_divmod_frac(r0, r1)
            s_new = _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, r
            s0, s1 = s1, s_new

    def __truediv__(self, other) -> "CycloNum":
        a, b = self._match(other)
        return a * b.inverse()

    def __rtruediv__(self, other) -> "CycloNum":
        return CycloNum.from_rational(other).lift(self.n) * self.inverse()

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


def _poly_divmod_frac(num, den):
    num = list(num)
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    dd = len(den) - 1
    lead = den[-1]
    out = [Fraction(0)] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        c = c / lead
        out[i - dd] = c
        for j, d in enumerate(den):
            num[i - dd + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return out, num


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _solve_in_span(rows, target_nums, target_den):
    """Solve sum_j c_j * rows[j] = target over Q; return (nums, den) or None."""
    m = len(rows)
    if m == 0:
        return None
    width = len(rows[0])
    # augmented columns: rows^T | target
    mat = [[Fraction(rows[j][i]) for j in range(m)] + [Fraction(target_nums[i], target_den)]
           for i in range(width)]
    piv_cols = []
    r = 0
    for col in range(m):
        piv = None
        for i in range(r, width):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(width):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        piv_cols.append(col)
        r += 1
    # consistency: rows beyond rank must have zero RHS
    for i in range(r, width):
        if mat[i][m] != 0:
            return None
    sol = [Fraction(0)] * m
    for idx, col in enumerate(piv_cols):
        sol[col] = mat[idx][m]
    den = 1
    for f in sol:
        den = den * f.denominator // gcd(den, f.denominator)
    return tuple(int(f * den) for f in sol), den


def root_of_unity(n: int, k: int = 1) -> CycloNum:
    """zeta_n^k in canonical form."""
    if n < 1:
        raise ValueError("order must be positive")
    k %= n
    mono = [0] * k + [1]
    return CycloNum(n, reduce_power_coeffs(n, mono), 1)


def log_root_of_unity(c: CycloNum) -> Fraction:
    """Return k/n in [0,1) with c = zeta_n^k, or raise NotRootOfUnityError."""
    # roots of unity inside Q(zeta_n) all have order dividing lcm(2, n)
    bound = c.n if c.n % 2 == 0 else 2 * c.n
    one = CycloNum.one(1)
    power = c
    order = None
    for m in range(1, bound + 1):
        if power == one:
            order = m
            break
        power = power * c
    if order is None:
        raise NotRootOfUnityError("element is not a root of unity")
    if order == 1:
        return Fraction(0)
    for k in range(1, order):
        if gcd(k, order) != 1:
            continue
        if c == root_of_unity(order, k):
            return Fraction(k, order)
    raise NotRootOfUnityError("element is not a root of unity")
