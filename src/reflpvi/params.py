"""Parameter bookkeeping between reflection triples and the sixth
Painleve equation.

From a triple: lambda_i is the exponent of the non-unit eigenvalue of
r_i, and the mu_i are the eigenvalue exponents of the product r1 r2 r3.
The linear map to the theta parameters is

    theta_i = lambda_i - mu_1 (i = 1, 2, 3),   theta_4 = mu_2 - mu_3

up to a permutation of the mu's, and (alpha, beta, gamma, delta) follow
by the standard substitution.  The module also carries the coordinate
cubic: with constants (a, b, k, c) determined by the eigenvalue data,

    f^2 = (a x + b y + k)^2 + 4 x y (x + y - c)

and the companion quadric-determinant form in the theta's, which agree
after a constant shift of (x, y).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cyclotomic import log_root_of_unity
from .linalg3 import Mat3, _spectrum_of_order, is_pseudo_reflection
from .groups import GroupSpec, ReflectionGroup, build_group


class SumConstraintError(ValueError):
    """lambda/mu sums must agree exactly for the analytic formulas."""


@dataclass(frozen=True)
class LambdaMu:
    lambdas: Tuple[Fraction, Fraction, Fraction]
    mus: Tuple[Fraction, Fraction, Fraction]

    def __post_init__(self):
        if any(l.denominator == 1 for l in self.lambdas):
            raise ValueError("lambda_i must be non-integral")

    def sum_discrepancy(self) -> Fraction:
        return sum(self.mus) - sum(self.lambdas)

    def sums_exact(self) -> bool:
        return self.sum_discrepancy() == 0

    def with_exact_sums(self) -> "LambdaMu":
        """Shift one lambda representative by the integer discrepancy."""
        d = self.sum_discrepancy()
        if d.denominator != 1:
            raise SumConstraintError(
                f"lambda/mu sums differ by the non-integer {d}")
        if d == 0:
            return self
        l1, l2, l3 = self.lambdas
        return LambdaMu((l1 + d, l2, l3), self.mus)

    def to_dict(self) -> dict:
        return {"lambda": [str(v) for v in self.lambdas],
                "mu": [str(v) for v in self.mus]}


def random_lambda_mu(rng: random.Random) -> LambdaMu:
    """Random exact-sum (lambda, mu): non-integral lambdas with denominators
    2..7 and numerators below three, two small random mu's, and the third
    mu fixed by sum(mu) = sum(lambda)."""
    lams = []
    for _ in range(3):
        den = rng.choice([2, 3, 4, 5, 6, 7])
        num = rng.randrange(1, 3 * den)
        if num % den == 0:
            num += 1
        lams.append(Fraction(num, den))
    m1 = Fraction(rng.randrange(-8, 8), rng.randrange(1, 9))
    m2 = Fraction(rng.randrange(-8, 8), rng.randrange(1, 9))
    return LambdaMu(tuple(lams), (m1, m2, sum(lams) - m1 - m2))


@dataclass(frozen=True)
class Theta:
    t1: Fraction
    t2: Fraction
    t3: Fraction
    t4: Fraction

    def as_tuple(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.t1, self.t2, self.t3, self.t4)

    def __repr__(self):
        return f"Theta({self.t1}, {self.t2}, {self.t3}, {self.t4})"


def lambda_mu_of_triple(triple: Sequence[Mat3]) -> LambdaMu:
    """Eigenvalue exponents of a pseudo-reflection triple and its product."""
    lambdas = []
    for r in triple:
        t = is_pseudo_reflection(r)
        if t is None:
            raise ValueError("triple component is not a pseudo-reflection")
        lambdas.append(log_root_of_unity(t))
    prod = triple[0] * triple[1] * triple[2]
    # the order walk already shows prod^order = I, so the spectrum is read
    # without the walk `finite_order_spectrum` repeats to check it
    return LambdaMu(tuple(lambdas), _spectrum_of_order(prod, prod.order(1000)))


def mu_from_degrees(degrees: Sequence[int]) -> Tuple[Fraction, Fraction, Fraction]:
    """Exponent ratios (d_i - 1)/d_3 of an ascending degree triple."""
    d1, d2, d3 = degrees
    if not d1 <= d2 <= d3:
        raise ValueError("degrees must be ascending")
    return (Fraction(d1 - 1, d3), Fraction(d2 - 1, d3), Fraction(d3 - 1, d3))


def theta_map(lm: LambdaMu, perm: Sequence[int] = (0, 1, 2)) -> Theta:
    """Signed theta parameters with the mu's permuted by `perm`."""
    mu = [lm.mus[perm[0]], lm.mus[perm[1]], lm.mus[perm[2]]]
    l1, l2, l3 = lm.lambdas
    return Theta(l1 - mu[0], l2 - mu[0], l3 - mu[0], mu[1] - mu[2])


def _dist_to_int(x: Fraction) -> Fraction:
    frac = x - x.numerator // x.denominator  # in [0,1)
    return min(frac, 1 - frac)


def canonical_theta(lm: LambdaMu) -> Theta:
    """Non-negative canonical theta tuple.

    Candidates range over the six mu-permutations, with each |theta_i|
    (i <= 3) minimized over integer shifts of the lambda representative
    and theta_4 normalized into [1/2, 1] (integer shifts of the mu
    representatives allow replacing it by its complement).  Among
    candidates whose first three entries are ascending, prefer the most
    zeros among theta_1..theta_3, then the least theta_4, then the
    lexicographically least (theta_1, theta_2, theta_3).  This
    deterministic rule reproduces the published parameter table for all
    standard generating triples.
    """
    candidates = []
    for perm in permutations(range(3)):
        mu_a = lm.mus[perm[0]]
        th123 = tuple(_dist_to_int(l - mu_a) for l in lm.lambdas)
        d = abs(lm.mus[perm[1]] - lm.mus[perm[2]])
        d = d - int(d)  # into [0,1)
        candidates.append((th123, max(d, 1 - d)))
    ascending = [c for c in candidates
                 if c[0][0] <= c[0][1] <= c[0][2]]
    pool = ascending if ascending else candidates

    def sort_key(cand):
        th123, th4 = cand
        zeros = sum(1 for v in th123 if v == 0)
        return (-zeros, th4, th123)

    th123, th4 = min(pool, key=sort_key)
    return Theta(th123[0], th123[1], th123[2], th4)


def pvi_abcd(theta: Theta) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """The (alpha, beta, gamma, delta) parameters of PVI."""
    t1, t2, t3, t4 = theta.as_tuple()
    return ((t4 - 1) ** 2 / 2, -t1 ** 2 / 2, t2 ** 2 / 2, (1 - t3 ** 2) / 2)


# ---------------------------------------------------------------------------
# Table of parameters for the standard generating triples
# ---------------------------------------------------------------------------

def expected_theta_row(spec: GroupSpec) -> Theta:
    """The published theta tuple for the standard triple of this group."""
    if spec.kind == "imprimitive":
        m = spec.m
        if spec.p == spec.m:
            return Theta(Fraction(m - 2, 2 * m), Fraction(m - 2, 2 * m),
                         Fraction(m - 2, 2 * m), Fraction(m, 2 * m))
        return Theta(Fraction(m - 2, 6 * m), Fraction(m - 2, 6 * m),
                     Fraction(2 * m - 4, 6 * m), Fraction(4 * m, 6 * m))
    rows = {
        "icosahedral": (0, 0, 0, Fraction(4, 5)),
        "G336": (Fraction(2, 7), Fraction(2, 7), Fraction(2, 7), Fraction(4, 7)),
        "G648": (0, 0, 0, Fraction(1, 2)),
        "G1296": (Fraction(4, 18), Fraction(7, 18), Fraction(7, 18), Fraction(12, 18)),
        "G2160": (Fraction(5, 15), Fraction(5, 15), Fraction(5, 15), Fraction(9, 15)),
    }
    r = rows[spec.name]
    return Theta(Fraction(r[0]), Fraction(r[1]), Fraction(r[2]), Fraction(r[3]))


DEFAULT_TABLE_SPECS = tuple(
    [GroupSpec.imprimitive(m, m) for m in (3, 4, 5, 6)]
    + [GroupSpec.imprimitive(m, 1) for m in (3, 4, 5, 6)]
    + [GroupSpec.exceptional(n)
       for n in ("icosahedral", "G336", "G648", "G1296", "G2160")]
)


@dataclass
class TableRow:
    spec: GroupSpec
    degrees: Tuple[int, int, int]
    theta: Theta
    expected: Theta
    matches: bool

    def to_dict(self) -> dict:
        return {
            "group": self.spec.label(),
            "degrees": list(self.degrees),
            "theta": [str(v) for v in self.theta.as_tuple()],
            "expected": [str(v) for v in self.expected.as_tuple()],
            "matches": self.matches,
        }


def table1(specs: Iterable[GroupSpec] = DEFAULT_TABLE_SPECS,
           groups: Optional[Dict[str, ReflectionGroup]] = None) -> List[TableRow]:
    """Canonical theta from the standard generators of each group,
    checked against the published values."""
    out = []
    for spec in specs:
        group = (groups or {}).get(spec.label()) or build_group(spec)
        lm = lambda_mu_of_triple(group.generators)
        theta = canonical_theta(lm)
        expected = expected_theta_row(spec)
        out.append(TableRow(spec, group.degrees, theta, expected,
                            theta.as_tuple() == expected.as_tuple()))
    return out


# ---------------------------------------------------------------------------
# the coordinate cubic
# ---------------------------------------------------------------------------

def cubic_coeffs(lm: LambdaMu) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """Constants (a, b, k, c) with w = c - x - y and p + q = a x + b y + k,
    for the lambdas and the power sums of the mus (`cubic_coeffs_from_sums`)."""
    if not lm.sums_exact():
        raise SumConstraintError(
            "cubic constants need exactly matching lambda/mu sums; "
            "use with_exact_sums() first")
    m1, m2, m3 = lm.mus
    return cubic_coeffs_from_sums(lm.lambdas, m1 * m1 + m2 * m2 + m3 * m3, m1 * m2 * m3)


def cubic_coeffs_from_sums(lambdas: Sequence[Fraction], mu_square_sum: Fraction,
                           mu_product: Fraction) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """Constants (a, b, k, c) of a matrix with diagonal (l1, l2, l3) whose
    eigenvalues (m1, m2, m3) have sum m^2 = Tr(M^2) and m1 m2 m3 = det M:

        c = (sum m^2 - sum l^2) / 2
        a = l2 - l3,  b = l1 - l3
        k = m1 m2 m3 - l1 l2 l3 + l3 c
    """
    l1, l2, l3 = lambdas
    c = (mu_square_sum - l1 * l1 - l2 * l2 - l3 * l3) / 2
    a = l2 - l3
    b = l1 - l3
    k = mu_product - l1 * l2 * l3 + l3 * c
    return (a, b, k, c)


def f_squared(point: Tuple[Fraction, Fraction], lm: LambdaMu) -> Fraction:
    """(p - q)^2 as a function of the trace coordinates (x, y)."""
    a, b, k, c = cubic_coeffs(lm)
    x, y = point
    lin = a * x + b * y + k
    return lin * lin + 4 * x * y * (x + y - c)


def f_hitchin_squared(point, theta: Theta):
    """The companion squared flow function in the theta parameters."""
    x, y = point
    t1, t2, t3, t4 = theta.as_tuple()
    e1 = t1 * t1 / 2
    e2 = t2 * t2 / 2
    e3 = t3 * t3 / 2
    e4 = t4 * t4 / 2
    e = (e4 - e1 - e2 - e3) / 2
    m = e - x - y
    det = (e1 * (e2 * e3 - y * y)
           - m * (m * e3 - x * y)
           + x * (m * y - e2 * x))
    return -2 * det


# ---------------------------------------------------------------------------
# cubic normal form
# ---------------------------------------------------------------------------

class CubicForm:
    """Polynomial of total degree <= 3 in (x, y) with rational coefficients."""

    def __init__(self, coeffs: Dict[Tuple[int, int], Fraction]):
        self.coeffs = {k: Fraction(v) for k, v in coeffs.items() if v != 0}
        if any(i + j > 3 for i, j in self.coeffs):
            raise ValueError("total degree exceeds 3")

    def coeff(self, i: int, j: int) -> Fraction:
        return self.coeffs.get((i, j), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, CubicForm) and self.coeffs == other.coeffs

    def __repr__(self):
        terms = [f"{v}*x^{i}y^{j}" for (i, j), v in sorted(self.coeffs.items())]
        return "CubicForm(" + " + ".join(terms) + ")"

    def shifted(self, x0: Fraction, y0: Fraction) -> "CubicForm":
        """The polynomial C(x + x0, y + y0)."""
        from math import comb
        out: Dict[Tuple[int, int], Fraction] = {}
        for (i, j), v in self.coeffs.items():
            for di in range(i + 1):
                for dj in range(j + 1):
                    key = (di, dj)
                    out[key] = out.get(key, Fraction(0)) + (
                        v * comb(i, di) * comb(j, dj)
                        * x0 ** (i - di) * y0 ** (j - dj))
        return CubicForm(out)

    @staticmethod
    def from_lambda_mu(lm: LambdaMu) -> "CubicForm":
        a, b, k, c = cubic_coeffs(lm)
        return CubicForm({
            (2, 1): Fraction(4), (1, 2): Fraction(4),
            (2, 0): a * a, (1, 1): 2 * a * b - 4 * c, (0, 2): b * b,
            (1, 0): 2 * a * k, (0, 1): 2 * b * k, (0, 0): k * k,
        })

    @staticmethod
    def from_theta(theta: Theta) -> "CubicForm":
        t1, t2, t3, t4 = theta.as_tuple()
        e1, e2, e3, e4 = (t * t / 2 for t in (t1, t2, t3, t4))
        e = (e4 - e1 - e2 - e3) / 2
        # -2 det expansion of the quadric-determinant form
        return CubicForm({
            (2, 1): Fraction(4), (1, 2): Fraction(4),
            (2, 0): 2 * (e2 + e3), (0, 2): 2 * (e1 + e3),
            (1, 1): 4 * e3 - 4 * e,
            (1, 0): -4 * e3 * e, (0, 1): -4 * e3 * e,
            (0, 0): 2 * e3 * e * e - 2 * e1 * e2 * e3,
        })


def normalize_cubic(cubic: CubicForm) -> Tuple[Tuple[Fraction, Fraction, Fraction, Fraction],
                                               Tuple[Fraction, Fraction]]:
    """Translate (x, y) to kill the x^2 and y^2 terms.

    Requires the leading part 4 x^2 y + 4 x y^2; returns the surviving
    constants (A, B, C, D) of A xy + B x + C y + D and the shift applied.
    """
    lead_ok = (cubic.coeff(2, 1) == 4 and cubic.coeff(1, 2) == 4
               and cubic.coeff(3, 0) == 0 and cubic.coeff(0, 3) == 0)
    if not lead_ok:
        raise ValueError("cubic leading part must be exactly 4x^2y + 4xy^2")
    y0 = -cubic.coeff(2, 0) / 4
    x0 = -cubic.coeff(0, 2) / 4
    shifted = cubic.shifted(x0, y0)
    if shifted.coeff(2, 0) != 0 or shifted.coeff(0, 2) != 0:
        raise AssertionError("shift failed to kill the square terms")
    return ((shifted.coeff(1, 1), shifted.coeff(1, 0),
             shifted.coeff(0, 1), shifted.coeff(0, 0)), (x0, y0))
