"""Shared oracle checks for the cubic constants.

The closed forms for (a, b, k, c) are treated as derived artifacts: they
must reproduce the symmetric-function identities of an arbitrary matrix
with prescribed diagonal, both in exact rational arithmetic and through
the floating-point residue sampler.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .linalg3 import Mat3
from .params import LambdaMu, cubic_coeffs, cubic_coeffs_from_sums
from .schlesinger import sample_residues


def cubic_rank_one_exact(rng: random.Random) -> bool:
    """`cubic_coeffs_from_sums` on a random rational matrix M with
    non-integral diagonal (l1, l2, l3).

    Fed the diagonal, Tr(M^2) and det M, the constants must satisfy

        c = w + x + y,   p + q = a x + b y + k

    with w, x, y, p, q read off the off-diagonal entries.
    """
    lam = []
    for _ in range(3):
        den = rng.choice([2, 3, 4, 5, 7])
        num = rng.randrange(1, 4 * den)
        if num % den == 0:
            num += 1
        lam.append(Fraction(num, den))
    l1, l2, l3 = lam
    b12, b21, b13, b31, b23, b32 = (
        Fraction(rng.randrange(-6, 7), rng.randrange(1, 6)) for _ in range(6))
    m = Mat3.from_rationals([[l1, b12, b13], [b21, l2, b23], [b31, b32, l3]])
    a, b, k, c = cubic_coeffs_from_sums(lam, (m * m).trace().is_rational(),
                                        m.det().is_rational())
    w, x, y = b12 * b21, b13 * b31, b23 * b32
    p = b12 * b23 * b31
    q = b13 * b32 * b21
    return c == w + x + y and p + q == a * x + b * y + k


def cubic_rank_one_float(seed: int, count: int) -> float:
    """Max violation of w = c - x - y, p + q = ax + by + k, pq = wxy over
    residue samples with honest rational eigenvalue data."""
    rng = random.Random(seed)
    worst = 0.0
    trial = 0
    while trial < count:
        lam = []
        for _ in range(3):
            den = rng.choice([2, 3, 4, 5])
            num = rng.randrange(1, 2 * den)
            if num % den == 0:
                num += 1
            lam.append(Fraction(num, den))
        m1 = Fraction(rng.randrange(1, 6), rng.randrange(2, 7))
        m2 = Fraction(rng.randrange(1, 6), rng.randrange(2, 7))
        m3 = sum(lam) - m1 - m2
        mus = sorted((m1, m2, m3))
        # clustered eigenvalues make the float spectral check ill-conditioned
        if min(mus[1] - mus[0], mus[2] - mus[1]) < Fraction(1, 10):
            continue
        trial += 1
        lm = LambdaMu(tuple(lam), (m1, m2, m3))
        a, b, k, c = (float(v) for v in cubic_coeffs(lm))
        config = sample_residues(lm, seed=seed * 1000 + trial)
        m = -config.b4
        w = m[0, 1] * m[1, 0]
        x = m[0, 2] * m[2, 0]
        y = m[1, 2] * m[2, 1]
        p = m[0, 1] * m[1, 2] * m[2, 0]
        q = m[0, 2] * m[2, 1] * m[1, 0]
        worst = max(worst,
                    abs(w - (c - x - y)),
                    abs((p + q) - (a * x + b * y + k)),
                    abs(p * q - w * x * y))
    return worst
