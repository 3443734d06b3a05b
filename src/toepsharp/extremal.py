"""Extremal functions certifying that the closed-form bounds are attained.

The attaining member in both classes corresponds to omega(z) = i z.  Its
Taylor coefficients are a_m = i^(m-1) r_m with real r_m: matching powers
of z in z f'/f = phi(i z) gives r_1 = 1 and

    (m - 1) r_m = B1 r_{m-1} + B2 r_{m-2} + B3 r_{m-3},

and the convex member's r_m is the starlike one divided by m (the
Alexander relation).  The rotation multiplies b_n by i^(n-1) and Gamma_n
by i^n, so the pair (x_n, x_{n+1}) of every functional is i^j (X, i Y)
with X, Y the coefficients of the real r_m, and the functional is
|x_n^2 - x_{n+1}^2| = X^2 + Y^2.  The recursion runs on integers, with
phi over one common denominator, so that value is exact for an exact phi.
It reads neither the coefficient table nor the bound's formulas, which makes
"attainment == bound" an independent certificate.  ``inverse_coeffs``
evaluates ``INVERSE`` on the same integers for display.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from fractions import Fraction
from itertools import islice

from .coeffs import (INVERSE, PAIRS, ClassKind, FunctionalKind, PhiSpec, _inverse, _known,
                     _monomials, _saturated)

# extremal_coeffs refuses an order whose exact terms would take more bits than this
# (about (N - 1) log2(N max(d, |n_k|)), with B_k = n_k / d), rather than run for hours.
MAX_TERM_BITS = 1 << 20

# 6^(m-1) / (m-1)! and 6^(m-1) / m! for m = 2, 3, 4: integers, so r_2, r_3, r_4
# are these times t_m over (6 d)^(m-1) in either class.
_SCALE = {ClassKind.STARLIKE: (6, 18, 36), ClassKind.CONVEX: (3, 6, 9)}


def _terms(n1: int, n2: int, n3: int, d: int) -> Iterator[int]:
    """The integers t_1, t_2, ... with r_m = t_m / ((m-1)! d^(m-1)) for the starlike
    r_m: the recursion times (m-2)! d^(m-1), with B_k = n_k / d."""
    e2, e3 = n2 * d, n3 * d * d
    t3, t2, t1 = 0, 0, 1  # t_{m-3}, t_{m-2}, t_{m-1}
    yield t1
    m = 2
    while True:
        t3, t2, t1 = t2, t1, n1 * t1 + (m - 2) * (e2 * t2 + (m - 3) * e3 * t3)
        yield t1
        m += 1


def _rotated(r: float, w: int) -> complex:
    """i^w r, with no -0.0 part (0.0 - r, not -r)."""
    return (complex(r, 0.0), complex(0.0, r), complex(0.0 - r, 0.0), complex(0.0, 0.0 - r))[w % 4]


def extremal_coeffs(kind: ClassKind, phi: PhiSpec, n: int) -> tuple[complex, ...]:
    """Taylor coefficients (a_1, ..., a_N) of the rotation extremal; a_1 = 1.

    Each a_m = i^(m-1) r_m is the exact r_m rounded once (to +-inf past the
    float range) and then rotated, for display; N goes through ``operator.index``.

    The generator is cut after B3 (B_4 = B_5 = ... = 0).  Only B1..B3
    affect a_2..a_4, and hence every functional; a_5 onward are those of
    the cut generator.
    """
    _known(_SCALE, kind, "class")
    n = operator.index(n)
    if n < 2:
        raise ValueError("need N >= 2")
    n1, n2, n3, d = phi.integers
    bits = (n - 1) * (max(abs(n1), abs(n2), abs(n3), d).bit_length() + n.bit_length())
    if bits > MAX_TERM_BITS:
        raise ValueError(f"a_{n} of this generator needs exact integers of about {bits} bits; "
                         f"at most {MAX_TERM_BITS} allowed")
    convex = kind is ClassKind.CONVEX
    a, den = [], 1  # den = (m-1)! d^(m-1)
    for m, t in zip(range(1, n + 1), _terms(n1, n2, n3, d)):
        a.append(_rotated(_saturated(t, den * m if convex else den), m - 1))
        den *= d * m
    return tuple(a)


def _scaled_monomials(kind: ClassKind, phi: PhiSpec) -> tuple[tuple, int]:
    """(``_monomials`` of the integers a_m (6 d)^(m-1), m = 2..4, of the real extremal; d)."""
    s2, s3, s4 = _known(_SCALE, kind, "class")
    _, t2, t3, t4 = islice(_terms(*phi.integers), 4)
    return _monomials(t2 * s2, t3 * s3, t4 * s4), phi.integers[3]


def inverse_coeffs(kind: ClassKind, phi: PhiSpec) -> tuple[complex, ...]:
    """(b2, b3, b4, Gamma1, Gamma2, Gamma3) of the rotation extremal: each exact value
    rounded once (to +-inf past the float range), then rotated by i^w for its weight w."""
    by_weight, d = _scaled_monomials(kind, phi)
    return tuple(_rotated(_saturated(_inverse(name, by_weight), div * (6 * d) ** len(nums)),
                          len(nums)) for name, (nums, div) in INVERSE.items())


def attainment(functional: FunctionalKind, kind: ClassKind, phi: PhiSpec) -> Fraction | float:
    """The functional at the rotation extremal: X^2 + Y^2 as above, exact for an
    exact phi, else rounded once from the exact value (to inf past the float range).

    It equals the closed-form formula value whether or not that bound's
    hypotheses hold; where they hold, this is the sharpness certificate.
    """
    pair = _known(PAIRS, functional, "functional")
    by_weight, d = _scaled_monomials(kind, phi)
    (_, e), (ys, f) = INVERSE[pair[0]], INVERSE[pair[1]]
    p = _inverse(pair[0], by_weight)  # X = p / (e (6 d)^w)
    q = _inverse(pair[1], by_weight)  # Y = q / (f (6 d)^(w+1))
    uu = 36 * d * d
    num, den = (p * f) ** 2 * uu + (q * e) ** 2, (e * f) ** 2 * uu ** len(ys)
    return Fraction(num, den) if phi.exact else _saturated(num, den)
