"""Extremal functions certifying that the closed-form bounds are attained.

The attaining member in both classes corresponds to omega(z) = i z.  Its
Taylor coefficients are a_m = i^(m-1) r_m with real r_m: matching powers
of z in z f'/f = phi(i z) gives r_1 = 1 and, for m = 2, 3, 4,

    (m - 1) r_m = B1 r_{m-1} + B2 r_{m-2} + B3 r_{m-3}   (r_0 = r_{-1} = 0),

and the convex member's r_m is the starlike one divided by m (the
Alexander relation).  The rotation multiplies b_n by i^(n-1) and Gamma_n
by i^n, so the pair (x_n, x_{n+1}) of every functional is i^j (X, i Y)
with X, Y the coefficients of the real r_m, and the functional is
|x_n^2 - x_{n+1}^2| = X^2 + Y^2.  The recursion runs on integers, with
phi over one common denominator, so that value is exact for an exact phi.
It reads neither the coefficient table nor the bound's formulas, which makes
"attainment == bound" an independent certificate.  ``inverse_coeffs``
evaluates ``INVERSE`` on the same integers for display, through ``coeffs._graded``.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .coeffs import INVERSE, PAIRS, ClassKind, FunctionalKind, PhiSpec, _graded, _known, _saturated

# 6^(m-1) / (m-1)! and 6^(m-1) / m! for m = 2, 3, 4: integers, so r_2, r_3, r_4
# are these times t_m over (6 d)^(m-1) in either class.
_SCALE = {ClassKind.STARLIKE: (6, 18, 36), ClassKind.CONVEX: (3, 6, 9)}


def _scaled(kind: ClassKind, phi: PhiSpec) -> tuple[tuple[int, int, int], int]:
    """((A2, A3, A4), d): the integers A_m = r_m (6 d)^(m-1) of the real extremal.

    With B_k = n_k / d, the recursion times (m-2)! d^(m-1) gives the starlike
    t_m = r_m (m-1)! d^(m-1): t_2 = n1, t_3 = n1 t_2 + n2 d, t_4 = n1 t_3 + 2 (n2 d t_2 + n3 d^2).
    """
    s2, s3, s4 = _known(_SCALE, kind, "class")
    n1, n2, n3, d = phi.integers
    t3 = n1 * n1 + n2 * d
    t4 = n1 * t3 + 2 * d * (n2 * n1 + n3 * d)
    return (n1 * s2, t3 * s3, t4 * s4), d


def _rotated(r: float, w: int) -> complex:
    """i^w r, with no -0.0 part (0.0 - r, not -r)."""
    return (complex(r, 0.0), complex(0.0, r), complex(0.0 - r, 0.0), complex(0.0, 0.0 - r))[w % 4]


def extremal_coeffs(kind: ClassKind, phi: PhiSpec, n: int) -> tuple[complex, ...]:
    """Taylor coefficients (a_1, ..., a_N) of the rotation extremal, 2 <= N <= 4; a_1 = 1.

    Each a_m = i^(m-1) r_m is the exact r_m rounded once (to +-inf past the
    float range) and then rotated, for display; N goes through ``operator.index``.
    phi gives B1..B3, which fix a_2..a_4 and every functional; a_5 onward
    depend on B4, B5, ... as well, so N > 4 is refused.
    """
    n = operator.index(n)
    if not 2 <= n <= 4:
        raise ValueError(f"need 2 <= N <= 4, got {n}")
    scaled, d = _scaled(kind, phi)
    return tuple(_rotated(_saturated(a, (6 * d) ** w), w)
                 for w, a in enumerate((1, *scaled[:n - 1])))


def inverse_coeffs(kind: ClassKind, phi: PhiSpec) -> tuple[complex, ...]:
    """(b2, b3, b4, Gamma1, Gamma2, Gamma3) of the rotation extremal: each exact value
    rounded once (to +-inf past the float range), then rotated by i^w for its weight w."""
    scaled, d = _scaled(kind, phi)
    return tuple(_rotated(_saturated(_graded(nums, *scaled), div * (6 * d) ** len(nums)), len(nums))
                 for nums, div in INVERSE.values())


def attainment(functional: FunctionalKind, kind: ClassKind, phi: PhiSpec) -> Fraction | float:
    """The functional at the rotation extremal: X^2 + Y^2 as above, exact for an
    exact phi, else rounded once from the exact value (to inf past the float range).

    It equals the closed-form formula value whether or not that bound's
    hypotheses hold; where they hold, this is the sharpness certificate.
    """
    pair = _known(PAIRS, functional, "functional")
    scaled, d = _scaled(kind, phi)
    (xs, e), (ys, f) = INVERSE[pair[0]], INVERSE[pair[1]]
    p = _graded(xs, *scaled)  # X = p / (e (6 d)^w)
    q = _graded(ys, *scaled)  # Y = q / (f (6 d)^(w+1))
    uu = 36 * d * d
    num, den = (p * f) ** 2 * uu + (q * e) ** 2, (e * f) ** 2 * uu ** len(ys)
    return Fraction(num, den) if phi.exact else _saturated(num, den)
