"""Coefficient maps and functionals for the two subordination classes.

A member of the starlike class satisfies z f'/f = phi(omega(z)) and a
member of the convex class 1 + z f''/f' = phi(omega(z)) for some Schwarz
function omega.  Matching powers of z expresses (a2, a3, a4) of f as
polynomials in (c1, c2, c3) and the Taylor data (B1, B2, B3) of phi.
From those everything else is derived: the inverse coefficients, the
logarithmic coefficients of the inverse, and the four second-order
Toeplitz functionals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

Real = float | Fraction


class ClassKind(Enum):
    STARLIKE = "starlike"
    CONVEX = "convex"


class FunctionalKind(Enum):
    """The four |x_n^2 - x_{n+1}^2| determinants under study."""

    T21_INV = "t21-inv"
    T22_INV = "t22-inv"
    T21_LOG_INV = "t21-log-inv"
    T22_LOG_INV = "t22-log-inv"


# Each functional's (x_n, x_{n+1}) as CoeffBundle names (g_n is Gamma_n).
PAIRS = {
    FunctionalKind.T21_INV: ("b2", "b3"),
    FunctionalKind.T22_INV: ("b3", "b4"),
    FunctionalKind.T21_LOG_INV: ("g1", "g2"),
    FunctionalKind.T22_LOG_INV: ("g2", "g3"),
}


@dataclass(frozen=True)
class PhiSpec:
    """Taylor data of the class generator: phi(z) = 1 + B1 z + B2 z^2 + B3 z^3 + ...

    B1, B2, B3 are real and finite; B1 >= 0 for every generator of interest
    (B1 = 0 only for the lemniscate generator sqrt(1+z^2)).  Fractions and
    integers (stored as Fractions) keep all downstream bound arithmetic
    exact.
    """

    b1: Real
    b2: Real
    b3: Real

    def __post_init__(self):
        for name in ("b1", "b2", "b3"):
            v = getattr(self, name)
            if isinstance(v, numbers.Integral):
                object.__setattr__(self, name, Fraction(int(v)))
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"B1, B2, B3 must be finite, got {v!r}")
        if self.b1 < 0:
            raise ValueError("B1 must be nonnegative")

    def as_floats(self) -> tuple[float, float, float]:
        return (float(self.b1), float(self.b2), float(self.b3))


@dataclass(frozen=True)
class CoeffBundle:
    """(a2, a3, a4) of a class member plus everything derived from them."""

    a2: complex
    a3: complex
    a4: complex

    # inverse coefficients: f^{-1}(w) = w + b2 w^2 + b3 w^3 + b4 w^4 + ...
    @property
    def b2(self) -> complex:
        return -self.a2

    @property
    def b3(self) -> complex:
        return 2 * self.a2 ** 2 - self.a3

    @property
    def b4(self) -> complex:
        return -5 * self.a2 ** 3 + 5 * self.a2 * self.a3 - self.a4

    # logarithmic coefficients of the inverse: log(f^{-1}(w)/w) = 2 sum G_n w^n
    @property
    def g1(self) -> complex:
        return -self.a2 / 2

    @property
    def g2(self) -> complex:
        return -(self.a3 - 1.5 * self.a2 ** 2) / 2

    @property
    def g3(self) -> complex:
        return -(self.a4 - 4 * self.a2 * self.a3 + (10 / 3) * self.a2 ** 3) / 2


def coeff_map(kind: ClassKind, phi: PhiSpec, c1, c2, c3) -> CoeffBundle:
    """(a2, a3, a4) of the class member whose Schwarz function starts c1, c2, c3.

    The closed forms come from matching powers of z in the defining
    subordination; they are cross-checked against a term-by-term series
    solve in the test suite.  Unchecked, and elementwise: the c's may be
    complex scalars or numpy arrays (the oracle's objective).
    """
    B1, B2, B3 = phi.as_floats()
    a2 = B1 * c1
    a3 = ((B1 * B1 + B2) * c1 ** 2 + B1 * c2) / 2
    a4 = ((B1 ** 3 + 3 * B1 * B2 + 2 * B3) * c1 ** 3
          + (3 * B1 * B1 + 4 * B2) * c1 * c2 + 2 * B1 * c3) / 6
    if kind is ClassKind.CONVEX:
        a2, a3, a4 = a2 / 2, a3 / 3, a4 / 4
    return CoeffBundle(a2, a3, a4)


def toeplitz(kind: FunctionalKind, cb: CoeffBundle) -> float:
    """|x_n^2 - x_{n+1}^2| for the coefficient pair named by ``kind``.

    Elementwise when the bundle holds numpy arrays.
    """
    if kind not in PAIRS:
        raise ValueError(f"unknown functional {kind}")
    first, second = PAIRS[kind]
    return abs(getattr(cb, first) ** 2 - getattr(cb, second) ** 2)
