"""Coefficient table and functionals for the two subordination classes.

A member of the starlike class satisfies z f'/f = phi(omega(z)) and a
member of the convex class 1 + z f''/f' = phi(omega(z)) for some Schwarz
function omega.  Matching powers of z makes each coefficient a polynomial
in (c1, c2, c3) and the Taylor data (B1, B2, B3) of phi; ``_TABLE`` holds
them and ``table`` evaluates them exactly, for the bounds and the oracle.
``INVERSE`` states the inverse and logarithmic coefficients as polynomials
in (a2, a3, a4), and ``PAIRS`` names each functional's pair of them.  ``_graded``
evaluates all of these weight-graded polynomials, the table's rows and fields too.
``record`` makes the frozen value types of the exact paths.
"""

from __future__ import annotations

import math
import numbers
import operator
from enum import Enum
from fractions import Fraction

Real = float | Fraction


def record(cls):
    """Make ``cls`` a frozen value type over its annotated fields, as
    ``dataclass(frozen=True)`` would, without importing ``dataclasses``: an
    ``__init__`` taking the fields by position or keyword (a class attribute is
    a default) and calling ``__post_init__`` if defined, ``__eq__`` and ``__hash__``
    within one class over the fields (or ``cls._key(self)``, if set), the dataclass
    repr, ``__match_args__``, and assignment or deletion raising AttributeError."""
    names = tuple(cls.__annotations__)
    params = ", ".join(f"{n}=_cls.{n}" if n in vars(cls) else n for n in names)
    body = "".join(f"\n _set(self, {n!r}, {n})" for n in names)
    post = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    scope = {"_cls": cls, "_set": object.__setattr__}
    exec(f"def __init__(self, {params}):{body}{post}", scope)
    key = getattr(cls, "_key", None) or operator.attrgetter(*names)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({fields})"

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a {cls.__name__}")

    cls.__init__, cls.__eq__, cls.__hash__ = scope["__init__"], __eq__, __hash__
    cls.__repr__, cls.__match_args__ = __repr__, names
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


class ClassKind(Enum):
    STARLIKE = "starlike"
    CONVEX = "convex"


class FunctionalKind(Enum):
    """The four |x_n^2 - x_{n+1}^2| determinants under study."""

    T21_INV = "t21-inv"
    T22_INV = "t22-inv"
    T21_LOG_INV = "t21-log-inv"
    T22_LOG_INV = "t22-log-inv"


# Each functional's (x_n, x_{n+1}) as INVERSE names (g_n is Gamma_n).
PAIRS = {
    FunctionalKind.T21_INV: ("b2", "b3"),
    FunctionalKind.T22_INV: ("b3", "b4"),
    FunctionalKind.T21_LOG_INV: ("g1", "g2"),
    FunctionalKind.T22_LOG_INV: ("g2", "g3"),
}


@record
class PhiSpec:
    """Taylor data of the class generator: phi(z) = 1 + B1 z + B2 z^2 + B3 z^3 + ...

    B1, B2, B3 are finite integers, Fractions or floats (anything else is a
    TypeError); B1 >= 0 for every generator of interest
    (B1 = 0 only for the lemniscate generator sqrt(1+z^2)).  Fractions and
    integers (stored as Fractions) keep all downstream bound arithmetic
    exact.  ``integers`` = (n1, n2, n3, d), B_k = n_k / d exactly with d > 0 the
    least common denominator, and ``exact``, whether no field is a float, are set
    once here, read-only and outside repr; == and hash compare them (1.0 and 1 differ).
    """

    b1: Real
    b2: Real
    b3: Real
    _key = operator.attrgetter("integers", "exact")

    def __post_init__(self):
        for name in ("b1", "b2", "b3"):
            v = _real("B1, B2, B3", getattr(self, name))
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"B1, B2, B3 must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.b1 < 0:
            raise ValueError("B1 must be nonnegative")
        b = (self.b1, self.b2, self.b3)
        (n1, d1), (n2, d2), (n3, d3) = (v.as_integer_ratio() for v in b)
        d = math.lcm(d1, d2, d3)
        object.__setattr__(self, "integers", (n1 * (d // d1), n2 * (d // d2), n3 * (d // d3), d))
        object.__setattr__(self, "exact", not any(isinstance(v, float) for v in b))


def _real(name: str, v) -> Real:
    """v as the exact paths take a real: an integer as a Fraction, a float as a Python float,
    a Fraction as it is; anything else (str, complex, None, numpy float32) is a TypeError."""
    if isinstance(v, numbers.Integral):
        return Fraction(int(v))
    if not isinstance(v, (float, Fraction)):
        raise TypeError(f"{name}: integers, Fractions or floats only, got {v!r}")
    return float(v) if isinstance(v, float) else v


def _integers(phi: PhiSpec) -> tuple[int, int, int, int]:
    """``phi.integers``; a phi that is not a PhiSpec (a tuple, a name, None) is a TypeError."""
    if not isinstance(phi, PhiSpec):
        raise TypeError(f"phi: a PhiSpec only, got {phi!r}")
    return phi.integers


def _known(table: dict, key, what: str):
    """table[key], or the ValueError "unknown <what>" for a key it lacks or cannot hash."""
    try:
        return table[key]
    except (KeyError, TypeError):
        raise ValueError(f"unknown {what} {key!r}") from None


# Each inverse coefficient b_n (weight n - 1) and logarithmic coefficient g_n =
# Gamma_n (weight n) of the inverse as (integer coefficients, divisor) over the
# monomials of (a2, a3, a4) of its weight: a2; a2^2, a3; or a2^3, a2 a3, a4.
INVERSE = {
    "b2": ((-1,), 1),
    "b3": ((2, -1), 1),
    "b4": ((-5, 5, -1), 1),
    "g1": ((-1,), 2),
    "g2": ((3, -2), 4),
    "g3": ((-10, 12, -3), 6),
}


def _graded(k, x1, x2, x3=None):
    """The sum of k_i m_i over the monomials m of weight len(k) in (x1, x2, x3), x_j of
    weight j, in Horner order: k0 x1; k0 x1^2 + k1 x2; or (k0 x1^2 + k1 x2) x1 + k2 x3.
    INVERSE's are those of (a2, a3, a4), _TABLE's of (B1, B2, B3) and of (c1, c2, c3)."""
    if len(k) == 1:
        return k[0] * x1
    head = k[0] * x1 ** 2 + k[1] * x2
    return head if len(k) == 2 else head * x1 + k[2] * x3


# A field of weight w (a_{w+1}, b_{w+1}, Gamma_w) has one row per c-monomial: c1;
# c1^2, c2; or c1^3, c1 c2, c3.  A row is (integer numerators, denominator) over the
# B-monomials of the c-monomial's degree: B1; B1^2, B2; or B1^3, B1 B2, B3.
_TABLE = {
    ClassKind.STARLIKE: {
        "a2": (((1,), 1),),
        "a3": (((1, 1), 2), ((1,), 2)),
        "b2": (((-1,), 1),),
        "b3": (((3, -1), 2), ((-1,), 2)),
        "b4": (((-8, 6, -1), 3), ((6, -2), 3), ((-1,), 3)),
        "g1": (((-1,), 2),),
        "g2": (((2, -1), 4), ((-1,), 4)),
        "g3": (((-9, 9, -2), 12), ((9, -4), 12), ((-1,), 6)),
    },
    ClassKind.CONVEX: {
        "a2": (((1,), 2),),
        "a3": (((1, 1), 6), ((1,), 6)),
        "b2": (((-1,), 2),),
        "b3": (((2, -1), 6), ((-1,), 6)),
        "b4": (((-6, 7, -2), 24), ((7, -4), 24), ((-1,), 12)),
        "g1": (((-1,), 4),),
        "g2": (((5, -4), 48), ((-1,), 12)),
        "g3": (((-3, 5, -2), 48), ((5, -4), 48), ((-1,), 24)),
    },
}


def table(kind: ClassKind, phi: PhiSpec, *names: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each named ``_TABLE`` field's row values at phi, exactly, as integer pairs
    (numerator, denominator) with a positive denominator, not reduced: with
    ``phi.integers`` = (n1, n2, n3, d), a row of degree m is an integer over den d^m."""
    fields = _known(_TABLE, kind, "class")
    n1, n2, n3, d = _integers(phi)
    b = (n1, n2 * d, n3 * d * d)  # B_k d^k, so a B-monomial of degree m comes times d^m
    return tuple(tuple((_graded(nums, *b), den * d ** len(nums)) for nums, den in fields[name])
                 for name in names)


def _saturated(n: int, d: int) -> float:
    """n / d for d > 0, rounded once, or +-inf where it lies past the float range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf
