"""Built-in generator catalog and the published sharp values.

Each well-known subclass corresponds to a generator phi; only its first
three Taylor coefficients matter here.  Fixture values are stored as
exact rationals wherever the published value is rational, so the
regression table can assert exact equality; the parabolic-domain class
is the one irrational case (powers of pi).

The lemniscate class is encoded with generator sqrt(1 + z^2) exactly as
published (B1 = 0): its listed values 1/64 and 1/16 are consistent only
with that Taylor data.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction

from .coeffs import ClassKind, FunctionalKind, PhiSpec, Real, _known, _real, record

F = Fraction

_PI2 = math.pi ** 2


def _janowski(a: Real, b: Real) -> PhiSpec:
    if not (-1 <= b < a <= 1):
        raise ValueError("Janowski parameters need -1 <= B < A <= 1")
    return PhiSpec(a - b, -b * (a - b), b * b * (a - b))


def _order(alpha: Real) -> PhiSpec:
    if not 0 <= alpha < 1:
        raise ValueError("order parameter needs 0 <= alpha < 1")
    t = 2 * (1 - alpha)
    return PhiSpec(t, t, t)


def _strongly(beta: Real) -> PhiSpec:
    if not 0 < beta <= 1:
        raise ValueError("strong parameter needs 0 < beta <= 1")
    # / F(3) keeps an integer beta exact; for a float beta it is the same x / 3.0
    return PhiSpec(2 * beta, 2 * beta * beta, 2 * beta * (1 + 2 * beta * beta) / F(3))


_PHIS: dict[str, Callable[..., PhiSpec]] = {
    "halfplane": lambda: PhiSpec(F(2), F(2), F(2)),            # (1+z)/(1-z)
    "cardioid": lambda: PhiSpec(F(1), F(1), F(1, 2)),          # 1 + z e^z
    "exp": lambda: PhiSpec(F(1), F(1, 2), F(1, 6)),            # e^z
    "lune": lambda: PhiSpec(F(1), F(1, 2), F(0)),              # z + sqrt(1+z^2)
    "parabolic": lambda: PhiSpec(8 / _PI2, 16 / (3 * _PI2), 184 / (45 * _PI2)),
    "lemniscate": lambda: PhiSpec(F(0), F(1, 2), F(0)),        # sqrt(1+z^2)
    "janowski": _janowski,
    "starlike-order": _order,
    "convex-order": _order,
    "strongly-starlike": _strongly,
    "strongly-convex": _strongly,
}

PHI_NAMES = tuple(_PHIS)


def phi_coeffs(name: str, **params: Real) -> PhiSpec:
    """Taylor data (B1, B2, B3) for a catalog generator.

    Parametric generators take ``alpha``, ``beta`` or ``a``/``b``; pass
    Fractions to keep everything downstream exact; a bad name or parameter is
    a ValueError that names it, and a parameter that is no integer, Fraction or
    float a TypeError that names it.
    """
    make = _known(_PHIS, name, "catalog generator")
    wanted = make.__code__.co_varnames[:make.__code__.co_argcount]  # its parameter names
    missing = [p for p in wanted if p not in params]
    unexpected = [p for p in params if p not in wanted]
    if missing or unexpected:
        raise ValueError(f"{name} takes parameters {', '.join(wanted) or 'none'}: "
                         f"missing {', '.join(missing) or 'none'}, "
                         f"unexpected {', '.join(unexpected) or 'none'}")
    return make(**{p: _real(p, v) for p, v in params.items()})


_T21F = FunctionalKind.T21_LOG_INV
_T22F = FunctionalKind.T22_LOG_INV
_T21 = FunctionalKind.T21_INV
_T22 = FunctionalKind.T22_INV

# Published sharp values for the parameter-free classes.  Entries absent
# from a list are the ones whose hypotheses fail for that generator
# (e.g. no T22 values for the lemniscate class, where B1 = 0).
_PARABOLIC_T21 = 128 * (648 - 36 * _PI2 + 5 * _PI2 ** 2) / (9 * _PI2 ** 4)
_PARABOLIC_T22 = (64 * (_PI2 - 36) ** 2 / (9 * _PI2 ** 4)
                  + 64 * (23040 - 1440 * _PI2 + 23 * _PI2 ** 2) ** 2
                  / (18225 * _PI2 ** 6))

# (generator, class) -> (class label, published values)
_FIXTURES: dict[tuple[str, ClassKind], tuple[str, tuple[tuple[FunctionalKind, Real], ...]]] = {
    ("halfplane", ClassKind.STARLIKE): ("S*", (
        (_T21F, F(13, 4)), (_T22F, F(481, 36)), (_T21, F(29)), (_T22, F(221)))),
    ("halfplane", ClassKind.CONVEX): ("C", (
        (_T21F, F(5, 16)), (_T22F, F(13, 144)), (_T21, F(2)), (_T22, F(2)))),
    ("exp", ClassKind.STARLIKE): ("S*_e", (
        (_T21F, F(25, 64)), (_T22F, F(785, 2592)), (_T21, F(41, 16)), (_T22, F(5869, 1296)))),
    ("lune", ClassKind.STARLIKE): ("Delta*", (
        (_T21F, F(25, 64)), (_T22F, F(9, 32)), (_T21, F(41, 16)), (_T22, F(625, 144)))),
    ("cardioid", ClassKind.STARLIKE): ("S*_rho", (
        (_T21F, F(5, 16)), (_T21, F(2)), (_T22, F(61, 36)))),
    ("lemniscate", ClassKind.STARLIKE): ("S*_L", (
        (_T21F, F(1, 64)), (_T21, F(1, 16)))),
    ("parabolic", ClassKind.STARLIKE): ("S_P", (
        (_T21, _PARABOLIC_T21), (_T22, _PARABOLIC_T22))),
}


@record
class CatalogEntry:
    name: str
    label: str
    class_kind: ClassKind
    phi: PhiSpec
    fixtures: tuple[tuple[FunctionalKind, Real], ...]


def fixture_entries() -> tuple[CatalogEntry, ...]:
    """All parameter-free classes with published numeric values."""
    return tuple(
        CatalogEntry(name, label, kind, phi_coeffs(name), fx)
        for (name, kind), (label, fx) in _FIXTURES.items()
    )


def certificate_entries() -> tuple[tuple[str, ClassKind, PhiSpec], ...]:
    """(label, class, phi) triples for the sharpness-certificate sweep.

    The fixed classes plus one representative parameter point per
    parametric family, chosen inside every hypothesis interval so the
    full set yields well over thirty applicable pairs.
    """
    fixed = tuple((e.label, e.class_kind, e.phi) for e in fixture_entries())
    parametric = (
        ("S*(1/4)", ClassKind.STARLIKE, phi_coeffs("starlike-order", alpha=F(1, 4))),
        ("C(1/10)", ClassKind.CONVEX, phi_coeffs("convex-order", alpha=F(1, 10))),
        ("SS*(1/2)", ClassKind.STARLIKE, phi_coeffs("strongly-starlike", beta=F(1, 2))),
        ("CC(4/5)", ClassKind.CONVEX, phi_coeffs("strongly-convex", beta=F(4, 5))),
        ("S*[1/2,-1/2]", ClassKind.STARLIKE, phi_coeffs("janowski", a=F(1, 2), b=F(-1, 2))),
        ("C[1,0]", ClassKind.CONVEX, phi_coeffs("janowski", a=F(1), b=F(0))),
    )
    return fixed + parametric


@record
class CorollaryCurve:
    """A published parametric sharp-bound formula and its stated interval.

    ``expected`` is the closed form as published, except where the
    publication disagrees with the proven theorem formula; then the
    theorem form is used and ``erratum`` records the discrepancy.
    """

    label: str
    class_kind: ClassKind
    functional: FunctionalKind
    param: str
    lo: float
    hi: float
    phi_of: Callable[[Real], PhiSpec]
    expected: Callable[[Real], Real]
    erratum: str | None = None


def _jan_slice(a: Real) -> PhiSpec:
    return phi_coeffs("janowski", a=a, b=F(-1))


def _family(label: str, kind: ClassKind, param: str, phi_of: Callable[[Real], PhiSpec],
            *curves: tuple) -> tuple[CorollaryCurve, ...]:
    """One subclass family's curves, each given as (functional, lo, hi, expected[, erratum])."""
    return tuple(CorollaryCurve(label, kind, functional, param, lo, hi, phi_of, *rest)
                 for functional, lo, hi, *rest in curves)


COROLLARY_CURVES: tuple[CorollaryCurve, ...] = (
    *_family("S*(alpha)", ClassKind.STARLIKE, "alpha", _order,  # starlike of order alpha
             (_T21F, 0, 1 / 2, lambda a: (1 - a) ** 2 * ((3 - 4 * a) ** 2 + 4) / 4),
             (_T22F, 0, 7 / 15, lambda a: (1 - a) ** 2 * (9 * (3 - 4 * a) ** 2
                                          + 4 * (2 - 3 * a) ** 2 * (5 - 6 * a) ** 2) / 36),
             (_T21, 0, 2 / 3, lambda a: (1 - a) ** 2 * (36 * a * a - 60 * a + 29)),
             (_T22, 0, 3 / 5, lambda a: (1 - a) ** 2 * (9 * (5 - 6 * a) ** 2
                                        + 4 * (3 - 4 * a) ** 2 * (7 - 8 * a) ** 2) / 9)),
    *_family("C(alpha)", ClassKind.CONVEX, "alpha", _order,  # convex of order alpha
             (_T21F, 0, 1 / 5, lambda a: 5 * (1 - a) ** 2 * (5 * a * a - 6 * a + 9) / 144),
             (_T22F, 0, 7 / 47, lambda a: (1 - a) ** 2 * ((6 * a * a - 7 * a + 2) ** 2
                                          + (3 - 5 * a) ** 2) / 144),
             (_T21, 0, 1 / 2, lambda a: (1 - a) ** 2 * ((3 - 4 * a) ** 2 + 9) / 9,
              "published corollary reads ((1-alpha)^2 (3-4 alpha)^2 + 9)/9; the proven bound "
              "carries (1-alpha)^2 on both terms (the two agree at alpha = 0, value 2)"),
             (_T22, 0, 39 / 95,
              lambda a: (1 - a) ** 2 * ((2 - 3 * a) ** 2 + 4) * (3 - 4 * a) ** 2 / 36)),
    *_family("SS*(beta)", ClassKind.STARLIKE, "beta", _strongly,  # strongly starlike, order beta
             (_T21F, 1 / 3, 1, lambda b: b * b * (9 * b * b + 4) / 4),
             (_T22F, 1 / 3, 1, lambda b: b * b * (3364 * b ** 4 + 961 * b * b + 4) / 324),
             (_T21, 1 / 5, 1, lambda b: b * b * (25 * b * b + 4)),
             (_T22, 1 / 5, 1, lambda b: b * b * (15376 * b ** 4 + 2521 * b * b + 4) / 81)),
    *_family("CC(beta)", ClassKind.CONVEX, "beta", _strongly,  # strongly convex of order beta
             (_T21F, 2 / 3, 1, lambda b: b * b * (b * b + 4) / 16),
             (_T22F, 2 / 3, 1, lambda b: b * b * (25 * b ** 4 + 91 * b * b + 1) / 1296),
             (_T21, 1 / 3, 1, lambda b: b * b * (b * b + 1)),
             (_T22, math.sqrt(2 / 17), 1,
              lambda b: b * b * (289 * b ** 4 + 358 * b * b + 1) / 324)),
    # Janowski slices along B = -1 (A = 1 recovers the half-plane class);
    # the A ranges keep every hypothesis, including region membership,
    # satisfied along the slice.
    *_family("S*[A,-1]", ClassKind.STARLIKE, "a", _jan_slice,
             (_T21F, 1 / 2, 1, lambda a: (a + 1) ** 2 * (4 * a * a + 4 * a + 5) / 16),
             (_T22F, 1 / 2, 1, lambda a: (a + 1) ** 2 * ((9 * a * a + 9 * a + 2) ** 2
                                         + 9 * (1 + 2 * a) ** 2) / 144),
             (_T21, 1 / 2, 1, lambda a: (a + 1) ** 2 * ((3 * a + 2) ** 2 + 4) / 4),
             (_T22, 1 / 2, 1, lambda a: (a + 1) ** 2 * (9 * (3 * a + 2) ** 2
                                        + 4 * (1 + 2 * a) ** 2 * (4 * a + 3) ** 2) / 36)),
    *_family("C[A,-1]", ClassKind.CONVEX, "a", _jan_slice,
             (_T21F, 4 / 5, 1, lambda a: (a + 1) ** 2 * (25 * a * a + 10 * a + 145) / 2304),
             (_T22F, 4 / 5, 1, lambda a: (a + 1) ** 2 * (a * a * (1 + 3 * a) ** 2
                                         + (1 + 5 * a) ** 2) / 2304),
             (_T21, 4 / 5, 1, lambda a: (a + 1) ** 2 * ((1 + 2 * a) ** 2 + 9) / 36),
             (_T22, 4 / 5, 1,
              lambda a: (2 * a * a + 3 * a + 1) ** 2 * ((1 + 3 * a) ** 2 + 16) / 576)),
)
