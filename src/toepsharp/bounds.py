"""Closed-form sharp bounds with full hypothesis checking.

Each of the four functionals |x_n^2 - x_{n+1}^2| has one bound per class,
|x_n|^2 + |x_{n+1}|^2 over the coefficient pair that coeffs.PAIRS names.
One row table, _ROWS, bounds each coefficient by one of three lemma forms:

    b2, Gamma1  first coefficient: |a2| <= B1 |c1|
    b3, Gamma2  Fekete-Szego: |a3 - lambda a2^2| <= |p|/d if |p| >= B1
    b4, Gamma3  third coefficient: a4 - lambda a2 a3 - nu a2^3 =
                k (c3 + sigma c1 c2 + mu c1^3), and |c3 + ...| <= |mu|
                if (sigma, mu) lies in the regions the row allows:

    Omega1: |sigma| <= 2 and mu >= 1
    Omega2: 2 <= |sigma| <= 4 and mu >= (sigma^2 + 8)/12
    Omega3: |sigma| >= 4 and mu >= (2/3)(|sigma| - 1)

All arithmetic is polymorphic over float and Fraction: exact generator
data yields exact bounds, which is what the corollary fixtures assert.
Formula values are reported even when a hypothesis fails, flagged as
not applicable, so parameter sweeps see the whole curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .coeffs import PAIRS, ClassKind, FunctionalKind, PhiSpec, Real

HYP_TOL = 1e-12


class Region(Enum):
    NONE = "none"
    OMEGA1 = "omega1"
    OMEGA2 = "omega2"
    OMEGA3 = "omega3"


@dataclass(frozen=True)
class RegionMembership:
    region: Region
    sigma: float
    mu: float


@dataclass(frozen=True)
class Hypothesis:
    """One checked condition: satisfied iff margin >= -tolerance."""

    name: str
    satisfied: bool
    margin: float


@dataclass(frozen=True)
class BoundReport:
    functional: FunctionalKind
    class_kind: ClassKind
    phi: PhiSpec
    bound: Real
    hypotheses: tuple[Hypothesis, ...]
    sigma_mu: RegionMembership | None
    applicable: bool
    witness: str


def _in_region(sigma: float, mu: float, i: int) -> float:
    """Smallest slack of region Omega_i's conditions (negative = outside).

    NaN data lies in no region (min() would silently drop a NaN slack).
    """
    if sigma != sigma or mu != mu:  # NaN; cheaper than math.isnan on this hot path
        return -math.inf
    s = abs(sigma)
    if i == 1:
        return min(2.0 - s, mu - 1.0)
    if i == 2:
        return min(s - 2.0, 4.0 - s, mu - (sigma * sigma + 8.0) / 12.0)
    return min(s - 4.0, mu - (2.0 / 3.0) * (s - 1.0))


def omega_region(sigma: float, mu: float) -> RegionMembership:
    """Lowest-index region containing (sigma, mu) within HYP_TOL, or NONE.

    Overlaps (|sigma| exactly 2 or 4) report the lower index.
    """
    sigma, mu = float(sigma), float(mu)
    for i, tag in ((1, Region.OMEGA1), (2, Region.OMEGA2), (3, Region.OMEGA3)):
        if _in_region(sigma, mu, i) >= -HYP_TOL:
            return RegionMembership(tag, sigma, mu)
    return RegionMembership(Region.NONE, sigma, mu)


def _fekete_szego(star: bool, b1: Real, b2: Real, m: Real) -> tuple[Real, int]:
    """(p, d) with the sharp |a3 - lambda a2^2| <= max(|p|, B1)/d, m = 2 lambda - 1.

    The Fekete-Szego lemma for Ma-Minda classes (Ma & Minda, 1992); |p| >= B1
    is exactly "not the middle branch B1/d".  The convex row is the starlike
    one at m' = (3m - 1)/4, divided by 3: h is convex iff z h' is starlike
    (Alexander), and a_n(h) = a_n(z h')/n.  With an integer m, a float p
    rounds exactly as the paper's closed forms (3 B1^2 - B2, ...) do.
    """
    if star:
        return m * b1 * b1 - b2, 2
    return (3 * m - 1) * b1 * b1 / 4 - b2, 6


def fekete_szego_bound(kind: ClassKind, phi: PhiSpec, lam: Real) -> Real:
    """Sharp bound on |a3 - lambda a2^2| for real lambda."""
    p, d = _fekete_szego(kind is ClassKind.STARLIKE, phi.b1, phi.b2, 2 * lam - 1)
    return max(abs(p), phi.b1) / d


def _third(star: bool, phi: PhiSpec, l3: int, n6: int) -> tuple[Real, int, Real, Real]:
    """(q, d, s, den): a4 - lambda a2 a3 - nu a2^3 = k (c3 + sigma c1 c2 + mu c1^3)
    with |k mu| = |q|/d and (sigma, mu) = (s, q)/den; l3 = 3 lambda, n6 = 6 nu.

    Starlike: 6 (a4 - ...) = 2 B1 c3 + (C B1^2 + 4 B2) c1 c2 + (A B1^3 + C B1 B2
    + 2 B3) c1^3, A = 1 - 3 lambda - 6 nu, C = 3 - 3 lambda.  Convex: the
    starlike row at (2 lambda/3, nu/2), over 4 (Alexander, as in _fekete_szego).
    Lowest-term multipliers make a float q round as the paper's closed forms
    (8 B1^3 - 6 B1 B2 + B3, ...) do; a float B1^3 past the float range is inf.
    """
    if star:
        a, c, e, d = 1 - l3 - n6, 3 - l3, 2, 6
    else:  # 6 times the starlike (a, c, e, 4 d) at (2 l3/3, n6/2)
        a, c, e, d = 6 - 4 * l3 - 3 * n6, 18 - 4 * l3, 12, 144
    g = math.gcd(a, c, e, d)
    a, c, e, d = a // g, c // g, e // g, d // g
    b1 = phi.b1
    try:
        cube = b1 ** 3
    except OverflowError:
        cube = math.inf
    return a * cube + c * b1 * phi.b2 + e * phi.b3, d, c * b1 * b1 + 2 * e * phi.b2, e * b1


# CoeffBundle field -> (lemma, its parameter, divisor scale, hypothesis for
# (starlike, convex): printed for Fekete-Szego, the allowed Omega regions
# for _third).  b3 = 2 a2^2 - a3 and 2 Gamma2 = (3/2) a2^2 - a3 are at m = 3
# and 2; b4 = 5 a2 a3 - 5 a2^3 - a4 and 2 Gamma3 = 4 a2 a3 - (10/3) a2^3 - a4
# at (3 lambda, 6 nu) = (15, -30) and (12, -20).  None: |a2| <= B1 |c1|.
_ROWS = {
    "b2": (None, None, 1, None),
    "g1": (None, None, 2, None),
    "b3": (_fekete_szego, 3, 1, ("B1 <= |3 B1^2 - B2|", "B1 <= |2 B1^2 - B2|")),
    "g2": (_fekete_szego, 2, 2, ("|B2 - 2 B1^2| >= B1", "|B2 - (5/4) B1^2| >= B1")),
    "b4": (_third, (15, -30), 1, ((2, 3), (1, 2, 3))),
    "g3": (_third, (12, -20), 2, ((1, 2, 3), (2, 3))),
}


def _ineq(name: str, margin) -> Hypothesis:
    return Hypothesis(name, margin >= -HYP_TOL, float(margin))


def _coefficient(kind: ClassKind, phi: PhiSpec, coef: str):
    """(q, d, hypothesis, region): |x| <= |q|/d for x the CoeffBundle field
    ``coef`` under ``hypothesis``; ``region`` is where (sigma, mu) lies, for a
    third-coefficient row with B1 > 0.
    """
    lemma, param, scale, checks = _ROWS[coef]
    star = kind is ClassKind.STARLIKE
    if lemma is None:
        return phi.b1, (scale if star else 2 * scale), None, None
    check = checks[0] if star else checks[1]
    if lemma is _fekete_szego:
        p, d = _fekete_szego(star, phi.b1, phi.b2, param)
        return p, scale * d, _ineq(check, abs(p) - phi.b1), None
    q, d, s, den = _third(star, phi, *param)
    if den == 0:
        return q, scale * d, Hypothesis("B1 > 0 ((sigma, mu) defined)", False, 0.0), None
    sigma, mu = float(s / den), float(q / den)
    slack = max(_in_region(sigma, mu, i) for i in check)
    names = " | ".join(f"Omega{i}" for i in check)
    return q, scale * d, _ineq(f"(sigma, mu) in {names}", slack), omega_region(sigma, mu)


def _square(q: Real, d: int) -> Real:
    """(q/d)^2 rounded as q*q/(d*d), or as (q/d)*(q/d) where a float q*q overflows."""
    sq = q * q / (d * d)
    if type(sq) is float and sq == math.inf:
        return (q / d) * (q / d)
    return sq


def _witness(kind: ClassKind) -> str:
    if kind is ClassKind.STARLIKE:
        return "rotation extremal f with z f'(z)/f(z) = phi(i z), i.e. omega(z) = i z"
    return "rotation extremal h with 1 + z h''(z)/h'(z) = phi(i z), i.e. omega(z) = i z"


def theorem_bound(functional: FunctionalKind, kind: ClassKind, phi: PhiSpec) -> BoundReport:
    """The sharp bound |x_n|^2 + |x_{n+1}|^2 for (functional, class).

    The bound value is always populated; ``applicable`` records whether
    every hypothesis holds (within HYP_TOL, so boundary generators
    count as satisfied).
    """
    if functional not in PAIRS:
        raise ValueError(f"unknown functional {functional}")
    first, second = PAIRS[functional]
    q, d, hq, _ = _coefficient(kind, phi, first)
    n, e, hn, region = _coefficient(kind, phi, second)
    hyps = tuple(h for h in (hq, hn) if h is not None)
    return BoundReport(
        functional=functional,
        class_kind=kind,
        phi=phi,
        bound=_square(q, d) + _square(n, e),
        hypotheses=hyps,
        sigma_mu=region,
        applicable=all(h.satisfied for h in hyps),
        witness=_witness(kind),
    )
