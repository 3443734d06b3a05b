"""Closed-form sharp bounds with full hypothesis checking.

Each of the four functionals |x_n^2 - x_{n+1}^2| has one bound per class,
|x_n|^2 + |x_{n+1}|^2 over the coefficient pair that coeffs.PAIRS names,
valid under an inequality on the generator data and (for the T_{2,2}
functionals) a region condition on an associated pair (sigma, mu).  The
region calculus is the one of the |c3 + sigma c1 c2 + mu c1^3| <= |mu|
lemma:

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


class UndefinedSigmaMuError(ValueError):
    """Raised when B1 = 0 makes the (sigma, mu) pair undefined."""


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


# (m, divisor scale, hypothesis |p| >= B1 as printed for starlike and convex)
# of the two second-coefficient rows: b3 = 2 a2^2 - a3 at m = 3, and
# 2 Gamma2 = (3/2) a2^2 - a3 at m = 2.
_FEKETE_SZEGO_ROWS = {
    "b3": (3, 1, ("B1 <= |3 B1^2 - B2|", "B1 <= |2 B1^2 - B2|")),
    "g2": (2, 2, ("|B2 - 2 B1^2| >= B1", "|B2 - (5/4) B1^2| >= B1")),
}

# Which Omega union each third-coefficient bound requires, as printed.
_ALLOWED_REGIONS = {
    ("g3", ClassKind.STARLIKE): (1, 2, 3),
    ("g3", ClassKind.CONVEX): (2, 3),
    ("b4", ClassKind.STARLIKE): (2, 3),
    ("b4", ClassKind.CONVEX): (1, 2, 3),
}


def _coefficient(kind: ClassKind, phi: PhiSpec, coef: str):
    """(q, d, hypothesis) with |x| <= |q|/d for x the CoeffBundle field ``coef``.

    b2 = -a2 and Gamma1 = -a2/2 need no hypothesis.  b3 and Gamma2 take the
    outer branch |p|/d of the Fekete-Szego bound (_FEKETE_SZEGO_ROWS), under
    the paper's hypothesis ``hypothesis = (name, margin)``, margin = |p| - B1.
    b4 and Gamma3 are k (c3 + sigma c1 c2 + mu c1^3), bounded by
    |k mu| = |q|/d when (sigma, mu) lies in the allowed Omega regions;
    then ``hypothesis = (s, den)`` with (sigma, mu) = (s/den, q/den), and
    den = 0 iff B1 = 0.
    """
    b1, b2, b3 = phi.b1, phi.b2, phi.b3
    star = kind is ClassKind.STARLIKE
    if coef == "b2":
        return b1, (1 if star else 2), None
    if coef == "g1":
        return b1, (2 if star else 4), None
    if coef in _FEKETE_SZEGO_ROWS:
        m, scale, names = _FEKETE_SZEGO_ROWS[coef]
        p, d = _fekete_szego(star, b1, b2, m)
        return p, scale * d, (names[0] if star else names[1], abs(p) - b1)
    if coef == "g3":
        if star:
            return (9 * b1 ** 3 - 9 * b1 * b2 + 2 * b3, 12,
                    (-(9 * b1 * b1 - 4 * b2), 2 * b1))
        return (3 * b1 ** 3 - 5 * b1 * b2 + 2 * b3, 48,
                (-(5 * b1 * b1 - 4 * b2), 2 * b1))
    if star:
        return 8 * b1 ** 3 - 6 * b1 * b2 + b3, 3, (2 * (b2 - 3 * b1 * b1), b1)
    return 6 * b1 ** 3 - 7 * b1 * b2 + 2 * b3, 24, (4 * b2 - 7 * b1 * b1, 2 * b1)


def sigma_mu(kind: ClassKind, phi: PhiSpec, which: FunctionalKind) -> tuple[Real, Real]:
    """The (sigma, mu) pair whose region membership the T22 bounds need."""
    if which not in (FunctionalKind.T22_LOG_INV, FunctionalKind.T22_INV):
        raise ValueError(f"no (sigma, mu) data for {which}")
    q, _, (s, den) = _coefficient(kind, phi, PAIRS[which][1])
    if den == 0:
        raise UndefinedSigmaMuError("(sigma, mu) undefined at B1 = 0")
    return s / den, q / den


def _ineq(name: str, margin) -> Hypothesis:
    return Hypothesis(name, margin >= -HYP_TOL, float(margin))


def _check(kind: ClassKind, coef: str, q: Real,
           hypothesis) -> tuple[Hypothesis, RegionMembership | None]:
    """A coefficient's hypothesis, and (for b4, Gamma3) where (sigma, mu) lies."""
    allowed = _ALLOWED_REGIONS.get((coef, kind))
    if allowed is None:
        return _ineq(*hypothesis), None
    s, den = hypothesis
    if den == 0:
        return Hypothesis("B1 > 0 ((sigma, mu) defined)", False, 0.0), None
    sigma, mu = float(s / den), float(q / den)
    slack = max(_in_region(sigma, mu, i) for i in allowed)
    names = " | ".join(f"Omega{i}" for i in allowed)
    return _ineq(f"(sigma, mu) in {names}", slack), omega_region(sigma, mu)


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
    q, d, hq = _coefficient(kind, phi, first)
    n, e, hn = _coefficient(kind, phi, second)
    checks = [_check(kind, coef, x, h)
              for coef, x, h in ((first, q, hq), (second, n, hn)) if h is not None]
    hyps = tuple(h for h, _ in checks)
    return BoundReport(
        functional=functional,
        class_kind=kind,
        phi=phi,
        bound=q * q / (d * d) + n * n / (e * e),
        hypotheses=hyps,
        sigma_mu=checks[-1][1],  # x_{n+1}'s check: the region one, if any
        applicable=all(h.satisfied for h in hyps),
        witness=_witness(kind),
    )
