"""Closed-form sharp bounds with full hypothesis checking.

Each of the four functionals |x_n^2 - x_{n+1}^2| pairs two coefficients
(coeffs.PAIRS), and coeffs.table gives each as a polynomial in the Schwarz
coefficients: x = k c1 (b2, Gamma1), x = u c1^2 + v c2 (b3, Gamma2) or
x = q1 c1^3 + q2 c1 c2 + q3 c3 (b4, Gamma3).  The paper bounds them by

    first coefficient: |k c1| <= |k|
    Fekete-Szego (Ma & Minda, 1992): |u c1^2 + v c2| <= |u| if |u| >= |v|
    third coefficient: |c3 + sigma c1 c2 + mu c1^3| <= |mu| for
        (sigma, mu) = (q2, q1)/q3 in the regions the field allows:

    Omega1: |sigma| <= 2 and mu >= 1
    Omega2: 2 <= |sigma| <= 4 and mu >= (sigma^2 + 8)/12
    Omega3: |sigma| >= 4 and mu >= (2/3)(|sigma| - 1)

so the bound is k^2 + u^2 (T21) or u^2 + q1^2 (T22).  The table's rows
are integer ratios and the bound is computed on them: an exact generator
yields an exact bound, which is what the corollary fixtures assert, and a
float generator's report rounds each value once, from the exact one.  A
hypothesis is satisfied iff the margin its report carries is >= -HYP_TOL:
the Fekete-Szego margin rounded once, or the largest slack of the allowed
regions, computed on the rounded (sigma, mu), or exactly and rounded once
where those lie past the float range.  Formula values are reported even
when a hypothesis fails, flagged as not applicable, so parameter sweeps
see the whole curve.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction

from .coeffs import (PAIRS, ClassKind, FunctionalKind, PhiSpec, Real, _known, _real, _saturated,
                     record, table)

HYP_TOL = 1e-12
_TWO_THIRDS = Fraction(2, 3)  # times a float it is float(2/3), i.e. 2.0 / 3.0


class Region(Enum):
    NONE = "none"
    OMEGA1 = "omega1"
    OMEGA2 = "omega2"
    OMEGA3 = "omega3"


@record
class RegionMembership:
    region: Region
    sigma: float
    mu: float


@record
class Hypothesis:
    """One checked condition: satisfied iff margin >= -HYP_TOL, with no exception
    (the strict B1 > 0 has margin -inf where it fails)."""

    name: str
    satisfied: bool
    margin: float


def _checked(name: str, margin: float) -> Hypothesis:
    return Hypothesis(name, margin >= -HYP_TOL, margin)


@record
class BoundReport:
    functional: FunctionalKind
    class_kind: ClassKind
    phi: PhiSpec
    bound: Real
    hypotheses: tuple[Hypothesis, ...]
    sigma_mu: RegionMembership | None
    applicable: bool
    witness: str


def _slacks(sigma: Real, mu: Real) -> list[Real]:
    """Smallest slack of each region's conditions (negative = outside), for
    (sigma, mu) both float, with no inf - inf among them, or both Fraction."""
    s = abs(sigma)
    return [min(2 - s, mu - 1),
            min(s - 2, 4 - s, mu - (sigma * sigma + 8) / 12),
            min(s - 4, mu - _TWO_THIRDS * (s - 1))]


def _region(slacks: list[float]) -> Region:
    """Lowest-index region whose slack is >= -HYP_TOL, or NONE."""
    for region, slack in zip((Region.OMEGA1, Region.OMEGA2, Region.OMEGA3), slacks):
        if slack >= -HYP_TOL:
            return region
    return Region.NONE


def omega_region(sigma: float, mu: float) -> RegionMembership:
    """Lowest-index region containing (sigma, mu) within HYP_TOL, or NONE.

    Overlaps (|sigma| exactly 2 or 4) report the lower index.  NaN data lie in no
    region, nor does (+-inf, +inf), where Omega3's mu - (2/3)(|sigma| - 1) is NaN.
    A sigma or mu that is not an integer, Fraction or float raises TypeError.
    """
    sigma, mu = float(_real("sigma", sigma)), float(_real("mu", mu))
    nowhere = math.isnan(mu - abs(sigma))  # a NaN, or |sigma| = mu = inf
    return RegionMembership(Region.NONE if nowhere else _region(_slacks(sigma, mu)), sigma, mu)


def fekete_szego_bound(kind: ClassKind, phi: PhiSpec, lam: Real) -> Real:
    """Sharp bound max(|beta1 - lambda alpha^2|, |beta2|) on |a3 - lambda a2^2| for
    real lambda, a2 = alpha c1 and a3 = beta1 c1^2 + beta2 c2 (Ma & Minda, 1992).

    lambda is an integer, Fraction or float, as a ``PhiSpec`` field (anything else
    is a TypeError).  Exact when phi and lambda hold no float, else rounded once
    from the exact value; a NaN or infinite lambda raises ValueError or OverflowError."""
    lam = _real("lambda", lam)
    ((an, ad),), ((un, ud), (vn, vd)) = table(kind, phi, "a2", "a3")
    ln, ld = lam.as_integer_ratio()
    n, d = abs(un * ld * ad * ad - ln * an * an * ud), ud * ld * ad * ad
    if n * vd < abs(vn) * d:
        n, d = abs(vn), vd
    return Fraction(n, d) if phi.exact and not isinstance(lam, float) else _saturated(n, d)


# The paper's hypothesis on each field past the first, for (starlike, convex):
# |u| >= |v| as the paper prints it, or the Omega regions (sigma, mu) may lie in.
_HYPOTHESES = {
    "b3": ("B1 <= |3 B1^2 - B2|", "B1 <= |2 B1^2 - B2|"),
    "g2": ("|B2 - 2 B1^2| >= B1", "|B2 - (5/4) B1^2| >= B1"),
    "b4": ((2, 3), (1, 2, 3)),
    "g3": ((1, 2, 3), (2, 3)),
}


def _hypothesis(kind: ClassKind, name: str, rows: tuple, d: int, real):
    """(hypothesis, region) of the field ``name`` with table rows ``rows`` at a phi of
    common denominator ``d``; ``region`` is where (sigma, mu) lies, for a third-coefficient
    field with B1 > 0.  ``real`` rounds an integer ratio to a reported float."""
    if len(rows) == 1:
        return None, None
    check = _HYPOTHESES[name][kind is ClassKind.CONVEX]
    if len(rows) == 2:
        (un, ud), (vn, vd) = rows  # v = -B1/s, vd = s d: s (|u| - |v|) is the printed |...| - B1
        return _checked(check, real(abs(un) * vd - abs(vn) * ud, ud * d)), None
    (n1, d1), (n2, d2), (n3, d3) = rows  # q3 = -B1/D, so n3 < 0 where B1 > 0
    if not n3:
        return _checked("B1 > 0 ((sigma, mu) defined)", -math.inf), None
    # (sigma, mu) = (q2, q1)/q3 with the sign on the numerator, so a zero is +0.0
    sn, sd, mn, md = -n2 * d3, -d2 * n3, -n1 * d3, -d1 * n3
    sigma, mu = real(sn, sd), real(mn, md)
    if math.isfinite(sigma) and math.isfinite(mu):
        slacks = _slacks(sigma, mu)
    else:  # past the float range a slack could be inf - inf: the exact ones, rounded once
        slacks = [real(*x.as_integer_ratio()) for x in _slacks(Fraction(sn, sd), Fraction(mn, md))]
    names = " | ".join(f"Omega{i}" for i in check)
    return (_checked(f"(sigma, mu) in {names}", max(slacks[i - 1] for i in check)),
            RegionMembership(_region(slacks), sigma, mu))


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
    first, second = _known(PAIRS, functional, "functional")
    x, y = table(kind, phi, first, second)
    real = operator.truediv if phi.exact else _saturated
    hx, _ = _hypothesis(kind, first, x, phi.integers[3], real)
    hy, region = _hypothesis(kind, second, y, phi.integers[3], real)
    hyps = tuple(h for h in (hx, hy) if h is not None)
    (kn, kd), (un, ud) = x[0], y[0]  # the pure-c1 rows: k^2 + u^2 or u^2 + q1^2
    n, d = kn * kn * ud * ud + un * un * kd * kd, kd * kd * ud * ud
    return BoundReport(
        functional=functional,
        class_kind=kind,
        phi=phi,
        bound=Fraction(n, d) if phi.exact else real(n, d),
        hypotheses=hyps,
        sigma_mu=region,
        applicable=all(h.satisfied for h in hyps),
        witness=_witness(kind),
    )
