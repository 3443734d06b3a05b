"""The first-three-coefficient body of Schwarz functions.

A Schwarz function omega(z) = c1 z + c2 z^2 + c3 z^3 + ... maps the unit
disk into itself with omega(0) = 0.  The attainable (c1, c2, c3) form a
compact body described by

    |c1| <= 1,
    |c2| <= 1 - |c1|^2,
    |c3 (1 - |c1|^2) + conj(c1) c2^2| <= (1 - |c1|^2)^2 - |c2|^2.

Three free unit-disk parameters (gamma0, gamma1, gamma2) generate the
whole body surjectively, which is what the maximization oracle samples
and searches: box constraints only, no rejection needed.
"""

from __future__ import annotations

from dataclasses import dataclass

_PARAM_TOL = 1e-12


@dataclass(frozen=True)
class SchurParams:
    """Free parameters, each in the closed unit disk."""

    gamma0: complex
    gamma1: complex
    gamma2: complex

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.gamma0, self.gamma1, self.gamma2)


@dataclass(frozen=True)
class SchwarzTriple:
    """Raw leading coefficients (c1, c2, c3) of a Schwarz function."""

    c1: complex
    c2: complex
    c3: complex


def schur_map(g0, g1, g2):
    """(c1, c2, c3) for free parameters (gamma0, gamma1, gamma2).

    Unchecked, and elementwise: the parameters may be complex scalars or
    numpy arrays (the oracle's objective).
    """
    t0 = 1.0 - abs(g0) ** 2
    return g0, t0 * g1, t0 * ((1.0 - abs(g1) ** 2) * g2 - g0.conjugate() * g1 ** 2)


def schur_to_coeffs(p: SchurParams) -> SchwarzTriple:
    """Forward map from free parameters onto the coefficient body.

    The output satisfies the three body inequalities for any valid
    parameters; equality in the third one corresponds to |gamma2| = 1.
    """
    g0, g1, g2 = (complex(g) for g in p.as_tuple())
    for k, g in enumerate((g0, g1, g2)):
        if abs(g) > 1 + _PARAM_TOL:
            raise ValueError(f"|gamma{k}| = {abs(g)} exceeds 1")
    return SchwarzTriple(*schur_map(g0, g1, g2))


def is_admissible(t: SchwarzTriple, tol: float = 1e-12) -> bool:
    """Whether (c1, c2, c3) lies in the coefficient body, within tol.

    Extremal points sit exactly on the constraint surface, so a small
    positive tolerance is the useful default.
    """
    s1 = abs(t.c1)
    if s1 > 1 + tol:
        return False
    t0 = 1.0 - s1 ** 2
    if abs(t.c2) > t0 + tol:
        return False
    lhs = abs(t.c3 * t0 + t.c1.conjugate() * t.c2 ** 2)
    rhs = t0 ** 2 - abs(t.c2) ** 2
    return lhs <= rhs + tol
