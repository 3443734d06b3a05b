"""The first-three-coefficient body of Schwarz functions.

A Schwarz function omega(z) = c1 z + c2 z^2 + c3 z^3 + ... maps the unit
disk into itself with omega(0) = 0.  The attainable (c1, c2, c3) form a
compact body described by

    |c1| <= 1,
    |c2| <= 1 - |c1|^2,
    |c3 (1 - |c1|^2) + conj(c1) c2^2| <= (1 - |c1|^2)^2 - |c2|^2.

Three free unit-disk parameters (gamma0, gamma1, gamma2) generate the
whole body surjectively, which is what the maximization oracle samples
and searches: box constraints only, no rejection needed.  Schur's
recursion gives c_k from gamma0, ..., gamma_{k-1} alone, so (gamma0,
gamma1) generate the attainable (c1, c2) in the same way.
"""

from __future__ import annotations

from .coeffs import record


@record
class SchurParams:
    """Free parameters, each in the closed unit disk; gamma2 is 0 unless given,
    as on the face of a search that reads only (c1, c2)."""

    gamma0: complex
    gamma1: complex
    gamma2: complex = 0j


def schur_map(g0, g1, g2=None):
    """(c1, c2, c3) for free parameters (gamma0, gamma1, gamma2), or (c1, c2)
    for (gamma0, gamma1) alone: the same c1 and c2, since neither reads gamma2.

    Unchecked, and elementwise: the parameters may be complex scalars or
    numpy arrays (the oracle's objective).
    """
    t0 = 1.0 - abs(g0) ** 2
    if g2 is None:
        return g0, t0 * g1
    return g0, t0 * g1, t0 * ((1.0 - abs(g1) ** 2) * g2 - g0.conjugate() * g1 ** 2)
