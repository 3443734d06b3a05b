"""Extremal functions certifying that the closed-form bounds are attained.

The attaining member in both classes corresponds to omega(z) = i z.  Its
Taylor coefficients satisfy a linear recursion obtained by matching
powers of z in the defining equation with phi(i z) on the right, so the
coefficients come out exact to machine precision; no quadrature of the
integral representation is ever needed.
"""

from __future__ import annotations

from .coeffs import ClassKind, CoeffBundle, FunctionalKind, PhiSpec, toeplitz


def extremal_coeffs(kind: ClassKind, phi: PhiSpec, n: int) -> tuple[complex, ...]:
    """Taylor coefficients (a_1, ..., a_N) of the rotation extremal; a_1 = 1.

    Starlike: (m-1) a_m = sum_{k>=1} i^k B_k a_{m-k}.  Convex: the Alexander
    transform of the starlike extremal (h is convex iff z h' is starlike), so
    a_m(h) = a_m(z h')/m.

    The generator is cut after B3 (B_4 = B_5 = ... = 0).  Only B1..B3
    affect a_2..a_4, and hence every functional; a_5 onward are those of
    the cut generator.
    """
    if n < 2:
        raise ValueError("need N >= 2")
    B = [complex(x) for x in phi.as_floats()]
    rot = [(1j) ** (k + 1) * B[k] for k in range(len(B))]  # i^k B_k
    a = [1.0 + 0j]
    for m in range(1, n):
        a.append(sum(rot[k - 1] * a[m - k] for k in range(1, min(m, len(B)) + 1)) / m)
    if kind is ClassKind.CONVEX:
        a = [x / m for m, x in enumerate(a, 1)]
    return tuple(a)


def attainment(functional: FunctionalKind, kind: ClassKind, phi: PhiSpec) -> float:
    """The functional evaluated at the rotation extremal.

    Equals the closed-form theorem bound whenever that bound's
    hypotheses hold; this is the sharpness certificate.
    """
    return toeplitz(functional, CoeffBundle(*extremal_coeffs(kind, phi, 4)[1:]))
