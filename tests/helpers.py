"""Shared test utilities: the Schwarz coefficient body as a reference,
independent pipeline solvers, random data, the inverse of the Schur
parameter map, the piecewise Fekete-Szego bound, and the paper's closed
forms of the third-coefficient bounds, and the writer of the golden
fixtures, ``write_golden``, which names every key it moves.

The solvers here derive (a2, a3, a4) directly from the defining
differential relations using only the series engine, term by term.  They
share no formulas with toepsharp.coeffs, so agreement between the two is
a genuine cross-check.  ``table_value`` evaluates a field of the library's
coefficient table at a Schwarz triple, for comparison with them,
``inverse`` an inverse or logarithmic coefficient at (a2, a3, a4), and
``toeplitz`` a functional there.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from toepsharp.coeffs import INVERSE, PAIRS, ClassKind, FunctionalKind, PhiSpec, table
from toepsharp.schwarz import SchurParams, schur_map
from series import Series, compose


class SchwarzTriple(NamedTuple):
    """Leading coefficients (c1, c2, c3) of a Schwarz function."""

    c1: complex
    c2: complex
    c3: complex


def is_admissible(t: SchwarzTriple, tol: float = 1e-12) -> bool:
    """Whether (c1, c2, c3) lies in the coefficient body, within tol:

        |c1| <= 1,  |c2| <= 1 - |c1|^2,
        |c3 (1 - |c1|^2) + conj(c1) c2^2| <= (1 - |c1|^2)^2 - |c2|^2.

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


def as_floats(phi: PhiSpec) -> tuple[float, float, float]:
    """(B1, B2, B3) of phi, each rounded to a float."""
    return (float(phi.b1), float(phi.b2), float(phi.b3))


def phi_series(phi: PhiSpec) -> Series:
    return Series((1.0, *as_floats(phi)))


def omega_series(t: SchwarzTriple) -> Series:
    return Series((0.0, t.c1, t.c2, t.c3))


def solve_starlike(phi: PhiSpec, t: SchwarzTriple) -> tuple[complex, complex, complex]:
    """(a2, a3, a4) from z f' = f * phi(omega) solved degree by degree."""
    p = compose(phi_series(phi), omega_series(t)).coeffs
    a = [1.0 + 0j]
    for m in range(2, 5):
        # m a_m - a_m = sum_{k=1}^{m-1} p_k a_{m-k}
        a.append(sum(p[k] * a[m - k - 1] for k in range(1, m)) / (m - 1))
    return a[1], a[2], a[3]


def solve_convex(phi: PhiSpec, t: SchwarzTriple) -> tuple[complex, complex, complex]:
    """(a2, a3, a4) from 1 + z f''/f' = phi(omega), via f' = 1 + sum d_m z^m."""
    p = compose(phi_series(phi), omega_series(t)).coeffs
    d = [1.0 + 0j]
    for m in range(1, 4):
        # z (f')' = f' (phi(omega) - 1): m d_m = sum_{k=1}^{m} p_k d_{m-k}
        d.append(sum(p[k] * d[m - k] for k in range(1, m + 1)) / m)
    # f' coefficient of z^{m} is (m+1) a_{m+1}
    return d[1] / 2, d[2] / 3, d[3] / 4


def solve(kind: ClassKind, phi: PhiSpec, t: SchwarzTriple) -> tuple[complex, complex, complex]:
    """(a2, a3, a4) of the class member of ``kind`` by the series solve."""
    return (solve_starlike if kind is ClassKind.STARLIKE else solve_convex)(phi, t)


def inverse(name: str, a2, a3, a4):
    """The coefficient ``name`` of ``INVERSE`` (b2..b4 of f^(-1), or g1..g3, its
    logarithmic ones) for f with coefficients (a2, a3, a4)."""
    nums, div = INVERSE[name]
    monomials = {1: (a2,), 2: (a2 ** 2, a3), 3: (a2 ** 3, a2 * a3, a4)}
    return sum(n * m for n, m in zip(nums, monomials[len(nums)])) / div


def toeplitz(kind: FunctionalKind, a):
    """|x_n^2 - x_{n+1}^2| for the coefficient pair named by ``kind`` at a = (a2, a3, a4)."""
    first, second = PAIRS[kind]
    return abs(inverse(first, *a) ** 2 - inverse(second, *a) ** 2)


def table_value(kind: ClassKind, phi: PhiSpec, name: str, t: SchwarzTriple) -> complex:
    """The table field ``name`` at (c1, c2, c3), each row value rounded to a float."""
    (rows,) = table(kind, phi, name)
    monomials = {1: (t.c1,), 2: (t.c1 ** 2, t.c2), 3: (t.c1 ** 3, t.c1 * t.c2, t.c3)}
    return sum(n / d * m for (n, d), m in zip(rows, monomials[len(rows)]))


def coeffs_to_schur(t: SchwarzTriple) -> SchurParams:
    """Inverse of ``schwarz.schur_map``, defined only in the interior.

    Degenerate layers (|c1| = 1, or |gamma1| = 1) have no unique
    preimage; callers sampling the interior never hit them.
    """
    t0 = 1.0 - abs(t.c1) ** 2
    if t0 <= 0:
        raise ValueError("parameter recovery undefined at |c1| = 1")
    g0 = t.c1
    g1 = t.c2 / t0
    t1 = 1.0 - abs(g1) ** 2
    if t1 <= 0:
        raise ValueError("parameter recovery undefined at |gamma1| = 1")
    g2 = (t.c3 / t0 + g0.conjugate() * g1 ** 2) / t1
    return SchurParams(g0, g1, g2)


def fekete_szego_reference(kind: ClassKind, phi: PhiSpec, lam):
    """The sharp bound on |a3 - lambda a2^2| as three branches in lambda.

    Written out branch by branch, as Ma and Minda state it, to check the
    library's one-expression form.  Adjacent branch formulas agree at the
    branch boundaries, so plain comparisons suffice.
    """
    b1, b2 = phi.b1, phi.b2
    if kind is ClassKind.STARLIKE:
        t = 2 * lam * b1 * b1
        if t <= b1 * b1 + b2 - b1:
            return (b1 * b1 + b2 - t) / 2
        if t <= b1 * b1 + b2 + b1:
            return b1 / 2
        return (t - b1 * b1 - b2) / 2
    t = 3 * lam * b1 * b1
    if t <= 2 * (b1 * b1 + b2 - b1):
        return (b2 + b1 * b1 - t / 2) / 6
    if t <= 2 * (b1 * b1 + b2 + b1):
        return b1 / 6
    return (t / 2 - b1 * b1 - b2) / 6


def third_coefficient_reference(kind: ClassKind, phi: PhiSpec, coef: str):
    """(q, D, sigma, mu) of the b4 or Gamma3 bound as the paper writes it.

    |x| <= |q|/D inside the allowed Omega regions, x the INVERSE coefficient
    ``coef``.  Each (class, coefficient) is typed out separately, to check
    the library's one lemma form down to the last bit of a float.
    """
    b1, b2, b3 = phi.b1, phi.b2, phi.b3
    star = kind is ClassKind.STARLIKE
    if coef == "g3" and star:
        q, d, s, den = 9 * b1 ** 3 - 9 * b1 * b2 + 2 * b3, 12, -(9 * b1 * b1 - 4 * b2), 2 * b1
    elif coef == "g3":
        q, d, s, den = 3 * b1 ** 3 - 5 * b1 * b2 + 2 * b3, 48, -(5 * b1 * b1 - 4 * b2), 2 * b1
    elif star:
        q, d, s, den = 8 * b1 ** 3 - 6 * b1 * b2 + b3, 3, 2 * (b2 - 3 * b1 * b1), b1
    else:
        q, d, s, den = 6 * b1 ** 3 - 7 * b1 * b2 + 2 * b3, 24, 4 * b2 - 7 * b1 * b1, 2 * b1
    return q, d, s / den, q / den


def random_complex(rng: np.random.Generator, scale: float = 5.0) -> complex:
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def random_triples(seed: int, n: int) -> list[SchwarzTriple]:
    """n admissible triples drawn through the unit-disk parameterization."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        r = rng.random(3) ** 0.5
        th = rng.uniform(0, 2 * np.pi, 3)
        g = r * np.exp(1j * th)
        out.append(SchwarzTriple(*schur_map(*map(complex, g))))
    return out


def golden_diff(old: dict, new: dict) -> dict[str, list[str]]:
    """The keys ``new`` adds to ``old``, removes from it and changes, each list sorted."""
    return {"added": sorted(new.keys() - old.keys()),
            "removed": sorted(old.keys() - new.keys()),
            "changed": sorted(k for k in old.keys() & new.keys() if old[k] != new[k])}


def write_golden(path: Path, cases: Iterable[tuple[str, Callable[[], object]]]) -> None:
    """Rewrite the golden fixture ``path`` from its (key, thunk) ``cases``, first
    printing to stderr how many keys it adds, removes and changes, and each of them."""
    text = json.dumps({key: run() for key, run in cases}, indent=1, sort_keys=True) + "\n"
    old = json.loads(path.read_text()) if path.exists() else {}
    diff = golden_diff(old, json.loads(text))  # as read back: a tuple compares as a list
    print(f"{path.name}: " + ", ".join(f"{len(keys)} {what}" for what, keys in diff.items()),
          file=sys.stderr)
    for what, keys in diff.items():
        for key in keys:
            print(f"  {what}: {key}", file=sys.stderr)
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
