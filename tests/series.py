"""Truncated complex power series arithmetic.

Everything here works modulo z^(order+1): coefficients above the
truncation degree are never produced or consumed.  This is enough to
derive and cross-check all the coefficient identities used elsewhere
(inverse coefficients, logarithmic coefficients, subordination
recurrences) at machine precision, without symbolic algebra.  The tests
use it as an independent reference: it shares no formula with toepsharp.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Series:
    """A power series truncated at a fixed degree.

    ``coeffs[k]`` is the z^k coefficient; the truncation degree is
    ``len(coeffs) - 1``.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("series needs at least a constant term")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> complex:
        return self.coeffs[k]


def _check_orders(a: Series, b: Series) -> int:
    if a.order != b.order:
        raise ValueError(f"mismatched truncation orders: {a.order} != {b.order}")
    return a.order


def mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated to the common order."""
    n = _check_orders(a, b)
    out = [0j] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ai * b.coeffs[j]
    return Series(tuple(out))


def compose(outer: Series, inner: Series) -> Series:
    """Coefficients of outer(inner(z)) up to the truncation degree.

    Requires inner(0) = 0, otherwise the composition would need all
    coefficients of ``outer``.
    """
    n = _check_orders(outer, inner)
    if inner.coeffs[0] != 0:
        raise ValueError("inner series must have zero constant term")
    out = [0j] * (n + 1)
    out[0] = outer.coeffs[0]
    power = Series((1,) + (0,) * n)
    for k in range(1, n + 1):
        power = mul(power, inner)
        ck = outer.coeffs[k]
        if ck == 0:
            continue
        for j in range(n + 1):
            out[j] += ck * power.coeffs[j]
    return Series(tuple(out))


def _check_normalized(f: Series):
    if f.coeffs[0] != 0 or f.coeffs[1] != 1:
        raise ValueError("series must be normalized: f(0) = 0, f'(0) = 1")


def log_div_z(f: Series) -> Series:
    """Series of log(f(z)/z) for normalized f, one degree shorter than f.

    f/z = 1 + u with u(0) = 0, so log(1+u) = u - u^2/2 + u^3/3 - ...
    converges termwise at the truncation level.
    """
    _check_normalized(f)
    n = f.order - 1
    u = Series((0,) + f.coeffs[2:])  # f/z - 1, truncated at degree n
    out = [0j] * (n + 1)
    power = Series((1,) + (0,) * n)
    for k in range(1, n + 1):
        power = mul(power, u)
        sign = -1.0 if k % 2 == 0 else 1.0
        for j in range(n + 1):
            out[j] += sign / k * power.coeffs[j]
    return Series(tuple(out))


def revert(f: Series) -> Series:
    """Compositional inverse g with f(g(w)) = w up to the truncation degree.

    Solved degree by degree: once g is correct through degree k-1, the
    w^k coefficient of f(g(w)) is g_k plus terms not involving g_k, so a
    single correction fixes it.
    """
    _check_normalized(f)
    n = f.order
    g = [0j] * (n + 1)
    g[1] = 1.0
    for k in range(2, n + 1):
        err = compose(f, Series(tuple(g))).coeffs[k]
        g[k] -= err
    return Series(tuple(g))
