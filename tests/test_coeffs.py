"""Coefficient maps and functionals: examples and cross-module equivalences."""

import math

import numpy as np
import pytest

from helpers import SchwarzTriple, random_triples, solve_convex, solve_starlike
from series import Series, log_div_z, revert

from toepsharp.bounds import fekete_szego_bound
from toepsharp.coeffs import (
    ClassKind,
    CoeffBundle,
    FunctionalKind,
    PhiSpec,
    coeff_map,
    toeplitz,
)

TOL = 1e-12

HALF_PLANE = PhiSpec(2, 2, 2)
ROT = SchwarzTriple(1, 0, 0)  # omega(z) = z


class TestCoeffsFromSchwarz:
    def test_koebe(self):
        cb = coeff_map(ClassKind.STARLIKE, HALF_PLANE, *ROT)
        assert (cb.a2, cb.a3, cb.a4) == (2, 3, 4)
        assert (cb.b2, cb.b3, cb.b4) == (-2, 5, -14)
        assert cb.g1 == -1
        assert cb.g2 == 1.5
        assert abs(cb.g3 - (-10 / 3)) < TOL

    def test_halfplane_map(self):
        cb = coeff_map(ClassKind.CONVEX, HALF_PLANE, *ROT)
        assert (cb.a2, cb.a3, cb.a4) == (1, 1, 1)

    def test_zero_schwarz_function(self):
        cb = coeff_map(ClassKind.STARLIKE, PhiSpec(1, 0.5, 1 / 6), 0, 0, 0)
        assert (cb.a2, cb.a3, cb.a4) == (0, 0, 0)

    def test_coeff_map_is_unchecked(self):
        cb = coeff_map(ClassKind.STARLIKE, HALF_PLANE, 0.5, 0.75, 0.0)
        assert cb.a2 == 1.0


class TestToeplitz:
    def test_log_pair_value(self):
        cb = CoeffBundle(2j, -3, -4j)
        assert cb.g1 == -1j
        assert cb.g2 == -1.5
        assert abs(toeplitz(FunctionalKind.T21_LOG_INV, cb) - 13 / 4) < TOL

    def test_zero_bundle(self):
        for f in FunctionalKind:
            assert toeplitz(f, CoeffBundle(0j, 0j, 0j)) == 0

    def test_inverse_pair_value(self):
        # bundle with b = (-2i, -5, 14i): the rotated Koebe inverse data
        cb = CoeffBundle(2j, -3, -4j)
        assert cb.b3 == -5
        assert cb.b4 == 14j
        assert abs(toeplitz(FunctionalKind.T22_INV, cb) - 221) < TOL * 221


class TestFeketeSzego:
    """|a3 - lambda a2^2| against the Fekete-Szego bound."""

    def test_koebe_lambda_zero(self):
        cb = coeff_map(ClassKind.STARLIKE, HALF_PLANE, *ROT)
        assert abs(cb.a3) == 3
        assert fekete_szego_bound(ClassKind.STARLIKE, HALF_PLANE, 0) == 3

    def test_koebe_lambda_three_halves(self):
        cb = coeff_map(ClassKind.STARLIKE, HALF_PLANE, *ROT)
        assert abs(cb.a3 - 1.5 * cb.a2 ** 2) == 3
        assert fekete_szego_bound(ClassKind.STARLIKE, HALF_PLANE, 1.5) == 3

    def test_zero_bundle(self):
        # phi = 1: every class member is f(z) = z, whose bundle is zero
        for kind in ClassKind:
            assert fekete_szego_bound(kind, PhiSpec(0, 0, 0), 2.7) == 0


def _random_phis(seed: int, n: int) -> list[PhiSpec]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        b1 = rng.uniform(0, 3)
        b2, b3 = rng.uniform(-3, 3, 2)
        out.append(PhiSpec(b1, b2, b3))
    return out


def test_pipeline_equivalence_with_series_solver():
    """Closed-form (a2,a3,a4) match a term-by-term solve of the defining relations."""
    phis = _random_phis(1, 120)
    triples = random_triples(2, 120)
    for phi, t in zip(phis, triples):
        for kind, solver in ((ClassKind.STARLIKE, solve_starlike),
                             (ClassKind.CONVEX, solve_convex)):
            cb = coeff_map(kind, phi, *t)
            a2, a3, a4 = solver(phi, t)
            assert abs(cb.a2 - a2) < 1e-12
            assert abs(cb.a3 - a3) < 1e-12
            assert abs(cb.a4 - a4) < 1e-12


def test_inverse_coefficients_match_series_reversion():
    phis = _random_phis(3, 60)
    triples = random_triples(4, 60)
    for phi, t in zip(phis, triples):
        for kind in ClassKind:
            cb = coeff_map(kind, phi, *t)
            g = revert(Series((0, 1, cb.a2, cb.a3, cb.a4)))
            assert abs(cb.b2 - g[2]) < 1e-12
            assert abs(cb.b3 - g[3]) < 1e-12
            assert abs(cb.b4 - g[4]) < 1e-12


def test_log_coefficients_match_series_log_of_inverse():
    phis = _random_phis(5, 60)
    triples = random_triples(6, 60)
    for phi, t in zip(phis, triples):
        for kind in ClassKind:
            cb = coeff_map(kind, phi, *t)
            inv = revert(Series((0, 1, cb.a2, cb.a3, cb.a4)))
            lg = log_div_z(inv)
            assert abs(cb.g1 - lg[1] / 2) < 1e-12
            assert abs(cb.g2 - lg[2] / 2) < 1e-12
            assert abs(cb.g3 - lg[3] / 2) < 1e-12


def test_conjugation_invariance_of_functionals():
    phis = _random_phis(7, 50)
    triples = random_triples(8, 50)
    for phi, t in zip(phis, triples):
        tc = SchwarzTriple(t.c1.conjugate(), t.c2.conjugate(), t.c3.conjugate())
        for kind in ClassKind:
            cb = coeff_map(kind, phi, *t)
            cc = coeff_map(kind, phi, *tc)
            assert abs(cc.a2 - cb.a2.conjugate()) < 1e-13
            assert abs(cc.a3 - cb.a3.conjugate()) < 1e-13
            assert abs(cc.a4 - cb.a4.conjugate()) < 1e-13
            for f in FunctionalKind:
                v, vc = toeplitz(f, cb), toeplitz(f, cc)
                assert abs(v - vc) <= 1e-12 * max(1.0, v)


def test_phi_spec_rejects_negative_b1():
    with pytest.raises(ValueError):
        PhiSpec(-0.5, 0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("field", range(3))
def test_phi_spec_rejects_non_finite(bad, field):
    raw = [1.0, 0.5, 0.25]
    raw[field] = bad
    with pytest.raises(ValueError, match="finite"):
        PhiSpec(*raw)
