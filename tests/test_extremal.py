"""Extremal function coefficients and attainment certificates."""

import math
from fractions import Fraction as F

import pytest

from helpers import SchwarzTriple, solve
from toepsharp.bounds import theorem_bound
from toepsharp.coeffs import ClassKind, FunctionalKind, PhiSpec
from toepsharp.extremal import attainment, extremal_coeffs

TOL = 1e-12

HALF_PLANE = PhiSpec(F(2), F(2), F(2))
EXP = PhiSpec(F(1), F(1, 2), F(1, 6))


class TestExtremalCoeffs:
    def test_rotated_koebe(self):
        ext = extremal_coeffs(ClassKind.STARLIKE, HALF_PLANE, 4)
        assert isinstance(ext, tuple) and len(ext) == 4
        want = (1, 2j, -3, -4j)
        assert all(abs(a - w) < TOL for a, w in zip(ext, want))

    def test_rotated_halfplane_map(self):
        ext = extremal_coeffs(ClassKind.CONVEX, HALF_PLANE, 3)
        want = (1, 1j, -1)
        assert all(abs(a - w) < TOL for a, w in zip(ext, want))

    def test_second_coefficient_is_rotated_linear_data(self):
        for phi in (HALF_PLANE, EXP, PhiSpec(0.7, -0.3, 0.1)):
            ext_s = extremal_coeffs(ClassKind.STARLIKE, phi, 2)
            ext_c = extremal_coeffs(ClassKind.CONVEX, phi, 2)
            b1 = float(phi.b1)
            assert abs(ext_s[1] - 1j * b1) < TOL
            assert abs(ext_c[1] - 1j * b1 / 2) < TOL

    def test_linear_generator_closed_form_through_degree_ten(self):
        # phi = 1 + z has no tail past B3, so every a_n is exact: z f'/f =
        # 1 + i z gives f = z exp(i z), and 1 + z f''/f' = 1 + i z gives
        # f' = exp(i z)
        for phi in (PhiSpec(1, 0, 0), PhiSpec(F(1), F(0), F(0))):
            star = extremal_coeffs(ClassKind.STARLIKE, phi, 10)
            convex = extremal_coeffs(ClassKind.CONVEX, phi, 10)
            for n in range(1, 11):
                rot = (1j) ** (n - 1)
                assert abs(star[n - 1] - rot / math.factorial(n - 1)) < TOL
                assert abs(convex[n - 1] - rot / math.factorial(n)) < TOL

    def test_matches_schwarz_pipeline_at_the_rotation(self):
        for phi in (HALF_PLANE, EXP, PhiSpec(1.3, 0.4, -0.2)):
            for kind in ClassKind:
                a2, a3, a4 = solve(kind, phi, SchwarzTriple(1j, 0, 0))  # omega(z) = i z
                ext = extremal_coeffs(kind, phi, 4)
                assert abs(ext[1] - a2) < TOL
                assert abs(ext[2] - a3) < TOL
                assert abs(ext[3] - a4) < TOL

    def test_requires_degree_two(self):
        with pytest.raises(ValueError):
            extremal_coeffs(ClassKind.STARLIKE, HALF_PLANE, 1)


class TestAttainment:
    def test_halfplane_log_first(self):
        got = attainment(FunctionalKind.T21_LOG_INV, ClassKind.STARLIKE,
                         HALF_PLANE)
        assert abs(got - 13 / 4) < TOL

    def test_exp_inverse_second(self):
        got = attainment(FunctionalKind.T22_INV, ClassKind.STARLIKE, EXP)
        assert abs(got - 5869 / 1296) < TOL

    def test_trivial_generator(self):
        phi = PhiSpec(0, 0, 0)
        for f in FunctionalKind:
            for kind in ClassKind:
                assert attainment(f, kind, phi) == 0

    def test_certifies_every_applicable_halfplane_bound(self):
        for f in FunctionalKind:
            for kind in ClassKind:
                rep = theorem_bound(f, kind, HALF_PLANE)
                assert rep.applicable
                got = attainment(f, kind, HALF_PLANE)
                want = float(rep.bound)
                assert abs(got - want) <= TOL * max(1.0, want)
