"""Extremal function coefficients and attainment certificates."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from helpers import SchwarzTriple, solve
from toepsharp import catalog, coeffs
from toepsharp.bounds import theorem_bound
from toepsharp.coeffs import ClassKind, FunctionalKind, PhiSpec
from toepsharp.extremal import attainment, extremal_coeffs, inverse_coeffs

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

    def test_linear_generator_closed_form_through_degree_four(self):
        # phi = 1 + z: z f'/f = 1 + i z gives f = z exp(i z), and 1 + z f''/f' =
        # 1 + i z gives f' = exp(i z)
        for phi in (PhiSpec(1, 0, 0), PhiSpec(F(1), F(0), F(0))):
            star = extremal_coeffs(ClassKind.STARLIKE, phi, 4)
            convex = extremal_coeffs(ClassKind.CONVEX, phi, 4)
            for n in range(1, 5):
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

    def test_each_coefficient_is_the_exact_one_rounded_once(self):
        # exp, starlike: r = 1, 1, 3/4, 17/36 (a_m = i^(m-1) r_m), and the convex
        # r_m is that over m; an integer value is exact, a zero is +0.0
        r = (F(1), F(1), F(3, 4), F(17, 36))
        rot = (1, 1j, -1, -1j)
        for kind, div in ((ClassKind.STARLIKE, 1), (ClassKind.CONVEX, 0)):
            got = extremal_coeffs(kind, EXP, 4)
            want = [rot[m % 4] * float(x / (div or m + 1)) for m, x in enumerate(r)]
            assert list(got) == want
        ext = extremal_coeffs(ClassKind.STARLIKE, HALF_PLANE, 4)
        assert ext == (1, 2j, -3, -4j)
        assert all(math.copysign(1, x) == 1 for a in ext for x in (a.real, a.imag) if x == 0)
        tiny = PhiSpec(F(1, 2 ** 1000), F(0), F(0))
        assert extremal_coeffs(ClassKind.STARLIKE, tiny, 4)[1] == 2.0 ** -1000 * 1j

    def test_refuses_an_order_outside_two_to_four(self):
        # B1..B3 fix a_2..a_4 only; the order is refused before phi is read
        class Unread:
            @property
            def integers(self):
                raise AssertionError("phi was read")

        for kind in ClassKind:
            for n in (1, 5, 10 ** 12):
                with pytest.raises(ValueError, match=f"need 2 <= N <= 4, got {n}"):
                    extremal_coeffs(kind, Unread(), n)
            with pytest.raises(AssertionError, match="phi was read"):
                extremal_coeffs(kind, Unread(), 4)

    def test_order_is_read_as_an_index(self):
        want = extremal_coeffs(ClassKind.STARLIKE, EXP, 4)
        assert extremal_coeffs(ClassKind.STARLIKE, EXP, np.int64(4)) == want
        assert extremal_coeffs(ClassKind.STARLIKE, EXP, np.uint8(4)) == want

    @pytest.mark.parametrize("n", [4.0, "4", np.float64(4.0)])
    def test_order_that_is_no_integer_is_a_type_error(self, n):
        with pytest.raises(TypeError):
            extremal_coeffs(ClassKind.STARLIKE, EXP, n)


def _real_extremal(kind: ClassKind, phi: PhiSpec, n: int) -> list[F]:
    """r_1, ..., r_n of the real extremal, exactly: r_1 = 1 and (m - 1) r_m =
    B1 r_{m-1} + B2 r_{m-2} + B3 r_{m-3} for the starlike one; the convex r_m is that
    over m."""
    b = (F(phi.b1), F(phi.b2), F(phi.b3))
    r = [F(1)]
    for m in range(2, n + 1):
        r.append(sum(bk * r[-k] for k, bk in enumerate(b, start=1) if k < m) / (m - 1))
    return [x / m for m, x in enumerate(r, start=1)] if kind is ClassKind.CONVEX else r


def _inverse_closed_forms(a2, a3, a4) -> tuple:
    """(b2, b3, b4, Gamma1, Gamma2, Gamma3) as acceptance criterion 7 writes them."""
    return (-a2, 2 * a2 ** 2 - a3, -5 * a2 ** 3 + 5 * a2 * a3 - a4,
            -a2 / 2, -(a3 - F(3, 2) * a2 ** 2) / 2,
            -(a4 - 4 * a2 * a3 + F(10, 3) * a2 ** 3) / 2)


ROTATION = (1, 1j, -1, -1j)
WEIGHTS = (1, 2, 3, 1, 2, 3)  # b_n has weight n - 1, Gamma_n weight n


def _no_negative_zero(values) -> bool:
    return all(math.copysign(1, x) == 1 for v in values for x in (v.real, v.imag) if x == 0)


class TestInverseCoeffs:
    @pytest.mark.parametrize("kind", list(ClassKind))
    def test_each_value_is_the_exact_one_rounded_once_and_rotated(self, kind):
        # a_m = i^(m-1) r_m, and every closed form is a sum of monomials of one
        # weight w, so its value at the rotation is i^w times its value at (r2, r3, r4)
        phis = [phi for _, _, phi in catalog.certificate_entries()] + _seeded_phis(24, 100)
        for phi in phis:
            _, r2, r3, r4 = _real_extremal(kind, phi, 4)
            want = tuple(ROTATION[w % 4] * float(v)
                         for w, v in zip(WEIGHTS, _inverse_closed_forms(r2, r3, r4)))
            got = inverse_coeffs(kind, phi)
            assert got == want, (kind, phi)
            assert _no_negative_zero(got)
            a = tuple(ROTATION[w] * float(r) for w, r in enumerate((1, r2, r3, r4)))
            assert extremal_coeffs(kind, phi, 4) == a, (kind, phi)

    def test_an_exact_zero_is_printed_as_zero(self):
        # the convex cardioid extremal has b4 = 0 exactly; evaluating b4 on the
        # rounded a2..a4 gave 8.3e-17 i
        assert inverse_coeffs(ClassKind.CONVEX, catalog.phi_coeffs("cardioid"))[2] == 0j
        # Gamma3 of the starlike exp extremal is -i (-29/72), rounded once
        assert inverse_coeffs(ClassKind.STARLIKE, EXP)[5] == complex(0.0, 29 / 72)

    def test_matches_the_rounded_coefficients_to_rounding(self):
        # the old display path: the closed forms on the rounded, rotated a2..a4
        for phi in (HALF_PLANE, EXP, PhiSpec(1.3, 0.4, -0.2)):
            for kind in ClassKind:
                _, a2, a3, a4 = extremal_coeffs(kind, phi, 4)
                for got, want in zip(inverse_coeffs(kind, phi),
                                     _inverse_closed_forms(a2, a3, a4)):
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_past_the_float_range_saturates_without_nan(self):
        for kind in ClassKind:
            got = inverse_coeffs(kind, PhiSpec(1e200, 0.0, 0.0))
            assert math.isfinite(abs(got[0])) and math.isinf(abs(got[1]))
            assert not any(math.isnan(x) for v in got for x in (v.real, v.imag))
            assert _no_negative_zero(got)


def _seeded_phis(seed: int, n: int) -> list[PhiSpec]:
    """n Fraction generators: B1 in [0, 3], B2 and B3 in [-4, 4], denominators <= 12."""
    rng = random.Random(seed)

    def frac(lo, hi):
        den = rng.randint(1, 12)
        return F(rng.randint(lo * den, hi * den), den)
    return [PhiSpec(frac(0, 3), frac(-4, 4), frac(-4, 4)) for _ in range(n)]


class TestAttainment:
    def test_halfplane_log_first(self):
        got = attainment(FunctionalKind.T21_LOG_INV, ClassKind.STARLIKE,
                         HALF_PLANE)
        assert got == F(13, 4)

    def test_exp_inverse_second(self):
        got = attainment(FunctionalKind.T22_INV, ClassKind.STARLIKE, EXP)
        assert got == F(5869, 1296)

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
                assert attainment(f, kind, HALF_PLANE) == rep.bound

    def test_exact_for_exact_phi_applicable_or_not(self):
        applicable = inapplicable = 0
        for phi in _seeded_phis(21, 200):
            for kind in ClassKind:
                for f in FunctionalKind:
                    rep = theorem_bound(f, kind, phi)
                    got = attainment(f, kind, phi)
                    assert type(got) is F and got == rep.bound, (f, kind, phi)
                    applicable += rep.applicable
                    inapplicable += not rep.applicable
        assert applicable >= 1000 and inapplicable >= 300

    def test_float_phi_is_the_exact_value_rounded_once(self):
        rng = random.Random(22)
        for _ in range(200):
            floats = (rng.uniform(0, 3), rng.uniform(-4, 4), rng.uniform(-4, 4))
            for kind in ClassKind:
                for f in FunctionalKind:
                    got = attainment(f, kind, PhiSpec(*floats))
                    assert type(got) is float
                    assert got == float(attainment(f, kind, PhiSpec(*map(F, floats))))

    @pytest.mark.parametrize("kind", list(ClassKind))
    @pytest.mark.parametrize("functional", list(FunctionalKind))
    def test_past_the_float_range_saturates(self, functional, kind):
        assert attainment(functional, kind, PhiSpec(1e200, 0.0, 0.0)) == math.inf
        assert attainment(functional, kind, PhiSpec(F(10 ** 200), F(0), F(0))) > 10 ** 400

    def test_does_not_read_the_coefficient_table(self, monkeypatch):
        cases = [(f, kind, phi) for phi in _seeded_phis(23, 20) + [HALF_PLANE, EXP]
                 for kind in ClassKind for f in FunctionalKind]
        want = [attainment(*c) for c in cases]
        garbage = {kind: {name: tuple((tuple(n + 7 for n in nums), den) for nums, den in row)
                          for name, row in fields.items()}
                   for kind, fields in coeffs._TABLE.items()}
        monkeypatch.setattr(coeffs, "_TABLE", garbage)
        assert theorem_bound(*cases[0]).bound != want[0]  # the table did change
        assert [attainment(*c) for c in cases] == want
