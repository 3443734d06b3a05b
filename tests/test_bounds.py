"""Closed-form bounds, region calculus, and their link to Fekete-Szego."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (CARDIOID, EXP, HALF_PLANE, as_floats, fekete_szego_reference, inverse,
                     random_fraction, random_phi, third_coefficient_reference)
from toepsharp import bounds, oracle
from toepsharp.bounds import (
    HYP_TOL,
    Region,
    fekete_szego_bound,
    omega_region,
    theorem_bound,
)
from toepsharp.catalog import phi_coeffs
from toepsharp.coeffs import ClassKind, FunctionalKind, PhiSpec, table
from toepsharp.extremal import attainment, extremal_coeffs


class TestOmegaRegion:
    def test_corner_of_first_region(self):
        assert omega_region(0, 1).region is Region.OMEGA1

    def test_third_region(self):
        assert omega_region(-7, 10).region is Region.OMEGA3

    def test_outside_all(self):
        assert omega_region(-2.5, 0.5).region is Region.NONE

    def test_second_region(self):
        assert omega_region(3, 2).region is Region.OMEGA2

    def test_overlap_reports_lowest_index(self):
        # |sigma| = 2, mu = 1 satisfies both the first and second region
        assert omega_region(2, 1).region is Region.OMEGA1
        # |sigma| = 4, mu = 2 satisfies both the second and third region
        assert omega_region(4, 2).region is Region.OMEGA2

    def test_symmetric_in_sigma(self):
        for s, m in ((1.3, 2.0), (3.0, 1.5), (5.0, 3.0)):
            assert omega_region(s, m).region is omega_region(-s, m).region

    def test_boundary_tolerance(self):
        assert omega_region(0, 1 - 1e-13).region is Region.OMEGA1
        assert omega_region(0, 1 - 1e-6).region is Region.NONE

    def test_nan_lies_in_no_region(self):
        nan = float("nan")
        for s, m in ((0.0, nan), (nan, 1.0), (3.0, nan), (-7.0, nan), (nan, nan),
                     (math.inf, math.inf), (-math.inf, math.inf)):  # inf - inf in Omega3
            assert omega_region(s, m).region is Region.NONE
        assert omega_region(1.0, math.inf).region is Region.OMEGA1
        assert omega_region(math.inf, 5.0).region is Region.NONE

    @pytest.mark.parametrize("sigma, mu", [("1", 2), (1, "2"), (1j, 2), (1, 2 + 0j),
                                           (None, 2), (1, None), (np.float32(1), 2)])
    def test_rejects_a_non_real(self, sigma, mu):
        with pytest.raises(TypeError, match="integers, Fractions or floats only"):
            omega_region(sigma, mu)

    def test_integers_fractions_and_numpy_doubles_alike(self):
        assert omega_region(3, 2) == omega_region(F(3), np.float64(2.0)) == omega_region(3.0, 2.0)


@given(sigma=st.floats(-10, 10), mu=st.floats(-5, 20),
       bump=st.floats(0, 10))
@settings(max_examples=200)
def test_region_membership_is_monotone_in_mu(sigma, mu, bump):
    if omega_region(sigma, mu).region is not Region.NONE:
        assert omega_region(sigma, mu + bump).region is not Region.NONE


class TestSigmaMu:
    """The (sigma, mu) a T22 report carries for its third-coefficient bound."""

    def test_halfplane_log_pair(self):
        sm = theorem_bound(FunctionalKind.T22_LOG_INV, ClassKind.STARLIKE, HALF_PLANE).sigma_mu
        assert (sm.sigma, sm.mu) == (-7, 10)

    def test_exp_inverse_pair(self):
        sm = theorem_bound(FunctionalKind.T22_INV, ClassKind.STARLIKE, EXP).sigma_mu
        assert (sm.sigma, sm.mu) == (-5, float(F(31, 6)))

    def test_undefined_at_vanishing_linear_coefficient(self):
        # (sigma, mu) = (s, q)/B1 up to a constant: no pair, and the report
        # says which hypothesis that fails
        for functional in (FunctionalKind.T22_INV, FunctionalKind.T22_LOG_INV):
            rep = theorem_bound(functional, ClassKind.STARLIKE, PhiSpec(0, F(1, 2), 0))
            assert rep.sigma_mu is None
            assert [h.name for h in rep.hypotheses if not h.satisfied] == [
                "B1 > 0 ((sigma, mu) defined)"]
            assert not rep.applicable

    def test_only_defined_for_t22_functionals(self):
        for kind in ClassKind:
            for functional in FunctionalKind:
                rep = theorem_bound(functional, kind, HALF_PLANE)
                assert (rep.sigma_mu is None) == (functional in (
                    FunctionalKind.T21_INV, FunctionalKind.T21_LOG_INV))


class TestFeketeSzego:
    def test_starlike_first_branch(self):
        assert fekete_szego_bound(ClassKind.STARLIKE, HALF_PLANE, 0) == 3

    def test_starlike_third_branch(self):
        assert fekete_szego_bound(ClassKind.STARLIKE, HALF_PLANE, F(3, 2)) == 3

    def test_starlike_middle_branch(self):
        assert fekete_szego_bound(ClassKind.STARLIKE, HALF_PLANE, 1) == 1

    def test_convex_first_branch(self):
        assert fekete_szego_bound(ClassKind.CONVEX, HALF_PLANE, 0) == 1

    def test_float_lambda_is_read_exactly_and_rounded_once(self):
        lam = 0.1  # not 1/10: the bound is that of the float's exact value
        got = fekete_szego_bound(ClassKind.STARLIKE, EXP, lam)
        assert type(got) is float
        assert got == float(fekete_szego_bound(ClassKind.STARLIKE, EXP, F(lam)))
        with pytest.raises(ValueError):
            fekete_szego_bound(ClassKind.STARLIKE, EXP, math.nan)
        with pytest.raises(OverflowError):
            fekete_szego_bound(ClassKind.STARLIKE, EXP, math.inf)

    @pytest.mark.parametrize("bad", ["1", 1 + 0j, None, np.float32(0.5)],
                             ids=["str", "complex", "None", "float32"])
    def test_rejects_a_non_real_lambda(self, bad):
        # as a PhiSpec field: a TypeError that names lambda, not a missing as_integer_ratio
        with pytest.raises(TypeError, match="^lambda: integers, Fractions or floats"):
            fekete_szego_bound(ClassKind.STARLIKE, EXP, bad)

    def test_numpy_integer_lambda_is_exact(self):
        got = fekete_szego_bound(ClassKind.STARLIKE, HALF_PLANE, np.int64(1))
        assert got == 1 and type(got) is F

    @pytest.mark.parametrize("lam", [0.1, -2.5, 1e300])
    def test_numpy_float_lambda_equals_a_python_float(self, lam):
        for kind in ClassKind:
            for phi in (HALF_PLANE, EXP, PhiSpec(2, np.float64(-0.5), 1)):
                got = fekete_szego_bound(kind, phi, np.float64(lam))
                assert type(got) is float and got == fekete_szego_bound(kind, phi, lam)

    def test_continuity_at_branch_boundaries(self):
        for kind in ClassKind:
            for phi in (HALF_PLANE, EXP, CARDIOID):
                b1, b2 = float(phi.b1), float(phi.b2)
                factor = 2.0 if kind is ClassKind.STARLIKE else 3.0
                scale = 1.0 if kind is ClassKind.STARLIKE else 2.0
                for edge in (b1 * b1 + b2 - b1, b1 * b1 + b2 + b1):
                    lam = scale * edge / (factor * b1 * b1)
                    lo = fekete_szego_bound(kind, phi, lam - 1e-9)
                    hi = fekete_szego_bound(kind, phi, lam + 1e-9)
                    assert abs(lo - hi) < 1e-8


_FRACTIONS = st.fractions(min_value=-8, max_value=8, max_denominator=30)


@given(kind=st.sampled_from(ClassKind), b1=st.fractions(min_value=0, max_value=4,
                                                        max_denominator=30),
       b2=_FRACTIONS, lam=_FRACTIONS, edge=st.sampled_from((None, -1, 1)))
@settings(max_examples=400)
def test_fekete_szego_matches_the_piecewise_reference(kind, b1, b2, lam, edge):
    star = kind is ClassKind.STARLIKE
    if edge is not None and b1 > 0:
        # lambda on the lower or upper branch boundary, where |p| = B1
        lam = (b1 * b1 + b2 + edge * b1) / ((2 if star else F(3, 2)) * b1 * b1)
    phi = PhiSpec(b1, b2, F(0))
    got = fekete_szego_bound(kind, phi, lam)
    assert isinstance(got, F)
    assert got == fekete_szego_reference(kind, phi, lam)
    if edge is not None and b1 > 0:
        assert got == b1 / (2 if star else 6)


class TestIntermediateBounds:
    """The per-coefficient bounds of the proofs, read through theorem_bound."""

    def test_links_to_fekete_szego(self):
        # Where every hypothesis holds, the second coefficient's bound is the
        # outer branch of the Fekete-Szego bound (Ma & Minda, 1992): |b3| =
        # |a3 - 2 a2^2| at lambda = 2, |Gamma2| = |a3 - (3/2) a2^2| / 2 at
        # lambda = 3/2.  The first is |b2| = |a2| <= B1/d or |Gamma1| = |a2|/2.
        rng = random.Random(17)
        for kind, d in ((ClassKind.STARLIKE, 1), (ClassKind.CONVEX, 2)):
            hits = dict.fromkeys((FunctionalKind.T21_INV, FunctionalKind.T21_LOG_INV), 0)
            for _ in range(400):
                phi = random_phi(rng)
                for functional, lam, half in ((FunctionalKind.T21_INV, 2, 1),
                                              (FunctionalKind.T21_LOG_INV, F(3, 2), 2)):
                    rep = theorem_bound(functional, kind, phi)
                    if all(h.margin >= 0 for h in rep.hypotheses):
                        fs = fekete_szego_bound(kind, phi, lam)
                        assert rep.bound == (phi.b1 / (half * d)) ** 2 + (fs / half) ** 2
                        hits[functional] += 1
            assert min(hits.values()) >= 100, (kind, hits)

    def test_failed_hypothesis_is_the_fekete_szego_middle_branch(self):
        # Where the b3 or Gamma2 hypothesis |p| >= B1 fails, Fekete-Szego is
        # its middle value B1/d, and the formula's |p|/d lies strictly below
        # it: the reported value is then no bound on that coefficient.
        rng = random.Random(23)
        for kind, d, fs_d in ((ClassKind.STARLIKE, 1, 2), (ClassKind.CONVEX, 2, 6)):
            hits = dict.fromkeys((FunctionalKind.T21_INV, FunctionalKind.T21_LOG_INV), 0)
            for _ in range(400):
                phi = random_phi(rng)
                for functional, lam, half in ((FunctionalKind.T21_INV, 2, 1),
                                              (FunctionalKind.T21_LOG_INV, F(3, 2), 2)):
                    rep = theorem_bound(functional, kind, phi)
                    (hyp,) = rep.hypotheses
                    if not hyp.satisfied:
                        fs = fekete_szego_bound(kind, phi, lam)
                        assert fs == phi.b1 / fs_d
                        assert rep.bound < (phi.b1 / (half * d)) ** 2 + (fs / half) ** 2
                        hits[functional] += 1
            assert min(hits.values()) >= 20, (kind, hits)

    def test_hypothesis_failure_raises(self):
        # A failed hypothesis is reported, not raised: the bound keeps its
        # formula value and the failing condition carries a negative margin.
        # (1, 3/2, 0): |B2 - 2 B1^2| = 1/2 < B1 = 1, so the Gamma2 estimate fails
        rep = theorem_bound(FunctionalKind.T21_LOG_INV, ClassKind.STARLIKE,
                            PhiSpec(1, F(3, 2), 0))
        (hyp,) = rep.hypotheses
        assert hyp.name == "|B2 - 2 B1^2| >= B1"
        assert not hyp.satisfied and hyp.margin == -0.5
        assert not rep.applicable
        # cardioid (sigma1, mu1) = (-5/2, 1/2) lies in no region: Gamma3 fails
        rep = theorem_bound(FunctionalKind.T22_LOG_INV, ClassKind.STARLIKE,
                            CARDIOID)
        assert [h.satisfied for h in rep.hypotheses] == [True, False]
        assert rep.hypotheses[1].name.startswith("(sigma, mu) in")
        assert not rep.applicable


def _seeded_phis(seed: int, n: int) -> list[PhiSpec]:
    """n Fraction generators, then n float ones with magnitudes 1e-3 to 1e3."""
    rng = random.Random(seed)
    out = [random_phi(rng) for _ in range(n)]
    out += [PhiSpec(*(s * 10 ** rng.uniform(-3, 3) for s in (1, rng.choice((-1, 1)),
                                                            rng.choice((-1, 1)))))
            for _ in range(n)]
    return out


def _fractions(fields):
    """coeffs.table's (numerator, denominator) rows as Fractions."""
    return [[F(n, d) for n, d in rows] for rows in fields]


_LOG_FUNCTIONALS = (FunctionalKind.T21_LOG_INV, FunctionalKind.T22_LOG_INV)


def _printed_margin(kind: ClassKind, field: str, phi: PhiSpec) -> F:
    """|p| - B1 of the Fekete-Szego hypothesis on b3 or Gamma2, as the paper prints it."""
    b1, b2 = phi.b1, phi.b2
    p = {(ClassKind.STARLIKE, "b3"): 3 * b1 * b1 - b2, (ClassKind.CONVEX, "b3"): 2 * b1 * b1 - b2,
         (ClassKind.STARLIKE, "g2"): b2 - 2 * b1 * b1,
         (ClassKind.CONVEX, "g2"): b2 - F(5, 4) * b1 * b1}[kind, field]
    return abs(p) - b1


def _same_float(got: float, exact: F) -> None:
    """got is float(exact), with the sign of a zero."""
    want = float(exact)
    assert type(got) is float and got == want, (got, exact)
    assert math.copysign(1.0, got) == math.copysign(1.0, want), (got, exact)


def _exact_phi(phi: PhiSpec) -> PhiSpec:
    return PhiSpec(F(phi.b1), F(phi.b2), F(phi.b3))


class TestTableRows:
    """The table's rows against the paper's closed forms, and the float route."""

    def test_rows_match_the_closed_form_references_exactly(self):
        # b3 = -(a3 - 2 a2^2) and Gamma2 = -(a3 - (3/2) a2^2)/2 are u c1^2 + v c2,
        # whose sharp bound is max(|u|, |v|); b4 and Gamma3 are
        # q1 c1^3 + q2 c1 c2 + q3 c3 with |q1| = |q|/D and (sigma, mu) = (q2, q1)/q3
        for phi in _seeded_phis(29, 150)[:150]:  # the Fraction ones
            for kind in ClassKind:
                (u, v), (w, x) = _fractions(table(kind, phi, "b3", "g2"))
                assert max(abs(u), abs(v)) == fekete_szego_reference(kind, phi, 2)
                assert max(abs(w), abs(x)) == fekete_szego_reference(kind, phi, F(3, 2)) / 2
                for coef in ("b4", "g3"):
                    (q1, q2, q3), = _fractions(table(kind, phi, coef))
                    if not phi.b1:  # (sigma, mu) undefined
                        assert q3 == 0
                        continue
                    q, big_d, sigma, mu = third_coefficient_reference(kind, phi, coef)
                    assert abs(q1) == abs(q) / big_d
                    assert (q2 / q3, q1 / q3) == (sigma, mu)

    def test_a_float_bound_is_correctly_rounded(self):
        # one rounding, from the exact report of the same (exactly converted) data
        for phi in _seeded_phis(37, 100)[100:]:  # the float ones
            for kind in ClassKind:
                for functional in FunctionalKind:
                    got = theorem_bound(functional, kind, phi)
                    exact = theorem_bound(functional, kind, _exact_phi(phi))
                    assert type(got.bound) is float
                    assert got.bound == float(exact.bound), (functional, kind, phi)
                    assert got.hypotheses == exact.hypotheses
                    assert got.sigma_mu == exact.sigma_mu

    def test_float_generators_up_to_1e300_give_no_nan(self):
        # the route is exact, so no inf - inf: an overflow saturates instead
        rng = random.Random(41)
        for _ in range(300):
            phi = PhiSpec(10 ** rng.uniform(-300, 300),
                          *(rng.choice((-1, 1)) * 10 ** rng.uniform(-300, 300) for _ in range(2)))
            for kind in ClassKind:
                for functional in FunctionalKind:
                    rep = theorem_bound(functional, kind, phi)
                    assert not math.isnan(rep.bound), (functional, kind, phi)
                    if rep.sigma_mu is not None:
                        assert not math.isnan(rep.sigma_mu.sigma), (functional, kind, phi)
                        assert not math.isnan(rep.sigma_mu.mu), (functional, kind, phi)

    @pytest.mark.parametrize("kind", list(ClassKind))
    @pytest.mark.parametrize("functional", list(FunctionalKind))
    def test_float_overflow_saturates_and_exact_overflow_raises(self, functional, kind):
        rep = theorem_bound(functional, kind, PhiSpec(1e200, 0.0, 0.0))
        assert rep.bound == math.inf
        assert rep.hypotheses[0].margin == math.inf
        if rep.sigma_mu is not None:  # mu = 8 B1^2 (and so on) is past the float range
            assert rep.sigma_mu.mu == math.inf
        with pytest.raises(OverflowError):
            theorem_bound(functional, kind, PhiSpec(F(10 ** 200), F(0), F(0)))

    def test_float_fields_are_the_exact_values_rounded_once(self):
        # the Fekete-Szego margin as the paper prints it and (sigma, mu) as it
        # writes them, exactly; a report's float is float() of each, and a zero
        # is +0.0 (the two named generators have sigma = 0 exactly)
        # and every hypothesis is satisfied iff its printed margin is >= -HYP_TOL
        cases = [(phi, kind) for phi in _seeded_phis(47, 150)[:150] for kind in ClassKind]
        named = [(PhiSpec(2, 12, -30), ClassKind.STARLIKE),
                 (PhiSpec(1, F(7, 4), F(-7, 9)), ClassKind.CONVEX)]
        # |3 B1^2 - B2| - B1 lies within half an ulp below -HYP_TOL, so it prints as -HYP_TOL
        edge = PhiSpec(1.0000000000000002e-12, 2.9998485387061986e-24, 0.0)
        cases += named + [(edge, ClassKind.STARLIKE), (_exact_phi(edge), ClassKind.STARLIKE)]
        zeros = 0
        for phi, kind in cases:
            exact = _exact_phi(phi)
            for functional in FunctionalKind:
                rep = theorem_bound(functional, kind, phi)
                for h in rep.hypotheses:
                    assert h.satisfied == (h.margin >= -HYP_TOL), (functional, kind, phi, h)
                field, coef = (("g2", "g3") if functional in _LOG_FUNCTIONALS
                               else ("b3", "b4"))
                _same_float(rep.hypotheses[0].margin, _printed_margin(kind, field, exact))
                if rep.sigma_mu is None:
                    continue
                _, _, sigma, mu = third_coefficient_reference(kind, exact, coef)
                _same_float(rep.sigma_mu.sigma, sigma)
                _same_float(rep.sigma_mu.mu, mu)
                zeros += sigma == 0
        assert zeros >= 2
        for phi in (edge, _exact_phi(edge)):
            rep = theorem_bound(FunctionalKind.T21_INV, ClassKind.STARLIKE, phi)
            assert rep.hypotheses[0].margin == -HYP_TOL and rep.applicable
        for phi, kind in named:  # also from the float generator
            sm = theorem_bound(FunctionalKind.T22_INV, kind, PhiSpec(*as_floats(phi))).sigma_mu
            _same_float(sm.sigma, F(0))


def test_t21_bounds_are_sums_of_squared_intermediates():
    # The intermediates are read off the rotation extremal, whose |b2|, |b3|,
    # |Gamma1|, |Gamma2| are the per-coefficient bounds of the proofs.
    rng = random.Random(15)
    for _ in range(200):
        phi = random_phi(rng)
        for kind in ClassKind:
            a = extremal_coeffs(kind, phi)[:3]
            for functional, pair in ((FunctionalKind.T21_INV, ("b2", "b3")),
                                     (FunctionalKind.T21_LOG_INV, ("g1", "g2"))):
                x, y = (inverse(name, *a) for name in pair)
                want = abs(x) ** 2 + abs(y) ** 2
                got = float(theorem_bound(functional, kind, phi).bound)
                assert abs(got - want) <= 1e-12 * max(1.0, want), (functional, kind, phi)


def test_formula_value_equals_the_attainment_applicable_or_not():
    # At the rotation omega(z) = i z each coefficient's |x| is its row's |q|/D
    # and x_n^2, x_{n+1}^2 have opposite signs, so the rotation extremal
    # attains the formula value whether or not a hypothesis holds.  maximize
    # always starts there (gamma0 = i): its maximum is never below the
    # formula value, so a formula value above the true maximum cannot occur.
    # Both are exact for an exact phi, and rounded once from it for a float one.
    inapplicable = 0
    for phi in _seeded_phis(43, 150):
        exact = _exact_phi(phi)
        for kind in ClassKind:
            for functional in FunctionalKind:
                rep = theorem_bound(functional, kind, phi)
                got = attainment(functional, kind, phi)
                if type(phi.b1) is type(phi.b2) is type(phi.b3) is F:
                    assert type(got) is F and got == rep.bound, (functional, kind, phi)
                else:
                    want = attainment(functional, kind, exact)
                    assert type(got) is float and got == float(want) == rep.bound, (
                        functional, kind, phi)
                inapplicable += not rep.applicable
    assert inapplicable >= 400


def test_every_hypothesis_is_satisfied_iff_its_margin_clears_the_tolerance():
    # the rule has no exception: the strict B1 > 0 fails with margin -inf
    rng = random.Random(44)
    phis = _seeded_phis(44, 100) + [
        PhiSpec(0, random_fraction(rng, -4, 4), random_fraction(rng, -4, 4))
        for _ in range(50)]
    phis += [phi_coeffs("lemniscate"), PhiSpec(0.0, 0.5, -1.0)]
    undefined = 0
    for phi in phis:
        for kind in ClassKind:
            for functional in FunctionalKind:
                for h in theorem_bound(functional, kind, phi).hypotheses:
                    assert h.satisfied == (h.margin >= -HYP_TOL), (functional, kind, phi, h)
                    if h.name == "B1 > 0 ((sigma, mu) defined)":
                        assert (h.margin, phi.b1) == (-math.inf, 0)
                        undefined += 1
    assert undefined == 4 * sum(phi.b1 == 0 for phi in phis) >= 4 * 52  # both T22, both classes


class TestTheoremBound:
    def test_halfplane_log_first(self):
        rep = theorem_bound(FunctionalKind.T21_LOG_INV, ClassKind.STARLIKE,
                            HALF_PLANE)
        assert rep.bound == F(13, 4)
        assert rep.applicable
        assert rep.sigma_mu is None

    def test_halfplane_convex_log_second(self):
        rep = theorem_bound(FunctionalKind.T22_LOG_INV, ClassKind.CONVEX,
                            HALF_PLANE)
        assert rep.bound == F(13, 144)
        assert rep.applicable
        assert rep.sigma_mu is not None

    def test_cardioid_log_second_inapplicable(self):
        rep = theorem_bound(FunctionalKind.T22_LOG_INV, ClassKind.STARLIKE,
                            CARDIOID)
        assert not rep.applicable
        assert rep.sigma_mu.region is Region.NONE
        assert (rep.sigma_mu.sigma, rep.sigma_mu.mu) == (-2.5, 0.5)

    @pytest.mark.parametrize("phi", [PhiSpec(2, 2, 2), phi_coeffs("starlike-order", alpha=0)],
                             ids=["int-data", "int-alpha"])
    def test_integer_generator_data_stays_exact(self, phi):
        assert (phi.b1, phi.b2, phi.b3) == (2, 2, 2)
        assert all(type(b) is F for b in (phi.b1, phi.b2, phi.b3))
        for kind in ClassKind:
            for functional in FunctionalKind:
                rep = theorem_bound(functional, kind, phi)
                assert type(rep.bound) is F
                assert rep.bound == theorem_bound(functional, kind, HALF_PLANE).bound
        assert theorem_bound(FunctionalKind.T22_INV, ClassKind.STARLIKE, phi).bound == 221

    def test_vanishing_linear_coefficient_yields_inapplicable_report(self):
        phi = PhiSpec(F(0), F(1, 2), F(0))
        rep = theorem_bound(FunctionalKind.T22_INV, ClassKind.STARLIKE, phi)
        assert not rep.applicable
        assert rep.sigma_mu is None
        assert rep.bound == F(1, 16)  # formula value only

    def test_nan_mu_fails_the_region_hypothesis(self):
        # mu = 8 B1^2 - 6 B2 = -6e300 lies in no region (in floats 8 B1^3 and
        # 6 B1 B2 would both overflow, and inf - inf is NaN)
        rep = theorem_bound(FunctionalKind.T22_INV, ClassKind.STARLIKE,
                            PhiSpec(3e102, 1e300, 0.0))
        assert rep.sigma_mu.region is Region.NONE
        assert not rep.hypotheses[1].satisfied
        assert not rep.applicable

    def test_sigma_mu_past_the_float_range_decide_the_region_exactly(self):
        # sigma = (2 B2 - 6 B1^2)/B1 ~ 2e310 and mu = 8 B1^2 - 6 B2 + B3/B1 both
        # round to inf; at B3 = 1e300 mu ~ 1e310 lies below (2/3)(|sigma| - 1)
        # ~ 1.33e310, outside Omega3, and at B3 = 1.5e300 (mu ~ 1.5e310) inside
        for b3, region, inside in ((1e300, Region.NONE, False), (1.5e300, Region.OMEGA3, True)):
            rep = theorem_bound(FunctionalKind.T22_INV, ClassKind.STARLIKE,
                                PhiSpec(1e-10, 1e300, b3))
            sm = rep.sigma_mu
            assert (sm.sigma, sm.mu, sm.region) == (math.inf, math.inf, region)
            hyp = rep.hypotheses[1]
            assert hyp.satisfied is inside and rep.applicable is inside
            assert hyp.margin == (math.inf if inside else -math.inf)

    @pytest.mark.parametrize("kind", list(ClassKind))
    def test_cube_past_the_float_range_gives_an_infinite_bound(self, kind):
        # B1^3 overflows a float from B1 ~ 5.6e102; every functional's bound
        # is then inf, the T22 ones included, instead of an OverflowError
        phi = PhiSpec(1e103, 0.0, 0.0)
        for functional in FunctionalKind:
            assert theorem_bound(functional, kind, phi).bound == math.inf

    def test_square_past_the_float_range_is_formed_from_the_ratio(self):
        # convex Gamma3 has |q|/D = |3 B1^3 - 5 B1 B2 + 2 B3|/48; q = 1.4e154
        # squares past the float range, (q/48)^2 = 8.5e304 does not, and the
        # bound is rounded once from its exact value
        exact = theorem_bound(FunctionalKind.T22_LOG_INV, ClassKind.CONVEX,
                              PhiSpec(F(1), F(0), F(7e153))).bound
        got = theorem_bound(FunctionalKind.T22_LOG_INV, ClassKind.CONVEX,
                            PhiSpec(1.0, 0.0, 7e153)).bound
        assert math.isfinite(got)
        assert abs(got - float(exact)) <= 1e-15 * float(exact)

    def test_exact_rational_arithmetic(self):
        for functional in FunctionalKind:
            for kind in ClassKind:
                rep = theorem_bound(functional, kind, HALF_PLANE)
                assert isinstance(rep.bound, F)

    def test_applicable_iff_all_hypotheses_hold(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            phi = PhiSpec(rng.uniform(0, 3), rng.uniform(-4, 4),
                          rng.uniform(-4, 4))
            for functional in FunctionalKind:
                for kind in ClassKind:
                    rep = theorem_bound(functional, kind, phi)
                    assert rep.applicable == all(
                        h.satisfied for h in rep.hypotheses)
                    assert float(rep.bound) >= 0

    @pytest.mark.parametrize("functional", ["t21-inv", [1]], ids=["value", "unhashable"])
    def test_rejects_an_unknown_functional(self, functional):
        # the functional's value, not a FunctionalKind, or a key no dict can hash:
        # no coefficient pair
        for call in (lambda: theorem_bound(functional, ClassKind.STARLIKE, HALF_PLANE),
                     lambda: attainment(functional, ClassKind.STARLIKE, HALF_PLANE),
                     lambda: oracle.maximize(functional, ClassKind.STARLIKE, HALF_PLANE,
                                             budget=10)):
            with pytest.raises(ValueError, match="unknown functional"):
                call()

    @pytest.mark.parametrize("kind", ["starlike", "convex", None, [1]])
    def test_rejects_an_unknown_class(self, kind):
        # the class's value, not a ClassKind, or a key no dict can hash: no table
        # row, no scale, and no silent fall back to the starlike extremal
        for call in (lambda: table(kind, HALF_PLANE, "a2"),
                     lambda: theorem_bound(FunctionalKind.T21_INV, kind, HALF_PLANE),
                     lambda: fekete_szego_bound(kind, HALF_PLANE, 1),
                     lambda: attainment(FunctionalKind.T22_LOG_INV, kind, HALF_PLANE),
                     lambda: extremal_coeffs(kind, HALF_PLANE),
                     lambda: oracle.maximize(FunctionalKind.T21_INV, kind, HALF_PLANE, budget=10)):
            with pytest.raises(ValueError, match="unknown class"):
                call()

    @pytest.mark.parametrize("phi", [(1, 2, 3), None, "exp"], ids=["tuple", "None", "name"])
    @pytest.mark.parametrize("call", [
        lambda phi: theorem_bound(FunctionalKind.T21_INV, ClassKind.STARLIKE, phi),
        lambda phi: attainment(FunctionalKind.T22_LOG_INV, ClassKind.CONVEX, phi),
        lambda phi: extremal_coeffs(ClassKind.STARLIKE, phi),
        lambda phi: fekete_szego_bound(ClassKind.CONVEX, phi, 1),
        lambda phi: oracle.maximize(FunctionalKind.T22_INV, ClassKind.STARLIKE, phi, budget=10),
    ], ids=["theorem_bound", "attainment", "extremal_coeffs", "fekete_szego_bound", "maximize"])
    def test_rejects_a_phi_that_is_no_phispec(self, call, phi):
        # not the AttributeError of a missing phi.integers
        with pytest.raises(TypeError, match=r"^phi: a PhiSpec only, got "):
            call(phi)

    def test_witness_mentions_the_rotation(self):
        rep = theorem_bound(FunctionalKind.T21_INV, ClassKind.STARLIKE,
                            HALF_PLANE)
        assert "i z" in rep.witness
