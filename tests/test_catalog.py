"""Catalog generators against a Taylor-expansion oracle, and the fixtures."""

import ast
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from helpers import as_floats
from toepsharp.bounds import theorem_bound
from toepsharp.catalog import (
    COROLLARY_CURVES,
    PHI_NAMES,
    certificate_entries,
    fixture_entries,
    phi_coeffs,
)
from toepsharp.coeffs import ClassKind, FunctionalKind, PhiSpec

TOL = 1e-12
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
FIXTURES = {(e.name, e.class_kind): dict(e.fixtures) for e in fixture_entries()}

mp.mp.dps = 40


def mp_taylor(f, n: int = 3) -> list[float]:
    """First n+1 Taylor coefficients of f at 0, via high-precision mpmath."""
    return [float(c) for c in mp.taylor(f, 0, n)]


def assert_phi_matches(phi: PhiSpec, f) -> None:
    c = mp_taylor(f)
    assert abs(c[0] - 1) < TOL
    for got, want in zip(as_floats(phi), c[1:]):
        assert abs(got - want) <= TOL * max(1.0, abs(want))


class TestGeneratorTaylorData:
    def test_halfplane(self):
        assert_phi_matches(phi_coeffs("halfplane"), lambda z: (1 + z) / (1 - z))

    def test_cardioid(self):
        assert_phi_matches(phi_coeffs("cardioid"), lambda z: 1 + z * mp.e ** z)

    def test_exp(self):
        assert_phi_matches(phi_coeffs("exp"), mp.exp)

    def test_lune(self):
        assert_phi_matches(phi_coeffs("lune"), lambda z: z + mp.sqrt(1 + z * z))

    def test_lemniscate(self):
        assert_phi_matches(phi_coeffs("lemniscate"), lambda z: mp.sqrt(1 + z * z))

    def test_parabolic(self):
        # 1 + (2/pi^2) L(sqrt(z))^2 with L(w) = log((1+w)/(1-w)); only even
        # powers of w survive, so square the odd-harmonic series directly
        L = [mp.mpf(0), 2, 0, mp.mpf(2) / 3, 0, mp.mpf(2) / 5, 0, mp.mpf(2) / 7]
        sq = [sum(L[i] * L[k - i] for i in range(k + 1)) for k in range(8)]
        phi = phi_coeffs("parabolic")
        for k, got in enumerate(as_floats(phi), start=1):
            want = float(2 / mp.pi ** 2 * sq[2 * k])
            assert abs(got - want) <= TOL * max(1.0, abs(want))

    def test_janowski(self):
        a, b = 0.6, -0.3
        assert_phi_matches(phi_coeffs("janowski", a=a, b=b),
                           lambda z: (1 + a * z) / (1 + b * z))

    def test_janowski_reduces_to_halfplane(self):
        assert phi_coeffs("janowski", a=F(1), b=F(-1)) == phi_coeffs("halfplane")

    def test_order(self):
        alpha = 0.3
        assert_phi_matches(
            phi_coeffs("starlike-order", alpha=alpha),
            lambda z: (1 + (1 - 2 * alpha) * z) / (1 - z))
        assert phi_coeffs("convex-order", alpha=F(1, 4)) == phi_coeffs(
            "starlike-order", alpha=F(1, 4))

    def test_strongly(self):
        beta = 0.7
        assert_phi_matches(
            phi_coeffs("strongly-starlike", beta=beta),
            lambda z: ((1 + z) / (1 - z)) ** beta)
        assert phi_coeffs("strongly-convex", beta=F(1, 2)) == phi_coeffs(
            "strongly-starlike", beta=F(1, 2))

    @pytest.mark.parametrize("name", ["strongly-starlike", "strongly-convex"])
    def test_strongly_integer_beta_stays_exact(self, name):
        # beta = 1 is the half-plane: all three fields exact, and so the bound
        phi = phi_coeffs(name, beta=1)
        assert all(type(b) is F for b in (phi.b1, phi.b2, phi.b3))
        assert phi == PhiSpec(F(2), F(2), F(2))
        bound = theorem_bound(FunctionalKind.T22_INV, ClassKind.STARLIKE, phi).bound
        assert type(bound) is F and bound == 221

    def test_strongly_float_beta_keeps_its_bytes(self):
        for beta in (0.7, 1 / 3, 0.123456789, 1.0):
            assert phi_coeffs("strongly-starlike", beta=beta).b3 == (
                2 * beta * (1 + 2 * beta * beta) / 3)


class TestParameterValidation:
    def test_janowski_range(self):
        with pytest.raises(ValueError):
            phi_coeffs("janowski", a=F(1, 2), b=F(1, 2))
        with pytest.raises(ValueError):
            phi_coeffs("janowski", a=F(3, 2), b=F(0))

    def test_order_range(self):
        with pytest.raises(ValueError):
            phi_coeffs("starlike-order", alpha=F(1))
        with pytest.raises(ValueError):
            phi_coeffs("convex-order", alpha=F(-1, 10))

    def test_strong_range(self):
        with pytest.raises(ValueError):
            phi_coeffs("strongly-starlike", beta=F(0))
        with pytest.raises(ValueError):
            phi_coeffs("strongly-convex", beta=F(6, 5))

    def test_fixed_generators_take_no_parameters(self):
        with pytest.raises(ValueError):
            phi_coeffs("exp", alpha=F(1, 2))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            phi_coeffs("nephroid")

    @pytest.mark.parametrize("name, params, named, error", [
        ("janowski", {"a": F(1)}, "missing b", ValueError),
        ("strongly-starlike", {}, "missing beta", ValueError),
        ("starlike-order", {"alpha": F(0), "beta": F(1)}, "unexpected beta", ValueError),
        ("convex-order", {"beta": F(1, 2)}, "missing alpha, unexpected beta$", ValueError),
        ("strongly-convex", {"alpha": F(1, 2)}, "missing beta, unexpected alpha$", ValueError),
        # right names, a value that is no real: a TypeError naming the parameter
        ("janowski", {"a": "1", "b": F(0)}, "^a: integers, Fractions or floats only", TypeError),
        ("starlike-order", {"alpha": None}, "^alpha: integers, Fractions or floats only", TypeError),
        ("convex-order", {"alpha": 0.5j}, "^alpha: integers, Fractions or floats only", TypeError),
        ("janowski", {"a": F(1, 2), "b": np.float32(-0.5)},
         "^b: integers, Fractions or floats only", TypeError),
    ])
    def test_wrong_parameter_names_say_which(self, name, params, named, error):
        with pytest.raises(error, match=named):
            phi_coeffs(name, **params)

    def test_names_cover_both_kinds(self):
        assert "halfplane" in PHI_NAMES and "janowski" in PHI_NAMES

    def test_fixed_generator_names_the_unexpected_parameter(self):
        with pytest.raises(ValueError, match="unexpected alpha$"):
            phi_coeffs("exp", alpha=F(1, 2))

    def test_unhashable_name_is_an_unknown_generator(self):
        with pytest.raises(ValueError, match=r"^unknown catalog generator \['exp'\]$"):
            phi_coeffs(["exp"])


def _workload_constant(name: str):
    """A module-level constant of perfbench/workloads.py, read without importing it."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {WORKLOADS}")


def _needs_parameters(name: str) -> bool:
    """False if phi_coeffs(name) succeeds, True if it says a parameter is missing."""
    try:
        phi_coeffs(name)
    except ValueError as e:
        assert "missing " in str(e) and "missing none" not in str(e), e
        return True
    return False


def test_benchmark_draws_generators_from_the_catalog():
    # cli-cold draws --phi from these two tuples: a catalog generator renamed
    # without them would silently turn its ops into exit-2 ops
    families = [name for name in PHI_NAMES if _needs_parameters(name)]
    fixed = [name for name in PHI_NAMES if name not in families]
    assert sorted(_workload_constant("_FIXED_PHIS")) == sorted(fixed)
    assert sorted(_workload_constant("_FAMILIES")) == sorted(families)


class TestFixtures:
    def test_lemniscate_has_exactly_two(self):
        fx = FIXTURES["lemniscate", ClassKind.STARLIKE]
        assert len(fx) == 2
        assert FunctionalKind.T22_INV not in fx
        assert FunctionalKind.T22_LOG_INV not in fx

    def test_halfplane_starlike_values(self):
        fx = FIXTURES["halfplane", ClassKind.STARLIKE]
        assert fx[FunctionalKind.T22_INV] == 221
        assert fx[FunctionalKind.T21_LOG_INV] == F(13, 4)

    def test_lune_log_second(self):
        fx = FIXTURES["lune", ClassKind.STARLIKE]
        assert fx[FunctionalKind.T22_LOG_INV] == F(9, 32)

    def test_every_fixture_is_the_applicable_theorem_value(self):
        for entry in fixture_entries():
            for functional, expected in entry.fixtures:
                rep = theorem_bound(functional, entry.class_kind, entry.phi)
                assert rep.applicable, (entry.name, functional)
                if isinstance(expected, F):
                    assert rep.bound == expected, (entry.name, functional)
                else:
                    assert abs(float(rep.bound) - expected) <= TOL * abs(expected)


class TestCertificateEntries:
    def test_enough_applicable_pairs(self):
        applicable = 0
        for label, kind, phi in certificate_entries():
            for functional in FunctionalKind:
                if theorem_bound(functional, kind, phi).applicable:
                    applicable += 1
        assert applicable >= 30

    def test_parametric_representatives_fully_applicable(self):
        fixed_labels = {e.label for e in fixture_entries()}
        for label, kind, phi in certificate_entries():
            if label in fixed_labels:
                continue
            for functional in FunctionalKind:
                assert theorem_bound(functional, kind, phi).applicable, (
                    label, functional)


class TestCorollaryCurves:
    def test_one_recorded_erratum(self):
        errata = [c for c in COROLLARY_CURVES if c.erratum]
        assert len(errata) == 1
        c = errata[0]
        assert c.class_kind is ClassKind.CONVEX
        assert c.functional is FunctionalKind.T21_INV
        # both forms agree at the left endpoint, value 2
        assert c.expected(F(0)) == 2

    def test_every_functional_and_family_is_covered(self):
        labels = {c.label for c in COROLLARY_CURVES}
        assert len(COROLLARY_CURVES) == 24
        assert len(labels) == 6
        for label in labels:
            fs = {c.functional for c in COROLLARY_CURVES if c.label == label}
            assert fs == set(FunctionalKind)

    def test_curves_match_theorem_at_interval_endpoints(self):
        for c in COROLLARY_CURVES:
            for x in (c.lo, (c.lo + c.hi) / 2, c.hi):
                rep = theorem_bound(c.functional, c.class_kind, c.phi_of(x))
                want = float(c.expected(x))
                assert rep.applicable, (c.label, c.functional, x)
                assert abs(float(rep.bound) - want) <= TOL * max(1.0, want)

    def test_unit_parameter_recovers_halfplane_values(self):
        # beta = 1 and A = 1 (with B = -1) both reduce to the half-plane class
        for c in COROLLARY_CURVES:
            if c.param in ("beta", "a") and c.hi == 1:
                rep = theorem_bound(c.functional, c.class_kind, c.phi_of(F(1)))
                fx = FIXTURES["halfplane", c.class_kind]
                assert rep.bound == fx[c.functional], (c.label, c.functional)
