"""Acceptance gate: one test per criterion, tolerances pinned.

Expected values are pinned literally here (not read back from the
catalog) so a catalog regression cannot silently re-baseline the gate.
"""

import math
import time
from fractions import Fraction as F

import numpy as np

from helpers import inverse, random_triples, solve_convex, solve_starlike, table_value
from series import Series, log_div_z, revert

from toepsharp.bounds import omega_region, theorem_bound, Region
from toepsharp.catalog import COROLLARY_CURVES, certificate_entries, phi_coeffs
from toepsharp.cli import _dump_json, main
from toepsharp.coeffs import INVERSE, ClassKind, FunctionalKind, PhiSpec
from toepsharp.extremal import attainment
from toepsharp.oracle import Verdict, lemma1_scan, maximize

S, C = ClassKind.STARLIKE, ClassKind.CONVEX
T21F, T22F = FunctionalKind.T21_LOG_INV, FunctionalKind.T22_LOG_INV
T21, T22 = FunctionalKind.T21_INV, FunctionalKind.T22_INV

# criterion 1: the published rational table, pinned
EXPECTED_TABLE = {
    ("halfplane", S): {T21F: F(13, 4), T22F: F(481, 36), T21: F(29), T22: F(221)},
    ("halfplane", C): {T21F: F(5, 16), T22F: F(13, 144), T21: F(2), T22: F(2)},
    ("exp", S): {T21F: F(25, 64), T22F: F(785, 2592), T21: F(41, 16),
                 T22: F(5869, 1296)},
    ("lune", S): {T21F: F(25, 64), T22F: F(9, 32), T21: F(41, 16),
                  T22: F(625, 144)},
    ("cardioid", S): {T21F: F(5, 16), T21: F(2), T22: F(61, 36)},
    ("lemniscate", S): {T21F: F(1, 64), T21: F(1, 16)},
}


def test_criterion_1_rational_table_exact():
    start = time.perf_counter()
    for (name, kind), expected in EXPECTED_TABLE.items():
        phi = phi_coeffs(name)
        for functional, value in expected.items():
            rep = theorem_bound(functional, kind, phi)
            assert rep.bound == value, (name, kind, functional)
            assert isinstance(rep.bound, F)
    code = main(["table", "--format", "csv"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 1.0, f"table took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 rational table exact, {elapsed * 1e3:.0f} ms: PASS")


def test_criterion_2_parabolic_pi_expressions():
    pi2 = math.pi ** 2
    want_t21 = 128 * (648 - 36 * pi2 + 5 * pi2 ** 2) / (9 * pi2 ** 4)
    want_t22 = (64 * (pi2 - 36) ** 2 / (9 * pi2 ** 4)
                + 64 * (23040 - 1440 * pi2 + 23 * pi2 ** 2) ** 2
                / (18225 * pi2 ** 6))
    phi = phi_coeffs("parabolic")
    for functional, want in ((T21, want_t21), (T22, want_t22)):
        rep = theorem_bound(functional, S, phi)
        assert rep.applicable
        assert abs(float(rep.bound) - want) <= 1e-12 * abs(want)
    print("\nACCEPTANCE 2 parabolic pi-expressions to 1e-12: PASS")


def test_criterion_3_parametric_corollaries_on_grids():
    errata = 0
    for curve in COROLLARY_CURVES:
        exact = not isinstance(curve.lo, float) or float(curve.lo).is_integer()
        for k in range(50):
            if exact:
                x = F(curve.lo) + (F(curve.hi) - F(curve.lo)) * k / 49
            else:
                x = curve.lo + (curve.hi - curve.lo) * k / 49.0
            rep = theorem_bound(curve.functional, curve.class_kind,
                                curve.phi_of(x))
            assert rep.applicable, (curve.label, curve.functional, float(x))
            want = float(curve.expected(x))
            assert abs(float(rep.bound) - want) <= 1e-12 * max(1.0, want), (
                curve.label, curve.functional, float(x))
        errata += bool(curve.erratum)
    assert errata == 1  # the convex-order T21 corollary misprint is flagged
    print("\nACCEPTANCE 3 parametric corollaries at 50 grid points: PASS")


def _applicable_pairs():
    pairs = []
    for label, kind, phi in certificate_entries():
        for functional in FunctionalKind:
            if theorem_bound(functional, kind, phi).applicable:
                pairs.append((label, functional, kind, phi))
    return pairs


def test_criterion_4_sharpness_certificates():
    pairs = _applicable_pairs()
    assert len(pairs) >= 30
    for label, functional, kind, phi in pairs:
        # exact for an exact phi, both rounded once from it for a float one
        assert attainment(functional, kind, phi) == theorem_bound(functional, kind, phi).bound, (
            label, functional)
    print(f"\nACCEPTANCE 4 sharpness certificates ({len(pairs)} pairs): PASS")


def test_criterion_5_oracle_validity_and_sharpness():
    pairs = _applicable_pairs()
    start = time.perf_counter()
    for label, functional, kind, phi in pairs:
        for seed in (0, 1, 2):
            rep = maximize(functional, kind, phi, budget=10 ** 5, seed=seed)
            assert rep.verdict is not Verdict.VIOLATION, (label, functional, seed)
            assert rep.verdict is Verdict.SHARP_CONFIRMED, (label, functional, seed)
            assert rep.margin <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 5 oracle on {len(pairs)} pairs x 3 seeds in "
          f"{elapsed:.1f}s: PASS")


def test_criterion_6_lemma_region_scan():
    rng = np.random.default_rng(2024)
    points = []
    while len(points) < 100:
        sigma = rng.uniform(-8, 8)
        mu = rng.uniform(0, 8)
        if omega_region(sigma, mu).region is not Region.NONE:
            points.append((sigma, mu))
    for sigma, mu in points:
        emp, bound, verdict = lemma1_scan(sigma, mu, budget=2000, seed=0)
        assert bound == abs(mu)
        assert emp <= abs(mu) + 1e-9, (sigma, mu, emp)
        # the seeded point (1, 0, 0) gives |c3 + sigma c1 c2 + mu c1^3| = |mu|
        assert emp >= abs(mu)
        assert verdict is Verdict.SHARP_CONFIRMED
    print("\nACCEPTANCE 6 region lemma scan at 100 points: PASS")


def test_criterion_7_algebraic_equivalence_suites():
    rng = np.random.default_rng(99)
    # (a) series reversion vs the inverse-coefficient closed forms
    for _ in range(100):
        a2, a3, a4 = (complex(*rng.uniform(-5, 5, 2)) for _ in range(3))
        g = revert(Series((0, 1, a2, a3, a4)))
        scale = max(1.0, abs(a2), abs(a3), abs(a4)) ** 3
        assert abs(g[2] + a2) <= 1e-12 * scale
        assert abs(g[3] - (2 * a2 ** 2 - a3)) <= 1e-12 * scale
        assert abs(g[4] - (-5 * a2 ** 3 + 5 * a2 * a3 - a4)) <= 1e-12 * scale
    # (b) log path vs the logarithmic-coefficient closed forms
    for _ in range(100):
        a2, a3, a4 = (complex(*rng.uniform(-3, 3, 2)) for _ in range(3))
        lg = log_div_z(revert(Series((0, 1, a2, a3, a4))))
        scale = max(1.0, abs(a2), abs(a3), abs(a4)) ** 3
        assert abs(lg[1] / 2 + a2 / 2) <= 1e-12 * scale
        assert abs(lg[2] / 2 + (a3 - 1.5 * a2 ** 2) / 2) <= 1e-12 * scale
        assert abs(lg[3] / 2
                   + (a4 - 4 * a2 * a3 + (10 / 3) * a2 ** 3) / 2) <= 1e-12 * scale
    # (c) composition path vs the coefficient table
    triples = random_triples(100, 100)
    for t in triples:
        phi = PhiSpec(rng.uniform(0, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        for kind, solver in ((S, solve_starlike), (C, solve_convex)):
            a2, a3, a4 = solver(phi, t)
            got = {"a2": a2, "a3": a3, **{name: inverse(name, a2, a3, a4) for name in INVERSE}}
            for name in ("a2", "a3", "b2", "b3", "b4", "g1", "g2", "g3"):
                assert abs(table_value(kind, phi, name, t) - got[name]) <= 1e-12
    print("\nACCEPTANCE 7 algebraic equivalences (3 x 100 inputs): PASS")


def test_criterion_8_deterministic_reports():
    reports = [
        maximize(T22, S, phi_coeffs("exp"), budget=10 ** 4, seed=11)
        for _ in range(2)
    ]
    assert reports[0] == reports[1]
    blobs = [_dump_json(r) for r in reports]
    assert blobs[0].encode() == blobs[1].encode()
    print("\nACCEPTANCE 8 byte-identical verification reports: PASS")
