"""Coefficient table and functionals: examples and cross-module equivalences."""

import copy
import math
import pickle
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (SchwarzTriple, as_floats, inverse, random_triples, solve, table_value,
                     toeplitz)
from series import Series, log_div_z, revert

from toepsharp.bounds import Hypothesis, Region, RegionMembership, fekete_szego_bound, theorem_bound
from toepsharp.catalog import CorollaryCurve, fixture_entries
from toepsharp.cli import _dump_json
from toepsharp.coeffs import (
    _TABLE,
    ClassKind,
    FunctionalKind,
    PhiSpec,
    _graded,
    record,
    table,
)
from toepsharp.schwarz import SchurParams

TOL = 1e-12

HALF_PLANE = PhiSpec(2, 2, 2)
ROT = SchwarzTriple(1, 0, 0)  # omega(z) = z
FIELDS = ("a2", "a3", "b2", "b3", "b4", "g1", "g2", "g3")


def _c1_rows(kind, phi, *names):
    """Each field's pure-c1 row: the field at omega(z) = z, exactly."""
    return tuple(F(*rows[0]) for rows in table(kind, phi, *names))


class TestCoeffsFromSchwarz:
    def test_koebe(self):
        got = _c1_rows(ClassKind.STARLIKE, HALF_PLANE, *FIELDS)
        assert got == (2, 3, -2, 5, -14, -1, F(3, 2), F(-10, 3))
        a2, a3, a4 = solve(ClassKind.STARLIKE, HALF_PLANE, ROT)
        assert (a2, a3, a4) == (2, 3, 4)

    def test_halfplane_map(self):
        assert _c1_rows(ClassKind.CONVEX, HALF_PLANE, "a2", "a3") == (1, 1)
        assert solve(ClassKind.CONVEX, HALF_PLANE, ROT) == (1, 1, 1)

    def test_zero_schwarz_function(self):
        for kind in ClassKind:
            for name in FIELDS:
                assert table_value(kind, PhiSpec(1, 0.5, 1 / 6), name,
                                   SchwarzTriple(0, 0, 0)) == 0

    def test_coeff_map_is_unchecked(self):
        # the table is a polynomial identity: it evaluates at any (c1, c2, c3),
        # here one outside the coefficient body (|c2| > 1 - |c1|^2)
        t = SchwarzTriple(0.5, 0.75, 0.0)
        assert table_value(ClassKind.STARLIKE, HALF_PLANE, "a2", t) == 1.0
        assert table_value(ClassKind.STARLIKE, HALF_PLANE, "a3", t) == 1.5

    def test_rows_of_the_paper_closed_forms(self):
        # starlike b4 = -(8 B1^3 - 6 B1 B2 + B3)/3 c1^3 + (6 B1^2 - 2 B2)/3 c1 c2
        # - B1/3 c3, convex Gamma2 = (5 B1^2 - 4 B2)/48 c1^2 - B1/12 c2
        assert _TABLE[ClassKind.STARLIKE]["b4"] == (((-8, 6, -1), 3), ((6, -2), 3), ((-1,), 3))
        assert _TABLE[ClassKind.CONVEX]["g2"] == (((5, -4), 48), ((-1,), 12))

    def test_a_float_generator_is_read_exactly(self):
        phi = PhiSpec(0.1, -0.3, 1e-300)
        exact = PhiSpec(F(0.1), F(-0.3), F(1e-300))
        for kind in ClassKind:
            got = table(kind, phi, *FIELDS)
            assert got == table(kind, exact, *FIELDS)
            assert all(type(n) is int and type(d) is int and d > 0
                       for rows in got for n, d in rows)


class TestToeplitz:
    def test_log_pair_value(self):
        a = (2j, -3, -4j)
        assert inverse("g1", *a) == -1j
        assert inverse("g2", *a) == -1.5
        assert abs(toeplitz(FunctionalKind.T21_LOG_INV, a) - 13 / 4) < TOL

    def test_zero_bundle(self):
        for f in FunctionalKind:
            assert toeplitz(f, (0j, 0j, 0j)) == 0

    def test_inverse_pair_value(self):
        # b = (-2i, -5, 14i): the rotated Koebe inverse data
        a = (2j, -3, -4j)
        assert inverse("b3", *a) == -5
        assert inverse("b4", *a) == 14j
        assert abs(toeplitz(FunctionalKind.T22_INV, a) - 221) < TOL * 221


def _monomial_sum(k, x1, x2, x3):
    """The sum of k_i m_i over the monomials of weight len(k), written out term by term."""
    monomials = {1: (x1,), 2: (x1 * x1, x2), 3: (x1 * x1 * x1, x1 * x2, x3)}
    return sum(a * m for a, m in zip(k, monomials[len(k)]))


class TestGraded:
    """``coeffs._graded``: the weight-graded sum, exact on integers and Fractions,
    and in Horner order on complex arrays, bit for bit."""

    @pytest.mark.parametrize("weight", [1, 2, 3])
    def test_integers_and_fractions_exactly(self, weight):
        rng = random.Random(weight)
        for _ in range(200):
            ints = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(weight + 3)]
            fracs = [F(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(weight + 3)]
            for v in (ints, fracs):
                k, x = v[:weight], v[weight:]
                assert _graded(k, *x) == _monomial_sum(k, *x)
                if weight < 3:
                    assert _graded(k, *x[:2]) == _monomial_sum(k, *x)

    @pytest.mark.parametrize("weight", [1, 2, 3])
    def test_complex_arrays_in_horner_order(self, weight):
        rng = np.random.default_rng(weight)
        x1, x2, x3 = rng.normal(size=(3, 257)) + 1j * rng.normal(size=(3, 257))
        k = [float(v) for v in rng.normal(size=weight)]
        horner = {1: lambda: k[0] * x1,
                  2: lambda: k[0] * x1 ** 2 + k[1] * x2,
                  3: lambda: (k[0] * x1 ** 2 + k[1] * x2) * x1 + k[2] * x3}[weight]()
        assert np.array_equal(_graded(k, x1, x2, x3), horner)
        assert np.array_equal(_graded(k, *(x1, x2, x3)[:max(2, weight)]), horner)


class TestFeketeSzego:
    """|a3 - lambda a2^2| against the Fekete-Szego bound."""

    def test_koebe_lambda_zero(self):
        a2, a3, _ = solve(ClassKind.STARLIKE, HALF_PLANE, ROT)
        assert abs(a3) == 3
        assert fekete_szego_bound(ClassKind.STARLIKE, HALF_PLANE, 0) == 3

    def test_koebe_lambda_three_halves(self):
        a2, a3, _ = solve(ClassKind.STARLIKE, HALF_PLANE, ROT)
        assert abs(a3 - 1.5 * a2 ** 2) == 3
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


def _fraction_phis(seed: int, n: int) -> list[PhiSpec]:
    """n Fraction generators in the ranges of _random_phis."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        den = int(rng.integers(1, 13))
        b1, b2, b3 = rng.integers(0, 3 * den + 1), *rng.integers(-3 * den, 3 * den + 1, 2)
        out.append(PhiSpec(F(int(b1), den), F(int(b2), den), F(int(b3), den)))
    return out


def test_pipeline_equivalence_with_series_solver():
    """The table's a2, a3 match a term-by-term solve of the defining relations."""
    phis = _random_phis(1, 60) + _fraction_phis(9, 60)
    triples = random_triples(2, 120)
    for phi, t in zip(phis, triples):
        for kind in ClassKind:
            a2, a3, _ = solve(kind, phi, t)
            assert abs(table_value(kind, phi, "a2", t) - a2) < 1e-12
            assert abs(table_value(kind, phi, "a3", t) - a3) < 1e-12


def test_inverse_coefficients_match_series_reversion():
    phis = _random_phis(3, 30) + _fraction_phis(10, 30)
    triples = random_triples(4, 60)
    for phi, t in zip(phis, triples):
        for kind in ClassKind:
            a2, a3, a4 = solve(kind, phi, t)
            g = revert(Series((0, 1, a2, a3, a4)))
            for n, name in ((2, "b2"), (3, "b3"), (4, "b4")):
                assert abs(inverse(name, a2, a3, a4) - g[n]) < 1e-12
                assert abs(table_value(kind, phi, name, t) - g[n]) < 1e-12


def test_log_coefficients_match_series_log_of_inverse():
    phis = _random_phis(5, 30) + _fraction_phis(11, 30)
    triples = random_triples(6, 60)
    for phi, t in zip(phis, triples):
        for kind in ClassKind:
            a2, a3, a4 = solve(kind, phi, t)
            lg = log_div_z(revert(Series((0, 1, a2, a3, a4))))
            for n, name in ((1, "g1"), (2, "g2"), (3, "g3")):
                assert abs(inverse(name, a2, a3, a4) - lg[n] / 2) < 1e-12
                assert abs(table_value(kind, phi, name, t) - lg[n] / 2) < 1e-12


def test_conjugation_invariance_of_functionals():
    phis = _random_phis(7, 50)
    triples = random_triples(8, 50)
    for phi, t in zip(phis, triples):
        tc = SchwarzTriple(t.c1.conjugate(), t.c2.conjugate(), t.c3.conjugate())
        for kind in ClassKind:
            a, ac = solve(kind, phi, t), solve(kind, phi, tc)
            for x, xc in zip(a, ac):
                assert abs(xc - x.conjugate()) < 1e-13
            for f in FunctionalKind:
                v, vc = toeplitz(f, a), toeplitz(f, ac)
                assert abs(v - vc) <= 1e-12 * max(1.0, v)


def test_phi_spec_rejects_negative_b1():
    with pytest.raises(ValueError):
        PhiSpec(-0.5, 0, 0)
    with pytest.raises(ValueError):
        PhiSpec(b1=-1, b2=0, b3=0)


def test_phi_spec_stores_integers_as_fractions():
    for phi in (PhiSpec(1, 2, 0.5), PhiSpec(b3=0.5, b2=2, b1=1)):
        assert as_floats(phi) == (1.0, 2.0, 0.5)
        assert type(phi.b1) is type(phi.b2) is F and type(phi.b3) is float


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("field", range(3))
def test_phi_spec_rejects_non_finite(bad, field):
    raw = [1.0, 0.5, 0.25]
    raw[field] = bad
    with pytest.raises(ValueError, match="finite"):
        PhiSpec(*raw)
    with pytest.raises(ValueError, match="finite"):
        PhiSpec(**dict(zip(("b1", "b2", "b3"), raw)))


@pytest.mark.parametrize("bad", ["3", 3 + 0j, None, np.float32(0.5)],
                         ids=["str", "complex", "None", "float32"])
@pytest.mark.parametrize("field", range(3))
def test_phi_spec_rejects_a_non_real_field(bad, field):
    raw = [1, 0.5, F(1, 4)]
    raw[field] = bad
    with pytest.raises(TypeError, match="integers, Fractions or floats"):
        PhiSpec(*raw)


def test_phi_spec_takes_numpy_integers_and_doubles():
    phi = PhiSpec(np.int64(2), np.float64(-0.5), np.int32(1))
    assert (phi.b1, phi.b2, phi.b3) == (2, -0.5, 1) and type(phi.b1) is type(phi.b3) is F
    exact = PhiSpec(2, F(-1, 2), 1)
    assert (theorem_bound(FunctionalKind.T21_INV, ClassKind.STARLIKE, phi).bound
            == float(theorem_bound(FunctionalKind.T21_INV, ClassKind.STARLIKE, exact).bound))


# Generator fields of every kind PhiSpec takes: integers, Fractions and floats,
# with subnormals and the ends of the float range among the floats.
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, -1e300, 1.7976931348623157e308])
_FIELDS = (st.integers(-10 ** 30, 10 ** 30) | st.fractions(max_denominator=10 ** 30)
           | st.fractions(max_denominator=10) | _FLOATS)


class TestPhiSpecIntegers:
    """``PhiSpec.integers`` and ``PhiSpec.exact``, computed once per generator."""

    @given(b1=_FIELDS.map(abs), b2=_FIELDS, b3=_FIELDS)
    def test_integers_over_the_least_common_denominator(self, b1, b2, b3):
        phi = PhiSpec(b1, b2, b3)
        *nums, d = phi.integers
        assert all(type(x) is int for x in phi.integers) and d > 0
        exact = [F(b) for b in (b1, b2, b3)]  # a float converts exactly
        assert [F(n, d) for n in nums] == exact
        assert d == math.lcm(*(b.denominator for b in exact))

    @given(b1=_FIELDS.map(abs), b2=_FIELDS, b3=_FIELDS)
    def test_exact_iff_no_field_is_a_float(self, b1, b2, b3):
        phi = PhiSpec(b1, b2, b3)
        assert phi.exact is not any(isinstance(b, float) for b in (b1, b2, b3))

    def test_numpy_fields(self):
        assert PhiSpec(np.int64(2), np.int32(1), F(1, 3)).exact
        phi = PhiSpec(np.int64(2), np.float64(-0.5), np.int32(1))
        assert not phi.exact and phi.integers == (4, -1, 2, 2)

    @given(b1=_FIELDS.map(abs), b2=_FIELDS, b3=_FIELDS)
    def test_copies_and_pickles_keep_both(self, b1, b2, b3):
        phi = PhiSpec(b1, b2, b3)
        for same in (copy.copy(phi), copy.deepcopy(phi), pickle.loads(pickle.dumps(phi))):
            assert (same.integers, same.exact) == (phi.integers, phi.exact)

    def test_integers_and_their_fractions_agree(self):
        a, b = PhiSpec(2, 2, 2), PhiSpec(F(2), F(2), F(2))
        assert (a.integers, a.exact) == (b.integers, b.exact) == ((2, 2, 2, 1), True)

    def test_read_only_and_not_fields(self):
        phi = PhiSpec(F(1, 2), 0.25, F(-1, 6))
        assert phi.integers == (6, 3, -2, 12) and not phi.exact
        for name in ("integers", "exact"):
            with pytest.raises(AttributeError):
                setattr(phi, name, getattr(phi, name))
            with pytest.raises(AttributeError):
                delattr(phi, name)
        assert PhiSpec.__match_args__ == ("b1", "b2", "b3")
        assert repr(phi) == "PhiSpec(b1=Fraction(1, 2), b2=0.25, b3=Fraction(-1, 6))"


# Each field as given, as the exact Fraction of it, or rounded to a float, so that two
# generators often agree in value while differing in exactness, and the other way round.
_CASTS = st.tuples(*[st.sampled_from((lambda v: v, F, float))] * 3)


class TestPhiSpecEquality:
    """Two generators compare, and hash, by (``integers``, ``exact``): equal values of
    equal exactness, whatever type carries them."""

    @given(b=st.tuples(_FIELDS.map(abs), _FIELDS, _FIELDS), casts=_CASTS)
    def test_equal_iff_integers_and_exactness_agree(self, b, casts):
        p, q = PhiSpec(*b), PhiSpec(*(cast(v) for cast, v in zip(casts, b)))
        assert (p == q) is ((p.integers, p.exact) == (q.integers, q.exact))
        assert (q == p) is (p == q) is not (p != q)
        if p == q:
            assert hash(p) == hash(q) and len({p, q}) == 1

    def test_a_float_and_an_integer_generator_differ(self):
        inexact, exact = PhiSpec(1.0, 0, 0), PhiSpec(1, 0, 0)
        assert inexact != exact and len({inexact, exact}) == 2
        reports = [theorem_bound(FunctionalKind.T21_INV, ClassKind.STARLIKE, phi)
                   for phi in (inexact, exact)]
        assert [r.bound for r in reports] == [3.25, F(13, 4)]
        assert type(reports[0].bound) is float and reports[0] != reports[1]

    def test_numpy_and_python_floats_agree(self):
        a, b = PhiSpec(2, np.float64(-0.5), 1), PhiSpec(2, -0.5, 1)
        assert a == b and hash(a) == hash(b)

    def test_numpy_and_python_floats_print_alike(self):
        a, b = PhiSpec(2, np.float64(-0.5), 1), PhiSpec(2, -0.5, 1)
        assert type(a.b2) is float and repr(a) == repr(b)
        reports = [theorem_bound(FunctionalKind.T21_INV, ClassKind.STARLIKE, phi) for phi in (a, b)]
        assert repr(reports[0]) == repr(reports[1])
        assert _dump_json(reports[0]) == _dump_json(reports[1])

    @given(b1=_FIELDS.map(abs), b2=_FIELDS, b3=_FIELDS)
    def test_copies_and_pickles_compare_equal(self, b1, b2, b3):
        phi = PhiSpec(b1, b2, b3)
        for same in (copy.copy(phi), copy.deepcopy(phi), pickle.loads(pickle.dumps(phi))):
            assert same == phi and hash(same) == hash(phi)


# One value of each frozen record type of the exact paths, with the repr a
# frozen dataclass gave it where that repr holds no object address.
_CURVE = CorollaryCurve("S*(alpha)", ClassKind.STARLIKE, FunctionalKind.T21_INV, "alpha",
                        0, 0.5, abs, float)
RECORDS = [
    (PhiSpec(1, F(1, 2), 0.25), "PhiSpec(b1=Fraction(1, 1), b2=Fraction(1, 2), b3=0.25)"),
    (SchurParams(0.5j, 0.25, -0.5), None),
    (RegionMembership(Region.OMEGA2, -3.0, 2.5), None),
    (Hypothesis("B1 > 0", True, 0.5), "Hypothesis(name='B1 > 0', satisfied=True, margin=0.5)"),
    (theorem_bound(FunctionalKind.T22_INV, ClassKind.STARLIKE, HALF_PLANE), None),
    (fixture_entries()[0], None),
    (_CURVE, "CorollaryCurve(label='S*(alpha)', class_kind=<ClassKind.STARLIKE: 'starlike'>, "
             "functional=<FunctionalKind.T21_INV: 't21-inv'>, param='alpha', lo=0, hi=0.5, "
             "phi_of=<built-in function abs>, expected=<class 'float'>, erratum=None)"),
]


@pytest.mark.parametrize("value, text", RECORDS, ids=[type(v).__name__ for v, _ in RECORDS])
def test_record_semantics(value, text):
    """What frozen dataclasses gave these types: construction by position or
    keyword, equality and hash by class and fields, the repr, immutability,
    and copy and pickle round trips."""
    cls, names = type(value), type(value).__match_args__
    assert names == tuple(cls.__annotations__)
    fields = {n: getattr(value, n) for n in names}
    for same in (cls(**fields), cls(*fields.values()), copy.copy(value),
                 pickle.loads(pickle.dumps(value))):
        assert same == value and hash(same) == hash(value) and same is not value
    assert value != cls(**{**fields, names[-1]: -1.5})  # a float, which every last field takes
    twin = record(type(cls.__name__, (), {"__annotations__": dict(cls.__annotations__)}))
    assert value != twin(**fields)
    for n in names:
        with pytest.raises(AttributeError):
            setattr(value, n, fields[n])
        with pytest.raises(AttributeError):
            delattr(value, n)
    assert {n: getattr(value, n) for n in names} == fields
    if text is not None:
        assert repr(value) == text
