"""Truncated power series engine: examples and algebraic properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from series import Series, compose, log_div_z, mul, revert

TOL = 1e-12

coeff = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)


def series4(c2, c3, c4):
    """Normalized quartic truncation z + c2 z^2 + c3 z^3 + c4 z^4."""
    return Series((0.0, 1.0, c2, c3, c4))


def close(a: Series, b: Series, tol: float = TOL) -> bool:
    scale = max(1.0, *(abs(c) for c in a.coeffs), *(abs(c) for c in b.coeffs))
    return a.order == b.order and all(
        abs(x - y) <= tol * scale for x, y in zip(a.coeffs, b.coeffs))


class TestMul:
    def test_difference_of_squares(self):
        a = Series((1, 1, 0, 0))
        b = Series((1, -1, 0, 0))
        assert mul(a, b).coeffs == (1, 0, -1, 0)

    def test_identity(self):
        a = Series((2, -3j, 0.5, 7))
        one = Series((1, 0, 0, 0))
        assert close(mul(a, one), a)

    def test_truncation_drops_high_degrees(self):
        a = Series((0, 0, 1))  # z^2
        assert mul(a, a).coeffs == (0, 0, 0)  # z^4 is beyond order 2

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mul(Series((1, 2)), Series((1, 2, 3)))


class TestCompose:
    def test_identity_inner(self):
        outer = Series((1, 2, 2, 2))
        inner = Series((0, 1, 0, 0))
        assert close(compose(outer, inner), outer)

    def test_generic_low_coefficients(self):
        c1, c2, c3 = 0.3 + 0.1j, -0.2j, 0.05
        got = compose(Series((1, 2, 2, 2)), Series((0, c1, c2, c3)))
        assert abs(got[1] - 2 * c1) < TOL
        assert abs(got[2] - (2 * c2 + 2 * c1 ** 2)) < TOL
        assert abs(got[3] - (2 * c3 + 4 * c1 * c2 + 2 * c1 ** 3)) < TOL

    def test_exp_of_rotation(self):
        exp = Series((1, 1, 0.5, 1 / 6))
        got = compose(exp, Series((0, 1j, 0, 0)))
        want = Series((1, 1j, -0.5, -1j / 6))
        assert close(got, want)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            compose(Series((1, 1, 1)), Series((1, 1, 0)))


class TestLogDivZ:
    def test_identity_gives_zero(self):
        got = log_div_z(Series((0, 1, 0, 0)))
        assert got.coeffs == (0, 0, 0)

    def test_koebe_truncation(self):
        # f/z = 1/(1-z)^2 truncated, so log(f/z) = -2 log(1-z)
        got = log_div_z(Series((0, 1, 2, 3, 4)))
        want = Series((0, 2, 1, 2 / 3))
        assert close(got, want)

    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            log_div_z(Series((0, 2, 0, 0)))
        with pytest.raises(ValueError):
            log_div_z(Series((1, 1, 0, 0)))


class TestRevert:
    def test_identity(self):
        f = Series((0, 1, 0, 0, 0))
        assert close(revert(f), f)

    def test_known_quartic(self):
        got = revert(Series((0, 1, 2, 3, 4)))
        assert close(got, Series((0, 1, -2, 5, -14)))

    def test_matches_closed_forms(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a2, a3, a4 = (complex(*rng.uniform(-5, 5, 2)) for _ in range(3))
            g = revert(series4(a2, a3, a4))
            scale = max(1.0, abs(a2), abs(a3), abs(a4)) ** 3
            assert abs(g[2] - (-a2)) <= TOL * scale
            assert abs(g[3] - (2 * a2 ** 2 - a3)) <= TOL * scale
            assert abs(g[4] - (-5 * a2 ** 3 + 5 * a2 * a3 - a4)) <= TOL * scale

    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            revert(Series((0, 2, 1)))


@given(c2=coeff, c3=coeff, c4=coeff)
@settings(max_examples=120)
def test_revert_is_an_involution(c2, c3, c4):
    f = series4(c2, c3, c4)
    back = revert(revert(f))
    scale = max(1.0, abs(c2), abs(c3), abs(c4)) ** 3
    assert close(back, f, tol=TOL * scale)


@given(s1=coeff, s2=coeff, s3=coeff)
@settings(max_examples=120)
def test_log_div_z_inverts_exponential_assembly(s1, s2, s3):
    """log_div_z(z * exp(S)) recovers S for any S with S(0) = 0."""
    s = (0.0, s1, s2, s3)
    # assemble z * exp(S) by composing the exp series with S
    exp4 = Series(tuple(1 / math.factorial(k) for k in range(4)))
    e = compose(exp4, Series(s)).coeffs
    f = Series((0.0, e[0], e[1], e[2], e[3]))  # z * exp(S), order 4
    got = log_div_z(f)
    scale = max(1.0, abs(s1), abs(s2), abs(s3)) ** 3
    # exp overflows double precision long before this fails legitimately
    if all(math.isfinite(abs(c)) for c in f.coeffs):
        assert close(got, Series(s), tol=1e-11 * scale)


@given(a0=coeff, a1=coeff, b0=coeff, b1=coeff, c0=coeff, c1=coeff)
@settings(max_examples=150)
def test_mul_commutative_and_associative(a0, a1, b0, b1, c0, c1):
    a = Series((a0, a1, a0 * a1))
    b = Series((b0, b1, b0 - b1))
    c = Series((c0, c1, c0 + c1))
    scale = max(1.0, abs(a0), abs(a1), abs(b0), abs(b1), abs(c0), abs(c1)) ** 3
    assert close(mul(a, b), mul(b, a), tol=1e-13 * scale)
    assert close(mul(mul(a, b), c), mul(a, mul(b, c)), tol=1e-13 * scale)


def test_series_rejects_empty():
    with pytest.raises(ValueError):
        Series(())
