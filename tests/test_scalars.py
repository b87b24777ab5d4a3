"""Rational parsing, q-contexts, and the q-number algebra."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from awcalc import (
    DomainError,
    UsageError,
    alpha_k,
    format_rational,
    gamma,
    gamma_factorial,
    make_qcontext,
    parse_rational,
)

V_VALUES = [Fraction(1, 2), Fraction(1, 3), Fraction(3, 5), Fraction(7, 9)]
contexts = st.sampled_from([make_qcontext(v) for v in V_VALUES])


class TestParseRational:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0", Fraction(0)),
            ("-7", Fraction(-7)),
            ("3/4", Fraction(3, 4)),
            ("-11/30", Fraction(-11, 30)),
            ("12/8", Fraction(3, 2)),  # normalisation is fine, only syntax is strict
        ],
    )
    def test_accepts(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text", ["", " 1/2", "1/2 ", "1.5", "1/-2", "1/0", "+3", "3/", "/4", "0x1", "1e3"]
    )
    def test_rejects(self, text):
        with pytest.raises(UsageError):
            parse_rational(text)

    @given(st.fractions(max_denominator=1000))
    def test_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x

    def test_format_integer_has_no_slash(self):
        assert format_rational(Fraction(-4)) == "-4"
        assert format_rational(Fraction(6, 3)) == "2"


class TestQContext:
    def test_fields(self):
        ctx = make_qcontext(Fraction(1, 2))
        assert ctx.q == Fraction(1, 4)
        assert ctx.alpha == Fraction(5, 4)

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)])
    def test_rejects_bad_v(self, bad):
        with pytest.raises(DomainError):
            make_qcontext(bad)

    def test_qpow(self):
        ctx = make_qcontext(Fraction(1, 2))
        assert ctx.qpow(2) == Fraction(1, 16)

    def test_no_exponent_cap(self):
        # exponents grow with the requested degree; none is out of range
        assert make_qcontext(Fraction(1, 2)).qpow(-40) == 4**40


class TestGamma:
    def test_frozen_values(self):
        ctx = make_qcontext(Fraction(1, 2))
        assert gamma(ctx, 0) == 0
        assert gamma(ctx, 1) == 1
        assert gamma(ctx, 2) == Fraction(5, 2)  # (1/4 - 4) / (1/2 - 2)
        assert gamma(ctx, 3) == Fraction(21, 4)
        assert alpha_k(ctx, 0) == 1
        assert alpha_k(ctx, 1) == Fraction(5, 4)
        assert alpha_k(ctx, 2) == Fraction(17, 8)

    @given(contexts, st.integers(-20, 20))
    def test_gamma_is_odd(self, ctx, n):
        assert gamma(ctx, -n) == -gamma(ctx, n)

    @given(contexts, st.integers(-20, 20))
    def test_alpha_is_even(self, ctx, n):
        assert alpha_k(ctx, -n) == alpha_k(ctx, n)

    @given(contexts, st.integers(1, 15))
    def test_gamma_positive_for_positive_index(self, ctx, n):
        assert gamma(ctx, n) > 0

    def test_factorial(self):
        ctx = make_qcontext(Fraction(1, 2))
        assert gamma_factorial(ctx, 0) == 1
        assert gamma_factorial(ctx, 3) == gamma(ctx, 1) * gamma(ctx, 2) * gamma(ctx, 3)
        with pytest.raises(DomainError):
            gamma_factorial(ctx, -1)


class TestProductIdentities:
    """The trigonometric-flavoured laws the proof engine leans on."""

    @given(contexts, st.integers(-10, 10), st.integers(-10, 10))
    def test_alpha_gamma_product(self, ctx, a, b):
        assert alpha_k(ctx, a) * gamma(ctx, b) == (gamma(ctx, a + b) - gamma(ctx, a - b)) / 2

    @given(contexts, st.integers(-10, 10))
    def test_alpha_times_gamma(self, ctx, m):
        assert ctx.alpha * gamma(ctx, m) == (gamma(ctx, m + 1) + gamma(ctx, m - 1)) / 2

    @given(contexts, st.integers(-8, 8), st.integers(-8, 8))
    def test_gamma_difference_law(self, ctx, a, b):
        lhs = gamma(ctx, a) * gamma(ctx, b) - gamma(ctx, a - 1) * gamma(ctx, b - 1)
        assert lhs == gamma(ctx, a + b - 1)

    @given(contexts, st.integers(-10, 10))
    def test_step_up_gamma(self, ctx, k):
        assert gamma(ctx, k) * ctx.alpha + alpha_k(ctx, k) == gamma(ctx, k + 1)

    @given(contexts, st.integers(-10, 10))
    def test_step_up_alpha(self, ctx, k):
        lhs = gamma(ctx, k) * (ctx.alpha**2 - 1) + ctx.alpha * alpha_k(ctx, k)
        assert lhs == alpha_k(ctx, k + 1)

    @given(contexts, st.integers(-10, 10))
    def test_hyperbolic_pythagoras(self, ctx, k):
        assert alpha_k(ctx, k) ** 2 - (ctx.alpha**2 - 1) * gamma(ctx, k) ** 2 == 1
