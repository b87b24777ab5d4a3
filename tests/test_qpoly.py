"""Polynomial ring, symmetric Laurent view, and resultants."""

import dataclasses
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from awcalc import PolyX, qpoly
from awcalc.errors import DomainError
from awcalc.proof_engine import derived_family
from awcalc.qoperators import apply_Dq, apply_Sq
from awcalc.qpoly import LaurentSym, from_laurent, random_poly, resultant, to_laurent
from awcalc.scalars import parse_rational
from helpers import (SET_C, cached_family, evaluate, laurent_product,
                     sylvester_resultant)

coeff = st.fractions(min_value=-6, max_value=6, max_denominator=8)
polys = st.lists(coeff, max_size=6).map(tuple).map(PolyX)
# nonzero, of an exact degree 0..5, leading coefficient rarely 1
nonzero_coeff = coeff.filter(bool)
nonzero_polys = st.integers(0, 5).flatmap(
    lambda d: st.tuples(st.lists(coeff, min_size=d, max_size=d), nonzero_coeff)
    .map(lambda t: PolyX(tuple(t[0]) + (t[1],))))
linear = st.tuples(coeff, nonzero_coeff).map(PolyX)
laurents = st.lists(coeff, max_size=6).map(tuple).map(LaurentSym)
points = st.fractions(min_value=-4, max_value=4, max_denominator=5)


class TestPolyBasics:
    def test_trims_trailing_zeros(self):
        assert PolyX((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
        assert PolyX((0,)).coeffs == ()

    def test_degree_and_leading(self):
        p = PolyX((1, 0, 3))
        assert p.degree == 2
        assert p.leading == 3
        assert PolyX.zero().degree == float("-inf")
        with pytest.raises(DomainError):
            PolyX.zero().leading

    def test_coeff_out_of_range_is_zero(self):
        assert PolyX((1, 2)).coeff(5) == 0

    def test_constructors(self):
        assert PolyX.x() == PolyX((0, 1))
        assert PolyX.monomial(3, Fraction(1, 2)) == PolyX((0, 0, 0, Fraction(1, 2)))

    def test_division_by_zero_scalar(self):
        with pytest.raises(DomainError):
            PolyX.x() / Fraction(0)


class TestRingLaws:
    @given(polys, polys, polys)
    def test_mul_distributes(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys, polys)
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(polys, polys, points)
    def test_evaluation_is_a_homomorphism(self, p, q, x):
        assert evaluate(p * q, x) == evaluate(p, x) * evaluate(q, x)
        assert evaluate(p + q, x) == evaluate(p, x) + evaluate(q, x)

    @given(polys, polys)
    def test_degree_of_product(self, p, q):
        if p != PolyX.zero() and q != PolyX.zero():
            assert (p * q).degree == p.degree + q.degree


class TestJson:
    @given(polys)
    def test_round_trip(self, p):
        assert PolyX(tuple(parse_rational(s) for s in p.to_json())) == p

    def test_wire_format_is_strings_constant_first(self):
        p = PolyX((Fraction(1, 2), Fraction(-3)))
        assert p.to_json() == ["1/2", "-3"]


class TestLaurent:
    @given(polys)
    def test_round_trip(self, p):
        assert from_laurent(to_laurent(p)) == p

    @given(polys, polys, coeff)
    def test_to_laurent_is_a_ring_homomorphism(self, p, q, c):
        assert to_laurent(p * q) == laurent_product(to_laurent(p), to_laurent(q))
        assert to_laurent(p + q) == to_laurent(p) + to_laurent(q)
        assert to_laurent(-p) == -to_laurent(p)
        assert to_laurent(p - q) == to_laurent(p) - to_laurent(q)
        assert to_laurent(c * p) == c * to_laurent(p) == to_laurent(p) * c

    @pytest.mark.parametrize("op", [operator.add, operator.sub],
                             ids=["add", "sub"])
    def test_the_two_bases_do_not_mix(self, op):
        # a sum or difference of a PolyX and a LaurentSym has no meaning;
        # both orders must refuse it with TypeError
        p, lp = PolyX((1, 2)), LaurentSym((1, 2))
        for a, b in ((p, lp), (lp, p)):
            with pytest.raises(TypeError):
                op(a, b)

    @given(polys, polys, coeff)
    def test_laurent_forms_scale_but_do_not_multiply(self, p, q, c):
        # LaurentSym is a vector space: products are taken in x
        lp, lq = to_laurent(p), to_laurent(q)
        with pytest.raises(TypeError):
            lp * lq
        assert c * lp == lp * c == to_laurent(c * p)

    def test_x_maps_to_half_z_plus_invz(self):
        assert to_laurent(PolyX.x()) == LaurentSym((Fraction(0), Fraction(1, 2)))


class TestRememberedForm:
    # a PolyX keeps the Laurent form computed for it, or the one it was
    # brought back from; no caller may be able to tell

    @given(polys)
    def test_a_remembered_form_is_the_fresh_conversion(self, p):
        first = to_laurent(p)
        assert first == to_laurent(PolyX(p.coeffs))
        assert to_laurent(p) is first
        assert to_laurent(p) == to_laurent(PolyX(p.coeffs))

    @given(laurents)
    def test_a_back_conversion_remembers_its_input_exactly(self, lp):
        p = from_laurent(lp)
        assert to_laurent(p) is lp
        assert to_laurent(PolyX(p.coeffs)) == lp

    @given(polys)
    def test_remembering_changes_no_observable(self, p):
        unseen = PolyX(p.coeffs)
        back = from_laurent(to_laurent(p))
        for q in (p, back):
            assert q == unseen and unseen == q
            assert hash(q) == hash(unseen)
            assert repr(q) == repr(unseen)
            assert q.to_json() == unseen.to_json()
            assert dataclasses.asdict(q) == {"coeffs": unseen.coeffs}

    @given(polys, polys, nonzero_coeff)
    def test_new_polynomials_start_without_a_form(self, p, q, c):
        to_laurent(p), to_laurent(q)
        made = (p + q, p - q, -p, p * c, c * p, p / c, p * q)
        horner, converted = qpoly._horner, []

        def counting(r):
            converted.append(r)
            return horner(r)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qpoly, "_horner", counting)
            for r in made:
                assert to_laurent(r) == horner(r)
        assert len(converted) == len(made)
        assert all(a is b for a, b in zip(converted, made))


class TestResultant:
    def test_frozen_values(self):
        x = PolyX.x()
        assert resultant(x, x - PolyX.constant(1)) == 1
        p = PolyX((0, Fraction(5, 2)))
        r = PolyX((Fraction(-3, 4), 0, Fraction(17, 8)))
        assert resultant(p, r) == Fraction(-75, 16)

    def test_constant_inputs(self):
        five = PolyX.constant(Fraction(5))
        quad = PolyX((1, 0, 1))
        assert resultant(five, quad) == 25
        assert resultant(quad, five) == 25
        assert resultant(five, PolyX.constant(Fraction(7))) == 1

    def test_zero_input_rejected(self):
        with pytest.raises(DomainError):
            resultant(PolyX.zero(), PolyX.x())

    def test_common_root_gives_zero(self):
        x = PolyX.x()
        shared = x - PolyX.constant(Fraction(2, 3))
        assert resultant(shared * (x + PolyX.constant(1)), shared * (x - PolyX.constant(1))) == 0

    @given(polys, polys, polys)
    def test_multiplicative_in_first_argument(self, p1, p2, r):
        if PolyX.zero() in (p1, p2, r):
            return
        assert resultant(p1 * p2, r) == resultant(p1, r) * resultant(p2, r)

    @given(nonzero_polys, nonzero_polys, st.none() | linear)
    @example(PolyX((1, 2)), PolyX((Fraction(-1, 3), 0, 0, 5)), None)  # odd x odd
    @example(PolyX.constant(Fraction(-2, 3)), PolyX((1, 0, 0, 4)), None)
    @example(PolyX((0, 0, 0, 3)), PolyX.constant(Fraction(-2, 3)), None)
    @example(PolyX.constant(3), PolyX.constant(7), None)
    def test_agrees_with_the_sylvester_determinant(self, p, r, shared):
        """Euclid's sequence against the Sylvester/Bareiss oracle, signs
        included; a shared linear factor must give 0 under both."""
        if shared is not None:
            p, r = p * shared, r * shared
        value = resultant(p, r)
        assert value == sylvester_resultant(p, r)
        if shared is not None:
            assert value == 0

    def test_agrees_with_the_sylvester_determinant_on_chain_images(self):
        # the pairs no_common_zeros certifies: D and S images of P^[1]_n
        base = cached_family(*SET_C, 15)
        dfam = derived_family(base, 1)
        for n in range(1, 13):
            p = dfam.poly(n)
            dp, sp = apply_Dq(base.ctx, p), apply_Sq(base.ctx, p)
            value = resultant(dp, sp)
            assert value != 0
            assert value == sylvester_resultant(dp, sp)


class TestRandomPoly:
    def test_deterministic_for_a_seed(self):
        a = [random_poly(random.Random(7), 10) for _ in range(5)]
        b = [random_poly(random.Random(7), 10) for _ in range(5)]
        assert a == b

    def test_respects_degree_bound(self):
        rng = random.Random(0)
        for _ in range(200):
            p = random_poly(rng, 4)
            assert p == PolyX.zero() or p.degree <= 4
