"""Divided-difference and averaging operators.

The heart of this module is the two-route check: every operator
application is compared against an independent substitution oracle
(tests/helpers.py) that works on raw z-exponent dicts.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awcalc import (
    IDENTITIES,
    OperatorImages,
    PolyX,
    apply_Dq,
    apply_Sq,
    gamma,
    make_qcontext,
    structural_polys,
    verify_identity,
    verify_k_fold_rule,
)
from awcalc.errors import UsageError
from awcalc.scalars import alpha_k
from helpers import breve, dq_oracle, sq_oracle

contexts = st.sampled_from(
    [make_qcontext(Fraction(*t)) for t in [(1, 2), (1, 3), (3, 5)]]
)
coeff = st.fractions(min_value=-6, max_value=6, max_denominator=8)
polys = st.lists(coeff, max_size=7).map(tuple).map(PolyX)


class TestAgainstSubstitutionOracle:
    @given(contexts, polys)
    @settings(max_examples=60)
    def test_Dq(self, ctx, p):
        assert breve(apply_Dq(ctx, p)) == dq_oracle(ctx, p)

    @given(contexts, polys)
    @settings(max_examples=60)
    def test_Sq(self, ctx, p):
        assert breve(apply_Sq(ctx, p)) == sq_oracle(ctx, p)


class TestFrozenValues:
    def test_on_small_monomials(self):
        ctx = make_qcontext(Fraction(1, 2))
        x = PolyX.x()
        assert apply_Dq(ctx, x) == PolyX.constant(1)
        assert apply_Sq(ctx, x) == Fraction(5, 4) * x
        assert apply_Dq(ctx, x * x) == PolyX((0, Fraction(5, 2)))
        assert apply_Sq(ctx, x * x) == PolyX((Fraction(-9, 16), 0, Fraction(17, 8)))
        assert apply_Dq(ctx, x * x * x) == PolyX((Fraction(-9, 16), 0, Fraction(21, 4)))

    def test_constants(self):
        ctx = make_qcontext(Fraction(1, 3))
        assert apply_Dq(ctx, PolyX.constant(1)) == PolyX.zero()
        assert apply_Sq(ctx, PolyX.constant(Fraction(7, 2))) == PolyX.constant(Fraction(7, 2))

    def test_structural_polys(self):
        ctx = make_qcontext(Fraction(1, 2))
        u1, u2 = structural_polys(ctx)
        w = ctx.alpha**2 - 1  # 9/16
        assert u1 == PolyX((0, w))
        assert u2 == PolyX((-w, 0, w))


class TestOperatorLaws:
    @given(contexts, polys, polys)
    @settings(max_examples=40)
    def test_linearity(self, ctx, p, q):
        assert apply_Dq(ctx, p + q) == apply_Dq(ctx, p) + apply_Dq(ctx, q)
        assert apply_Sq(ctx, p + q) == apply_Sq(ctx, p) + apply_Sq(ctx, q)

    @given(contexts, polys)
    @settings(max_examples=40)
    def test_degrees_and_leading_coefficients(self, ctx, p):
        if p == PolyX.zero() or p.degree == 0:
            return
        n = p.degree
        dp, sp = apply_Dq(ctx, p), apply_Sq(ctx, p)
        assert dp.degree == n - 1
        assert dp.leading == gamma(ctx, n) * p.leading
        assert sp.degree == n
        assert sp.leading == alpha_k(ctx, n) * p.leading


class TestIdentities:
    @given(contexts, polys, polys, st.sampled_from(IDENTITIES))
    @settings(max_examples=50)
    def test_pass_on_arbitrary_inputs(self, ctx, f, g, which):
        res = verify_identity(OperatorImages(ctx), which, f, g=g)
        assert res.passed
        assert res.name == which
        assert res.residual == PolyX.zero()

    @given(contexts, polys, st.integers(1, 5))
    @settings(max_examples=40)
    def test_k_fold_rule(self, ctx, f, kmax):
        results = verify_k_fold_rule(OperatorImages(ctx), f, kmax)
        assert [res.name for res in results] == [
            f"kfold_k{k}" for k in range(1, kmax + 1)]
        assert all(res.passed for res in results)

    def test_unknown_identity_rejected(self):
        images = OperatorImages(make_qcontext(Fraction(1, 2)))
        with pytest.raises(UsageError):
            verify_identity(images, "chain_rule", PolyX.x())

    def test_two_argument_identities_need_g(self):
        images = OperatorImages(make_qcontext(Fraction(1, 2)))
        with pytest.raises(UsageError):
            verify_identity(images, "product_D", PolyX.x())
        # single-argument ones must not require it
        assert verify_identity(images, "S_squared", PolyX.x()).passed

    def test_k_fold_rejects_nonpositive_k(self):
        images = OperatorImages(make_qcontext(Fraction(1, 2)))
        with pytest.raises(UsageError):
            verify_k_fold_rule(images, PolyX.x(), 0)


class TestOperatorImages:
    @given(contexts, polys)
    @settings(max_examples=30)
    def test_images_are_the_operators_applied_once(self, ctx, p):
        images = OperatorImages(ctx)
        assert images.D(p) == apply_Dq(ctx, p)
        assert images.S(p) == apply_Sq(ctx, p)
        # the same object reads the stored image; keys are identities, so
        # an equal polynomial built anew is a key of its own
        assert images.D(p) is images.D(p)
        assert images.S(p) is images.S(p)
        same = PolyX(p.coeffs)
        assert images.D(same) is not images.D(p)
        assert images.D(same) == images.D(p)

    @given(contexts, polys)
    @settings(max_examples=30)
    def test_step_is_D_over_gamma_of_the_degree(self, ctx, p):
        images = OperatorImages(ctx)
        want = apply_Dq(ctx, p) / gamma(ctx, p.degree) if p.degree >= 1 \
            else PolyX.zero()
        assert images.step(p) == want
        assert images.step(p) is images.step(p)

    def test_the_table_keeps_its_keys_alive(self):
        # every temporary is dropped by its caller at once; a table that
        # stored only id(p) would see the ids come back on new polynomials
        # and hand out another polynomial's image
        ctx = make_qcontext(Fraction(1, 3))
        images = OperatorImages(ctx)
        for j in range(200):
            p = PolyX((Fraction(j), Fraction(1, j + 1), Fraction(j % 7)))
            assert images.D(p * p) == apply_Dq(ctx, p * p)
            assert images.S(p + p) == apply_Sq(ctx, p + p)
