"""Divided-difference and averaging operators.

The heart of this module is the two-route check: every operator
application is compared against an independent substitution oracle
(tests/helpers.py) that works on raw z-exponent dicts.
"""

import contextlib
import hashlib
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awcalc import (
    IDENTITIES,
    cli,
    OperatorImages,
    PolyX,
    apply_Dq,
    apply_Sq,
    gamma,
    make_qcontext,
    qoperators,
    qpoly,
    structural_polys,
    verify_identity,
    verify_k_fold_rule,
)
from awcalc.errors import UsageError
from awcalc.qpoly import random_poly
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

    @given(contexts, polys, polys)
    @settings(max_examples=30)
    def test_one_product_per_pair(self, ctx, f, g):
        images = OperatorImages(ctx)
        assert images.product(f, g) == f * g
        assert images.product(f, g) is images.product(f, g)
        assert images.product(g, f) is not images.product(f, g)

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


class TestFailingResiduals:
    # the left sides are compared in the Laurent basis; a failing check
    # must still report LHS - RHS as both sides read in x
    @given(contexts, polys, polys)
    @settings(max_examples=30)
    def test_residual_is_the_difference_in_x(self, ctx, f, g):
        class CorruptDf(OperatorImages):
            def D(self, p):
                image = super().D(p)
                return image + PolyX.x() if p is f else image

        images = CorruptDf(ctx)
        x = PolyX.x()
        u1, u2 = structural_polys(ctx)
        D = lambda p: apply_Dq(ctx, p)
        S = lambda p: apply_Sq(ctx, p)
        df = D(f) + x
        want = {
            "product_D": D(f * g) - (df * S(g) + S(f) * D(g)),
            "product_S": S(f * g) - (u2 * df * D(g) + S(f) * S(g)),
            "S_squared": S(S(f)) - (ctx.alpha * u2 * D(df) + u1 * S(df) + f),
            "DS_commute": D(S(f)) - (ctx.alpha * S(df) + u1 * D(df)),
        }
        for which in IDENTITIES:
            res = verify_identity(images, which, f, g)
            assert res.residual == want[which]
            assert res.passed == (not want[which])
        d_f, d_xf = [f, df], [x * f]
        for _ in range(5):
            d_f.append(D(d_f[-1]))
            d_xf.append(D(d_xf[-1]))
        for k, res in enumerate(verify_k_fold_rule(images, f, 5), 1):
            want_k = d_xf[k] - (gamma(ctx, k) * S(d_f[k - 1])
                                + alpha_k(ctx, k) * x * d_f[k])
            assert res.residual == want_k
            assert res.passed == (not want_k)

    def test_corrupted_report_keeps_its_bytes(self, monkeypatch):
        # D f + x and S g + 1 in every trial; the digest was recorded when
        # both sides were compared in x
        drawn = []

        def recorded_draw(rng, max_degree):
            drawn.append(random_poly(rng, max_degree))
            return drawn[-1]

        class CorruptDfSg(OperatorImages):
            def D(self, p):
                image = super().D(p)
                return image + PolyX.x() if p is drawn[-2] else image

            def S(self, p):
                image = super().S(p)
                return image + PolyX.constant(1) if p is drawn[-1] else image

        monkeypatch.setattr(qpoly, "random_poly", recorded_draw)
        monkeypatch.setattr(qoperators, "OperatorImages", CorruptDfSg)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify-identities", "--qsqrt", "1/3", "--trials",
                             "6", "--seed", "3", "--format", "text"])
        text = out.getvalue()
        assert code == 1
        assert sum(": FAIL [" in line for line in text.splitlines()) == 42
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5456d6b3f72e1a51e6c5e1b9cc6df86069886c92d973fc157373e7cea644b53d")

    def test_a_faulty_kernel_report_keeps_its_bytes(self, monkeypatch):
        # S doubles level 1 of every Laurent form: the images carry the
        # faulty kernel's output as their remembered form, and the report
        # must read as it did when every image was converted afresh
        sq = qoperators._sq_laurent

        def doubled(ctx, lp):
            c = list(sq(ctx, lp).coeffs)
            if len(c) > 1:
                c[1] *= 2
            return qpoly.LaurentSym(tuple(c))

        monkeypatch.setattr(qoperators, "_sq_laurent", doubled)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify-identities", "--qsqrt", "1/3", "--trials",
                             "6", "--seed", "3", "--format", "text"])
        text = out.getvalue()
        assert code == 1
        assert sum(": FAIL [" in line for line in text.splitlines()) == 40
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ab59e0a0712d2a8ab3bea394e3ad0fe07943e5e86fb8329009da66b7115fee02")
