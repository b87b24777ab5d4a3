"""Construction of the monic polynomial families from the operator equation."""

from fractions import Fraction

import pytest

from awcalc import (
    DegenerateParams,
    EigenvalueCollision,
    OrthogonalityBroken,
    PolyX,
    UsageError,
    apply_Dq,
    apply_Sq,
    eigenvalue,
    equation_coeffs,
    family_from_dict,
    family_to_dict,
    make_params,
    make_qcontext,
    params_from_roots,
    params_from_sigmas,
    solve_operator_equation,
    three_term_data,
)
from awcalc.askey_wilson import _reject_degenerate
from helpers import PARAM_SETS, cached_family

HALF = make_qcontext(Fraction(1, 2))
QH = params_from_sigmas(0, 0, 0, 0)


class TestParams:
    def test_roots_to_sigmas(self):
        p = params_from_roots(
            Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)
        )
        assert p.sigmas == (
            Fraction(47, 60),
            Fraction(3, 40),
            Fraction(-1, 20),
            Fraction(-1, 120),
        )

    def test_make_params_wants_exactly_one_spelling(self):
        with pytest.raises(UsageError):
            make_params()
        with pytest.raises(UsageError):
            make_params(roots=(1, 2, 3, 4), sigmas=(0, 0, 0, 0))
        with pytest.raises(UsageError):
            make_params(sigmas=(0, 0, 0))
        assert make_params(sigmas=(0, 0, 0, 0)) == QH


class TestEquationData:
    def test_coefficients_for_the_simplest_family(self):
        f, g = equation_coeffs(HALF, QH)
        assert f == PolyX((2, 0, -4))
        assert g == PolyX((0, Fraction(-16, 3)))

    def test_eigenvalue_display_formula(self):
        assert eigenvalue(HALF, QH, 0) == 0
        assert eigenvalue(HALF, QH, 2) == Fraction(-80, 3)
        sig = params_from_sigmas(0, 0, 0, Fraction(1, 2))
        q = HALF.q
        n = 3
        expect = 4 * q * (1 - q**-n) * (1 - Fraction(1, 2) * q ** (n - 1)) / (1 - q) ** 2
        assert eigenvalue(HALF, sig, n) == expect

    def test_eigenvalues_distinct_on_build_window(self):
        for vtext, sigtext in PARAM_SETS:
            fam = cached_family(vtext, sigtext, 12)
            lams = [eigenvalue(fam.ctx, fam.params, n) for n in range(13)]
            assert len(set(lams)) == 13


class TestSolve:
    def test_known_low_degrees(self):
        assert solve_operator_equation(HALF, QH, 0) == PolyX.one()
        assert solve_operator_equation(HALF, QH, 1) == PolyX.x()
        assert solve_operator_equation(HALF, QH, 2) == PolyX((Fraction(-3, 16), 0, 1))
        assert solve_operator_equation(HALF, QH, 3) == PolyX((0, Fraction(-27, 64), 0, 1))

    def test_solution_satisfies_the_equation(self):
        f, g = equation_coeffs(HALF, QH)
        p = solve_operator_equation(HALF, QH, 4)
        lhs = f * apply_Dq(HALF, apply_Dq(HALF, p)) + g * apply_Sq(HALF, apply_Dq(HALF, p))
        assert lhs == eigenvalue(HALF, QH, 4) * p

    def test_collision_raises(self):
        bad = params_from_sigmas(0, 0, 0, 4)  # sigma4 hits 1/q
        with pytest.raises(EigenvalueCollision):
            solve_operator_equation(HALF, bad, 2)


class TestBuildFamily:
    def test_monic_with_exact_recurrence(self):
        for vtext, sigtext in PARAM_SETS:
            fam = cached_family(vtext, sigtext, 12)
            x = PolyX.x()
            for n in range(13):
                p = fam.poly(n)
                assert p.degree == n and p.leading == 1
            for n in range(12):
                rhs = fam.poly(n + 1) + fam.recurrence_B(n) * fam.poly(n)
                if n >= 1:
                    rhs = rhs + fam.recurrence_C(n) * fam.poly(n - 1)
                assert x * fam.poly(n) == rhs

    def test_every_member_satisfies_its_equation(self):
        fam = cached_family(*PARAM_SETS[1], 8)
        ctx = fam.ctx
        f, g = equation_coeffs(ctx, fam.params)
        for n in range(9):
            dp = apply_Dq(ctx, fam.poly(n))
            lhs = f * apply_Dq(ctx, dp) + g * apply_Sq(ctx, dp)
            assert lhs == eigenvalue(ctx, fam.params, n) * fam.poly(n)

    def test_simplest_family_has_closed_form_recurrence(self):
        fam = cached_family("1/2", "0,0,0,0", 10)
        q = Fraction(1, 4)
        for n in range(10):
            assert fam.recurrence_B(n) == 0
        for n in range(1, 10):
            assert fam.recurrence_C(n) == (1 - q**n) / 4

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(DegenerateParams):
            cached_family("1/2", "0,0,0,1", 4)  # sigma4 = q^0
        with pytest.raises(DegenerateParams):
            cached_family("1/2", "0,0,0,4", 4)  # sigma4 = q^-1

    def test_huge_sigma4_is_not_degenerate(self):
        # q^(-j) < sigma4 for every j <= 2N-2 = 34, so the walk runs to its end
        _reject_degenerate(HALF, params_from_sigmas(0, 0, 0, 10**21), 18)

    def test_negative_sigma4_is_fine(self):
        fam = cached_family("1/2", "0,0,0,-1", 4)
        assert fam.poly(4).degree == 4

    def test_index_bounds(self):
        fam = cached_family("1/2", "0,0,0,0", 3)
        with pytest.raises(IndexError):
            fam.poly(4)
        with pytest.raises(IndexError):
            fam.recurrence_B(3)
        with pytest.raises(IndexError):
            fam.recurrence_C(0)
        with pytest.raises(UsageError):
            cached_family("1/2", "0,0,0,0", -1)


class TestThreeTermData:
    def test_detects_non_orthogonal_sequences(self):
        x = PolyX.x()
        seq = [PolyX.one(), x, x * x, x**3 + PolyX.one()]
        with pytest.raises(OrthogonalityBroken):
            three_term_data(seq)


class TestSerialisation:
    def test_round_trip(self):
        fam = cached_family(*PARAM_SETS[2], 5)
        clone = family_from_dict(family_to_dict(fam))
        assert clone.ctx == fam.ctx
        assert clone.params == fam.params
        assert clone.polys == fam.polys
        assert clone.B == fam.B and clone.C == fam.C

    def test_missing_key_rejected(self):
        blob = family_to_dict(cached_family("1/2", "0,0,0,0", 3))
        del blob["C"]
        with pytest.raises(UsageError):
            family_from_dict(blob)

    def test_non_monic_poly_rejected(self):
        blob = family_to_dict(cached_family("1/2", "0,0,0,0", 3))
        blob["polys"][2][-1] = "2"
        with pytest.raises(UsageError):
            family_from_dict(blob)

    def test_corrupt_recurrence_loads_verbatim(self):
        # recurrence data is carried, not recomputed; the chain checks are
        # what catches a lie like this one
        blob = family_to_dict(cached_family("1/2", "0,0,0,0", 3))
        blob["C"][0] = "1/7"
        fam = family_from_dict(blob)
        assert fam.recurrence_C(1) == Fraction(1, 7)
