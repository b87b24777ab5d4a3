"""Construction of the monic polynomial families from the operator equation."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from awcalc import (
    OperatorImages,
    PolyX,
    apply_Dq,
    apply_Sq,
    build_family,
    make_qcontext,
    params_from_roots,
    params_from_sigmas,
)
from awcalc import askey_wilson, qoperators
from awcalc.askey_wilson import (
    _reject_degenerate,
    eigenvalue,
    equation_coeffs,
    family_from_dict,
    family_to_dict,
    solve_operator_equation,
    three_term_data,
)
from awcalc.errors import (
    DegenerateParams,
    EigenvalueCollision,
    FamilyMismatch,
    InternalError,
    OrthogonalityBroken,
    UsageError,
)
from awcalc.scalars import parse_rational
from helpers import (
    PARAM_SETS,
    SET_B,
    SET_C,
    cached_family,
    kls_polys,
    kls_recurrence,
    nonzero_rationals,
    qsqrts,
    sigma_vectors,
    small_rationals,
)

HALF = make_qcontext(Fraction(1, 2))
QH = params_from_sigmas(0, 0, 0, 0)
SET_C_SIGMAS = tuple(parse_rational(s) for s in SET_C[1].split(","))


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


def assert_images_match(ctx, params, N):
    # the product-rule table against D and S applied to each x^m
    f, g = equation_coeffs(ctx, params)
    images = askey_wilson._monomial_images(ctx, f, g, N)
    assert len(images) == N + 1
    for m, image in enumerate(images):
        dx = apply_Dq(ctx, PolyX.monomial(m))
        assert image == f * apply_Dq(ctx, dx) + g * apply_Sq(ctx, dx), m


def solved(ctx, params, N):
    return list(solve_operator_equation(OperatorImages(ctx), params, N))


class TestSolve:
    def test_known_low_degrees(self):
        assert tuple(solved(HALF, QH, 3)) == (
            PolyX.constant(1),
            PolyX.x(),
            PolyX((Fraction(-3, 16), 0, 1)),
            PolyX((0, Fraction(-27, 64), 0, 1)),
        )

    def test_solution_satisfies_the_equation(self):
        f, g = equation_coeffs(HALF, QH)
        p = solved(HALF, QH, 4)[4]
        lhs = f * apply_Dq(HALF, apply_Dq(HALF, p)) + g * apply_Sq(HALF, apply_Dq(HALF, p))
        assert lhs == eigenvalue(HALF, QH, 4) * p

    def test_collision_raises(self):
        bad = params_from_sigmas(0, 0, 0, 4)  # sigma4 hits 1/q
        with pytest.raises(EigenvalueCollision):
            solved(HALF, bad, 2)

    def test_collision_names_the_first_degree(self):
        # the whole table up to N = 5 exists, but degree 2 still raises first
        bad = params_from_sigmas(0, 0, 0, 4)
        with pytest.raises(EigenvalueCollision,
                           match=r"^lambda_2 equals the diagonal entry at degree 0$"):
            solved(HALF, bad, 5)

    def test_each_monomial_image_is_built_once(self, monkeypatch):
        # the monomial images come from the product rules and apply no
        # operator; only the 9 rechecks of p_n do, each 2 D and 1 S
        inputs = {"apply_Dq": [], "apply_Sq": []}
        for name, seen in inputs.items():
            def recording(ctx, p, _apply=getattr(qoperators, name), _seen=seen):
                _seen.append(p)
                return _apply(ctx, p)
            monkeypatch.setattr(qoperators, name, recording)
        fam = cached_family.__wrapped__(*SET_B, 8)  # a fresh build, not the cached one
        assert {name: len(seen) for name, seen in inputs.items()} == {
            "apply_Dq": 18, "apply_Sq": 9,
        }
        # the recheck applies D to every p_n itself, and never to a monomial
        assert all(any(q is p for q in inputs["apply_Dq"]) for p in fam.polys)
        assert not [p for p in inputs["apply_Dq"]
                    if p.degree >= 1 and p == PolyX.monomial(p.degree)]

    def test_recheck_images_stay_out_of_the_dict_form(self, monkeypatch):
        # a loaded family's table holds the recheck of its own p_n, so the
        # first two derived orders of each p_n apply no operator
        fam = cached_family(*SET_B, 6)
        assert set(family_to_dict(fam)) == {"v", "sigmas", "N", "polys", "B", "C"}
        loaded = family_from_dict(family_to_dict(fam))
        assert loaded.images is not fam.images

        def no_operator(ctx, p):
            raise AssertionError("an image the recheck holds was applied again")

        monkeypatch.setattr(qoperators, "apply_Dq", no_operator)
        monkeypatch.setattr(qoperators, "apply_Sq", no_operator)
        for p in loaded.polys:
            dp = loaded.images.step(p)
            loaded.images.step(dp)
            loaded.images.S(dp)

    @pytest.mark.parametrize("vtext", ["1/2", "1/3", "2/3"])
    def test_monomial_images_match_the_applied_operators(self, vtext):
        assert_images_match(make_qcontext(parse_rational(vtext)),
                            params_from_sigmas(*SET_C_SIGMAS), 20)

    @given(qsqrts, sigma_vectors, st.integers(0, 12))
    @settings(max_examples=20, derandomize=True, deadline=None)
    def test_monomial_images_match_at_random_parameters(self, v, sigmas, N):
        assert_images_match(make_qcontext(v), params_from_sigmas(*sigmas), N)

    def test_corrupt_shared_image_fails_the_recheck(self, monkeypatch):
        def corrupted(ctx, f, g, N):
            images = real(ctx, f, g, N)
            images[3] = images[3] + PolyX.x()  # off the diagonal
            return images

        real = askey_wilson._monomial_images
        monkeypatch.setattr(askey_wilson, "_monomial_images", corrupted)
        with pytest.raises(InternalError, match="equation recheck"):
            build_family(HALF, QH, 5)


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

    def test_bool_size_rejected(self):
        # True == 1, so without its own check it would build N = 1 and
        # serialize "N": true
        with pytest.raises(UsageError, match=r"got True$"):
            build_family(HALF, QH, True)


class TestThreeTermData:
    def test_detects_non_orthogonal_sequences(self):
        x = PolyX.x()
        seq = [PolyX.constant(1), x, x * x, x * x * x + PolyX.constant(1)]
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
        with pytest.raises(FamilyMismatch, match=r"polys\[2\]"):
            family_from_dict(blob)

    def test_corrupt_recurrence_rejected(self):
        # recurrence data are rebuilt from v, sigmas and N, never carried
        blob = family_to_dict(cached_family("1/2", "0,0,0,0", 3))
        blob["C"][0] = "1/7"
        with pytest.raises(FamilyMismatch, match=r"C\[0\]"):
            family_from_dict(blob)

    def test_a_wrong_p0_stops_the_rebuild_at_degree_0(self, monkeypatch):
        # each p_n is compared as soon as it is solved: p_0's recheck
        # applies D twice, and no higher degree is solved or rechecked
        blob = family_to_dict(cached_family(*SET_B, 12))
        blob["polys"][0] = ["2"]
        calls = []

        def counting(ctx, p, _apply=apply_Dq):
            calls.append(p)
            return _apply(ctx, p)

        # wherever an awcalc module binds D, so that no call goes uncounted
        for mod in (qoperators, askey_wilson):
            for name, value in list(vars(mod).items()):
                if value is apply_Dq:
                    monkeypatch.setattr(mod, name, counting)
        with pytest.raises(FamilyMismatch, match=r"^polys\[0\] differs"):
            family_from_dict(blob)
        assert 0 < len(calls) <= 2


class TestKLSOracle:
    """build_family against the Askey-Wilson recurrence of Koekoek, Lesky
    and Swarttouw (2010), section 14.1, which applies no operator."""

    @given(qsqrts, nonzero_rationals,
           st.lists(st.tuples(st.booleans(), small_rationals),
                    min_size=3, max_size=3),
           st.integers(1, 8))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_recurrence_matches_at_random_roots(self, v, a, rest, N):
        # each of b, c, d is zero or a small rational, so 0-3 roots are zero
        roots = (a,) + tuple(r if keep else Fraction(0) for keep, r in rest)
        try:
            fam = build_family(make_qcontext(v), params_from_roots(*roots), N)
            expected = kls_recurrence(*roots, v * v, N)
        except (DegenerateParams, ZeroDivisionError):
            assume(False)
        assert (fam.B, fam.C) == expected
        assert fam.polys == kls_polys(*roots, v * v, N)

    def test_set_b_polynomials_at_n12(self):
        # SET_B's sigmas 11/30, -2/15, -1/30, 0 are those of these roots
        roots = (Fraction(1, 2), Fraction(1, 5), Fraction(-1, 3), Fraction(0))
        vtext, sigtext = SET_B
        v = parse_rational(vtext)
        assert params_from_roots(*roots) == params_from_sigmas(
            *map(parse_rational, sigtext.split(",")))
        fam = cached_family(vtext, sigtext, 12)
        assert fam.polys == kls_polys(*roots, v * v, 12)

    @pytest.mark.parametrize("vtext", ["1/2", "1/3"])
    def test_continuous_q_hermite(self, vtext):
        v = parse_rational(vtext)
        fam = build_family(make_qcontext(v), params_from_roots(0, 0, 0, 0), 8)
        q = v * v
        assert fam.B == (0,) * 8
        assert fam.C == tuple((1 - q ** n) / 4 for n in range(1, 8))
        assert kls_recurrence(0, 0, 0, 0, q, 8) == (fam.B, fam.C)
