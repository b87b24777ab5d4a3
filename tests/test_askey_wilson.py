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
    record_operator_inputs,
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


def assert_top_of_L_matches(ctx, params, N):
    # the product-rule tracking against D and S applied to each x^m
    f, g = equation_coeffs(ctx, params)
    top = askey_wilson._top_of_L(ctx, f, g, N)
    assert len(top) == N + 1
    for m, tracked in enumerate(top):
        dx = apply_Dq(ctx, PolyX.monomial(m))
        image = f * apply_Dq(ctx, dx) + g * apply_Sq(ctx, dx)
        assert image.degree <= m
        assert tracked == tuple(image.coeff(j) if j >= 0 else 0
                                for j in (m, m - 1, m - 2)), m


def solved(ctx, params, N):
    return list(solve_operator_equation(OperatorImages(ctx), params, N)[2])


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

    def test_each_monomial_image_is_built_once(self, monkeypatch):
        # the recurrence data come from the product rules and apply no
        # operator; only the 9 rechecks of p_n do, each 2 D and 1 S
        inputs = record_operator_inputs(monkeypatch)
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
    def test_top_of_L_matches_the_applied_operators(self, vtext):
        assert_top_of_L_matches(make_qcontext(parse_rational(vtext)),
                                params_from_sigmas(*SET_C_SIGMAS), 20)

    @given(qsqrts, sigma_vectors, st.integers(0, 12))
    @settings(max_examples=20, derandomize=True, deadline=None)
    def test_top_of_L_matches_at_random_parameters(self, v, sigmas, N):
        assert_top_of_L_matches(make_qcontext(v), params_from_sigmas(*sigmas), N)

    def test_a_wrong_B3_fails_the_recheck_at_degree_4(self, monkeypatch):
        # the recheck, not the recurrence data, certifies each p_n: p_0..p_3
        # do not read B_3 and pass, p_4 does and is refused, and no higher
        # degree is rechecked
        def perturbed(ctx, params, N):
            bs, cs = real_data(ctx, params, N)
            return bs[:3] + (bs[3] + 1,) + bs[4:], cs

        def recording(images, p):
            stepped.append(p.degree)
            return real_step(images, p)

        base = cached_family(*SET_B, 6)
        real_data = askey_wilson._recurrence_data
        real_step = OperatorImages.step
        stepped = []
        monkeypatch.setattr(askey_wilson, "_recurrence_data", perturbed)
        monkeypatch.setattr(OperatorImages, "step", recording)
        with pytest.raises(InternalError, match=r"^p_4 fails the equation recheck$"):
            build_family(base.ctx, base.params, 6)
        assert {d for d in stepped if d >= 0} == {0, 1, 2, 3, 4}


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

    def test_reads_every_family_recurrence(self):
        for vtext, sigtext in PARAM_SETS:
            fam = cached_family(vtext, sigtext, 12)
            assert three_term_data(fam.polys) == (fam.B, fam.C)

    def test_a_non_monic_member_is_named(self):
        polys = list(cached_family(*SET_B, 6).polys)
        polys[3] = 2 * polys[3]
        with pytest.raises(OrthogonalityBroken, match=r"^p_3 differs"):
            three_term_data(tuple(polys))


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

    @pytest.mark.parametrize("key, index", [("polys", 0), ("B", 5), ("C", 10)],
                             ids=["polys0", "B5", "C-last"])
    def test_a_wrong_entry_is_refused_before_any_operator(
            self, key, index, monkeypatch):
        # polys, then B, then C are compared with what the recurrence read
        # off L generates, before the rebuild's recheck applies D or S
        blob = family_to_dict(cached_family(*SET_B, 12))
        assert len(blob["C"]) == 11  # C[10] is the last
        blob[key][index] = (["2"] if key == "polys"
                            else str(parse_rational(blob[key][index]) + 1))
        calls = []
        # wherever an awcalc module binds D or S, so that no call goes
        # uncounted
        for apply in (apply_Dq, apply_Sq):
            def counting(ctx, p, _apply=apply):
                calls.append(p)
                return _apply(ctx, p)

            for mod in (qoperators, askey_wilson):
                for name, value in list(vars(mod).items()):
                    if value is apply:
                        monkeypatch.setattr(mod, name, counting)
        with pytest.raises(FamilyMismatch, match=rf"^{key}\[{index}\] differs"):
            family_from_dict(blob)
        assert calls == []

    @settings(deadline=None)
    @given(st.sampled_from(
        [("B", i, i) for i in range(8)] + [("C", i, i) for i in range(7)]
        + [("polys", n, j) for n in range(9) for j in range(n + 1)]),
        nonzero_rationals)
    def test_any_single_wrong_entry_is_named(self, site, delta):
        # one of the 60 entries of the N = 8 file (8 B, 7 C and 45 polys
        # coefficients) moved by a nonzero rational names its own list
        # and index
        key, index, slot = site
        blob = family_to_dict(cached_family(*SET_B, 8))
        entries = blob["polys"][index] if key == "polys" else blob[key]
        entries[slot] = str(parse_rational(entries[slot]) + delta)
        with pytest.raises(FamilyMismatch, match=rf"^{key}\[{index}\] differs"):
            family_from_dict(blob)


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

    @pytest.mark.parametrize("family, roots", [
        (SET_B, (Fraction(1, 2), Fraction(1, 5), Fraction(-1, 3), Fraction(0))),
        (SET_C, (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5))),
    ], ids=["SET_B", "SET_C"])
    def test_recurrence_data_at_n64(self, family, roots):
        # B and C are read off L, which applies no operator
        vtext, sigtext = family
        params = params_from_roots(*roots)
        assert params == params_from_sigmas(*map(parse_rational, sigtext.split(",")))
        v = parse_rational(vtext)
        bs, cs = askey_wilson._recurrence_data(make_qcontext(v), params, 64)
        assert (bs, cs) == kls_recurrence(*roots, v * v, 64)

    @pytest.mark.parametrize("vtext", ["1/2", "1/3"])
    def test_continuous_q_hermite(self, vtext):
        v = parse_rational(vtext)
        fam = build_family(make_qcontext(v), params_from_roots(0, 0, 0, 0), 8)
        q = v * v
        assert fam.B == (0,) * 8
        assert fam.C == tuple((1 - q ** n) / 4 for n in range(1, 8))
        assert kls_recurrence(0, 0, 0, 0, q, 8) == (fam.B, fam.C)
