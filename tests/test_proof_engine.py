"""Derived families, chain coefficient displays, and the verification chain."""

from fractions import Fraction

import pytest

from awcalc import (
    AWMatch,
    ChainWorkspace,
    CheckRecord,
    DependencyError,
    DomainError,
    ExtractionResult,
    NoRationalMatch,
    PolyX,
    ProportionalityFailure,
    UsageError,
    alpha_k,
    apply_Dq,
    apply_Dq_power,
    apply_Sq,
    build_family,
    chain_coeffs,
    chain_coeffs_by_elimination,
    check_no_common_zeros,
    check_nonvanishing,
    derived_family,
    extract_rn_fg,
    gamma,
    gamma_factorial,
    make_qcontext,
    params_from_sigmas,
    record_sort_key,
    report_to_dict,
    run_chain_verification,
    verify_chain_equation,
    verify_final_matches_aw,
)
from awcalc import proof_engine, qoperators
from awcalc.proof_engine import CHAIN_EQUATIONS, _extract_proportional
from helpers import PARAM_SETS, SET_B, SET_C, cached_family

QH8 = cached_family("1/2", "0,0,0,0", 8)
B8 = cached_family(*SET_B, 8)


class TestDerivedFamily:
    def test_order_zero_is_the_base(self):
        d0 = derived_family(QH8, 0)
        assert d0.polys == QH8.polys
        assert d0.B == QH8.B and d0.C == QH8.C

    def test_monic_of_right_degree(self):
        for k in (1, 2, 3):
            dfam = derived_family(B8, k)
            assert dfam.M == 8 - k
            for n in range(dfam.M + 1):
                p = dfam.poly(n)
                assert p.degree == n and p.leading == 1

    def test_matches_the_definition(self):
        # P[k]_n = (gamma_n! / gamma_(n+k)!) D^k p_(n+k), applied directly
        for base in (B8, cached_family(*SET_C, 10)):
            ctx = base.ctx
            for k in (1, 2, 3):
                dfam = derived_family(base, k)
                for n in range(dfam.M + 1):
                    scale = gamma_factorial(ctx, n) / gamma_factorial(ctx, n + k)
                    expect = scale * apply_Dq_power(ctx, base.poly(n + k), k)
                    assert dfam.poly(n) == expect, (k, n)

    def test_ladder_between_consecutive_orders(self):
        ctx = B8.ctx
        for k in (1, 2, 3):
            prev = derived_family(B8, k - 1)
            dfam = derived_family(B8, k)
            for m in range(1, dfam.M + 2):
                lhs = apply_Dq(ctx, prev.poly(m))
                assert lhs == gamma(ctx, m) * dfam.poly(m - 1)

    def test_simplest_family_is_closed_under_derivation(self):
        dfam = derived_family(QH8, 1)
        for n in range(dfam.M + 1):
            assert dfam.poly(n) == QH8.poly(n)
        q = QH8.ctx.q
        for n in range(1, dfam.M):
            assert dfam.recurrence_C(n) == (1 - q**n) / 4

    def test_first_order_family_is_a_parameter_shift(self):
        # derived once == built fresh after sigma_j -> v^j sigma_j
        v = B8.ctx.v
        shifted = params_from_sigmas(*(v**j * s for j, s in enumerate(B8.params.sigmas, 1)))
        fresh = build_family(B8.ctx, shifted, 7)
        dfam = derived_family(B8, 1)
        assert dfam.polys == fresh.polys
        assert dfam.B == fresh.B and dfam.C == fresh.C

    def test_bounds(self):
        with pytest.raises(UsageError):
            derived_family(QH8, -1)


class TestChainCoeffs:
    def test_frozen_display_values(self):
        dfam = derived_family(QH8, 1)
        cc = chain_coeffs(dfam, 2)
        assert cc.Dn == PolyX((0, Fraction(9, 32)))
        assert cc.En == Fraction(3, 8)
        assert cc.Fn == Fraction(1, 7)
        assert cc.Fnext == Fraction(6, 85)
        assert cc.Etilde == Fraction(16, 357)
        assert cc.Dtilde == PolyX((0, Fraction(4, 105)))
        assert cc.fn == PolyX((Fraction(3, 4760), 0, Fraction(-3, 2380)))
        assert cc.gn == PolyX((0, Fraction(-1, 595)))

    def test_dtilde_slot_index_order(self):
        # the x-slot is alpha_n*gamma_k, not alpha_k*gamma_n; at k=1, n=2
        # the two orderings differ and only one survives elimination
        ctx = QH8.ctx
        dfam = derived_family(QH8, 1)
        cc = chain_coeffs(dfam, 2)
        denom = gamma(ctx, 3) * gamma(ctx, 4)
        assert cc.Dtilde.coeff(1) == alpha_k(ctx, 2) * gamma(ctx, 1) / denom
        assert cc.Dtilde.coeff(1) != alpha_k(ctx, 1) * gamma(ctx, 2) / denom

    def test_displays_match_elimination(self):
        for vtext, sigtext in PARAM_SETS:
            base = cached_family(vtext, sigtext, 8)
            for k in (1, 2, 3):
                dfam = derived_family(base, k)
                for n in range(2, min(dfam.M - 1, base.N - 1 - k) + 1):
                    assert chain_coeffs(dfam, n) == chain_coeffs_by_elimination(dfam, n)


class TestChainEquations:
    def test_all_nine_hold_for_every_family(self):
        for vtext, sigtext in PARAM_SETS:
            base = cached_family(vtext, sigtext, 8)
            ws = ChainWorkspace(base)
            for k in (1, 2):
                dfam = derived_family(base, k)
                chain_max = min(dfam.M - 1, base.N - 1 - k)
                for n in range(1, base.N - k + 1):
                    assert verify_chain_equation(ws, k, "eq1a", n).passed
                for n in range(2, base.N - k + 1):
                    assert verify_chain_equation(ws, k, "eq1b", n).passed
                for n in range(2, chain_max + 1):
                    for which in ("eq3", "eq4", "eq3b", "eq3a", "eq6"):
                        assert verify_chain_equation(ws, k, which, n).passed
                for n in range(3, chain_max + 2):
                    assert verify_chain_equation(ws, k, "eq7", n).passed

    def test_final_equation_and_eigenvalue(self):
        dfam = derived_family(QH8, 1)
        extraction = extract_rn_fg(dfam, range(2, 7))
        res = verify_chain_equation(ChainWorkspace(QH8), 1, "eq_final", 2,
                                    extraction=extraction)
        assert res.passed
        assert res.witness == Fraction(40, 3)

    def test_eq_final_requires_extraction(self):
        with pytest.raises(DependencyError):
            verify_chain_equation(ChainWorkspace(QH8), 1, "eq_final", 2)

    def test_unknown_equation_rejected(self):
        with pytest.raises(UsageError):
            verify_chain_equation(ChainWorkspace(QH8), 1, "eq2", 3)

    def test_vocabulary(self):
        assert CHAIN_EQUATIONS == (
            "eq1a", "eq1b", "eq3", "eq4", "eq3b", "eq3a", "eq6", "eq7", "eq_final",
        )


class TestExtraction:
    def test_frozen_extraction(self):
        dfam = derived_family(QH8, 1)
        got = extract_rn_fg(dfam, range(2, 7))
        assert got.f == PolyX((1, 0, -2))
        assert got.g == PolyX((0, Fraction(-8, 3)))
        assert got.n0 == 2
        assert got.r[2] == Fraction(3, 4760)

    def test_manufactured_pairs(self):
        f0 = PolyX((1, 0, -2))
        g0 = PolyX((0, Fraction(-8, 3)))
        pairs = {2: (f0, g0), 3: (5 * f0, 5 * g0)}
        got = _extract_proportional(pairs)
        assert (got.f, got.g) == (f0, g0)
        assert got.r == {2: Fraction(1), 3: Fraction(5)}

    def test_anchor_falls_back_to_g(self):
        g0 = PolyX.x()
        pairs = {4: (PolyX.zero(), g0), 5: (PolyX.zero(), -2 * g0)}
        got = _extract_proportional(pairs)
        assert got.f == PolyX.zero() and got.g == g0
        assert got.r == {4: Fraction(1), 5: Fraction(-2)}

    def test_failure_modes(self):
        f0 = PolyX((1, 0, -2))
        g0 = PolyX((0, Fraction(-8, 3)))
        with pytest.raises(ProportionalityFailure, match="identically zero"):
            _extract_proportional({2: (PolyX.zero(), PolyX.zero())})
        with pytest.raises(ProportionalityFailure, match="vanishes"):
            _extract_proportional({2: (f0, g0), 3: (PolyX.zero(), g0)})
        with pytest.raises(ProportionalityFailure, match="not proportional"):
            _extract_proportional({2: (f0, g0), 3: (f0, 2 * g0)})
        with pytest.raises(UsageError):
            extract_rn_fg(derived_family(QH8, 1), [])


class TestNonvanishing:
    def test_all_seven_pass(self):
        dfam = derived_family(B8, 1)
        recs = check_nonvanishing(dfam, 3)
        assert len(recs) == 7
        assert {r.name for r in recs} == {
            "nonzero_F", "nonzero_F_next", "nonzero_E_prev", "nonzero_Etilde",
            "nonzero_lambda", "nonzero_C", "nonzero_C_derived",
        }
        for r in recs:
            assert r.passed and r.k == 1 and r.n == 3
            assert Fraction(r.witness) != 0


def _images(ctx, p):
    return apply_Dq(ctx, p), apply_Sq(ctx, p)


class TestNoCommonZeros:
    def test_resultant_certificate(self):
        ctx = QH8.ctx
        for n in range(2, 7):
            res = check_no_common_zeros(*_images(ctx, QH8.poly(n)))
            assert res.passed and res.witness != 0

    def test_shared_zero_detected(self):
        # both operator images vanish at x = 5/3 (lattice point of z = 3)
        ctx = make_qcontext(Fraction(1, 2))
        p = PolyX((Fraction(481, 144), Fraction(-25, 6), 1))
        res = check_no_common_zeros(*_images(ctx, p))
        assert not res.passed and res.witness == 0

    def test_degree_one_is_vacuous(self):
        ctx = make_qcontext(Fraction(1, 2))
        res = check_no_common_zeros(*_images(ctx, PolyX((1, 2))))
        assert res.passed and res.witness == 2

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            check_no_common_zeros(*_images(QH8.ctx, PolyX.one()))


class TestFinalMatch:
    def test_simplest_family_recovers_itself(self):
        dfam = derived_family(QH8, 1)
        extraction = extract_rn_fg(dfam, range(2, 7))
        match = verify_final_matches_aw(ChainWorkspace(QH8), 1, extraction)
        assert isinstance(match, AWMatch)
        assert match.c == Fraction(1, 2)
        assert match.params.sigmas == (0, 0, 0, 0)

    def test_recovered_sigmas_shift_with_order(self):
        v = B8.ctx.v
        base_sigmas = B8.params.sigmas
        ws = ChainWorkspace(B8)
        for k in (1, 2, 3):
            dfam = derived_family(B8, k)
            hi = min(dfam.M - 1, B8.N - 1 - k)
            extraction = extract_rn_fg(dfam, range(2, hi + 1))
            match = verify_final_matches_aw(ws, k, extraction)
            expect = tuple(v ** ((k - 1) * j) * s for j, s in enumerate(base_sigmas, 1))
            assert match.params.sigmas == expect

    def test_zero_scale_has_no_match(self):
        fake = ExtractionResult(
            f=PolyX.one(), g=PolyX.zero(), r={2: Fraction(1)}, n0=2
        )
        with pytest.raises(NoRationalMatch, match="scale factor is zero"):
            verify_final_matches_aw(ChainWorkspace(QH8), 1, fake)

    def test_matching_is_about_form_not_membership(self):
        # the five coefficients of (f, g) always solve back to some (c, sigma)
        # when c != 0, and the leading-coefficient consistency holds for any
        # monic inputs; a pair lifted from the wrong family therefore still
        # matches here. What rejects it is eq_final, whose residual is the
        # whole polynomial, not just the top coefficient.
        ws = ChainWorkspace(B8)
        honest = extract_rn_fg(derived_family(B8, 1), range(2, 7))
        alien = ExtractionResult(
            f=PolyX((1, 0, -2)), g=PolyX((0, Fraction(-8, 3))),
            r=dict(honest.r), n0=honest.n0,
        )
        match = verify_final_matches_aw(ws, 1, alien)
        assert match.c == Fraction(1, 2)
        assert match.params.sigmas == (0, 0, 0, 0)
        res = verify_chain_equation(ws, 1, "eq_final", 2, extraction=alien)
        assert not res.passed

    def test_degree_overflow_rejected(self):
        fake = ExtractionResult(
            f=PolyX.monomial(3, Fraction(1)), g=PolyX.zero(), r={2: Fraction(1)}, n0=2
        )
        with pytest.raises(NoRationalMatch, match="quadratic/linear"):
            verify_final_matches_aw(ChainWorkspace(QH8), 1, fake)


class TestRunChainVerification:
    def test_full_report_passes(self):
        report = run_chain_verification(B8, [1], 5)
        assert report.all_passed
        assert report.context["v"] == "1/2"
        assert report.context["N"] == 8
        assert report.context["k"] == [1]
        assert report.context["n_max"] == 5
        names = {c.name for c in report.checks}
        assert {"eq1a", "eq1b", "eq3", "eq4", "eq3b", "eq3a", "eq6", "eq7",
                "eq_final", "proportionality", "lambda_formula", "aw_form_match",
                "nonzero_F", "no_common_zeros"} <= names
        assert list(report.checks) == sorted(report.checks, key=record_sort_key)

    def test_report_dict_shape(self):
        report = run_chain_verification(QH8, [1], 3)
        blob = report_to_dict(report)
        assert set(blob) == {"context", "checks"}
        assert all(
            set(c) == {"name", "k", "n", "passed", "witness"} for c in blob["checks"]
        )

    def test_argument_validation(self):
        with pytest.raises(UsageError):
            run_chain_verification(QH8, [1], -1)
        with pytest.raises(UsageError):
            run_chain_verification(QH8, [], 4)
        with pytest.raises(UsageError):
            run_chain_verification(QH8, [0], 4)
        with pytest.raises(UsageError):
            run_chain_verification(QH8, [9], 4)
        with pytest.raises(UsageError):
            run_chain_verification(QH8, [1.5], 4)

    def test_duplicate_orders_collapse(self):
        once = run_chain_verification(QH8, [2], 4)
        twice = run_chain_verification(QH8, [2, 2], 4)
        assert once.checks == twice.checks


def _operator_inputs_of_a_run(monkeypatch):
    # both modules' apply_Dq and apply_Sq patched, caches cleared: every
    # operator input of run_chain_verification(B8, [1, 2, 3], 5), in order
    inputs = {"apply_Dq": [], "apply_Sq": []}
    for name, seen in inputs.items():
        def recording(ctx, p, _apply=getattr(qoperators, name), _seen=seen):
            _seen.append(p)
            return _apply(ctx, p)
        monkeypatch.setattr(qoperators, name, recording)
        monkeypatch.setattr(proof_engine, name, recording)
    proof_engine.derived_family.cache_clear()
    proof_engine.chain_coeffs.cache_clear()
    assert run_chain_verification(B8, [1, 2, 3], 5).all_passed
    return inputs


def test_each_operator_image_is_computed_once(monkeypatch):
    # no polynomial object reaches either operator twice in a whole run;
    # compared by identity, since distinct ladder members can be equal
    # polynomials (P[j]_0 = 1 at every order j)
    for name, seen in _operator_inputs_of_a_run(monkeypatch).items():
        assert len({id(p) for p in seen}) == len(seen), name


def test_operator_applications_of_a_run(monkeypatch):
    # one D per derived polynomial: P[1]..P[4] of B8 take 8 + 7 + 6 + 5, and
    # every other D image, no_common_zeros' included, is a ladder read;
    # one S per ladder member read, P[j]_1..P[j]_5 for j = 0..3
    inputs = _operator_inputs_of_a_run(monkeypatch)
    assert {name: len(seen) for name, seen in inputs.items()} == {
        "apply_Dq": 26, "apply_Sq": 20,
    }


def test_check_record_is_plain_data():
    rec = CheckRecord(name="eq3", k=1, n=4, passed=True, witness="0")
    assert rec.to_dict() == {"name": "eq3", "k": 1, "n": 4, "passed": True, "witness": "0"}
