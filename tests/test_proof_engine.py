"""Derived families, chain coefficient displays, and the verification chain."""

import gc
import json
import math
import weakref
from dataclasses import asdict, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awcalc import (
    ChainWorkspace,
    PolyX,
    apply_Dq,
    apply_Sq,
    build_family,
    chain_coeffs,
    derived_family,
    extract_rn_fg,
    gamma,
    make_qcontext,
    params_from_sigmas,
    run_chain_verification,
    verify_final_matches_aw,
)
from awcalc import proof_engine
from awcalc.askey_wilson import family_from_dict, family_to_dict
from awcalc.errors import (
    DegenerateParams,
    DomainError,
    NoRationalMatch,
    OrthogonalityBroken,
    ProportionalityFailure,
    UsageError,
)
from awcalc.proof_engine import (
    CERTIFICATE_PRIMES,
    CHAIN_EQUATIONS,
    AWMatch,
    CheckRecord,
    ExtractionResult,
    ProofReport,
    _extract_proportional,
    check_no_common_zeros,
    check_nonvanishing,
    verify_chain_equation,
)
from awcalc.qoperators import OperatorCheckResult
from awcalc.qpoly import resultant, resultant_mod
from awcalc.scalars import alpha_k
from helpers import (
    PARAM_SETS,
    SET_B,
    SET_C,
    cached_family,
    chain_coeffs_by_elimination,
    dq_power,
    gamma_factorial,
    is_mersenne_prime,
    qsqrts,
    record_operator_inputs,
    sigma_vectors,
    sylvester_resultant,
)

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
                    expect = scale * dq_power(ctx, base.poly(n + k), k)
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

    def test_a_non_monic_base_member_breaks_the_first_ladder(self):
        # D(2 p_3) / gamma_3 is twice a monic P[1]_2, which the recurrence
        # read off order 1 cannot generate
        polys = list(B8.polys)
        polys[3] = 2 * polys[3]
        bad = replace(B8, polys=tuple(polys))
        with pytest.raises(OrthogonalityBroken, match=r"^derived family k=1: "):
            run_chain_verification(bad, [1], 5)


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
        with pytest.raises(UsageError, match="extracted coefficient pair"):
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
        assert min(got.r) == 2
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


def _integer_pair(dp, sp):
    """dp and sp, each times the lcm of its own denominators."""
    return tuple(p * math.lcm(*(c.denominator for c in p.coeffs))
                 for p in (dp, sp))


def _modular_witness(witness):
    prime, residue = (part.split("=")[1] for part in witness.split(";"))
    return int(prime), int(residue)


class TestNoCommonZeros:
    def test_resultant_certificate(self):
        ctx = QH8.ctx
        for n in range(2, 7):
            res = check_no_common_zeros(*_images(ctx, QH8.poly(n)))
            assert res.passed and res.witness.startswith("mod=")

    def test_listed_primes_are_mersenne_primes(self):
        assert CERTIFICATE_PRIMES == tuple(2**e - 1 for e in (61, 89, 107, 127))
        assert all(is_mersenne_prime(p) for p in CERTIFICATE_PRIMES)

    def test_witness_is_the_sylvester_determinant_mod_the_prime(self):
        # on chain images: the resultant of the integer-scaled pair as a
        # determinant, reduced mod the first prime that divides neither
        # leading coefficient
        base = cached_family(*SET_C, 14)
        ws = ChainWorkspace(base)
        for k in (1, 2, 3):
            for n in range(2, 11):
                dp, sp = ws.D(k, n), ws.S(k, n)
                witness = check_no_common_zeros(dp, sp).witness
                di, si = _integer_pair(dp, sp)
                prime = next(p for p in CERTIFICATE_PRIMES
                             if di.leading % p and si.leading % p)
                exact = sylvester_resultant(di, si)
                assert exact.denominator == 1
                assert _modular_witness(witness) == (prime, exact.numerator % prime)

    def test_shared_zero_detected(self):
        # both operator images vanish at x = 5/3 (lattice point of z = 3)
        ctx = make_qcontext(Fraction(1, 2))
        p = PolyX((Fraction(481, 144), Fraction(-25, 6), 1))
        res = check_no_common_zeros(*_images(ctx, p))
        assert not res.passed and res.witness == 0

    def test_shared_factor_fails_mod_every_prime_and_exactly(self):
        # a common factor x - 2/3 makes every residue 0, so the check falls
        # back to the exact resultant, which is 0 under both oracles
        common = PolyX((Fraction(-2, 3), 1))
        dp = common * PolyX((Fraction(1, 5), 3))
        sp = common * PolyX((7, Fraction(-1, 2), 2))
        di, si = _integer_pair(dp, sp)
        assert all(resultant_mod(di, si, p) == 0 for p in CERTIFICATE_PRIMES)
        assert sylvester_resultant(dp, sp) == 0
        res = check_no_common_zeros(dp, sp)
        assert not res.passed and res.witness == 0
        assert CheckRecord.of(res, 1, 3).witness == "0"

    def test_a_zero_residue_moves_to_the_next_prime(self, monkeypatch):
        # Res(x - 6, x - 1) = 5: zero mod 5, so the next prime certifies
        dp, sp = PolyX((-1, 1)), PolyX((-6, 1))
        assert resultant(dp, sp) == 5
        monkeypatch.setattr(proof_engine, "CERTIFICATE_PRIMES",
                            (5, CERTIFICATE_PRIMES[0]))
        res = check_no_common_zeros(dp, sp)
        assert res.passed
        assert res.witness == f"mod={CERTIFICATE_PRIMES[0]};res=5"

    def test_a_prime_dividing_a_leading_coefficient_is_skipped(self, monkeypatch):
        # 5 divides lc(5x - 1); Res(x - 6, 5x - 1) = 29 = 1 mod 7
        monkeypatch.setattr(proof_engine, "CERTIFICATE_PRIMES", (5, 7))
        res = check_no_common_zeros(PolyX((-1, 5)), PolyX((-6, 1)))
        assert res.passed and res.witness == "mod=7;res=1"

    def test_no_certifying_prime_falls_back_to_the_exact_resultant(
            self, monkeypatch):
        monkeypatch.setattr(proof_engine, "CERTIFICATE_PRIMES", (5,))
        res = check_no_common_zeros(PolyX((-1, 1)), PolyX((-6, 1)))
        assert res.passed and res.witness == 5
        assert CheckRecord.of(res, 1, 1).witness == "5"

    def test_degree_one_is_vacuous(self):
        ctx = make_qcontext(Fraction(1, 2))
        res = check_no_common_zeros(*_images(ctx, PolyX((1, 2))))
        assert res.passed and res.witness == 2

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            check_no_common_zeros(*_images(QH8.ctx, PolyX.constant(1)))


def _eq_final_mu(ws, k, extraction):
    """The eigenvalue eq_final reads off at each extracted degree."""
    return {n: verify_chain_equation(ws, k, "eq_final", n,
                                     extraction=extraction).witness
            for n in extraction.r}


class TestFinalMatch:
    def test_simplest_family_recovers_itself(self):
        dfam = derived_family(QH8, 1)
        extraction = extract_rn_fg(dfam, range(2, 7))
        mu = _eq_final_mu(ChainWorkspace(QH8), 1, extraction)
        match = verify_final_matches_aw(QH8.ctx, extraction, mu)
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
            mu = _eq_final_mu(ws, k, extraction)
            match = verify_final_matches_aw(B8.ctx, extraction, mu)
            expect = tuple(v ** ((k - 1) * j) * s for j, s in enumerate(base_sigmas, 1))
            assert match.params.sigmas == expect

    def test_aw_shift_records_the_shift(self):
        # the record form of the assertion above, in a run
        recs = {(c.name, c.k): c for c in run_chain_verification(B8, [1, 2, 3], 5).checks}
        for k in (1, 2, 3):
            assert recs[("aw_shift", k)] == CheckRecord(
                name="aw_shift", k=k, n=None, passed=True, witness="0")

    def test_relabelled_params_fail_aw_shift_alone(self):
        # the polynomials are B8's, so every chain record still passes and
        # aw_form_match recovers B8's own shifted sigmas; only aw_shift sees
        # that they are not the claimed parameters shifted
        relabelled = replace(B8, params=params_from_sigmas(
            *reversed(B8.params.sigmas)))
        failed = [c for c in run_chain_verification(relabelled, [1, 2, 3], 5).checks
                  if not c.passed]
        assert failed == [CheckRecord(name="aw_shift", k=k, n=None, passed=False,
                                      witness="1") for k in (1, 2, 3)]

    def test_last_sigma_is_compared_too(self):
        v = B8.ctx.v
        s1, s2, s3, s4 = B8.params.sigmas
        # sigma4 of B8 is 0, so a nonzero one is the first difference
        claimed = replace(B8, params=params_from_sigmas(s1, s2, s3, v))
        recs = {(c.name, c.k): c for c in run_chain_verification(claimed, [2], 5).checks}
        assert recs[("aw_shift", 2)].witness == "4"
        assert not recs[("aw_shift", 2)].passed

    def test_aw_shift_is_unavailable_without_a_match(self, monkeypatch):
        def no_match(*args):
            raise NoRationalMatch("round trip through the coefficient form mismatched")

        monkeypatch.setattr(proof_engine, "verify_final_matches_aw", no_match)
        recs = {(c.name, c.k): c for c in run_chain_verification(B8, [1], 5).checks}
        assert not recs[("aw_form_match", 1)].passed
        assert recs[("aw_shift", 1)] == CheckRecord(
            name="aw_shift", k=1, n=None, passed=False,
            witness="unavailable: aw_form_match failed")

    def test_aw_shift_is_unavailable_without_proportionality(self):
        bad = replace(B8, C=B8.C[:1] + (B8.C[1] + 1,) + B8.C[2:])
        recs = {(c.name, c.k): c for c in run_chain_verification(bad, [1], 5).checks}
        assert recs[("aw_shift", 1)] == CheckRecord(
            name="aw_shift", k=1, n=None, passed=False,
            witness="unavailable: proportionality failed")

    def test_zero_scale_has_no_match(self):
        fake = ExtractionResult(
            f=PolyX.constant(1), g=PolyX.zero(), r={2: Fraction(1)}
        )
        with pytest.raises(NoRationalMatch, match="scale factor is zero"):
            verify_final_matches_aw(QH8.ctx, fake, {2: Fraction(0)})

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
            r=dict(honest.r),
        )
        match = verify_final_matches_aw(B8.ctx, alien, _eq_final_mu(ws, 1, alien))
        assert match.c == Fraction(1, 2)
        assert match.params.sigmas == (0, 0, 0, 0)
        res = verify_chain_equation(ws, 1, "eq_final", 2, extraction=alien)
        assert not res.passed

    def test_degree_overflow_rejected(self):
        fake = ExtractionResult(
            f=PolyX.monomial(3, Fraction(1)), g=PolyX.zero(), r={2: Fraction(1)}
        )
        with pytest.raises(NoRationalMatch, match="quadratic/linear"):
            verify_final_matches_aw(QH8.ctx, fake, {2: Fraction(0)})

    def test_wrong_eigenvalue_is_named_by_degree(self):
        honest = extract_rn_fg(derived_family(B8, 1), range(2, 7))
        mu = _eq_final_mu(ChainWorkspace(B8), 1, honest)
        assert verify_final_matches_aw(B8.ctx, honest, mu).c != 0
        mu[4] += 1
        with pytest.raises(NoRationalMatch, match=r"^eigenvalue mismatch at degree 4$"):
            verify_final_matches_aw(B8.ctx, honest, mu)


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

    def test_report_dict_shape(self):
        report = run_chain_verification(QH8, [1], 3)
        blob = asdict(report)
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

    def test_bool_order_rejected(self):
        # True == 1, so without its own check it would run k = 1 and
        # report "k": true on every record
        with pytest.raises(UsageError, match=r"got True$"):
            run_chain_verification(B8, [True], 3)
        with pytest.raises(UsageError, match=r"got True$"):
            run_chain_verification(B8, [1, True], 3)

    def test_a_larger_base_is_cut_to_the_window(self, monkeypatch):
        # derived_family sees the base cut to n_max + max(k) + 2, built from
        # the same polynomial objects and image table, so the recheck
        # images still apply
        base = cached_family(*SET_B, 14)
        bases = []

        def recording(fam, k, _real=derived_family):
            bases.append(fam)
            return _real(fam, k)

        monkeypatch.setattr(proof_engine, "derived_family", recording)
        report = run_chain_verification(base, [1, 3], 4)
        assert report.context["N"] == 14
        assert bases and {fam.N for fam in bases} == {9}
        for fam in bases:
            assert all(p is q for p, q in zip(fam.polys, base.polys[:10], strict=True))
            assert fam.images is base.images

    def test_duplicate_orders_collapse(self):
        once = run_chain_verification(QH8, [2], 4)
        twice = run_chain_verification(QH8, [2, 2], 4)
        assert once.checks == twice.checks


# a family file larger than the window gives the records of a fresh run; the
# context alone reports the file's N. A point takes up to about 0.5 s.
@given(qsqrts, sigma_vectors, st.integers(2, 3),
       st.sets(st.integers(1, 3), min_size=1), st.integers(0, 6))
@settings(max_examples=12, derandomize=True, deadline=None)
def test_family_file_past_the_window_gives_the_fresh_records(
        v, sigmas, n_max, ks, extra):
    window = n_max + max(ks) + 2
    try:
        fresh = build_family(make_qcontext(v), params_from_sigmas(*sigmas), window)
        big = build_family(fresh.ctx, fresh.params, window + extra)
    except DegenerateParams:
        return
    loaded = family_from_dict(json.loads(json.dumps(family_to_dict(big))))
    got = run_chain_verification(loaded, ks, n_max)
    want = run_chain_verification(fresh, ks, n_max)
    assert got.checks == want.checks
    assert got.context == {**want.context, "N": window + extra}


# the paper's claim at random parameter points: every derived family up to
# k = 3 passes the whole chain, unless the base cannot be built at all. A
# point takes about 0.1 s, past Hypothesis' default deadline.
@given(qsqrts, sigma_vectors)
@settings(max_examples=20, derandomize=True, deadline=None)
def test_chain_passes_at_random_parameters(v, sigmas):
    try:
        base = build_family(make_qcontext(v), params_from_sigmas(*sigmas), 8)
    except DegenerateParams:
        return
    report = run_chain_verification(base, [1, 2, 3], 6)
    assert [c for c in report.checks if not c.passed] == []


class TestIdentityKeys:
    # families hash and compare by identity, so a cache lookup never walks
    # their coefficients

    def test_cached_lookups_hash_no_fraction(self, monkeypatch):
        dfam = derived_family(B8, 1)
        chain_coeffs(dfam, 3)
        calls = []

        def counting(self, _hash=Fraction.__hash__):
            calls.append(1)
            return _hash(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        hash(B8)
        hash(derived_family(B8, 1))
        chain_coeffs(derived_family(B8, 1), 3)
        assert len(calls) == 0

    def test_equal_builds_are_distinct_keys_with_equal_reports(self):
        ctx = make_qcontext(Fraction(1, 2))
        params = params_from_sigmas(Fraction(11, 30), Fraction(-2, 15),
                                    Fraction(-1, 30), 0)
        first = build_family(ctx, params, 7)
        second = build_family(ctx, params, 7)
        assert first != second and first.polys == second.polys
        assert derived_family(first, 1) is not derived_family(second, 1)
        assert asdict(run_chain_verification(first, [1, 2], 4)) \
            == asdict(run_chain_verification(second, [1, 2], 4))

    def test_build_and_chain_hash_no_fraction(self, monkeypatch):
        # q-numbers are kept on their context, keyed by index, so neither
        # building a family nor verifying its chain hashes a coefficient
        calls = []

        def counting(self, _hash=Fraction.__hash__):
            calls.append(1)
            return _hash(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        ctx = make_qcontext(Fraction(1, 3))
        base = build_family(ctx, params_from_sigmas(Fraction(-3, 2), 2,
                                                    Fraction(1, 4), -1), 8)
        assert run_chain_verification(base, [1, 2, 3], 5).all_passed
        assert len(calls) == 0

    def test_a_dropped_context_is_freed(self):
        # no module-level cache keeps a context, or its q-numbers, alive
        ctx = make_qcontext(Fraction(2, 7))
        build_family(ctx, params_from_sigmas(Fraction(1, 3), 0, 0, 0), 6)
        ref = weakref.ref(ctx)
        del ctx
        gc.collect()
        assert ref() is None


def fresh_b8():
    # a build of its own: B8's table is warm from every test that ran on it
    return cached_family.__wrapped__(*SET_B, 8)


def _operator_inputs_of_a_run(monkeypatch):
    # every operator input of run_chain_verification(B8, [1, 2, 3], 5), in
    # order, on a fresh build of B8, recorded from after the build
    base = fresh_b8()
    inputs = record_operator_inputs(monkeypatch)
    assert run_chain_verification(base, [1, 2, 3], 5).all_passed
    return inputs


def test_each_operator_image_is_computed_once(monkeypatch):
    # no polynomial object reaches either operator twice in a whole run;
    # compared by identity, since distinct ladder members can be equal
    # polynomials (P[j]_0 = 1 at every order j)
    for name, seen in _operator_inputs_of_a_run(monkeypatch).items():
        assert seen, name
        assert len({id(p) for p in seen}) == len(seen), name


def test_operator_applications_of_a_run(monkeypatch):
    # one D per derived polynomial above order 2: P[3] and P[4] of B8 take
    # 6 + 5, since P[1] and P[2] are read from the build recheck, and every
    # other D image, no_common_zeros' included, is a ladder read; one S per
    # ladder member read, P[j]_1..P[j]_5 for j = 0, 2, 3, since the recheck
    # holds the S images of P[1] too
    inputs = _operator_inputs_of_a_run(monkeypatch)
    assert {name: len(seen) for name, seen in inputs.items()} == {
        "apply_Dq": 11, "apply_Sq": 15,
    }


def test_a_second_run_applies_no_operator(monkeypatch):
    # the base's table keeps every image the first run made
    base = fresh_b8()
    first = run_chain_verification(base, [1, 2, 3], 5)
    inputs = record_operator_inputs(monkeypatch)
    assert run_chain_verification(base, [1, 2, 3], 5).checks == first.checks
    assert inputs == {"apply_Dq": [], "apply_Sq": []}


def test_every_table_entry_is_its_operator_applied_to_its_key():
    # after a chain run the base's table holds the recheck's images and the
    # chain's; each one must be S or D/gamma applied to the polynomial it
    # is stored under, however it was reached, and step applies D itself,
    # so no D image is stored
    for vtext, sigtext in PARAM_SETS:
        base = cached_family.__wrapped__(vtext, sigtext, 8)
        assert run_chain_verification(base, [1, 2, 3], 5).all_passed
        ctx, images = base.ctx, base.images
        assert not images._d and images._s
        for key, (p, image) in images._s.items():
            assert key == id(p) and image == apply_Sq(ctx, p)
        assert len(images._step) > len(base.polys)
        for key, (p, image) in images._step.items():
            dp = apply_Dq(ctx, p)
            assert key == id(p)
            assert image == (dp / gamma(ctx, p.degree) if p.degree >= 1 else dp)


def test_a_replaced_polynomial_does_not_reuse_the_recheck(monkeypatch):
    # the recheck images belong to the polynomial objects they came from; a
    # family that holds an equal copy of p_5 derives from the copy, through
    # D and S, and gives the same records
    base = fresh_b8()
    polys = list(base.polys)
    polys[5] = PolyX(polys[5].coeffs)
    copied = replace(base, polys=tuple(polys))
    inputs = record_operator_inputs(monkeypatch)
    report = run_chain_verification(copied, [1, 2], 5)
    # D p_5 for P[1]_4, D P[1]_4 for P[2]_3, S P[1]_4 for the chain
    assert any(p is polys[5] for p in inputs["apply_Dq"])
    assert len(inputs["apply_Dq"]) == 2 + 6
    assert any(p is derived_family(copied, 1).poly(4) for p in inputs["apply_Sq"])
    assert report.checks == run_chain_verification(base, [1, 2], 5).checks


def test_a_cut_family_reports_the_size_of_its_polys():
    # N is read off polys, so a family cut with replace is the N = 5 family
    # in every form: its dict, the family loaded from it and its derivation
    cut = replace(B8, polys=B8.polys[:6], B=B8.B[:5], C=B8.C[:4])
    assert cut.N == 5
    assert family_to_dict(cut) == family_to_dict(build_family(B8.ctx, B8.params, 5))
    assert family_from_dict(family_to_dict(cut)).N == 5
    assert derived_family(cut, 1).M == 4


def test_a_family_cut_in_its_polys_alone_is_refused():
    # B and C must fit the polys they come with, or a cut family would read
    # recurrence data for degrees it does not hold
    with pytest.raises(UsageError, match=r"^8 B and 7 C values do not fit "
                                         r"p_0\.\.p_5; need 5 and 4$"):
        replace(B8, polys=B8.polys[:6])


def test_check_record_is_plain_data():
    rec = CheckRecord(name="eq3", k=1, n=4, passed=True, witness="0")
    assert asdict(rec) == {"name": "eq3", "k": 1, "n": 4, "passed": True, "witness": "0"}


class TestCheckRecordOf:
    def test_passing_residual(self):
        res = verify_chain_equation(ChainWorkspace(QH8), 1, "eq3", 3)
        assert CheckRecord.of(res, 1, 3) == CheckRecord(
            name="eq3", k=1, n=3, passed=True, witness="0")

    def test_failing_residual(self):
        res = OperatorCheckResult(name="product_D", passed=False,
                                  residual=PolyX((1, Fraction(-3, 4))))
        assert CheckRecord.of(res, None, 0) == CheckRecord(
            name="product_D", k=None, n=0, passed=False,
            witness="deg=1;lead=-3/4")

    def test_eq_final_follows_the_residual_rule(self):
        # the eigenvalue eq_final reads off (40/3 here) goes to
        # lambda_formula, never into the eq_final record
        honest = extract_rn_fg(derived_family(QH8, 1), range(2, 7))
        res = verify_chain_equation(ChainWorkspace(QH8), 1, "eq_final", 2,
                                    extraction=honest)
        assert res.witness == Fraction(40, 3)
        assert CheckRecord.of(res, 1, 2).witness == "0"
        alien = ExtractionResult(
            f=PolyX((1, 0, -2)), g=PolyX((0, Fraction(-8, 3))), r={})
        res = verify_chain_equation(ChainWorkspace(B8), 1, "eq_final", 2,
                                    extraction=alien)
        assert res.witness == Fraction(40, 3)
        assert CheckRecord.of(res, 1, 2) == CheckRecord(
            name="eq_final", k=1, n=2, passed=False, witness="deg=1;lead=-5/2")

    def test_value_check_gives_its_rational(self):
        ctx = make_qcontext(Fraction(1, 2))
        constant = check_no_common_zeros(*_images(ctx, PolyX((1, 2))))
        assert CheckRecord.of(constant, 1, 1).witness == "2"
        # the exact resultant is -6251175/65536; the witness is that of
        # the integer-scaled pair, mod 2^61 - 1
        certified = check_no_common_zeros(*_images(QH8.ctx, QH8.poly(3)))
        assert CheckRecord.of(certified, 1, 3) == CheckRecord(
            name="no_common_zeros", k=1, n=3, passed=True,
            witness="mod=2305843009213693951;res=2305841370505674751")


def _rec(name, k, n, witness="0"):
    return CheckRecord(name=name, k=k, n=n, passed=True, witness=witness)


class TestReportOrder:
    def test_reversed_records_come_back_in_report_order(self):
        checks = run_chain_verification(B8, [1, 2], 5).checks
        # name, then k, then n, None before every number
        keys = [(c.name, c.k is not None, c.k or 0, c.n is not None, c.n or 0)
                for c in checks]
        assert keys == sorted(keys)
        report = ProofReport(context={}, checks=tuple(reversed(checks)))
        assert report.checks == checks

    def test_none_first_and_ties_keep_their_order(self):
        given = (_rec("b", 1, 2), _rec("a", 2, 0), _rec("a", None, 5),
                 _rec("a", 2, None), _rec("a", 2, 0, "second"))
        assert ProofReport(context={}, checks=given).checks == (
            _rec("a", None, 5), _rec("a", 2, None), _rec("a", 2, 0),
            _rec("a", 2, 0, "second"), _rec("b", 1, 2))
