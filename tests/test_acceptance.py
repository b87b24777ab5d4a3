"""Acceptance gate: one test per shipping criterion, exact arithmetic only.

Each test prints a single ACCEPTANCE <label>: PASS/FAIL line so the
results can be grepped out of a full run. Runtime budgets are asserted
with a wall clock; everything else is equality of rationals.
"""

import json
import random
import time
from fractions import Fraction

from awcalc import (
    IDENTITIES,
    PolyX,
    apply_Dq,
    apply_Sq,
    chain_coeffs,
    chain_coeffs_by_elimination,
    derived_family,
    equation_coeffs,
    make_qcontext,
    random_poly,
    resultant,
    run_chain_verification,
    verify_identity,
    verify_k_fold_rule,
)
from awcalc.cli import main
from helpers import PARAM_SETS, cached_family


def _report(label, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_operator_identities():
    def body():
        start = time.monotonic()
        for seed, vtext in enumerate(("1/2", "1/3", "3/5")):
            ctx = make_qcontext(Fraction(*map(int, vtext.split("/"))))
            rng = random.Random(seed)
            for _ in range(20):
                f = random_poly(rng, 10)
                g = random_poly(rng, 10)
                for which in IDENTITIES:
                    assert verify_identity(ctx, which, f, g=g).passed
                for k in range(1, 6):
                    assert verify_k_fold_rule(ctx, f, k).passed
        assert time.monotonic() - start < 10

    _report("operator-identities", body)


def test_criterion_family_construction():
    def body():
        start = time.monotonic()
        for vtext, sigtext in PARAM_SETS:
            fam = cached_family(vtext, sigtext, 12)
            ctx, q = fam.ctx, fam.ctx.q
            f, g = equation_coeffs(ctx, fam.params)
            sigma4 = fam.params.sigmas[3]
            for n in range(13):
                p = fam.poly(n)
                assert p.degree == n and p.leading == 1
                # diagonal action must hit the displayed eigenvalue exactly
                lam = (
                    4 * q * (1 - q**-n) * (1 - sigma4 * q ** (n - 1)) / (1 - q) ** 2
                    if n else Fraction(0)
                )
                dp = apply_Dq(ctx, p)
                assert f * apply_Dq(ctx, dp) + g * apply_Sq(ctx, dp) == lam * p
            x = PolyX.x()
            for n in range(12):
                rhs = fam.poly(n + 1) + fam.recurrence_B(n) * fam.poly(n)
                if n >= 1:
                    cn = fam.recurrence_C(n)
                    assert cn != 0
                    rhs = rhs + cn * fam.poly(n - 1)
                assert x * fam.poly(n) == rhs
        assert time.monotonic() - start < 30

    _report("family-construction", body)


def test_criterion_qhermite_closure():
    def body():
        start = time.monotonic()
        fam = cached_family("1/2", "0,0,0,0", 11)
        dfam = derived_family(fam, 1)
        q = fam.ctx.q
        for n in range(11):
            assert dfam.poly(n) == fam.poly(n)
        for n in range(1, 11):
            assert fam.recurrence_C(n) == (1 - q**n) / 4
        assert time.monotonic() - start < 5

    _report("qhermite-closure", body)


def test_criterion_proof_chain():
    def body():
        start = time.monotonic()
        must_appear = {
            "eq1a", "eq1b", "eq3", "eq4", "eq3b", "eq3a", "eq6", "eq7",
            "eq_final", "nonzero_F", "nonzero_F_next", "nonzero_E_prev",
            "nonzero_Etilde", "nonzero_lambda", "proportionality",
            "lambda_formula",
        }
        for vtext, sigtext in PARAM_SETS:
            for k in (1, 2, 3):
                base = cached_family(vtext, sigtext, 8 + k + 2)
                report = run_chain_verification(base, [k], 8)
                assert report.all_passed
                assert must_appear <= {c.name for c in report.checks}
        assert time.monotonic() - start < 120

    _report("proof-chain", body)


def test_criterion_elimination_oracle():
    def body():
        for vtext, sigtext in PARAM_SETS:
            for k in (1, 2, 3):
                base = cached_family(vtext, sigtext, 8 + k + 2)
                dfam = derived_family(base, k)
                for n in range(2, 9):
                    direct = chain_coeffs(dfam, n)
                    eliminated = chain_coeffs_by_elimination(dfam, n)
                    assert direct == eliminated

    _report("elimination-oracle", body)


def test_criterion_no_common_zeros():
    def body():
        for vtext, sigtext in PARAM_SETS:
            for k in (1, 2, 3):
                base = cached_family(vtext, sigtext, 8 + k + 2)
                dfam = derived_family(base, k)
                ctx = base.ctx
                for n in range(1, 9):
                    p = dfam.poly(n)
                    assert resultant(apply_Dq(ctx, p), apply_Sq(ctx, p)) != 0

    _report("no-common-zeros", body)


def test_criterion_cli_contract(tmp_path, capsys):
    def body():
        argv = ["verify-chain", "--qsqrt", "1/2",
                "--sigmas", "11/30,-2/15,-1/30,0", "--nmax", "3", "--k", "1"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

        # injected failure fixture: a family whose stored recurrence lies
        fam_path = tmp_path / "fam.json"
        assert main(["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0,0",
                     "--nmax", "6", "--out", str(fam_path)]) == 0
        blob = json.loads(fam_path.read_text())
        blob["C"][1] = "9/7"
        fam_path.write_text(json.dumps(blob))
        assert main(["verify-chain", "--family", str(fam_path),
                     "--nmax", "3", "--out", str(tmp_path / "bad.json")]) == 1

        assert main(["verify-chain", "--qsqrt", "0", "--sigmas", "0,0,0,0"]) == 2
        assert main(["verify-chain", "--no-such-flag"]) == 2
        capsys.readouterr()  # swallow the CLI chatter; the lines below are ours

    _report("cli-contract", body)
